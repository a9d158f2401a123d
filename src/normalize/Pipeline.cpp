//===- normalize/Pipeline.cpp ---------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "normalize/Pipeline.h"

using namespace daisy;

Program daisy::normalize(const Program &Prog,
                         const NormalizationOptions &Options,
                         NormalizationStats *Stats) {
  Program Result = Prog.clone();
  NormalizationStats Local;
  Local.Contraction = contractTransients(Result);
  if (Options.EnableFission)
    Local.Fission = maximalLoopFission(Result);
  if (Options.EnableStrideMinimization)
    Local.StrideMin = minimizeStrides(Result, Options.StrideMin);
  if (Stats)
    *Stats = Local;
  return Result;
}
