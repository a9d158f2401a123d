//===- normalize/Pipeline.h - The normalization pipeline ---------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The a priori loop nest normalization pipeline (paper Fig. 5): transient
/// contraction, then maximal loop fission to a fixed point, then stride
/// minimization on every resulting atomic nest.
///
/// Contraction (transform/Distribute.h contractTransients) comes first
/// because materialized temporaries permit fission that the scalar form
/// does not: a frontend that stores an intermediate scalar in a full
/// block x level x column transient frees fission to split the level loop
/// around it, while the scalar keeps its producer and consumers in one
/// loop. Contracting such arrays first lets fission treat them exactly as
/// it treats the scalars it expands itself, so both forms normalize alike.
/// It is not an option: it only rewrites transients where that is exact.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_NORMALIZE_PIPELINE_H
#define DAISY_NORMALIZE_PIPELINE_H

#include "normalize/Fission.h"
#include "normalize/StrideMin.h"
#include "transform/Distribute.h"

namespace daisy {

/// Configuration of the pipeline (both criteria enabled by default; the
/// ablation bench toggles them).
struct NormalizationOptions {
  bool EnableFission = true;
  bool EnableStrideMinimization = true;
  StrideMinOptions StrideMin;
};

/// Summary of one pipeline run.
struct NormalizationStats {
  ContractionStats Contraction;
  FissionStats Fission;
  StrideMinStats StrideMin;
};

/// Runs the pipeline on a copy of \p Prog and returns the normalized
/// program. \p Stats (optional) receives the pass statistics.
Program normalize(const Program &Prog,
                  const NormalizationOptions &Options = {},
                  NormalizationStats *Stats = nullptr);

} // namespace daisy

#endif // DAISY_NORMALIZE_PIPELINE_H
