//===- cloudsc/Cloudsc.h - CLOUDSC proxy model -------------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A proxy of the CLOUDSC cloud-microphysics scheme (paper §5): the
/// NBLOCKS x KLEV x NPROMA vertical-loop structure of the IFS
/// parametrization, with an erosion-of-clouds kernel matching Fig. 10a
/// (intermediate scalars, FOEEWM/FOELDCPM-style saturation formulas
/// inlined once per use site) plus representative sibling physics
/// kernels.
///
/// Four source variants mirror the paper's comparison: the tuned Fortran
/// structure, the C port (extra explicit buffering), the DaCe SDFG
/// (fully fissioned statements with materialized temporaries), and the
/// daisy pipeline applied to the Fortran structure (fission + nest-level
/// CSE + bounded producer-consumer fusion + vectorization +
/// block parallelism), exactly the §5.1 recipe.
///
/// Substitution note (DESIGN.md): the real CLOUDSC is ~3500 lines of
/// proprietary-scale Fortran; this proxy reproduces the loop structure,
/// data layout (NPROMA-contiguous), intermediate-scalar pattern, and
/// per-level physics-kernel granularity that the paper's optimization
/// acts on.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_CLOUDSC_CLOUDSC_H
#define DAISY_CLOUDSC_CLOUDSC_H

#include "ir/Program.h"

namespace daisy {

/// Proxy problem configuration (paper: NPROMA=128, KLEV vertical levels,
/// NBLOCKS=512; num_columns = NBLOCKS * NPROMA).
struct CloudscConfig {
  int Nproma = 128;
  int Klev = 137;
  int Nblocks = 4; ///< Blocks are independent and identical; benches
                   ///< simulate a few and scale linearly (DESIGN.md).
};

/// Source variants of the scheme.
enum class CloudscVariant {
  Fortran, ///< Tuned original: one fused loop body per physical equation.
  C,       ///< The C port: same structure plus explicit buffer copies.
  DaCe     ///< DaCe SDFG: one column loop per statement, every
           ///< intermediate scalar a full NBLOCKS x KLEV x NPROMA
           ///< transient (`*_g`). normalize contracts these to one NPROMA
           ///< column each (transform/Distribute.h contractTransients),
           ///< so DaCe normalizes and schedules to Fortran's nests.
};

/// Builds the erosion-of-clouds kernel alone (Fig. 10a): the KLEV loop
/// over the fused NPROMA body, for one block.
Program buildErosionKernel(const CloudscConfig &Config);

/// Applies the paper's §5.1 optimization to a CLOUDSC-shaped program:
/// maximal fission (with scalar expansion), nest-level CSE, bounded
/// one-to-one producer-consumer fusion, vectorization of the resulting
/// NPROMA loops, and parallelization of the block loop.
Program optimizeCloudsc(const Program &Prog);

/// Builds the full proxy model in the requested variant.
Program buildCloudsc(const CloudscConfig &Config, CloudscVariant Variant);

} // namespace daisy

#endif // DAISY_CLOUDSC_CLOUDSC_H
