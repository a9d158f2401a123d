//===- blas/Kernels.cpp ---------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "blas/Kernels.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace daisy;

DAISY_HOT_ALIGN void daisy::gemm(double *C, const double *A,
                                 const double *B, int64_t M, int64_t N,
                                 int64_t K, double Alpha, double Beta) {
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J)
      C[I * N + J] *= Beta;
  // Blocked i-k-j loop order: the library kernel is itself written the way
  // the paper's canonical form ends up.
  constexpr int64_t Block = 64;
  for (int64_t II = 0; II < M; II += Block)
    for (int64_t KK = 0; KK < K; KK += Block)
      for (int64_t I = II; I < std::min(II + Block, M); ++I)
        for (int64_t Ki = KK; Ki < std::min(KK + Block, K); ++Ki) {
          double AVal = Alpha * A[I * K + Ki];
          for (int64_t J = 0; J < N; ++J)
            C[I * N + J] += AVal * B[Ki * N + J];
        }
}

DAISY_HOT_ALIGN void daisy::syrk(double *C, const double *A, int64_t N,
                                 int64_t K, double Alpha, double Beta) {
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J <= I; ++J)
      C[I * N + J] *= Beta;
  for (int64_t I = 0; I < N; ++I)
    for (int64_t Ki = 0; Ki < K; ++Ki) {
      double AVal = Alpha * A[I * K + Ki];
      for (int64_t J = 0; J <= I; ++J)
        C[I * N + J] += AVal * A[J * K + Ki];
    }
}

DAISY_HOT_ALIGN void daisy::syr2k(double *C, const double *A,
                                  const double *B, int64_t N, int64_t K,
                                  double Alpha, double Beta) {
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J <= I; ++J)
      C[I * N + J] *= Beta;
  for (int64_t I = 0; I < N; ++I)
    for (int64_t Ki = 0; Ki < K; ++Ki) {
      double AVal = Alpha * A[I * K + Ki];
      double BVal = Alpha * B[I * K + Ki];
      for (int64_t J = 0; J <= I; ++J)
        C[I * N + J] += AVal * B[J * K + Ki] + BVal * A[J * K + Ki];
    }
}

DAISY_HOT_ALIGN void daisy::gemv(double *Y, const double *A,
                                 const double *X, int64_t M, int64_t N,
                                 double Alpha, double Beta) {
  for (int64_t I = 0; I < M; ++I) {
    double Sum = 0.0;
    for (int64_t J = 0; J < N; ++J)
      Sum += A[I * N + J] * X[J];
    Y[I] = Beta * Y[I] + Alpha * Sum;
  }
}

double daisy::blasEfficiency(BlasKind Kind,
                             const std::vector<int64_t> &Dims) {
  // Efficiencies modeled after vendor BLAS on a Haswell-class Xeon: BLAS-3
  // kernels reach a large fraction of peak once the problem is big enough
  // to amortize packing; BLAS-2 is bandwidth-bound.
  int64_t MinDim = Dims.empty() ? 1 : *std::min_element(Dims.begin(),
                                                        Dims.end());
  double SizeFactor = MinDim >= 256 ? 1.0 : (MinDim >= 64 ? 0.85 : 0.6);
  switch (Kind) {
  case BlasKind::Gemm:
    return 0.90 * SizeFactor;
  case BlasKind::Syrk:
  case BlasKind::Syr2k:
    return 0.80 * SizeFactor;
  case BlasKind::Gemv:
    // Memory bound: a gemv streams the matrix once, so the library call
    // must cost about as much as a well-vectorized streaming loop on the
    // same machine model (~3 cycles per element).
    return 0.04;
  }
  return 0.5;
}
