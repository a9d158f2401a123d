//===- support/Compiler.h - Compiler attribute macros -----------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef DAISY_SUPPORT_COMPILER_H
#define DAISY_SUPPORT_COMPILER_H

/// Starts a hot function on a cache-line boundary. The speed of the
/// executor's and the BLAS kernels' inner loops depends on where they fall
/// modulo 64 bytes (a 16-byte shift made jacobi-2d's plan run about 1.5x
/// slower on a 4-vCPU x86-64 host), and unaligned, an edit to any file
/// linked before theirs moves them. One 64-aligned function also aligns
/// its object's .text, so every function in that file keeps its offset
/// modulo 64 whatever precedes it. It is an attribute rather than a
/// compiler flag so that every build of the library gets it.
#if defined(__GNUC__) || defined(__clang__)
#define DAISY_HOT_ALIGN __attribute__((aligned(64)))
#else
#define DAISY_HOT_ALIGN
#endif

#endif // DAISY_SUPPORT_COMPILER_H
