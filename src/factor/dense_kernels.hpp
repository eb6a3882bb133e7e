#pragma once
/// \file dense_kernels.hpp
/// \brief The compiled vector widths of dense.hpp's tiled kernels, and the
/// one the public functions dispatch to.
///
/// The GEMMs and trsm_right_upper are compiled once per vector width, each
/// in its own ISA context (dense_tiles.hpp). The public functions call the
/// widest width the CPU runs, chosen once from CPUID. Every width gives the
/// same bits (dense.hpp), so the choice changes only speed. This header is
/// internal to src/factor: tests reach every compiled width through it.

#include <span>

#include "sparse/types.hpp"

namespace sptrsv::detail {

/// The tiled kernels of one vector width. The function pointers take
/// dense.hpp's arguments as raw pointers.
struct DenseKernels {
  const char* isa = "";   ///< the ISA the width was compiled for, e.g. "sse2"
  int vector_bytes = 0;   ///< bytes per vector register
  int max_tile_rows = 0;  ///< rows of the tallest tile (the one-column GEMV's)
  bool (*cpu_supports)() = nullptr;  ///< whether this CPU runs the width
  void (*gemm_plus_ld)(Idx m, Idx k, Idx n, const Real* a, Idx lda, const Real* b,
                       Idx ldb, Real* c, Idx ldc) = nullptr;
  void (*gemm_minus_ld)(Idx m, Idx k, Idx n, const Real* a, Idx lda, const Real* b,
                        Idx ldb, Real* c, Idx ldc) = nullptr;
  void (*trsm_right_upper_ld)(Idx m, Idx n, const Real* lu, Real* b, Idx ldb) = nullptr;
};

/// Every compiled width, narrowest first. The 16-byte width (SSE2 on
/// x86-64) is always compiled; the wide one only where the build targets
/// x86-64 (src/factor/CMakeLists.txt).
std::span<const DenseKernels* const> dense_kernel_widths();

/// The widest compiled width this CPU runs, chosen on the first call.
const DenseKernels& dense_kernels();

/// CPUID checks for the widths' `cpu_supports`, compiled without ISA
/// flags in dense.cpp so that no wide instruction runs before them.
bool cpu_has_avx512f();

/// The 64-byte width, defined in dense_avx512.cpp (x86-64 builds only).
extern const DenseKernels kDenseKernelsAvx512;

}  // namespace sptrsv::detail
