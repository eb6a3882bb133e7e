// The 64-byte width of dense.hpp's tiled kernels. src/factor/CMakeLists.txt
// compiles this file alone with -mavx512f; dense.cpp calls into it only
// after CPUID reports AVX-512F. The table below is constant-initialized, so
// nothing here runs at start-up.
#include "factor/dense_tiles.hpp"

namespace sptrsv::detail {

constinit const DenseKernels kDenseKernelsAvx512 =
    make_dense_kernels<64>("avx512f", &cpu_has_avx512f);

}  // namespace sptrsv::detail
