// AVX2 kernels for the simd backend.
//
// This is the only translation unit compiled with -mavx2 (gated on the
// UNICON_AVX2 CMake option, which also defines UNICON_AVX2_TU here); every
// other TU stays at the baseline ISA so the library runs on non-AVX2
// machines, where backend.cpp routes `simd` to the portable kernels after
// the runtime cpu_supports_avx2() probe.
//
// Bit-identity with the portable kernels (DESIGN.md Sec. 10): the dot uses
// separate _mm256_mul_pd / _mm256_add_pd — never an FMA, which would round
// once where two-step mul+add rounds twice — and this TU is compiled with
// -ffp-contract=off so the compiler cannot fuse them either.  The
// horizontal sum realizes exactly the (a0 + a2) + (a1 + a3) lane
// combination of the portable stripes, and the tail is the same sequential
// scalar loop.

#include "support/backend.hpp"

#if defined(UNICON_AVX2_TU) && defined(__AVX2__)

#include <immintrin.h>

namespace unicon {
namespace avx2 {

inline double dot_entries(const double* prob, const std::uint32_t* col, const double* q,
                          std::uint64_t first, std::uint64_t last) {
  __m256d acc4 = _mm256_setzero_pd();
  // The masked form with an all-ones mask gathers every lane, exactly like
  // _mm256_i32gather_pd, but from a defined (zero) source operand — the
  // unmasked intrinsic's undefined one trips -Wmaybe-uninitialized.
  const __m256d all_lanes = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::uint64_t j = first;
  for (; j + 4 <= last; j += 4) {
    const __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + j));
    const __m256d p = _mm256_loadu_pd(prob + j);
    const __m256d v = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), q, idx, all_lanes, 8);
    acc4 = _mm256_add_pd(acc4, _mm256_mul_pd(p, v));
  }
  // Lanes (a0, a1, a2, a3) -> (a0 + a2, a1 + a3) -> (a0 + a2) + (a1 + a3).
  const __m128d lo = _mm256_castpd256_pd128(acc4);
  const __m128d hi = _mm256_extractf128_pd(acc4, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double acc = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; j < last; ++j) acc += prob[j] * q[col[j]];
  return acc;
}

#include "support/backend_kernels.inl"

const KernelOps kOps = {"simd-avx2", &relax_rows, &gather_rows};

}  // namespace avx2

const KernelOps* avx2_kernel_ops() { return &avx2::kOps; }

}  // namespace unicon

#else  // AVX2 not compiled in (UNICON_AVX2=OFF or non-x86 toolchain)

namespace unicon {

const KernelOps* avx2_kernel_ops() { return nullptr; }

}  // namespace unicon

#endif
