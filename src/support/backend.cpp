// Backend resolution plus the portable striped-lane kernels.
//
// Compiled with -ffp-contract=off (see src/support/CMakeLists.txt): the
// bit-identity contract between `simd` and `simd-portable` forbids fusing
// the per-lane multiply-add into an FMA, which rounds once where the AVX2
// kernel (which deliberately uses separate mul/add intrinsics) rounds
// twice.

#include "support/backend.hpp"

#include <cstdlib>

#include "support/errors.hpp"
#include "support/numerics.hpp"

namespace unicon {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::Auto: return "auto";
    case Backend::Serial: return "serial";
    case Backend::Simd: return "simd";
    case Backend::SimdPortable: return "simd-portable";
  }
  return "auto";
}

Backend parse_backend(const std::string& name) {
  if (name == "auto") return Backend::Auto;
  if (name == "serial") return Backend::Serial;
  if (name == "simd") return Backend::Simd;
  if (name == "simd-portable" || name == "portable") return Backend::SimdPortable;
  throw ModelError("unknown backend '" + name +
                   "' (valid: auto, serial, simd, simd-portable)");
}

Backend resolve_backend(Backend requested) {
  if (requested != Backend::Auto) return requested;
  const char* env = std::getenv("UNICON_BACKEND");
  if (env != nullptr && *env != '\0') {
    const Backend from_env = parse_backend(env);
    // UNICON_BACKEND=auto means "no override", not infinite recursion.
    if (from_env != Backend::Auto) return from_env;
  }
  // The dense kernel is the default: it differs from the serial reference
  // by FP reassociation only (DESIGN.md Sec. 10.3) and sweeps several times
  // faster.  UNICON_BACKEND=serial or an explicit Serial request opts out.
  return Backend::Simd;
}

bool cpu_supports_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool simd_uses_avx2() { return avx2_kernel_ops() != nullptr && cpu_supports_avx2(); }

namespace portable {

/// Striped four-lane dot, the scalar mirror of the AVX2 kernel: lane l of a
/// group of four accumulates entry 4m + l, the lanes combine as
/// (a0 + a2) + (a1 + a3) — exactly the horizontal sum the AVX2 kernel
/// performs on its 256-bit accumulator — and the tail runs sequentially in
/// both.  With contraction off, every operation here has a one-to-one
/// bit-equal counterpart in the vector kernel.
inline double dot_entries(const double* prob, const std::uint32_t* col, const double* q,
                          std::uint64_t first, std::uint64_t last) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::uint64_t j = first;
  for (; j + 4 <= last; j += 4) {
    a0 += prob[j] * q[col[j]];
    a1 += prob[j + 1] * q[col[j + 1]];
    a2 += prob[j + 2] * q[col[j + 2]];
    a3 += prob[j + 3] * q[col[j + 3]];
  }
  double acc = (a0 + a2) + (a1 + a3);
  for (; j < last; ++j) acc += prob[j] * q[col[j]];
  return acc;
}

#include "support/backend_kernels.inl"

const KernelOps kOps = {"simd-portable", &relax_rows, &gather_rows};

}  // namespace portable

const KernelOps& kernel_ops(Backend resolved) {
  switch (resolved) {
    case Backend::Simd: {
      const KernelOps* avx2 = avx2_kernel_ops();
      if (avx2 != nullptr && cpu_supports_avx2()) return *avx2;
      return portable::kOps;
    }
    case Backend::SimdPortable:
      return portable::kOps;
    case Backend::Auto:
    case Backend::Serial:
      break;
  }
  throw ModelError(std::string("kernel_ops: backend '") + backend_name(resolved) +
                   "' has no kernel table (serial is open-coded in the solvers)");
}

}  // namespace unicon
