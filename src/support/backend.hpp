// Runtime-selected compute backends for the value-iteration hot loops.
//
// The Algorithm-1 sweep and the uniformized CTMC sweeps spend their time in
// one inner shape: gather q over a row's columns, dot with the branching
// probabilities, max/min-reduce over the row's transitions.  This header
// defines the backend vocabulary shared by the CTMDP and CTMC solvers:
//
//  - Backend: which engine runs the sweep.  `Simd`, the default, is the
//    dense-kernel engine with an AVX2 inner loop (portable striped-scalar
//    fallback when AVX2 is unavailable at build or run time).  `Serial` is
//    the historical scalar path, kept bit-identical to the pre-backend code
//    as the reference engine.  `SimdPortable` forces the fallback — it
//    exists so the tests can prove the AVX2 and portable kernels are
//    bit-identical.
//  - KernelOps: the block-level function-pointer table a backend supplies.
//    Granularity is a row range, not a row — the per-row virtual-call cost
//    of a finer interface would eat the SIMD win.
//  - DenseKernelView / GatherView: the POD array views the ops consume.
//
// This lives in support/ (not ctmdp/) because both unicon_ctmdp and
// unicon_ctmc need it and unicon_ctmdp links unicon_ctmc;
// ctmdp/backend.hpp re-exports it next to the solver-facing kernels.
//
// FP policy (DESIGN.md Sec. 10): the two simd kernels accumulate row dots
// in four striped lanes combined as (a0+a2)+(a1+a3) with a sequential
// scalar tail, compiled with -ffp-contract=off and no FMA intrinsics, so
// `simd` and `simd-portable` produce bit-identical results on every
// machine.  `serial` keeps the historical strictly-sequential accumulation
// order and therefore differs from `simd` by reassociation error only.
#pragma once

#include <cstdint>
#include <string>

namespace unicon {

enum class Backend : std::uint8_t {
  Auto,          ///< resolve via UNICON_BACKEND, else Simd
  Serial,        ///< historical scalar sweep (bit-identical to the seed)
  Simd,          ///< dense kernel; AVX2 when available, else portable stripes
  SimdPortable,  ///< dense kernel, striped scalar lanes (testing / no-AVX2)
};

/// Stable name for a backend ("auto", "serial", "simd", "simd-portable").
const char* backend_name(Backend backend);

/// Parses a backend name as accepted by --backend / UNICON_BACKEND.
/// Throws ModelError on an unknown name, listing the valid ones.
Backend parse_backend(const std::string& name);

/// Resolves Auto: the UNICON_BACKEND environment variable when set (parsed
/// like --backend; an invalid value throws, deliberately loud for CI
/// overrides), Simd otherwise.  Non-Auto values pass through unchanged.
Backend resolve_backend(Backend requested);

/// True when the running CPU supports AVX2 (independent of whether the
/// AVX2 translation unit was compiled in).
bool cpu_supports_avx2();

/// True when the `simd` backend would actually dispatch to the AVX2 kernel
/// (compiled in and supported by this CPU).
bool simd_uses_avx2();

/// Dense discrete kernel restricted to the rows the sweep actually
/// relaxes (non-goal, non-avoided states).  Column indices are *dense row
/// indices*: the gathered iterate only ever holds those rows, which is
/// what keeps the gather cache-resident.  Probability mass into goal
/// states is folded into goal_pr (all goal states share one iterate value
/// by uniformity of the goal update); mass into avoided states is dropped
/// (their value is exactly +0.0).
struct DenseKernelView {
  std::uint64_t num_rows = 0;
  const std::uint64_t* row_first = nullptr;    ///< [num_rows + 1] -> transition
  const std::uint64_t* entry_first = nullptr;  ///< [num_trans + 1] -> entry
  const double* goal_pr = nullptr;             ///< [num_trans] mass into goal
  const double* prob = nullptr;                ///< [num_entries]
  const std::uint32_t* col = nullptr;          ///< [num_entries] -> dense row
};

/// Plain CSR gather with a diagonal term: out[r] = diag[r] * x[r] +
/// sum_j prob[j] * x[col[j]] over the row's entries: the CTMC value step
/// y = P x of the uniformized jump matrix.
struct GatherView {
  std::uint64_t num_rows = 0;
  const double* diag = nullptr;                ///< [num_rows]
  const std::uint64_t* row_first = nullptr;    ///< [num_rows + 1]
  const double* prob = nullptr;
  const std::uint32_t* col = nullptr;
};

/// Block-level kernel table.  All row ranges operate on dense rows; the
/// caller owns goal/avoid handling, guard blocks and thread partitioning,
/// so per-backend results stay bit-identical across thread counts exactly
/// as in the serial engine (contiguous disjoint slices).
struct KernelOps {
  const char* name;

  /// Bellman relax of rows [begin, end): out[r] = best over the row's
  /// transitions of goal_pr[t] * gval + dot(prob, q[col]) (0.0 without
  /// transitions); values only, a scheduler is extracted on the serial rows
  /// (DESIGN.md Sec. 12.4).  Returns the NaN-latching sup of
  /// |out[r] - q[r]| over the range (NaN propagates so the caller's
  /// finiteness check fires).
  double (*relax_rows)(const DenseKernelView& k, double gval, bool maximize,
                       const double* q, double* out, std::uint64_t begin, std::uint64_t end);

  /// CSR-with-diagonal gather of rows [begin, end) (see GatherView).
  void (*gather_rows)(const GatherView& g, const double* x, double* out,
                      std::uint64_t begin, std::uint64_t end);
};

/// The ops table for a *resolved* simd-family backend: Simd dispatches to
/// the AVX2 kernels when compiled in and supported by this CPU, the
/// portable striped kernels otherwise; SimdPortable always takes the
/// portable kernels.  Serial/Auto have no ops table (the serial engine is
/// open-coded in the solvers) — passing them throws ModelError.
const KernelOps& kernel_ops(Backend resolved);

/// Internal: the AVX2 ops table, or nullptr when the AVX2 translation unit
/// was compiled without AVX2 support (UNICON_AVX2=OFF or non-x86).
const KernelOps* avx2_kernel_ops();

}  // namespace unicon
