// Content-addressed model cache for the analysis server.
//
// A query carries its model *source* (UNI program text, a Galileo DFT, or
// .ctmdp/.tra + .lab file contents) inline; parsing, composition,
// minimization and the Sec. 4.1 transformation dominate small-query
// latency, so the server caches the lowered artifacts keyed by content:
//
//  - Level 1 (source key): a hash of the raw request bytes (kind + source +
//    labels + goal name).  Byte-identical resubmissions hit without any
//    parsing.
//  - Level 2 (canonical key): a hash of the *lowered* model — the
//    solver-ready CTMDP/CTMC serialized through the io library plus the
//    transferred goal masks.  Textually different sources that lower to the
//    same model (whitespace, comments, reordered transition lines)
//    deduplicate onto one entry; a single rate edit changes the canonical
//    bytes and misses.  New source keys are aliased onto the existing
//    canonical entry, so the expensive lowering runs once per *model*, not
//    once per spelling.
//
// Entries are handed out as shared_ptr<const CachedModel>: eviction (LRU
// under a byte budget) only drops the cache's reference, so an in-flight
// query keeps its model and kernels alive — eviction can never corrupt a
// running solve.  Per-objective discrete/dense kernels are memoized lazily
// inside the entry (under its own mutex) and fed into the solvers through
// TimedReachabilityOptions::discrete_kernel/dense_kernel, which is what
// amortizes kernel construction across queries of the same model.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "ctmc/ctmc.hpp"
#include "ctmdp/backend.hpp"
#include "ctmdp/ctmdp.hpp"
#include "ctmdp/reachability.hpp"
#include "support/bit_vector.hpp"
#include "support/run_guard.hpp"

namespace unicon {
class Telemetry;
}

namespace unicon::server {

/// 32-lowercase-hex-digit content hash: 128 bits from one streaming pass
/// that reads the bytes 32 at a time (XXH64 stripe rounds over four lanes,
/// two differently ordered lane merges through murmur3's fmix64).  Each
/// word is assembled little-endian from its bytes, so a key depends on the
/// bytes alone and is equal on every host and build; keys are saved in
/// snapshots and sent on the wire.  Not cryptographic — it keys a
/// trusted-process cache, not an integrity check; 128 bits keep accidental
/// collisions out of reach.
std::string content_hash(std::string_view bytes);

/// content_hash of the concatenation of @p parts, without building it: the
/// key is the same wherever the parts split.
std::string content_hash(std::initializer_list<std::string_view> parts);

enum class ModelKind : std::uint8_t { Uni, Dft, CtmdpFile, CtmcFile };

const char* model_kind_name(ModelKind kind);

/// One lowered model: solver-ready representation, transferred goal masks,
/// and lazily memoized per-objective kernels.  Immutable after
/// construction except for the kernel memo (guarded by kernel_mutex_), so
/// concurrent queries may share an entry freely.
class CachedModel {
 public:
  ModelKind kind() const { return kind_; }
  const std::string& canonical_hash() const { return canonical_hash_; }

  /// The CTMDP (Uni after transform, or CtmdpFile).  Throws ModelError for
  /// CtmcFile entries.
  const Ctmdp& ctmdp() const;
  /// The CTMC (CtmcFile entries only).
  const Ctmc& chain() const;
  bool is_ctmc() const { return kind_ == ModelKind::CtmcFile; }

  /// Goal mask for an objective: the existential transfer for Maximize,
  /// the universal transfer for Minimize (identical for file-based models,
  /// where the .lab mask applies to both objectives — Sec. 4.1 transfer
  /// only concerns the uIMC routes, Uni and Dft).
  const BitVector& goal_for(Objective objective) const {
    const bool transferred = kind_ == ModelKind::Uni || kind_ == ModelKind::Dft;
    return objective == Objective::Minimize && transferred ? goal_universal_ : goal_;
  }

  /// Memoized kernels matching (ctmdp, goal_for(objective)); built on
  /// first use under the entry's mutex.  CTMDP entries only.
  const DiscreteKernel& discrete_kernel(Objective objective) const;
  const DenseKernel& dense_kernel(Objective objective) const;

  /// Resident estimate: the lowered model plus any memoized kernels.
  std::size_t bytes() const {
    return base_bytes_ + kernel_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend class ModelCache;
  CachedModel() = default;

  ModelKind kind_ = ModelKind::Uni;
  std::string canonical_hash_;
  std::optional<Ctmdp> ctmdp_;
  std::optional<Ctmc> chain_;
  BitVector goal_;
  BitVector goal_universal_;
  std::size_t base_bytes_ = 0;

  mutable std::mutex kernel_mutex_;
  mutable std::unique_ptr<DiscreteKernel> discrete_[2];  // [objective]
  mutable std::unique_ptr<DenseKernel> dense_[2];
  mutable std::atomic<std::size_t> kernel_bytes_{0};
};

struct CacheStats {
  std::uint64_t source_hits = 0;     ///< level-1 byte-identical hits
  std::uint64_t canonical_hits = 0;  ///< level-2 dedups (lowered, then aliased)
  std::uint64_t misses = 0;          ///< fresh entries inserted
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t resident_bytes = 0;
};

/// Outcome of a snapshot save or load (see snapshot.hpp for the format).
/// A load never throws on corrupt input: every record it can authenticate
/// is restored, every record it cannot is counted and skipped, and a
/// truncated / unparseable stream simply ends recovery early — the worst
/// corruption degrades to a cold start, never to a wrong cache entry.
struct SnapshotStats {
  std::size_t entries_written = 0;  ///< save: records emitted
  std::size_t entries_loaded = 0;   ///< load: entries restored into the cache
  std::size_t aliases_loaded = 0;   ///< load: source-key aliases restored
  std::size_t entries_corrupt = 0;  ///< load: records failing checksum/parse
  bool truncated = false;           ///< load: stream ended before the `end` marker
  /// load: a `unicon-cache-v1` stream.  Its keys were computed by an older
  /// hash, so none of its records can match a request; nothing is loaded.
  bool old_format = false;
};

class ModelCache {
 public:
  /// @p byte_budget caps the resident estimate; 0 means unbounded.
  explicit ModelCache(std::uint64_t byte_budget = 0) : budget_(byte_budget) {}

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  struct Resolved {
    std::shared_ptr<const CachedModel> model;
    bool hit = false;  ///< either cache level (no lowering ran, or it was discarded)
  };

  /// The level-1 key of a request: the content hash of its kind, goal
  /// name, source and labels, computed once per request at submit.
  /// Snapshots persist it as a source alias, so these bytes are part of
  /// the `unicon-cache-v2` format.
  static std::string source_key(ModelKind kind, std::string_view source,
                                std::string_view labels, std::string_view goal_name);

  /// Resolves a request's model source, lowering and inserting on a miss.
  /// @p labels is the .lab file content (file kinds; ignored for Uni),
  /// @p goal_name the UNI proposition to transfer (Uni only).  Lowering
  /// runs outside the cache lock; @p guard aborts it via BudgetError and
  /// @p telemetry observes its stages (both may be null).  Throws the
  /// lowering pipeline's typed errors (Parse/Model/Zeno/Uniformity/...).
  Resolved resolve(ModelKind kind, const std::string& source, const std::string& labels,
                   const std::string& goal_name, RunGuard* guard = nullptr,
                   Telemetry* telemetry = nullptr) {
    return resolve(source_key(kind, source, labels, goal_name), kind, source, labels, goal_name,
                   guard, telemetry);
  }

  /// resolve() for a caller that already holds the request's source_key(),
  /// so a large source is hashed once per request.
  Resolved resolve(const std::string& source_key, ModelKind kind, const std::string& source,
                   const std::string& labels, const std::string& goal_name,
                   RunGuard* guard = nullptr, Telemetry* telemetry = nullptr);

  CacheStats stats() const;

  /// Serializes every resident entry (plus its source-key aliases) in the
  /// checksummed `unicon-cache-v2` format.  Deterministic: entries are
  /// emitted in canonical-hash order, so identical cache contents produce
  /// byte-identical snapshots.  Implemented in snapshot.cpp.
  SnapshotStats save_snapshot(std::ostream& out) const;

  /// Restores entries from a `unicon-cache-v2` stream.  Tolerant of
  /// corruption: records with bad checksums or unparseable bodies are
  /// skipped (counted in entries_corrupt), a torn tail sets `truncated`,
  /// and already-resident entries are never overwritten.  A
  /// `unicon-cache-v1` stream loads nothing and sets `old_format`.  Never
  /// throws on malformed input.  Implemented in snapshot.cpp.
  SnapshotStats load_snapshot(std::istream& in);

 private:
  struct Entry {
    std::shared_ptr<CachedModel> model;
    std::uint64_t last_use = 0;
  };

  /// Drops least-recently-used entries until the resident estimate fits
  /// the budget (mutex_ held).  @p keep is never evicted — the entry the
  /// current resolve returns must stay mapped even if it alone exceeds
  /// the budget.
  void evict_locked(const CachedModel* keep);
  std::size_t resident_locked() const;

  mutable std::mutex mutex_;
  std::uint64_t budget_ = 0;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  std::unordered_map<std::string, std::string> source_to_canonical_;
  std::unordered_map<std::string, Entry> by_canonical_;
};

}  // namespace unicon::server
