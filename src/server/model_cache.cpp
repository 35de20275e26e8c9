#include "server/model_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/transform.hpp"
#include "dft/lower.hpp"
#include "dft/parser.hpp"
#include "dft/sema.hpp"
#include "io/tra.hpp"
#include "lang/build.hpp"
#include "lang/parser.hpp"
#include "support/errors.hpp"

namespace unicon::server {

namespace {

/// Appends a goal mask as raw '0'/'1' bytes — part of the canonical model
/// serialization, so two lowerings share an entry only when their masks
/// agree bit for bit.
void append_mask(std::string& out, const BitVector& mask) {
  out.reserve(out.size() + mask.size() + 1);
  for (std::size_t s = 0; s < mask.size(); ++s) out.push_back(mask[s] ? '1' : '0');
  out.push_back('\n');
}

std::size_t mask_bytes(const BitVector& mask) { return (mask.size() + 7) / 8; }

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t discrete_kernel_bytes(const DiscreteKernel& k) {
  return vector_bytes(k.state_first) + vector_bytes(k.entry_first) + vector_bytes(k.prob) +
         vector_bytes(k.col) + vector_bytes(k.goal_pr);
}

template <class Model>
std::size_t quotient_bytes(const GoalQuotient<Model>& q) {
  return q.model.memory_bytes() + mask_bytes(q.goal) + vector_bytes(q.state_of);
}

std::size_t dense_kernel_bytes(const DenseKernel& k) {
  return vector_bytes(k.dense_index) + vector_bytes(k.dense_state) + vector_bytes(k.row_first) +
         vector_bytes(k.entry_first) + vector_bytes(k.goal_pr) + vector_bytes(k.prob) +
         vector_bytes(k.col);
}

// The content hash: XXH64's stripe rounds and primes (Y. Collet, xxHash)
// over four 64-bit lanes, merged twice through murmur3's fmix64 finalizer.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;
constexpr std::size_t kStripeBytes = 32;

/// The little-endian word at @p p.  Built from its bytes, so a key never
/// depends on the host's byte order or alignment; compilers fold the shifts
/// into one load on little-endian targets.
std::uint64_t load_le64(const unsigned char* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 | std::uint64_t{p[2]} << 16 |
         std::uint64_t{p[3]} << 24 | std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// Folds the four lanes, in the order given, into a seed and finalizes it.
std::uint64_t merge_lanes(std::uint64_t h, std::uint64_t a, std::uint64_t b, std::uint64_t c,
                          std::uint64_t d) {
  for (const std::uint64_t lane : {a, b, c, d}) h = (h ^ lane_round(0, lane)) * kPrime1 + kPrime4;
  return fmix64(h);
}

/// Streaming 128-bit hash of a byte sequence fed in any number of parts.
/// Whole 32-byte stripes are hashed in place; a part's last partial stripe
/// waits in the carry buffer for the next part, so the digest depends on
/// the concatenated bytes alone, never on where the parts split.
class StripeHasher {
 public:
  void update(std::string_view part) {
    const auto* p = reinterpret_cast<const unsigned char*>(part.data());
    std::size_t n = part.size();
    total_ += n;
    if (carry_size_ != 0) {
      const std::size_t take = std::min(n, kStripeBytes - carry_size_);
      if (take != 0) std::memcpy(carry_ + carry_size_, p, take);
      carry_size_ += take;
      p += take;
      n -= take;
      if (carry_size_ < kStripeBytes) return;
      stripes(carry_, 1);
      carry_size_ = 0;
    }
    stripes(p, n / kStripeBytes);
    p += n / kStripeBytes * kStripeBytes;
    carry_size_ = n % kStripeBytes;
    if (carry_size_ != 0) std::memcpy(carry_, p, carry_size_);
  }

  /// Ends the stream and returns its 128-bit digest as (high, low) words.
  /// The last partial stripe is hashed zero-padded and the total length
  /// folded in after it, so inputs that differ only in trailing zero bytes
  /// still differ.
  std::pair<std::uint64_t, std::uint64_t> finish() {
    if (carry_size_ != 0) {
      std::memset(carry_ + carry_size_, 0, kStripeBytes - carry_size_);
      stripes(carry_, 1);
    }
    const auto& [a, b, c, d] = lanes_;
    return {merge_lanes(total_ * kPrime5, a, b, c, d),
            merge_lanes(total_ * kPrime3 + kPrime5, d, b, a, c)};
  }

 private:
  void stripes(const unsigned char* p, std::size_t count) {
    // Lanes in locals: stores through lanes_ could alias the byte loads.
    std::uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    for (; count != 0; --count, p += kStripeBytes) {
      a = lane_round(a, load_le64(p));
      b = lane_round(b, load_le64(p + 8));
      c = lane_round(c, load_le64(p + 16));
      d = lane_round(d, load_le64(p + 24));
    }
    lanes_ = {a, b, c, d};
  }

  std::array<std::uint64_t, 4> lanes_ = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  unsigned char carry_[kStripeBytes] = {};
  std::size_t carry_size_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace

std::string content_hash(std::string_view bytes) { return content_hash({bytes}); }

std::string content_hash(std::initializer_list<std::string_view> parts) {
  StripeHasher hasher;
  for (const std::string_view part : parts) hasher.update(part);
  const auto [hi, lo] = hasher.finish();
  char buffer[33];
  std::snprintf(buffer, sizeof buffer, "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buffer;
}

const char* model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::Uni: return "uni";
    case ModelKind::Dft: return "dft";
    case ModelKind::CtmdpFile: return "ctmdp";
    case ModelKind::CtmcFile: return "ctmc";
  }
  return "?";
}

const Ctmdp& CachedModel::ctmdp() const {
  if (!ctmdp_.has_value()) {
    throw ModelError("model cache: entry holds a CTMC, not a CTMDP");
  }
  return *ctmdp_;
}

const Ctmc& CachedModel::chain() const {
  if (!chain_.has_value()) {
    throw ModelError("model cache: entry holds a CTMDP, not a CTMC");
  }
  return *chain_;
}

const DiscreteKernel& CachedModel::discrete_kernel(Objective objective) const {
  const std::size_t slot = objective == Objective::Minimize ? 1 : 0;
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  if (discrete_[slot] == nullptr) {
    discrete_[slot] = std::make_unique<DiscreteKernel>(ctmdp(), goal_for(objective));
    kernel_bytes_.fetch_add(discrete_kernel_bytes(*discrete_[slot]), std::memory_order_relaxed);
  }
  return *discrete_[slot];
}

const DenseKernel& CachedModel::dense_kernel(Objective objective) const {
  const std::size_t slot = objective == Objective::Minimize ? 1 : 0;
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  if (dense_[slot] == nullptr) {
    dense_[slot] = std::make_unique<DenseKernel>(ctmdp(), goal_for(objective), BitVector{});
    kernel_bytes_.fetch_add(dense_kernel_bytes(*dense_[slot]), std::memory_order_relaxed);
  }
  return *dense_[slot];
}

CachedModel::QuotientMemo& CachedModel::quotient_locked(Objective objective,
                                                        Telemetry* telemetry) const {
  const bool own_mask = objective == Objective::Minimize && !(goal_universal_ == goal_);
  QuotientMemo& memo = quotients_[own_mask ? 1 : 0];
  if (memo.ctmdp.has_value() || memo.chain.has_value()) return memo;
  const BitVector& goal = goal_for(objective);
  if (ctmdp_.has_value()) {
    memo.ctmdp.emplace(goal_quotient(*ctmdp_, goal, telemetry));
    kernel_bytes_.fetch_add(quotient_bytes(*memo.ctmdp), std::memory_order_relaxed);
  } else {
    memo.chain.emplace(goal_quotient(*chain_, goal, telemetry));
    kernel_bytes_.fetch_add(quotient_bytes(*memo.chain), std::memory_order_relaxed);
  }
  return memo;
}

const CtmdpGoalQuotient& CachedModel::ctmdp_quotient(Objective objective,
                                                     Telemetry* telemetry) const {
  ctmdp();  // throws for CTMC entries
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  return *quotient_locked(objective, telemetry).ctmdp;
}

const CtmcGoalQuotient& CachedModel::chain_quotient(Objective objective,
                                                    Telemetry* telemetry) const {
  chain();  // throws for CTMDP entries
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  return *quotient_locked(objective, telemetry).chain;
}

const DiscreteKernel& CachedModel::quotient_discrete_kernel(Objective objective) const {
  ctmdp();
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  QuotientMemo& memo = quotient_locked(objective, nullptr);
  if (memo.discrete == nullptr) {
    memo.discrete = std::make_unique<DiscreteKernel>(memo.ctmdp->model, memo.ctmdp->goal);
    kernel_bytes_.fetch_add(discrete_kernel_bytes(*memo.discrete), std::memory_order_relaxed);
  }
  return *memo.discrete;
}

const DenseKernel& CachedModel::quotient_dense_kernel(Objective objective) const {
  ctmdp();
  std::lock_guard<std::mutex> lock(kernel_mutex_);
  QuotientMemo& memo = quotient_locked(objective, nullptr);
  if (memo.dense == nullptr) {
    memo.dense = std::make_unique<DenseKernel>(memo.ctmdp->model, memo.ctmdp->goal, BitVector{});
    kernel_bytes_.fetch_add(dense_kernel_bytes(*memo.dense), std::memory_order_relaxed);
  }
  return *memo.dense;
}

std::string ModelCache::source_key(ModelKind kind, std::string_view source,
                                   std::string_view labels, std::string_view goal_name) {
  return content_hash({model_kind_name(kind), "\n", goal_name, "\n", source,
                       std::string_view("\0", 1), labels});
}

ModelCache::Resolved ModelCache::resolve(const std::string& source_key, ModelKind kind,
                                         const std::string& source, const std::string& labels,
                                         const std::string& goal_name, RunGuard* guard,
                                         Telemetry* telemetry) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto alias = source_to_canonical_.find(source_key);
    if (alias != source_to_canonical_.end()) {
      const auto entry = by_canonical_.find(alias->second);
      if (entry != by_canonical_.end()) {
        entry->second.last_use = ++tick_;
        ++stats_.source_hits;
        return {entry->second.model, true};
      }
      // The canonical entry was evicted out from under the alias; fall
      // through to re-lower (the stale alias is overwritten below).
    }
  }

  // Lower outside the lock: parsing/composition/minimization can take
  // arbitrarily long and must not serialize unrelated queries.
  auto built = std::shared_ptr<CachedModel>(new CachedModel());
  built->kind_ = kind;
  std::string canonical_bytes;
  canonical_bytes += model_kind_name(kind);
  canonical_bytes += '\n';

  switch (kind) {
    case ModelKind::Uni: {
      const lang::Model ast = lang::parse_and_check(source, "<request>");
      lang::BuildOptions build_options;
      build_options.guard = guard;
      build_options.telemetry = telemetry;
      lang::BuiltModel model = lang::build_model(ast, build_options);
      model = lang::minimize_model(model, guard, telemetry);
      if (!model.has_prop(goal_name)) {
        throw ModelError("model has no proposition '" + goal_name + "'");
      }
      if (!model.system.is_uniform(UniformityView::Closed)) {
        throw UniformityError("model cache: built system is not uniform (closed view)");
      }
      const BitVector imc_goal = model.mask(goal_name);
      TransformResult transformed = transform_to_ctmdp(model.system, &imc_goal, guard, telemetry);
      built->goal_ = std::move(transformed.goal);
      built->goal_universal_ = std::move(transformed.goal_universal);
      built->ctmdp_ = std::move(transformed.ctmdp);
      break;
    }
    case ModelKind::Dft: {
      const dft::CheckedDft checked = dft::parse_and_check_dft(source, "<request>");
      // The canonical Galileo print participates in the canonical key:
      // comment, whitespace and formatting variants of one tree alias onto
      // a single entry, and a Dft entry never deduplicates against a Uni
      // entry that happens to lower to the same CTMDP.
      canonical_bytes += dft::to_galileo(checked.ast);
      canonical_bytes += '\n';
      dft::LowerOptions lower_options;
      lower_options.guard = guard;
      lower_options.telemetry = telemetry;
      lang::BuiltModel model = dft::lower_dft(checked, lower_options);
      model = lang::minimize_model(model, guard, telemetry);
      if (!model.system.is_uniform(UniformityView::Closed)) {
        throw UniformityError("model cache: built system is not uniform (closed view)");
      }
      const BitVector imc_goal = model.mask("failed");
      TransformResult transformed = transform_to_ctmdp(model.system, &imc_goal, guard, telemetry);
      built->goal_ = std::move(transformed.goal);
      built->goal_universal_ = std::move(transformed.goal_universal);
      built->ctmdp_ = std::move(transformed.ctmdp);
      break;
    }
    case ModelKind::CtmdpFile: {
      std::istringstream in(source);
      Ctmdp model = io::read_ctmdp(in);
      std::istringstream lab(labels);
      built->goal_ = io::read_goal(lab, model.num_states());
      built->goal_universal_ = built->goal_;
      built->ctmdp_ = std::move(model);
      break;
    }
    case ModelKind::CtmcFile: {
      std::istringstream in(source);
      Ctmc model = io::read_ctmc(in);
      std::istringstream lab(labels);
      built->goal_ = io::read_goal(lab, model.num_states());
      built->goal_universal_ = built->goal_;
      built->chain_ = std::move(model);
      break;
    }
  }

  {
    std::ostringstream canonical;
    if (built->ctmdp_.has_value()) {
      io::write_ctmdp(canonical, *built->ctmdp_);
    } else {
      io::write_ctmc(canonical, *built->chain_);
    }
    canonical_bytes += canonical.str();
  }
  append_mask(canonical_bytes, built->goal_);
  if (kind == ModelKind::Uni || kind == ModelKind::Dft) {
    append_mask(canonical_bytes, built->goal_universal_);
  }
  built->canonical_hash_ = content_hash(canonical_bytes);
  built->base_bytes_ =
      (built->ctmdp_.has_value() ? built->ctmdp_->memory_bytes() : built->chain_->memory_bytes()) +
      mask_bytes(built->goal_) + mask_bytes(built->goal_universal_);

  std::lock_guard<std::mutex> lock(mutex_);
  source_to_canonical_[source_key] = built->canonical_hash_;
  const auto existing = by_canonical_.find(built->canonical_hash_);
  if (existing != by_canonical_.end()) {
    // Canonical dedup: a textually different spelling of a model we
    // already hold.  Keep the established entry (its kernel memo may be
    // warm) and drop the fresh lowering.
    existing->second.last_use = ++tick_;
    ++stats_.canonical_hits;
    return {existing->second.model, true};
  }
  by_canonical_[built->canonical_hash_] = Entry{built, ++tick_};
  ++stats_.misses;
  evict_locked(built.get());
  return {std::move(built), false};
}

std::size_t ModelCache::resident_locked() const {
  std::size_t total = 0;
  for (const auto& [hash, entry] : by_canonical_) total += entry.model->bytes();
  return total;
}

void ModelCache::evict_locked(const CachedModel* keep) {
  if (budget_ == 0) return;
  while (by_canonical_.size() > 1 && resident_locked() > budget_) {
    auto victim = by_canonical_.end();
    for (auto it = by_canonical_.begin(); it != by_canonical_.end(); ++it) {
      if (it->second.model.get() == keep) continue;
      if (victim == by_canonical_.end() || it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == by_canonical_.end()) return;
    for (auto it = source_to_canonical_.begin(); it != source_to_canonical_.end();) {
      it = it->second == victim->first ? source_to_canonical_.erase(it) : std::next(it);
    }
    by_canonical_.erase(victim);
    ++stats_.evictions;
  }
}

CacheStats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s = stats_;
  s.entries = by_canonical_.size();
  s.resident_bytes = resident_locked();
  return s;
}

}  // namespace unicon::server
