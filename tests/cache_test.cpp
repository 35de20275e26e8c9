// Content-addressed model cache: canonical deduplication of textually
// different sources, miss on semantic edits, alias maps, LRU eviction under
// a byte budget that can never invalidate an in-flight query, and lazy
// kernel memoization.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ctmc/transient.hpp"
#include "ctmdp/reachability.hpp"
#include "io/tra.hpp"
#include "server/model_cache.hpp"
#include "support/rng.hpp"
#include "testing/generate.hpp"

namespace unicon {
namespace {

namespace gen = unicon::testing;
using server::CachedModel;
using server::CacheStats;
using server::ModelCache;
using server::ModelKind;

// A minimal uniform UNI model (all exit rates 1).
const char* kModelA =
    "component C {\n"
    "  states s0, s1, s2;\n"
    "  initial s0;\n"
    "  label done: s2;\n"
    "  rate 1: s0 -> s1;\n"
    "  rate 1: s1 -> s2;\n"
    "  rate 1: s2 -> s2;\n"
    "}\n"
    "system = C;\n"
    "prop goal = done;\n";

// kModelA with different spelling — comments, blank lines, whitespace.
// Lowers to the identical CTMDP, so it must share kModelA's cache entry.
const char* kModelASpelled =
    "// same three-state chain, spelled differently\n"
    "\n"
    "component C {\n"
    "    states s0, s1, s2;\n"
    "    initial s0;\n"
    "    label done: s2;\n"
    "    rate 1:   s0 -> s1;   // hop\n"
    "    rate 1:   s1 -> s2;\n"
    "    rate 1:   s2 -> s2;\n"
    "}\n"
    "\n"
    "system = C;\n"
    "prop goal = done;\n";

// One rate edit (uniform rate 2 instead of 1) — semantically different,
// must occupy its own entry.
const char* kModelARate2 =
    "component C {\n"
    "  states s0, s1, s2;\n"
    "  initial s0;\n"
    "  label done: s2;\n"
    "  rate 2: s0 -> s1;\n"
    "  rate 2: s1 -> s2;\n"
    "  rate 2: s2 -> s2;\n"
    "}\n"
    "system = C;\n"
    "prop goal = done;\n";

std::string serialize_ctmdp(const Ctmdp& model) {
  std::ostringstream out;
  io::write_ctmdp(out, model);
  return out.str();
}

std::string serialize_ctmc(const Ctmc& chain) {
  std::ostringstream out;
  io::write_ctmc(out, chain);
  return out.str();
}

std::string serialize_goal(const BitVector& goal) {
  std::ostringstream out;
  io::write_goal(out, goal);
  return out.str();
}

TEST(ContentHashTest, StableAndSensitive) {
  const std::string hash = server::content_hash("hello");
  EXPECT_EQ(hash.size(), 32u);
  EXPECT_EQ(hash, server::content_hash("hello"));
  EXPECT_NE(hash, server::content_hash("hello "));
  EXPECT_NE(hash, server::content_hash("hellp"));
  EXPECT_NE(server::content_hash(""), server::content_hash(std::string(1, '\0')));
}

/// @p n bytes of a fixed pattern that takes every byte value.
std::string hash_pattern(std::size_t n) {
  std::string bytes(n, '\0');
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<char>(i * 37 + 11);
  return bytes;
}

TEST(ContentHashTest, KnownAnswers) {
  // Keys are saved in snapshots and sent on the wire, so these pins must
  // hold on every host, compiler, ISA setting and sanitizer build.  The
  // lengths straddle the 32-byte stripe and the partial-stripe tail.
  EXPECT_EQ(server::content_hash(""), "bbc36d7b4dd13e5a70a352dbfe797ec5");
  EXPECT_EQ(server::content_hash("hello"), "d5ed0f6a607dd7d3e55a6fdadda21175");
  const std::pair<std::size_t, const char*> pinned[] = {
      {1, "6fc734952ecbbd8ea00acb0b2b3072de"},    {31, "5067fd0f794763715387678961469415"},
      {32, "29b947fb0e11c51d0905d240627c23ed"},   {33, "014d38fe8b3458b2b3cb149d1a82dc01"},
      {63, "5478069574aa5289352063dc5da53d2d"},   {64, "7278cf029add5dc0765ace40eb28f2c7"},
      {65, "1ab44232e350951f65bebd92efe16153"},   {4096, "49a0ec8c7f804901fa93fc8297984fd1"},
  };
  for (const auto& [n, key] : pinned) EXPECT_EQ(server::content_hash(hash_pattern(n)), key) << n;
}

TEST(ContentHashTest, PartsHashAsTheirConcatenation) {
  const std::string bytes = hash_pattern(300);
  const std::string_view all(bytes);
  const std::string whole = server::content_hash(all);
  for (std::size_t i = 0; i <= all.size(); ++i) {
    ASSERT_EQ(server::content_hash({all.substr(0, i), all.substr(i)}), whole) << i;
    for (std::size_t j = i; j <= all.size(); ++j) {
      ASSERT_EQ(server::content_hash({all.substr(0, i), all.substr(i, j - i), all.substr(j)}),
                whole)
          << i << ' ' << j;
    }
  }
}

TEST(ContentHashTest, UnalignedViewsHashAsTheirCopies) {
  const std::string buffer = hash_pattern(256);
  for (std::size_t offset = 1; offset <= 7; ++offset) {
    for (const std::size_t n : {0, 1, 8, 31, 32, 33, 64, 97, 200}) {
      const std::string_view view(buffer.data() + offset, n);
      EXPECT_EQ(server::content_hash(view), server::content_hash(std::string(view)))
          << offset << ' ' << n;
    }
  }
}

TEST(ContentHashTest, EverySingleBitFlipGivesADistinctKey) {
  std::set<std::string> keys;
  std::size_t inputs = 0;
  for (std::size_t n = 0; n <= 129; ++n) {
    std::string bytes = hash_pattern(n);
    keys.insert(server::content_hash(bytes));
    ++inputs;
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      const char mask = static_cast<char>(1u << (bit % 8));
      bytes[bit / 8] ^= mask;
      keys.insert(server::content_hash(bytes));
      ++inputs;
      bytes[bit / 8] ^= mask;
    }
  }
  // Every input above is a distinct byte string, so every key must be too.
  EXPECT_EQ(keys.size(), inputs);
}

TEST(CacheTest, SourceHitReturnsSameEntry) {
  ModelCache cache;
  const auto first = cache.resolve(ModelKind::Uni, kModelA, "", "goal");
  EXPECT_FALSE(first.hit);
  const auto second = cache.resolve(ModelKind::Uni, kModelA, "", "goal");
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.model.get(), second.model.get());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.source_hits, 1u);
  EXPECT_EQ(stats.canonical_hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CacheTest, TextuallyDifferentSourcesShareCanonicalEntry) {
  ModelCache cache;
  const auto a = cache.resolve(ModelKind::Uni, kModelA, "", "goal");
  const auto spelled = cache.resolve(ModelKind::Uni, kModelASpelled, "", "goal");
  EXPECT_TRUE(spelled.hit);
  EXPECT_EQ(a.model.get(), spelled.model.get());
  EXPECT_EQ(a.model->canonical_hash(), spelled.model->canonical_hash());

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.canonical_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // The new spelling is aliased at the source level: resubmitting it is a
  // cheap level-1 hit, no lowering.
  const auto again = cache.resolve(ModelKind::Uni, kModelASpelled, "", "goal");
  EXPECT_TRUE(again.hit);
  stats = cache.stats();
  EXPECT_EQ(stats.source_hits, 1u);
}

TEST(CacheTest, RateEditMisses) {
  ModelCache cache;
  const auto a = cache.resolve(ModelKind::Uni, kModelA, "", "goal");
  const auto edited = cache.resolve(ModelKind::Uni, kModelARate2, "", "goal");
  EXPECT_FALSE(edited.hit);
  EXPECT_NE(a.model.get(), edited.model.get());
  EXPECT_NE(a.model->canonical_hash(), edited.model->canonical_hash());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(CacheTest, FileKindsRoundTrip) {
  Rng rng(0xcac4e1u);
  gen::RandomCtmdpConfig config;
  config.num_states = 12;
  const Ctmdp model = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);

  ModelCache cache;
  const auto resolved = cache.resolve(ModelKind::CtmdpFile, serialize_ctmdp(model),
                                      serialize_goal(goal), "goal");
  EXPECT_FALSE(resolved.hit);
  EXPECT_EQ(resolved.model->ctmdp().num_states(), model.num_states());
  EXPECT_EQ(resolved.model->goal_for(Objective::Maximize), goal);
  // File-based masks apply to both objectives (no Sec. 4.1 transfer).
  EXPECT_EQ(resolved.model->goal_for(Objective::Minimize), goal);

  gen::RandomCtmcConfig ctmc_config;
  ctmc_config.num_states = 10;
  const Ctmc chain = gen::random_ctmc(rng, ctmc_config);
  const BitVector chain_goal = gen::random_goal(rng, chain.num_states(), 0.3);
  const auto ctmc_entry = cache.resolve(ModelKind::CtmcFile, serialize_ctmc(chain),
                                        serialize_goal(chain_goal), "goal");
  EXPECT_TRUE(ctmc_entry.model->is_ctmc());
  EXPECT_EQ(ctmc_entry.model->chain().num_states(), chain.num_states());
  EXPECT_NE(ctmc_entry.model->canonical_hash(), resolved.model->canonical_hash());
}

TEST(CacheTest, KindIsPartOfTheKey) {
  // A CTMC .tra and the same bytes submitted as a CTMDP must never share an
  // entry even if the serializations collided; the kind prefixes both keys.
  Rng rng(0x51de01u);
  gen::RandomCtmcConfig config;
  config.num_states = 6;
  const Ctmc chain = gen::random_ctmc(rng, config);
  const std::string source = serialize_ctmc(chain);
  const std::string labels = serialize_goal(gen::random_goal(rng, chain.num_states(), 0.4));

  ModelCache cache;
  const auto as_ctmc = cache.resolve(ModelKind::CtmcFile, source, labels, "goal");
  EXPECT_TRUE(as_ctmc.model->is_ctmc());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(CacheTest, EvictionNeverCorruptsInFlightQueries) {
  Rng rng(0xe51c7u);
  gen::RandomCtmdpConfig config;
  config.num_states = 30;
  const Ctmdp model_a = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal_a = gen::random_goal(rng, model_a.num_states(), 0.3);
  const Ctmdp model_b = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal_b = gen::random_goal(rng, model_b.num_states(), 0.3);
  const std::string source_a = serialize_ctmdp(model_a);
  const std::string labels_a = serialize_goal(goal_a);

  // A 1-byte budget forces eviction down to a single entry on every insert.
  ModelCache cache(1);
  const auto a = cache.resolve(ModelKind::CtmdpFile, source_a, labels_a, "goal");
  // Touch the kernel memo so the in-flight handle owns more than the model.
  (void)a.model->discrete_kernel(Objective::Maximize);

  const auto b = cache.resolve(ModelKind::CtmdpFile, serialize_ctmdp(model_b),
                               serialize_goal(goal_b), "goal");
  CacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // The evicted handle is still fully usable: solve through its memoized
  // kernel and compare bitwise against a fresh direct solve.
  TimedReachabilityOptions options;
  options.epsilon = 1e-10;
  options.backend = Backend::Serial;
  TimedReachabilityOptions cached_options = options;
  cached_options.discrete_kernel = &a.model->discrete_kernel(Objective::Maximize);
  const TimedReachabilityResult via_cache =
      timed_reachability(a.model->ctmdp(), a.model->goal_for(Objective::Maximize), 1.5,
                         cached_options);
  const TimedReachabilityResult direct = timed_reachability(model_a, goal_a, 1.5, options);
  ASSERT_EQ(via_cache.values.size(), direct.values.size());
  for (std::size_t s = 0; s < direct.values.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(via_cache.values[s]),
              std::bit_cast<std::uint64_t>(direct.values[s]))
        << "state " << s;
  }

  // Re-resolving the evicted model is a miss (its aliases were dropped
  // with the entry), and produces the same canonical hash.
  const auto a_again = cache.resolve(ModelKind::CtmdpFile, source_a, labels_a, "goal");
  EXPECT_FALSE(a_again.hit);
  EXPECT_EQ(a_again.model->canonical_hash(), a.model->canonical_hash());
}

TEST(CacheTest, KernelMemoizationAccountsBytes) {
  ModelCache cache;
  const auto resolved = cache.resolve(ModelKind::Uni, kModelA, "", "goal");
  const std::size_t before = resolved.model->bytes();
  const DiscreteKernel& k1 = resolved.model->discrete_kernel(Objective::Maximize);
  const DiscreteKernel& k2 = resolved.model->discrete_kernel(Objective::Maximize);
  EXPECT_EQ(&k1, &k2);
  EXPECT_GT(resolved.model->bytes(), before);
  // The universal-transfer mask backs the Minimize kernel — distinct memo slot.
  const DiscreteKernel& k3 = resolved.model->discrete_kernel(Objective::Minimize);
  EXPECT_NE(&k1, &k3);
}

TEST(CacheTest, GoalNameIsPartOfTheKey) {
  const std::string two_props =
      "component C {\n"
      "  states s0, s1;\n"
      "  initial s0;\n"
      "  label first: s0;\n"
      "  label second: s1;\n"
      "  rate 1: s0 -> s1;\n"
      "  rate 1: s1 -> s0;\n"
      "}\n"
      "system = C;\n"
      "prop goal = second;\n"
      "prop start = first;\n";
  ModelCache cache;
  const auto goal_entry = cache.resolve(ModelKind::Uni, two_props, "", "goal");
  const auto start_entry = cache.resolve(ModelKind::Uni, two_props, "", "start");
  EXPECT_FALSE(start_entry.hit);
  EXPECT_NE(goal_entry.model->canonical_hash(), start_entry.model->canonical_hash());
  EXPECT_NE(goal_entry.model->goal_for(Objective::Maximize),
            start_entry.model->goal_for(Objective::Maximize));
}

TEST(CacheTest, ConcurrentIdenticalResolvesShareOneEntry) {
  // N threads race the same source through an empty cache.  Lowering runs
  // outside the cache lock, so several threads may lower concurrently —
  // but insertion must converge on a single canonical entry that every
  // thread ends up sharing, and later resolves must be level-1 hits.
  constexpr int kThreads = 8;
  ModelCache cache;
  std::vector<std::shared_ptr<const CachedModel>> models(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // line up the race
      models[i] = cache.resolve(ModelKind::Uni, kModelA, "", "goal").model;
    });
  }
  for (auto& thread : threads) thread.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(models[i], nullptr);
    // Every thread holds the same entry the cache retained: one canonical
    // model, regardless of how many racers lowered it redundantly.
    EXPECT_EQ(models[i].get(), models[0].get()) << "thread " << i;
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  // Exactly one racer wins the insert; the rest land as hits on either
  // cache level once the winner has published the entry.
  EXPECT_EQ(stats.misses + stats.source_hits + stats.canonical_hits,
            static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(stats.misses, 1u);

  const auto after = cache.resolve(ModelKind::Uni, kModelA, "", "goal");
  EXPECT_TRUE(after.hit);
  EXPECT_EQ(after.model.get(), models[0].get());
}

}  // namespace
}  // namespace unicon
