// Crash-safe cache persistence: unicon-cache-v1 round trips, deterministic
// bytes, checksum/corruption detection with partial recovery, truncation
// handling, atomic publication, and bit-identical warm-started answers.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ctmdp/reachability.hpp"
#include "io/tra.hpp"
#include "server/model_cache.hpp"
#include "server/service.hpp"
#include "server/snapshot.hpp"
#include "support/rng.hpp"
#include "testing/generate.hpp"

namespace unicon {
namespace {

namespace gen = unicon::testing;
using server::AnalysisService;
using server::ModelCache;
using server::ModelKind;
using server::QueryRequest;
using server::QueryResponse;
using server::ServiceOptions;
using server::SnapshotStats;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

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

/// A cache with two entries (a CTMDP and a CTMC) and one extra source
/// alias on the CTMDP entry.
struct SeededCache {
  explicit SeededCache(std::uint64_t seed = 0x5a4b) {
    Rng rng(seed);
    gen::RandomCtmdpConfig config;
    config.num_states = 9;
    const Ctmdp model = gen::random_uniform_ctmdp(rng, config);
    ctmdp_source = serialize_ctmdp(model);
    ctmdp_labels = serialize_goal(gen::random_goal(rng, model.num_states(), 0.3));
    // Same model, respelled with a trailing comment: a second source key
    // aliased onto the same canonical entry.
    ctmdp_source_alias = ctmdp_source + "# respelled\n";

    gen::RandomCtmcConfig ctmc_config;
    ctmc_config.num_states = 7;
    const Ctmc chain = gen::random_ctmc(rng, ctmc_config);
    ctmc_source = serialize_ctmc(chain);
    ctmc_labels = serialize_goal(gen::random_goal(rng, chain.num_states(), 0.3));

    cache.resolve(ModelKind::CtmdpFile, ctmdp_source, ctmdp_labels, "goal");
    cache.resolve(ModelKind::CtmdpFile, ctmdp_source_alias, ctmdp_labels, "goal");
    cache.resolve(ModelKind::CtmcFile, ctmc_source, ctmc_labels, "goal");
  }

  ModelCache cache;
  std::string ctmdp_source, ctmdp_source_alias, ctmdp_labels;
  std::string ctmc_source, ctmc_labels;
};

std::string snapshot_of(const ModelCache& cache) {
  std::ostringstream out;
  cache.save_snapshot(out);
  return out.str();
}

SnapshotStats load_from(ModelCache& cache, const std::string& text) {
  std::istringstream in(text);
  return cache.load_snapshot(in);
}

TEST(SnapshotTest, RoundTripRestoresEntriesAndAliases) {
  SeededCache seeded;
  std::ostringstream out;
  const SnapshotStats saved = seeded.cache.save_snapshot(out);
  EXPECT_EQ(saved.entries_written, 2u);

  ModelCache restored;
  const SnapshotStats loaded = load_from(restored, out.str());
  EXPECT_EQ(loaded.entries_loaded, 2u);
  EXPECT_GE(loaded.aliases_loaded, 3u);  // two ctmdp spellings + the ctmc
  EXPECT_EQ(loaded.entries_corrupt, 0u);
  EXPECT_FALSE(loaded.truncated);

  // Every source key known to the writer is a warm level-1 hit, including
  // the respelled alias — no lowering happens on the restored cache.
  const auto a = restored.resolve(ModelKind::CtmdpFile, seeded.ctmdp_source,
                                  seeded.ctmdp_labels, "goal");
  const auto alias = restored.resolve(ModelKind::CtmdpFile, seeded.ctmdp_source_alias,
                                      seeded.ctmdp_labels, "goal");
  const auto c = restored.resolve(ModelKind::CtmcFile, seeded.ctmc_source,
                                  seeded.ctmc_labels, "goal");
  EXPECT_TRUE(a.hit);
  EXPECT_TRUE(alias.hit);
  EXPECT_TRUE(c.hit);
  EXPECT_EQ(a.model.get(), alias.model.get());
  EXPECT_EQ(restored.stats().source_hits, 3u);
  EXPECT_EQ(restored.stats().misses, 0u);

  // The restored lowered models carry the same canonical identity and
  // goal masks as the originals.
  const auto original = seeded.cache.resolve(ModelKind::CtmdpFile, seeded.ctmdp_source,
                                             seeded.ctmdp_labels, "goal");
  EXPECT_EQ(a.model->canonical_hash(), original.model->canonical_hash());
  EXPECT_EQ(a.model->goal_for(Objective::Maximize), original.model->goal_for(Objective::Maximize));
}

TEST(SnapshotTest, SnapshotBytesAreDeterministic) {
  SeededCache first;
  SeededCache second;
  const std::string bytes = snapshot_of(first.cache);
  EXPECT_EQ(bytes, snapshot_of(second.cache));
  // Save -> load -> save is a fixed point: the restored cache re-snapshots
  // to byte-identical output (what makes warm restarts auditable).
  ModelCache restored;
  load_from(restored, bytes);
  EXPECT_EQ(bytes, snapshot_of(restored));
}

TEST(SnapshotTest, ChecksumFailureSkipsOnlyTheDamagedRecord) {
  SeededCache seeded;
  std::string bytes = snapshot_of(seeded.cache);

  // Flip one bit inside the first record's body (just past its header).
  const std::size_t first_entry = bytes.find("entry ");
  ASSERT_NE(first_entry, std::string::npos);
  const std::size_t body = bytes.find('\n', first_entry) + 40;
  ASSERT_LT(body, bytes.size());
  bytes[body] = static_cast<char>(bytes[body] ^ 0x08);

  ModelCache restored;
  const SnapshotStats loaded = load_from(restored, bytes);
  EXPECT_EQ(loaded.entries_corrupt, 1u);
  EXPECT_EQ(loaded.entries_loaded, 1u);  // the other record authenticates
  EXPECT_EQ(restored.stats().entries, 1u);
}

TEST(SnapshotTest, MalformedHeaderResyncsToNextRecord) {
  SeededCache seeded;
  std::string bytes = snapshot_of(seeded.cache);
  // Stomp the first header line itself — length and checksum unreadable,
  // the loader must scan forward to the next record boundary.
  const std::size_t first_entry = bytes.find("entry ");
  ASSERT_NE(first_entry, std::string::npos);
  bytes.replace(first_entry, 6, "ENTRY?");

  ModelCache restored;
  const SnapshotStats loaded = load_from(restored, bytes);
  EXPECT_GE(loaded.entries_corrupt, 1u);
  EXPECT_EQ(loaded.entries_loaded, 1u);
}

TEST(SnapshotTest, TruncationLoadsTheAuthenticatedPrefix) {
  SeededCache seeded;
  const std::string bytes = snapshot_of(seeded.cache);
  const std::size_t second_entry = bytes.find("entry ", bytes.find("entry ") + 1);
  ASSERT_NE(second_entry, std::string::npos);

  // Cut mid-way through the second record: the first still loads.
  ModelCache restored;
  const SnapshotStats loaded = load_from(restored, bytes.substr(0, second_entry + 30));
  EXPECT_TRUE(loaded.truncated);
  EXPECT_EQ(loaded.entries_loaded, 1u);

  // Cut before any record: empty warm start, flagged truncated.
  ModelCache empty;
  const SnapshotStats nothing = load_from(empty, bytes.substr(0, 5));
  EXPECT_TRUE(nothing.truncated);
  EXPECT_EQ(nothing.entries_loaded, 0u);
}

TEST(SnapshotTest, BadMagicOrTrailingGarbageIsFlagged) {
  SeededCache seeded;
  const std::string bytes = snapshot_of(seeded.cache);

  ModelCache wrong_magic;
  const SnapshotStats rejected = load_from(wrong_magic, "not-a-snapshot\n" + bytes);
  EXPECT_TRUE(rejected.truncated);
  EXPECT_EQ(rejected.entries_loaded, 0u);
  EXPECT_EQ(wrong_magic.stats().entries, 0u);

  ModelCache trailing;
  const SnapshotStats dirty = load_from(trailing, bytes + "leftover bytes\n");
  EXPECT_TRUE(dirty.truncated);
  EXPECT_EQ(dirty.entries_loaded, 2u);  // the valid prefix still restores
}

TEST(SnapshotTest, ExistingEntriesWinOverSnapshotRecords) {
  // Loading a snapshot into a cache that already resolved one of the
  // models must not replace the live entry (in-flight queries may hold it).
  SeededCache seeded;
  const std::string bytes = snapshot_of(seeded.cache);

  ModelCache busy;
  const auto live = busy.resolve(ModelKind::CtmdpFile, seeded.ctmdp_source,
                                 seeded.ctmdp_labels, "goal");
  load_from(busy, bytes);
  const auto after = busy.resolve(ModelKind::CtmdpFile, seeded.ctmdp_source,
                                  seeded.ctmdp_labels, "goal");
  EXPECT_EQ(live.model.get(), after.model.get());
}

TEST(SnapshotTest, FileSaveIsAtomicAndLoadsBack) {
  SeededCache seeded;
  const std::string path = ::testing::TempDir() + "unicon_snapshot_test.v1";
  const SnapshotStats saved = server::save_cache_snapshot(seeded.cache, path);
  EXPECT_EQ(saved.entries_written, 2u);

  // The temp file never survives a successful publish.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  // The published bytes are exactly the stream serialization.
  std::ifstream in(path, std::ios::binary);
  std::stringstream published;
  published << in.rdbuf();
  EXPECT_EQ(published.str(), snapshot_of(seeded.cache));

  ModelCache restored;
  const SnapshotStats loaded = server::load_cache_snapshot(restored, path);
  EXPECT_EQ(loaded.entries_loaded, 2u);
  std::remove(path.c_str());

  // A missing file is a cold start, not an error.
  ModelCache cold;
  const SnapshotStats missing = server::load_cache_snapshot(cold, path + ".does-not-exist");
  EXPECT_EQ(missing.entries_loaded, 0u);
  EXPECT_FALSE(missing.truncated);
  EXPECT_EQ(missing.entries_corrupt, 0u);
}

TEST(SnapshotTest, ServedQueryKeyReloadsAsASourceHit) {
  // The service hashes a request's source once, at submit, and resolves by
  // that key; the alias it persists must be the very key a cache computes
  // for itself, so a reloaded snapshot answers the same request as a
  // level-1 hit without lowering anything.
  Rng rng(0x3c1d);
  gen::RandomCtmcConfig config;
  config.num_states = 8;
  const Ctmc chain = gen::random_ctmc(rng, config);
  QueryRequest request;
  request.client = "snap";
  request.id = "q";
  request.kind = ModelKind::CtmcFile;
  request.source = serialize_ctmc(chain);
  request.labels = serialize_goal(gen::random_goal(rng, chain.num_states(), 0.3));
  request.times = {0.5};

  std::string snapshot;
  {
    AnalysisService service(ServiceOptions{.workers = 1});
    ASSERT_EQ(service.query(request).error, ErrorCode::Ok);
    const std::string path = ::testing::TempDir() + "unicon_snapshot_served.v1";
    service.save_cache(path);
    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    snapshot = bytes.str();
    std::remove(path.c_str());
  }

  ModelCache restored;
  const SnapshotStats loaded = load_from(restored, snapshot);
  EXPECT_EQ(loaded.entries_loaded, 1u);
  EXPECT_EQ(loaded.aliases_loaded, 1u);
  const auto hit = restored.resolve(request.kind, request.source, request.labels,
                                    request.goal_name);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(restored.stats().source_hits, 1u);
  EXPECT_EQ(restored.stats().canonical_hits, 0u);
  EXPECT_EQ(restored.stats().misses, 0u);
}

TEST(SnapshotTest, WarmStartedServiceAnswersBitIdentically) {
  Rng rng(0x77a3);
  gen::RandomCtmdpConfig config;
  config.num_states = 12;
  const Ctmdp model = gen::random_uniform_ctmdp(rng, config);
  const BitVector goal = gen::random_goal(rng, model.num_states(), 0.3);

  QueryRequest request;
  request.client = "snap";
  request.id = "q";
  request.kind = ModelKind::CtmdpFile;
  request.source = serialize_ctmdp(model);
  request.labels = serialize_goal(goal);
  request.times = {0.5, 1.5};
  request.backend = Backend::Serial;

  const std::string path = ::testing::TempDir() + "unicon_snapshot_service.v1";
  QueryResponse cold;
  {
    AnalysisService service(ServiceOptions{.workers = 1});
    cold = service.query(request);
    ASSERT_EQ(cold.error, ErrorCode::Ok);
    service.save_cache(path);
  }

  AnalysisService warm(ServiceOptions{.workers = 1});
  const SnapshotStats loaded = warm.load_cache(path);
  EXPECT_EQ(loaded.entries_loaded, 1u);
  const QueryResponse reheated = warm.query(request);
  std::remove(path.c_str());
  ASSERT_EQ(reheated.error, ErrorCode::Ok);
  EXPECT_TRUE(reheated.cache_hit);
  ASSERT_EQ(reheated.results.size(), cold.results.size());
  for (std::size_t j = 0; j < cold.results.size(); ++j) {
    EXPECT_EQ(bits(reheated.results[j].value), bits(cold.results[j].value));
    EXPECT_EQ(bits(reheated.results[j].residual_bound), bits(cold.results[j].residual_bound));
    EXPECT_EQ(reheated.results[j].iterations_executed, cold.results[j].iterations_executed);
  }
}

}  // namespace
}  // namespace unicon
