// Lockdown suite for the MappingService serving tier (apps/serving.{h,cc},
// apps/mapping_store.{h,cc}): the RCU ServingSnapshot publication protocol,
// the fail-closed transition contract (a failed transition leaves store,
// pool, artifacts, corpus, options, and health() bit-identical), the
// ServiceHealth reset semantics, the recoverable append protocol
// (merge rollback on failure), and the batched lookup paths' and the
// containment index's equivalence with scalar/scan oracles.
//
// Chain failures are injected with MappingService::InjectFaultForTests —
// the CPU-side analog of the persistence FaultInjectionEnv sweep
// (tests/fault_test.cc): the service's own artifacts always share lineage,
// so no mid-chain stage failure is reachable through the public API
// without a deterministic failpoint.
//
// The multi-threaded half of the serving contract (torture appends under
// read load, readers during Resynthesize) lives in
// tests/serving_concurrency_test.cc under the `concurrency` ctest label.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/serving.h"
#include "common/random.h"
#include "persist/mapping_text.h"
#include "persist/rotation.h"
#include "synth/session.h"
#include "table/corpus.h"
#include "table/tsv.h"

namespace ms {
namespace {

using ServingFault = MappingService::ServingFault;
using LookupDirection = MappingService::LookupDirection;

std::string ScratchRoot() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir ? dir : "/tmp");
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ScratchRoot() + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void FlipByte(const std::string& path, size_t pos) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), pos);
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------ corpus construction

struct TableSpec {
  std::string domain;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> cols;
};

/// Same web-shaped generator family as the incremental/fault suites: a
/// ground mapping name_i -> code_(i mod 8) sampled with typo and conflict
/// noise over a small vocabulary.
std::vector<TableSpec> SmallCorpusSpec(Rng& rng, size_t n_tables) {
  std::vector<std::string> lefts, rights;
  for (size_t i = 0; i < 24; ++i) {
    lefts.push_back("entity name " + std::to_string(i));
    rights.push_back("code" + std::to_string(i % 8));
  }
  std::vector<TableSpec> specs;
  specs.reserve(n_tables);
  for (size_t t = 0; t < n_tables; ++t) {
    TableSpec spec;
    spec.domain = "domain" + std::to_string(rng.Uniform(4)) + ".example";
    const size_t rows = 4 + rng.Uniform(5);
    std::vector<std::string> lcol, rcol;
    std::set<uint64_t> seen;
    while (lcol.size() < rows) {
      const uint64_t li = rng.Uniform(lefts.size());
      if (!seen.insert(li).second) continue;
      std::string l = lefts[li];
      if (rng.Bernoulli(0.1)) {
        l[rng.Uniform(l.size())] = static_cast<char>('a' + rng.Uniform(26));
      }
      std::string r = rights[li];
      if (rng.Bernoulli(0.05)) r = "code" + std::to_string(rng.Uniform(8));
      lcol.push_back(std::move(l));
      rcol.push_back(std::move(r));
    }
    spec.names = {"name", "code"};
    spec.cols = {std::move(lcol), std::move(rcol)};
    specs.push_back(std::move(spec));
  }
  return specs;
}

void AddSpecs(TableCorpus* corpus, const std::vector<TableSpec>& specs,
              size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    corpus->AddFromStrings(specs[i].domain, TableSource::kWeb, specs[i].names,
                           specs[i].cols);
  }
}

SynthesisOptions ServingOptions() {
  SynthesisOptions o;
  o.num_threads = 2;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.extraction.coherence_threshold = -1.0;
  return o;
}

// -------------------------------------------------------------- comparison

std::multiset<std::string> Canonical(const SynthesisResult& r,
                                     const StringPool& pool) {
  std::multiset<std::string> out;
  for (const auto& m : r.mappings) {
    std::multiset<std::string> pairs;
    for (const auto& p : m.merged.pairs()) {
      pairs.insert(std::string(pool.Get(p.left)) + "\x1e" +
                   std::string(pool.Get(p.right)));
    }
    std::string key = m.left_label + "\x1f" + m.right_label + "\x1f";
    for (const auto& p : pairs) key += p + "\x1f";
    out.insert(std::move(key));
  }
  return out;
}

std::multiset<std::string> ServiceCanonical(const MappingService& svc) {
  return Canonical(svc.last_result(), *svc.shared_pool());
}

void ExpectHealthEq(const ServiceHealth& a, const ServiceHealth& b) {
  EXPECT_EQ(a.generation_served, b.generation_served);
  EXPECT_EQ(a.generations_skipped, b.generations_skipped);
  EXPECT_EQ(a.quarantined_files, b.quarantined_files);
  EXPECT_EQ(a.degraded(), b.degraded());
}

/// All left/right value strings of every mapping in the snapshot's store,
/// resolved through the snapshot's own pool — probe material for lookups.
std::vector<std::pair<std::string, std::string>> SnapshotPairs(
    const ServingSnapshot& snap) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : snap.result->mappings) {
    for (const auto& p : m.merged.pairs()) {
      out.emplace_back(std::string(snap.pool->Get(p.left)),
                       std::string(snap.pool->Get(p.right)));
    }
  }
  return out;
}

// ===================================================== ServingSnapshotTest

TEST(ServingRcuTest, NothingServedBeforeFirstTransition) {
  MappingService svc(ServingOptions());
  EXPECT_EQ(svc.AcquireSnapshot(), nullptr);
  EXPECT_FALSE(svc.has_store());
  EXPECT_EQ(svc.num_mappings(), 0u);
  const auto batch =
      svc.LookupBatch(0, {"entity name 1", "code1"});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].has_value());
  EXPECT_FALSE(batch[1].has_value());
  EXPECT_EQ(svc.SuggestCorrections({"a", "b"}).mapping_index, -1);
  EXPECT_EQ(svc.AutoFill({"a", "b"}, {{0, "x"}}).mapping_index, -1);
  EXPECT_EQ(svc.AutoJoin({"a"}, {"b"}).mapping_index, -1);
}

TEST(ServingRcuTest, VersionsAdvanceAndOldHandlesKeepServing) {
  Rng rng(101);
  auto specs = SmallCorpusSpec(rng, 10);
  TableCorpus base;
  AddSpecs(&base, specs, 0, 7);

  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(base).ok());
  const auto v1 = svc.AcquireSnapshot();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  ASSERT_NE(v1->store, nullptr);
  ASSERT_NE(v1->result, nullptr);
  EXPECT_EQ(v1->store->size(), v1->result->mappings.size());
  const size_t v1_mappings = v1->store->size();
  const auto v1_pairs = SnapshotPairs(*v1);

  // Grow the external corpus and resynthesize: a new generation publishes.
  AddSpecs(&base, specs, 7, specs.size());
  ASSERT_TRUE(svc.ResynthesizeAppended().ok());
  const auto v2 = svc.AcquireSnapshot();
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version, 2u);
  EXPECT_NE(v1.get(), v2.get());
  EXPECT_NE(v1->store.get(), v2->store.get());

  // The old handle is still fully serviceable: same store object, same
  // size, lookups still resolve — the RCU grace period is the handle's
  // lifetime.
  EXPECT_EQ(v1->store->size(), v1_mappings);
  for (size_t i = 0; i < v1_pairs.size() && i < 8; ++i) {
    const auto got = v1->store->LookupRight(0, v1_pairs.empty()
                                                   ? std::string()
                                                   : v1_pairs[i].first);
    (void)got;  // value depends on which mapping is index 0; no crash is
                // the assertion, plus the size identity above.
  }

  // A third transition (warm resynthesize, same options) bumps again.
  ASSERT_TRUE(svc.Resynthesize(ServingOptions()).ok());
  EXPECT_EQ(svc.AcquireSnapshot()->version, 3u);
}

TEST(ServingRcuTest, SnapshotIsInternallyConsistentAcrossTransitions) {
  Rng rng(102);
  auto specs = SmallCorpusSpec(rng, 12);
  TableCorpus base;
  AddSpecs(&base, specs, 0, 8);
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(base).ok());

  const auto snap = svc.AcquireSnapshot();
  ASSERT_NE(snap, nullptr);
  // The published invariant the torture test hammers concurrently: the
  // store was built from exactly result->mappings.
  EXPECT_EQ(snap->store->size(), snap->result->mappings.size());
  EXPECT_EQ(snap->result->stats.mappings, snap->result->mappings.size());
  for (size_t i = 0; i < snap->store->size(); ++i) {
    EXPECT_EQ(snap->store->name(i),
              snap->result->mappings[i].left_label + "->" +
                  snap->result->mappings[i].right_label);
  }
}

// ==================================================== ServingFailClosedTest

/// Every chain-stage failpoint of a fresh run must leave the previous
/// serving generation — snapshot object, store, pool, result, corpus
/// binding, and health — bit-identical (ISSUE satellite 1: StartFreshRun
/// previously installed corpus/pool and cleared artifacts before running
/// the chain).
TEST(ServingFailClosedTest, FailedFreshRunLeavesPriorGenerationUntouched) {
  Rng rng(201);
  auto specs = SmallCorpusSpec(rng, 10);
  TableCorpus good;
  AddSpecs(&good, specs, 0, 7);
  Rng rng2(202);
  auto other_specs = SmallCorpusSpec(rng2, 6);
  TableCorpus other;
  AddSpecs(&other, other_specs, 0, other_specs.size());

  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(good).ok());
  const auto before_snap = svc.AcquireSnapshot();
  const auto before_canonical = ServiceCanonical(svc);
  const auto before_health = svc.health();
  const StringPool* before_pool = svc.shared_pool().get();
  const MappingStore* before_store = &svc.store();

  const ServingFault points[] = {ServingFault::kExtract,
                                 ServingFault::kBlock,
                                 ServingFault::kScore,
                                 ServingFault::kPartition,
                                 ServingFault::kResolve,
                                 ServingFault::kPublish};
  for (const ServingFault point : points) {
    svc.InjectFaultForTests(point);
    const Status st = svc.Synthesize(other);
    ASSERT_FALSE(st.ok()) << "fault point " << static_cast<int>(point);
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    // Identical serving state: same snapshot object (not merely equal
    // content), same store/pool objects, same result, same health.
    EXPECT_EQ(svc.AcquireSnapshot().get(), before_snap.get());
    EXPECT_EQ(&svc.store(), before_store);
    EXPECT_EQ(svc.shared_pool().get(), before_pool);
    EXPECT_EQ(ServiceCanonical(svc), before_canonical);
    ExpectHealthEq(svc.health(), before_health);
  }

  // The service is not wedged: the corpus binding still points at `good`,
  // so a warm resynthesize serves the same mappings.
  ASSERT_TRUE(svc.Resynthesize(ServingOptions()).ok());
  EXPECT_EQ(ServiceCanonical(svc), before_canonical);
}

TEST(ServingFailClosedTest, FailedResynthesizeRollsBackOptions) {
  Rng rng(203);
  auto specs = SmallCorpusSpec(rng, 10);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());

  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(corpus).ok());
  const auto before_canonical = ServiceCanonical(svc);
  const auto before_snap = svc.AcquireSnapshot();

  SynthesisOptions tightened = ServingOptions();
  tightened.min_pairs = 3;  // downstream-only change: re-partitions/resolves

  svc.InjectFaultForTests(ServingFault::kResolve);
  ASSERT_FALSE(svc.Resynthesize(tightened).ok());
  // Fail-closed including configuration: the session still reports the
  // options the served artifacts were built under.
  EXPECT_EQ(svc.AcquireSnapshot().get(), before_snap.get());
  EXPECT_EQ(ServiceCanonical(svc), before_canonical);

  // The retry must actually re-run the changed stages. If the failed call
  // had left `tightened` installed, this diff would be a no-op and serve
  // the stale generation as if rebuilt.
  ASSERT_TRUE(svc.Resynthesize(tightened).ok());
  TableCorpus cold_corpus;
  AddSpecs(&cold_corpus, specs, 0, specs.size());
  MappingService cold(tightened);
  ASSERT_TRUE(cold.Synthesize(cold_corpus).ok());
  EXPECT_EQ(ServiceCanonical(svc), ServiceCanonical(cold));
}

// ======================================================= ServingHealthTest

/// Builds a rotation dir whose newest generation is corrupt, so a recovery
/// walk records a skip + quarantine (degraded health).
void BuildDegradedRotationDir(const std::string& dir,
                              const std::vector<TableSpec>& specs) {
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  MappingService writer(ServingOptions());
  ASSERT_TRUE(writer.Synthesize(corpus).ok());
  ASSERT_TRUE(writer.SaveSnapshotRotating(dir).ok());
  ASSERT_TRUE(writer.SaveSnapshotRotating(dir).ok());
  const std::string newest = dir + "/" + persist::SnapshotFileName(2);
  FlipByte(newest, ReadFileBytes(newest).size() / 2);
}

TEST(ServingHealthTest, NonRotatingTransitionsResetRotationBookkeeping) {
  const std::string dir = FreshDir("serving_health_reset");
  Rng rng(301);
  auto specs = SmallCorpusSpec(rng, 8);
  BuildDegradedRotationDir(dir, specs);

  // A plain snapshot to open and a mappings TSV to bootstrap from.
  const std::string plain_snap = ScratchRoot() + "/serving_health_plain.mssnap";
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  {
    MappingService writer(ServingOptions());
    ASSERT_TRUE(writer.Synthesize(corpus).ok());
    ASSERT_TRUE(writer.SaveSnapshot(plain_snap).ok());
  }

  // Degrade, then check that each non-rotating transition resets the walk
  // record (ISSUE satellite 2: these used to leave health() degraded on a
  // healthy service).
  {
    MappingService svc(ServingOptions());
    ASSERT_TRUE(svc.OpenLatestSnapshot(dir).ok());
    ASSERT_TRUE(svc.health().degraded());  // walked past the corrupt gen 2
    EXPECT_EQ(svc.health().generation_served, 1u);
    ASSERT_TRUE(svc.OpenFromSnapshot(plain_snap).ok());
    const ServiceHealth h = svc.health();
    EXPECT_EQ(h.generation_served, 0u);
    EXPECT_EQ(h.generations_skipped, 0u);
    EXPECT_TRUE(h.quarantined_files.empty());
    EXPECT_FALSE(h.degraded());
  }
  // The first walk quarantined gen 2; re-corrupt for each fresh scenario.
  {
    const std::string dir2 = FreshDir("serving_health_reset_syn");
    BuildDegradedRotationDir(dir2, specs);
    MappingService svc(ServingOptions());
    ASSERT_TRUE(svc.OpenLatestSnapshot(dir2).ok());
    ASSERT_TRUE(svc.health().degraded());
    ASSERT_TRUE(svc.Synthesize(corpus).ok());
    EXPECT_FALSE(svc.health().degraded());
    EXPECT_EQ(svc.health().generation_served, 0u);
  }
  {
    const std::string dir3 = FreshDir("serving_health_reset_tsv");
    BuildDegradedRotationDir(dir3, specs);
    const std::string mappings_tsv =
        ScratchRoot() + "/serving_health_mappings.tsv";
    {
      MappingService writer(ServingOptions());
      ASSERT_TRUE(writer.Synthesize(corpus).ok());
      ASSERT_TRUE(persist::SaveMappingsTsv(writer.last_result().mappings,
                                           *writer.shared_pool(), mappings_tsv)
                      .ok());
    }
    MappingService svc(ServingOptions());
    ASSERT_TRUE(svc.OpenLatestSnapshot(dir3).ok());
    ASSERT_TRUE(svc.health().degraded());
    const Status st = svc.OpenFromMappingsFile(mappings_tsv);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_FALSE(svc.health().degraded());
    std::remove(mappings_tsv.c_str());
  }
  std::remove(plain_snap.c_str());
}

TEST(ServingHealthTest, AppendAndResynthesizeResetDegradedWalkRecord) {
  // A failed recovery walk records skips/quarantines while the service
  // keeps serving its previous state WITH its corpus — the degraded-but-
  // serving shape. A successful append or resynthesize then proves fresh
  // state and must clear the record.
  Rng rng(302);
  auto specs = SmallCorpusSpec(rng, 10);
  // All generations corrupt: the walk fails (and quarantines everything, so
  // each degradation scenario needs its own directory), recording 2 skips
  // while the previous serving state — including the corpus binding —
  // survives.
  auto degrade_all = [&](const std::string& name) {
    const std::string dir = FreshDir(name);
    TableCorpus corpus;
    AddSpecs(&corpus, specs, 0, 6);
    MappingService writer(ServingOptions());
    EXPECT_TRUE(writer.Synthesize(corpus).ok());
    EXPECT_TRUE(writer.SaveSnapshotRotating(dir).ok());
    EXPECT_TRUE(writer.SaveSnapshotRotating(dir).ok());
    for (uint64_t g = 1; g <= 2; ++g) {
      const std::string path = dir + "/" + persist::SnapshotFileName(g);
      FlipByte(path, ReadFileBytes(path).size() / 2);
    }
    return dir;
  };

  TableCorpus base;
  AddSpecs(&base, specs, 0, 6);
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(base).ok());
  ASSERT_FALSE(svc.OpenLatestSnapshot(degrade_all("serving_hlth_app1")).ok());
  ASSERT_TRUE(svc.health().degraded());  // the failed walk is recorded

  // External-corpus service: grow in place, then resynthesize the tail.
  AddSpecs(&base, specs, 6, 8);
  ASSERT_TRUE(svc.ResynthesizeAppended().ok());
  EXPECT_FALSE(svc.health().degraded());

  ASSERT_FALSE(svc.OpenLatestSnapshot(degrade_all("serving_hlth_app2")).ok());
  ASSERT_TRUE(svc.health().degraded());
  ASSERT_TRUE(svc.Resynthesize(ServingOptions()).ok());
  EXPECT_FALSE(svc.health().degraded());
}

TEST(ServingHealthTest, RotatingSaveClearsSkipQuarantineRecord) {
  const std::string dir = FreshDir("serving_health_rotsave");
  Rng rng(303);
  auto specs = SmallCorpusSpec(rng, 8);
  BuildDegradedRotationDir(dir, specs);

  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.OpenLatestSnapshot(dir).ok());
  const ServiceHealth degraded = svc.health();
  ASSERT_TRUE(degraded.degraded());
  EXPECT_EQ(degraded.generation_served, 1u);
  EXPECT_EQ(degraded.generations_skipped, 1u);

  // A successful rotating save commits a new durable generation: served
  // generation advances, the old walk's skip/quarantine record clears
  // (ISSUE satellite 2: it used to stick forever).
  ASSERT_TRUE(svc.SaveSnapshotRotating(dir).ok());
  const ServiceHealth after = svc.health();
  EXPECT_EQ(after.generation_served, 3u);  // gens 1,2 existed (2 corrupt)
  EXPECT_EQ(after.generations_skipped, 0u);
  EXPECT_TRUE(after.quarantined_files.empty());
  EXPECT_FALSE(after.degraded());
}

// ================================================ ServingAppendRecoveryTest

/// ISSUE satellite 3: a failed AppendAndResynthesize used to leave the
/// owned corpus grown past the synthesized prefix, turning every retry
/// into "corpus already grew" FailedPrecondition. The append protocol now
/// rolls the merge back, so the same delta simply retries.
TEST(ServingAppendRecoveryTest, FailedAppendRollsBackTheMergeAndRetries) {
  Rng rng(401);
  auto specs = SmallCorpusSpec(rng, 12);
  const std::string tsv = ScratchRoot() + "/serving_append_recovery.tsv";
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, 8);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }

  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.SynthesizeFromFile(tsv).ok());  // service-owned corpus
  const auto before_snap = svc.AcquireSnapshot();
  const auto before_canonical = ServiceCanonical(svc);

  TableCorpus delta;
  AddSpecs(&delta, specs, 8, 12);

  // Fail after the session append succeeded (the corpus merge has already
  // happened) — the worst spot: without rollback the corpus is grown and
  // the artifacts are not.
  svc.InjectFaultForTests(ServingFault::kAppendCommit);
  const Status st = svc.AppendAndResynthesize(delta);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(svc.AcquireSnapshot().get(), before_snap.get());
  EXPECT_EQ(ServiceCanonical(svc), before_canonical);

  // The retry with the SAME delta must work (this is the regression: it
  // used to FailedPrecondition forever).
  ASSERT_TRUE(svc.AppendAndResynthesize(delta).ok());

  // And the recovered append serves exactly what a cold rebuild over the
  // grown corpus serves.
  TableCorpus cold_corpus;
  AddSpecs(&cold_corpus, specs, 0, 12);
  MappingService cold(ServingOptions());
  ASSERT_TRUE(cold.Synthesize(cold_corpus).ok());
  EXPECT_EQ(ServiceCanonical(svc), ServiceCanonical(cold));
  std::remove(tsv.c_str());
}

TEST(ServingAppendRecoveryTest, PublishFaultAlsoRollsBackTheMerge) {
  Rng rng(402);
  auto specs = SmallCorpusSpec(rng, 10);
  const std::string tsv = ScratchRoot() + "/serving_append_publish.tsv";
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, 7);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.SynthesizeFromFile(tsv).ok());
  TableCorpus delta;
  AddSpecs(&delta, specs, 7, 10);

  svc.InjectFaultForTests(ServingFault::kPublish);
  ASSERT_FALSE(svc.AppendAndResynthesize(delta).ok());
  // Recoverable: the merge rolled back, so the append retries clean.
  ASSERT_TRUE(svc.AppendAndResynthesize(delta).ok());

  TableCorpus cold_corpus;
  AddSpecs(&cold_corpus, specs, 0, 10);
  MappingService cold(ServingOptions());
  ASSERT_TRUE(cold.Synthesize(cold_corpus).ok());
  EXPECT_EQ(ServiceCanonical(svc), ServiceCanonical(cold));
  std::remove(tsv.c_str());
}

TEST(ServingAppendRecoveryTest, FailedRetriesHoldThePoolSizeConstant) {
  // Regression: the append rollback truncated the corpus TABLES back to the
  // synthesized prefix but left the delta's freshly interned strings in the
  // pool — N failed retries pinned N orphaned copies of every delta value.
  Rng rng(403);
  auto specs = SmallCorpusSpec(rng, 8);
  const std::string tsv = ScratchRoot() + "/serving_append_poolleak.tsv";
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, 8);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.SynthesizeFromFile(tsv).ok());

  // A delta of values the base corpus has never interned, so every merge
  // genuinely grows the pool.
  TableCorpus delta;
  {
    std::vector<std::string> l, r;
    for (int i = 0; i < 6; ++i) {
      l.push_back("leak probe entity " + std::to_string(i));
      r.push_back("leakcode" + std::to_string(i % 2));
    }
    delta.AddFromStrings("domain9.example", TableSource::kWeb,
                         {"name", "code"}, {{l}, {r}});
  }

  const size_t pool_before = svc.shared_pool()->size();
  for (int attempt = 0; attempt < 5; ++attempt) {
    svc.InjectFaultForTests(ServingFault::kAppendCommit);
    ASSERT_FALSE(svc.AppendAndResynthesize(delta).ok());
    // Identity, not monotonicity: the pool must be at EXACTLY the
    // pre-append size after every failed attempt.
    EXPECT_EQ(pool_before, svc.shared_pool()->size())
        << "failed append attempt " << attempt << " leaked pool entries";
  }
  // The values really were new: a successful append grows the pool.
  ASSERT_TRUE(svc.AppendAndResynthesize(delta).ok());
  EXPECT_GT(svc.shared_pool()->size(), pool_before);
  std::remove(tsv.c_str());
}

// ===================================================== ServingMutationTest

/// Cold-rebuild oracle over `specs` minus `removed_specs` plus the tables
/// of `extra` (nullptr for removals).
std::multiset<std::string> ColdOracle(const std::vector<TableSpec>& specs,
                                      const std::set<size_t>& removed_specs,
                                      const TableCorpus* extra) {
  TableCorpus corpus;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (removed_specs.count(i) != 0) continue;
    AddSpecs(&corpus, specs, i, i + 1);
  }
  if (extra != nullptr) {
    EXPECT_TRUE(corpus.AppendFrom(*extra).ok());
  }
  MappingService cold(ServingOptions());
  EXPECT_TRUE(cold.Synthesize(corpus).ok());
  return ServiceCanonical(cold);
}

TEST(ServingMutationTest, RemoveAndResynthesizeMatchesColdRebuild) {
  Rng rng(404);
  auto specs = SmallCorpusSpec(rng, 12);
  const std::string tsv = ScratchRoot() + "/serving_remove.tsv";
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, 12);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.SynthesizeFromFile(tsv).ok());
  const uint64_t version_before = svc.AcquireSnapshot()->version;

  ASSERT_TRUE(svc.RemoveAndResynthesize({2, 5, 9}).ok());
  EXPECT_GT(svc.AcquireSnapshot()->version, version_before);
  EXPECT_EQ(ServiceCanonical(svc), ColdOracle(specs, {2, 5, 9}, nullptr));

  // Removing an already tombstoned table is a no-op contribution, and the
  // service keeps serving.
  ASSERT_TRUE(svc.RemoveAndResynthesize({2}).ok());
  EXPECT_EQ(ServiceCanonical(svc), ColdOracle(specs, {2, 5, 9}, nullptr));
  std::remove(tsv.c_str());
}

TEST(ServingMutationTest, ReplaceAndResynthesizeMatchesColdRebuild) {
  Rng rng(405);
  auto specs = SmallCorpusSpec(rng, 14);
  const std::string tsv = ScratchRoot() + "/serving_replace.tsv";
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, 10);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.SynthesizeFromFile(tsv).ok());

  TableCorpus delta;
  AddSpecs(&delta, specs, 10, 14);
  ASSERT_TRUE(svc.ReplaceAndResynthesize({1, 3}, delta).ok());
  EXPECT_EQ(ServiceCanonical(svc), ColdOracle(specs, {1, 3, 10, 11, 12, 13},
                                              &delta));
  std::remove(tsv.c_str());
}

TEST(ServingMutationTest, FailedMutationsRollBackAndRetry) {
  Rng rng(406);
  auto specs = SmallCorpusSpec(rng, 14);
  const std::string tsv = ScratchRoot() + "/serving_mutation_recovery.tsv";
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, 10);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.SynthesizeFromFile(tsv).ok());
  const auto before_snap = svc.AcquireSnapshot();
  const auto before_canonical = ServiceCanonical(svc);
  const size_t pool_before = svc.shared_pool()->size();

  TableCorpus delta;
  AddSpecs(&delta, specs, 10, 14);

  // Fail AFTER the session mutation succeeded (tables tombstoned, delta
  // merged): the service must restore the columns and the pool tail so the
  // exact same call can be retried.
  for (int attempt = 0; attempt < 3; ++attempt) {
    svc.InjectFaultForTests(ServingFault::kAppendCommit);
    const Status st = svc.ReplaceAndResynthesize({0, 4}, delta);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInternal);
    EXPECT_EQ(svc.AcquireSnapshot().get(), before_snap.get());
    EXPECT_EQ(ServiceCanonical(svc), before_canonical);
    EXPECT_EQ(pool_before, svc.shared_pool()->size())
        << "failed replace attempt " << attempt << " leaked pool entries";
  }
  // A publish-point failure exercises the other rollback call site.
  svc.InjectFaultForTests(ServingFault::kPublish);
  ASSERT_FALSE(svc.RemoveAndResynthesize({0}).ok());
  EXPECT_EQ(ServiceCanonical(svc), before_canonical);

  // Retries with the same arguments succeed and match the cold oracle —
  // proof the tombstoned columns really came back intact.
  ASSERT_TRUE(svc.ReplaceAndResynthesize({0, 4}, delta).ok());
  EXPECT_EQ(ServiceCanonical(svc), ColdOracle(specs, {0, 4, 10, 11, 12, 13},
                                              &delta));
  std::remove(tsv.c_str());
}

TEST(ServingMutationTest, MutationsRequireAnOwnedCorpus) {
  MappingService empty(ServingOptions());
  EXPECT_EQ(empty.RemoveAndResynthesize({0}).code(),
            StatusCode::kFailedPrecondition);

  // An external (caller-owned) corpus must not be tombstoned in place.
  Rng rng(407);
  auto specs = SmallCorpusSpec(rng, 6);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 6);
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(corpus).ok());
  EXPECT_EQ(svc.RemoveAndResynthesize({1}).code(),
            StatusCode::kFailedPrecondition);
  TableCorpus delta;
  AddSpecs(&delta, specs, 4, 6);
  EXPECT_EQ(svc.ReplaceAndResynthesize({1}, delta).code(),
            StatusCode::kFailedPrecondition);
  // The rejected mutations left serving untouched.
  EXPECT_EQ(corpus.size(), 6u);
  EXPECT_EQ(ServiceCanonical(svc).size(), svc.num_mappings());
}

// ===================================================== BatchLookupTest

/// Probe material: real values from the store plus typos, junk, empties,
/// and heavy duplication — the shapes the batch dedup must get right.
std::vector<std::string> ProbeMix(Rng& rng, const ServingSnapshot& snap,
                                  size_t n) {
  const auto pairs = SnapshotPairs(snap);
  std::vector<std::string> probes;
  probes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double roll = rng.UniformDouble();
    if (pairs.empty() || roll < 0.15) {
      probes.push_back("junk value " + std::to_string(rng.Uniform(50)));
    } else if (roll < 0.2) {
      probes.push_back("");
    } else {
      const auto& p = pairs[rng.Uniform(pairs.size())];
      std::string v = rng.Bernoulli(0.5) ? p.first : p.second;
      if (rng.Bernoulli(0.2) && !v.empty()) {
        v[rng.Uniform(v.size())] = 'z';  // typo: mostly misses
      }
      if (rng.Bernoulli(0.3)) v += "  ";  // normalization food
      probes.push_back(std::move(v));
    }
  }
  // Duplicate a prefix slice to force the dedup path to fan out.
  for (size_t i = 0; i + 1 < probes.size() / 2; i += 3) {
    probes[probes.size() - 1 - i] = probes[i];
  }
  return probes;
}

TEST(BatchLookupTest, BatchedLookupsMatchScalarOracle) {
  Rng rng(501);
  auto specs = SmallCorpusSpec(rng, 12);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(corpus).ok());
  const auto snap = svc.AcquireSnapshot();
  ASSERT_NE(snap, nullptr);
  ASSERT_GT(snap->store->size(), 0u);
  const MappingStore& store = *snap->store;

  for (size_t round = 0; round < 20; ++round) {
    const size_t mi = rng.Uniform(store.size());
    const auto probes = ProbeMix(rng, *snap, 1 + rng.Uniform(40));

    const auto sides = store.ProbeBatch(mi, probes);
    const auto rights = store.LookupRightBatch(mi, probes);
    const auto lefts = store.LookupLeftBatch(mi, probes);
    const auto svc_right =
        svc.LookupBatch(mi, probes, LookupDirection::kLeftToRight);
    const auto svc_left =
        svc.LookupBatch(mi, probes, LookupDirection::kRightToLeft);
    ASSERT_EQ(sides.size(), probes.size());
    ASSERT_EQ(rights.size(), probes.size());
    ASSERT_EQ(lefts.size(), probes.size());
    for (size_t k = 0; k < probes.size(); ++k) {
      EXPECT_EQ(sides[k], store.Probe(mi, probes[k])) << "probe " << k;
      EXPECT_EQ(rights[k], store.LookupRight(mi, probes[k])) << "probe " << k;
      EXPECT_EQ(lefts[k], store.LookupLeft(mi, probes[k])) << "probe " << k;
      EXPECT_EQ(svc_right[k], rights[k]) << "probe " << k;
      EXPECT_EQ(svc_left[k], lefts[k]) << "probe " << k;
    }
  }

  // Degenerate shapes.
  EXPECT_TRUE(store.ProbeBatch(0, {}).empty());
  EXPECT_TRUE(store.LookupRightBatch(0, {}).empty());
  const auto out_of_range = svc.LookupBatch(store.size() + 5, {"x", "y"});
  ASSERT_EQ(out_of_range.size(), 2u);
  EXPECT_FALSE(out_of_range[0].has_value());
}

// ================================================= ContainmentIndexTest

/// The containment contract spelled out as a scan: every mapping, every
/// input occurrence, one hit per side that holds the normalized value.
std::vector<MappingStore::ContainmentMatch> NaiveContainment(
    const MappingStore& store, const std::vector<std::string>& values,
    size_t min_hits) {
  std::vector<MappingStore::ContainmentMatch> out;
  for (size_t i = 0; i < store.size(); ++i) {
    MappingStore::ContainmentMatch m;
    m.index = i;
    for (const auto& v : values) {
      const ValueSide side = store.Probe(i, v);
      if (side == ValueSide::kLeft || side == ValueSide::kBoth) ++m.left_hits;
      if (side == ValueSide::kRight || side == ValueSide::kBoth) {
        ++m.right_hits;
      }
    }
    if (m.total() >= min_hits) out.push_back(m);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const MappingStore::ContainmentMatch& a,
                      const MappingStore::ContainmentMatch& b) {
                     return a.total() > b.total();
                   });
  return out;
}

void ExpectSameMatches(const std::vector<MappingStore::ContainmentMatch>& got,
                       const std::vector<MappingStore::ContainmentMatch>& want,
                       const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << ctx << " match " << i;
    EXPECT_EQ(got[i].left_hits, want[i].left_hits) << ctx << " match " << i;
    EXPECT_EQ(got[i].right_hits, want[i].right_hits) << ctx << " match " << i;
  }
}

TEST(ContainmentIndexTest, MatchesNaiveScanOnServedMappings) {
  Rng rng(601);
  auto specs = SmallCorpusSpec(rng, 12);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(corpus).ok());
  const auto snap = svc.AcquireSnapshot();
  const MappingStore& store = *snap->store;
  ASSERT_GT(store.size(), 1u);

  // ProbeMix repeats a prefix slice, so duplicate probe values are in
  // every round; min_hits sweeps 0..3 in every round too.
  for (size_t round = 0; round < 30; ++round) {
    const auto probes = ProbeMix(rng, *snap, 1 + rng.Uniform(30));
    for (size_t min_hits = 0; min_hits <= 3; ++min_hits) {
      ExpectSameMatches(store.FindByContainment(probes, min_hits),
                        NaiveContainment(store, probes, min_hits),
                        "round " + std::to_string(round) + " min_hits=" +
                            std::to_string(min_hits));
    }
  }
}

TEST(ContainmentIndexTest, DuplicatesAndBothSidedValuesCountPerOccurrence) {
  // Mapping 0 holds "ohio" on both sides (oh -> ohio, ohio -> oh state);
  // mapping 1 holds it on the left only. Duplicate and unnormalized probes
  // must count once per occurrence, per side.
  auto pool = std::make_shared<StringPool>();
  auto mapping = [&](std::vector<std::pair<std::string, std::string>> rows) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool->Intern(l), pool->Intern(r)});
    }
    SynthesizedMapping m;
    m.merged = BinaryTable::FromPairs(std::move(pairs));
    return m;
  };
  MappingStore store(pool);
  store.Add(mapping({{"oh", "ohio"}, {"ohio", "oh state"}, {"ia", "iowa"}}),
            "both");
  store.Add(mapping({{"ohio", "columbus"}, {"iowa", "des moines"}}), "left");
  ASSERT_EQ(store.Probe(0, "Ohio "), ValueSide::kBoth);

  const std::vector<std::string> probes = {"ohio", "OHIO", "ohio ", "iowa",
                                           "nowhere"};
  for (size_t min_hits = 0; min_hits <= 3; ++min_hits) {
    ExpectSameMatches(store.FindByContainment(probes, min_hits),
                      NaiveContainment(store, probes, min_hits),
                      "min_hits=" + std::to_string(min_hits));
  }
  const auto ranked = store.FindByContainment(probes, 1);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].index, 0u);
  EXPECT_EQ(ranked[0].left_hits, 3u);   // three "ohio" copies
  EXPECT_EQ(ranked[0].right_hits, 4u);  // three "ohio" + one "iowa"
  EXPECT_EQ(ranked[1].index, 1u);
  EXPECT_EQ(ranked[1].left_hits, 4u);
  EXPECT_EQ(ranked[1].right_hits, 0u);
  EXPECT_TRUE(store.FindByContainment({"nowhere"}, 1).empty());
  EXPECT_EQ(store.FindByContainment({}, 0).size(), 2u);
}

}  // namespace
}  // namespace ms
