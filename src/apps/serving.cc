#include "apps/serving.h"

#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/corpus_store.h"
#include "persist/mapping_text.h"
#include "persist/rotation.h"
#include "table/tsv.h"

namespace ms {

namespace {

// Serving-tier metric families. Request/transition histograms are labelled
// by operation; call sites cache the pointer in a function-local static so
// the read hot path costs two relaxed fetch_adds, never the registry mutex.
obs::Histogram* RequestHistogram(const char* op) {
  return obs::MetricsRegistry::Global().GetHistogram("ms_serving_request_us",
                                                     {{"op", op}});
}

obs::Histogram* TransitionHistogram(const char* op) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "ms_serving_transition_us", {{"op", op}});
}

}  // namespace

MappingService::MappingService(SynthesisOptions options)
    : session_(std::move(options)) {}

MappingService::~MappingService() = default;

void MappingService::set_env(Env* env) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  env_ = env != nullptr ? env : Env::Default();
  session_.set_env(env_);
}

void MappingService::InjectFaultForTests(ServingFault point) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  injected_fault_ = point;
}

Status MappingService::ConsumeFault(ServingFault point) {
  if (injected_fault_ != point) return Status::OK();
  injected_fault_ = ServingFault::kNone;
  return Status::Internal("serving fault injected for tests (point " +
                          std::to_string(static_cast<int>(point)) + ")");
}

Status MappingService::Synthesize(const TableCorpus& corpus) {
  MS_RETURN_IF_ERROR(status());
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return StartFreshRunLocked(nullptr, &corpus);
}

Status MappingService::SynthesizeFromFile(const std::string& path) {
  MS_RETURN_IF_ERROR(status());
  const std::lock_guard<std::mutex> lock(writer_mu_);
  auto corpus = std::make_unique<TableCorpus>();
  MS_RETURN_IF_ERROR(LoadCorpus(path, corpus.get(), env_));
  return StartFreshRunLocked(std::move(corpus), nullptr);
}

Status MappingService::SynthesizeFromCorpusStore(const std::string& path) {
  MS_RETURN_IF_ERROR(status());
  const std::lock_guard<std::mutex> lock(writer_mu_);
  Result<TableCorpus> store = persist::OpenCorpusStore(path, env_);
  if (!store.ok()) return store.status();
  return StartFreshRunLocked(
      std::make_unique<TableCorpus>(std::move(store).value()), nullptr);
}

Status MappingService::StartFreshRunLocked(std::unique_ptr<TableCorpus> owned,
                                           const TableCorpus* external) {
  static obs::Histogram* const transition_us =
      TransitionHistogram("synthesize");
  obs::TraceSpan span("serving.synthesize", transition_us);
  // Fail-closed: the new corpus, pool, and artifacts live only in the
  // BuildState until the chain completes — a mid-chain failure leaves the
  // previous generation (and its corpus) serving untouched.
  BuildState s;
  s.replace_corpus = true;
  s.owned_corpus = std::move(owned);
  s.corpus = s.owned_corpus ? s.owned_corpus.get() : external;
  s.pool = s.corpus->shared_pool();
  MS_RETURN_IF_ERROR(RunChain(&s, false, false, false));
  return CommitAndPublish(std::move(s));
}

Status MappingService::SaveSnapshot(const std::string& path) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return SaveSnapshotLocked(path);
}

Status MappingService::SaveSnapshotLocked(const std::string& path) {
  if (candidates_ == nullptr) {
    return Status::FailedPrecondition(
        "SaveSnapshot: nothing synthesized yet — there are no stage "
        "artifacts to persist");
  }
  // The store is rebuilt exactly when a chain completed, so its presence
  // marks last_result_ as valid.
  return session_.SaveSnapshot(path, *candidates_, blocked_.get(),
                               scored_.get(),
                               store_ != nullptr ? last_result_.get()
                                                 : nullptr);
}

Status MappingService::OpenFromSnapshot(const std::string& path) {
  MS_RETURN_IF_ERROR(status());
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return OpenFromSnapshotLocked(path);
}

Status MappingService::OpenFromSnapshotLocked(const std::string& path) {
  Result<SessionSnapshot> restored = session_.RestoreSnapshot(path);
  if (!restored.ok()) return restored.status();
  SessionSnapshot snap = std::move(restored).value();
  // The snapshot fully loaded and verified; stage everything (including
  // the possible chain completion below) before any serving state moves.
  BuildState s;
  s.replace_corpus = true;  // a restored service has no corpus
  s.pool = snap.pool;
  s.candidates = std::move(snap.candidates);
  s.blocked = std::move(snap.blocked);
  s.scored = std::move(snap.scored);
  // Snapshots do not persist the partition artifact.
  const SynonymDictionary* dict = session_.options().compat.synonyms;
  s.scored_synonym_version = dict ? dict->version() : 0;
  if (snap.has_result) {
    s.result = std::make_shared<const SynthesisResult>(std::move(snap.result));
  } else {
    // No saved result: finish the chain from the deepest restored artifact.
    MS_RETURN_IF_ERROR(
        RunChain(&s, true, s.blocked != nullptr, s.scored != nullptr));
  }
  return CommitAndPublish(std::move(s));
}

Status MappingService::SaveSnapshotRotating(const std::string& dir, int keep) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  if (candidates_ == nullptr) {
    return Status::FailedPrecondition(
        "SaveSnapshotRotating: nothing synthesized yet — there are no stage "
        "artifacts to persist");
  }
  MS_RETURN_IF_ERROR(env_->CreateDirIfMissing(dir));
  // Next generation: one past everything discoverable — live files AND the
  // CURRENT pointer. A crash that deleted files but kept CURRENT (or the
  // reverse) must still never reuse a committed generation number.
  uint64_t next = 1;
  Result<std::vector<persist::GenerationEntry>> listed =
      persist::ListGenerations(*env_, dir);
  if (!listed.ok()) return listed.status();
  if (!listed.value().empty()) next = listed.value().back().generation + 1;
  Result<uint64_t> current = persist::ReadCurrentGeneration(*env_, dir);
  if (current.ok() && current.value() >= next) next = current.value() + 1;
  // NotFound/DataLoss CURRENT: the commit below rewrites it atomically.

  MS_RETURN_IF_ERROR(
      SaveSnapshotLocked(dir + "/" + persist::SnapshotFileName(next)));
  MS_RETURN_IF_ERROR(persist::WriteCurrentFile(*env_, dir, next));
  {
    // The new generation is durably committed: the service serves it, and
    // any degradation recorded by an earlier recovery walk is now behind a
    // successful write — clear the skip/quarantine record.
    const std::lock_guard<std::mutex> h(health_mu_);
    generation_served_ = next;
    generations_skipped_ = 0;
    quarantined_files_.clear();
  }
  // Retention is best-effort: the generation is committed at this point,
  // and failing the save over old-file debris would invert the contract.
  (void)persist::PruneSnapshots(*env_, dir, keep);
  return Status::OK();
}

Status MappingService::OpenLatestSnapshot(const std::string& dir) {
  MS_RETURN_IF_ERROR(status());
  const std::lock_guard<std::mutex> lock(writer_mu_);
  Result<std::vector<persist::GenerationEntry>> listed =
      persist::ListGenerations(*env_, dir);
  if (!listed.ok()) return listed.status();
  std::vector<persist::GenerationEntry> gens = std::move(listed).value();
  if (gens.empty()) {
    return Status::NotFound("no snapshot generations in directory: " + dir);
  }
  uint64_t skipped = 0;
  std::vector<std::string> quarantined;
  Status last;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const Status st = OpenFromSnapshotLocked(dir + "/" + it->name);
    if (st.ok()) {
      // The successful open's publish reset the bookkeeping; record the
      // walk that got us here on top of it.
      const std::lock_guard<std::mutex> h(health_mu_);
      generation_served_ = it->generation;
      generations_skipped_ = skipped;
      quarantined_files_ = std::move(quarantined);
      return Status::OK();
    }
    // OpenFromSnapshot is fail-closed, so the walk can keep probing older
    // generations with the previous serving state intact.
    last = st;
    ++skipped;
    if (st.code() == StatusCode::kDataLoss) {
      // Verified-corrupt bytes: fence the file from every future walk but
      // keep it for post-mortem. Quarantine is best-effort — on a
      // read-only dir the rename fails and the file is merely skipped.
      if (persist::QuarantineSnapshot(*env_, dir, it->name).ok()) {
        quarantined.push_back(it->name + persist::kCorruptSuffix);
      }
    }
  }
  // Nothing intact: report the walk (operators need the quarantine record
  // even — especially — when recovery failed) and surface the last error.
  {
    const std::lock_guard<std::mutex> h(health_mu_);
    generations_skipped_ = skipped;
    quarantined_files_ = std::move(quarantined);
  }
  return last;
}

ServiceHealth MappingService::health() const {
  ServiceHealth h;
  {
    const std::lock_guard<std::mutex> lock(health_mu_);
    h.generation_served = generation_served_;
    h.generations_skipped = generations_skipped_;
    h.quarantined_files = quarantined_files_;
    if (remote_stats_source_) h.remote = remote_stats_source_();
  }
  h.retries_performed = env_->retries_performed();
  h.io_failures = env_->io_failures();
  return h;
}

void MappingService::SetRemoteStatsSource(
    std::function<RemoteServingStats()> source) {
  const std::lock_guard<std::mutex> lock(health_mu_);
  remote_stats_source_ = std::move(source);
}

Status MappingService::OpenFromMappingsFile(const std::string& path) {
  MS_RETURN_IF_ERROR(status());
  const std::lock_guard<std::mutex> lock(writer_mu_);
  // Fail-closed: load into the staged state first; the existing store keeps
  // serving if anything about the file is wrong.
  auto pool = std::make_shared<StringPool>();
  std::vector<SynthesizedMapping> mappings;
  MS_RETURN_IF_ERROR(
      persist::LoadMappingsTsv(path, pool.get(), &mappings, env_));
  BuildState s;
  s.replace_corpus = true;  // serving-only bootstrap: no corpus
  s.pool = std::move(pool);
  auto result = std::make_shared<SynthesisResult>();
  result->mappings = std::move(mappings);
  result->stats.mappings = result->mappings.size();
  s.result = std::move(result);
  return CommitAndPublish(std::move(s));
}

Status MappingService::AttachCorpus(const TableCorpus& corpus) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  if (candidates_ == nullptr) {
    return Status::FailedPrecondition(
        "AttachCorpus: nothing synthesized yet — attach is for re-arming a "
        "snapshot-restored service with its source corpus");
  }
  if (corpus.size() != candidates_->source_tables) {
    return Status::InvalidArgument(
        "AttachCorpus: corpus has " + std::to_string(corpus.size()) +
        " tables but the restored artifacts were synthesized from " +
        std::to_string(candidates_->source_tables) +
        " — attach the exact corpus the snapshot came from before growing "
        "it");
  }
  owned_corpus_.reset();
  corpus_ = &corpus;
  return Status::OK();
}

Status MappingService::AppendAndResynthesize(const TableCorpus& delta) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return AppendChainLocked(&delta);
}

Status MappingService::ResynthesizeAppended() {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return AppendChainLocked(nullptr);
}

Status MappingService::AppendChainLocked(const TableCorpus* delta) {
  static obs::Histogram* const transition_us = TransitionHistogram("append");
  obs::TraceSpan span("serving.append", transition_us);
  if (candidates_ == nullptr) {
    return Status::FailedPrecondition(
        "Append: nothing synthesized yet — call Synthesize (or "
        "OpenFromSnapshot + AttachCorpus) first so there are artifacts to "
        "grow");
  }
  if (corpus_ == nullptr) {
    return Status::FailedPrecondition(
        "Append: this service has no corpus (opened from a snapshot) — "
        "AttachCorpus the snapshot's source corpus first; incremental "
        "extraction needs the corpus-global statistics");
  }
  // Cheap entry-point preconditions first: a call that is going to be
  // rejected must not pay a re-score or partition materialization on its
  // way to the error.
  if (delta != nullptr) {
    if (owned_corpus_ == nullptr) {
      return Status::FailedPrecondition(
          "AppendAndResynthesize: the service does not own its corpus — "
          "grow the external corpus yourself and call "
          "ResynthesizeAppended()");
    }
    if (owned_corpus_->size() != candidates_->source_tables) {
      return Status::FailedPrecondition(
          "AppendAndResynthesize: the corpus already grew past the "
          "synthesized prefix (" +
          std::to_string(owned_corpus_->size()) + " tables vs " +
          std::to_string(candidates_->source_tables) +
          " synthesized) — recover with ResynthesizeAppended(), which "
          "synthesizes every externally added table; delta appends work "
          "again once it succeeds");
    }
  } else if (corpus_->size() <= candidates_->source_tables) {
    return Status::FailedPrecondition(
        "ResynthesizeAppended: the corpus did not grow (still " +
        std::to_string(corpus_->size()) + " tables)");
  }
  BuildState s = StageFromCurrent();
  MS_RETURN_IF_ERROR(PrepareIncrementalFamilyLocked(&s));
  // The append protocol: remember the synthesized prefix (tables AND pool),
  // merge, append, and roll the merge back on ANY failure past it — a
  // failed append must leave the corpus at the prefix the served artifacts
  // describe, so the same delta can simply be retried (previously the
  // grown corpus made every retry fail FailedPrecondition until
  // ResynthesizeAppended). The pool truncation matters under retries:
  // Truncate() alone leaves the dead delta's interned strings behind, so N
  // failed attempts would pin N copies' worth of orphaned values.
  const size_t prev_tables = corpus_->size();
  const size_t prev_pool_size = corpus_->shared_pool()->size();
  if (delta != nullptr) {
    Result<size_t> merged = owned_corpus_->AppendFrom(*delta);
    if (!merged.ok()) return merged.status();
  }
  auto rollback_merge = [&] {
    if (delta != nullptr && owned_corpus_ != nullptr &&
        owned_corpus_->size() > prev_tables) {
      owned_corpus_->Truncate(prev_tables);
      owned_corpus_->pool().TruncateTo(prev_pool_size);
    }
  };
  Result<AppendedArtifacts> appended = session_.AppendTables(
      *corpus_, s.candidates->source_tables, *s.candidates, *s.blocked,
      *s.scored, *s.partitions, *s.result);
  Status append_status =
      appended.ok() ? ConsumeFault(ServingFault::kAppendCommit)
                    : appended.status();
  if (!append_status.ok()) {
    rollback_merge();
    return append_status;
  }
  const Status st = CommitFamilyLocked(std::move(s),
                                       std::move(appended).value());
  if (!st.ok()) rollback_merge();
  return st;
}

Status MappingService::RemoveAndResynthesize(
    const std::vector<uint32_t>& removed) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return MutateChainLocked(removed, nullptr);
}

Status MappingService::ReplaceAndResynthesize(
    const std::vector<uint32_t>& removed, const TableCorpus& delta) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return MutateChainLocked(removed, &delta);
}

Status MappingService::MutateChainLocked(std::vector<uint32_t> removed,
                                         const TableCorpus* delta) {
  static obs::Histogram* const remove_us = TransitionHistogram("remove");
  static obs::Histogram* const replace_us = TransitionHistogram("replace");
  obs::TraceSpan span(delta != nullptr ? "serving.replace" : "serving.remove",
                      delta != nullptr ? replace_us : remove_us);
  const char* op = delta != nullptr ? "ReplaceAndResynthesize"
                                    : "RemoveAndResynthesize";
  if (candidates_ == nullptr) {
    return Status::FailedPrecondition(
        std::string(op) + ": nothing synthesized yet — call Synthesize "
        "first so there are artifacts to maintain");
  }
  if (owned_corpus_ == nullptr) {
    return Status::FailedPrecondition(
        std::string(op) + ": the service does not own its corpus — "
        "removals tombstone tables in place, which the service must not do "
        "to an external or snapshot-restored corpus");
  }
  if (owned_corpus_->size() != candidates_->source_tables) {
    return Status::FailedPrecondition(
        std::string(op) + ": the corpus grew past the synthesized prefix (" +
        std::to_string(owned_corpus_->size()) + " tables vs " +
        std::to_string(candidates_->source_tables) +
        " synthesized) — recover with ResynthesizeAppended() first");
  }
  BuildState s = StageFromCurrent();
  MS_RETURN_IF_ERROR(PrepareIncrementalFamilyLocked(&s));
  // The session rolls the corpus back itself when ITS mutation fails; the
  // service only needs to undo a mutation that SUCCEEDED but whose publish
  // did not (injected commit fault, store-build failure). Capture enough to
  // do that here: the prefix sizes plus copies of the columns the session
  // is about to tombstone — the copies reference only pre-mutation pool
  // ids, so they stay valid across the pool-tail truncation below.
  const size_t prev_tables = owned_corpus_->size();
  const size_t prev_pool_size = owned_corpus_->pool().size();
  std::vector<std::pair<uint32_t, std::vector<Column>>> saved;
  saved.reserve(removed.size());
  for (uint32_t id : removed) {
    if (id < owned_corpus_->size()) {
      saved.emplace_back(id, owned_corpus_->table(id).columns);
    }
  }
  auto rollback_mutation = [&] {
    if (owned_corpus_->size() > prev_tables) {
      owned_corpus_->Truncate(prev_tables);
    }
    owned_corpus_->pool().TruncateTo(prev_pool_size);
    for (auto& [id, cols] : saved) {
      if (!cols.empty() && owned_corpus_->table(id).num_columns() == 0) {
        owned_corpus_->RestoreColumns(id, std::move(cols));
      }
    }
  };
  Result<AppendedArtifacts> mutated =
      delta != nullptr
          ? session_.ReplaceTables(owned_corpus_.get(), std::move(removed),
                                   *delta, *s.candidates, *s.blocked,
                                   *s.scored, *s.partitions, *s.result)
          : session_.RemoveTables(owned_corpus_.get(), std::move(removed),
                                  *s.candidates, *s.blocked, *s.scored,
                                  *s.partitions, *s.result);
  Status mutate_status =
      mutated.ok() ? ConsumeFault(ServingFault::kAppendCommit)
                   : mutated.status();
  if (!mutate_status.ok()) {
    if (mutated.ok()) rollback_mutation();
    return mutate_status;
  }
  const Status st = CommitFamilyLocked(std::move(s),
                                       std::move(mutated).value());
  if (!st.ok()) rollback_mutation();
  return st;
}

Status MappingService::PrepareIncrementalFamilyLocked(BuildState* s) {
  // The cached graph must reflect the current synonym dictionary contents:
  // delta pairs would be scored under the new snapshot while base edges
  // keep old-dictionary weights, merging a graph no cold run could produce.
  // Re-score first (same guard Resynthesize applies), then mutate. The
  // re-scored family lives only in the BuildState — a failure below
  // publishes nothing.
  const SynonymDictionary* synonyms = session_.options().compat.synonyms;
  if (synonyms != nullptr &&
      synonyms->version() != scored_synonym_version_) {
    MS_RETURN_IF_ERROR(RunChain(s, true, s->blocked != nullptr, false));
  }
  // A snapshot-restored family lacks the partition artifact; materialize
  // only what is missing. When blocked/scored were restored, a single
  // Partition() suffices — re-running the chain would redo conflict
  // resolution just to have the mutation discard it.
  if (s->blocked == nullptr || s->scored == nullptr) {
    MS_RETURN_IF_ERROR(
        RunChain(s, true, s->blocked != nullptr, s->scored != nullptr));
  } else if (s->partitions == nullptr) {
    Result<Partitions> parts = session_.Partition(*s->scored);
    if (!parts.ok()) return parts.status();
    s->partitions =
        std::make_shared<const Partitions>(std::move(parts).value());
  }
  return Status::OK();
}

Status MappingService::CommitFamilyLocked(BuildState&& s,
                                          AppendedArtifacts family) {
  s.candidates =
      std::make_shared<const CandidateSet>(std::move(family.candidates));
  s.blocked = std::make_shared<const BlockedPairs>(std::move(family.blocked));
  s.scored = std::make_shared<const ScoredGraph>(std::move(family.scored));
  s.partitions =
      std::make_shared<const Partitions>(std::move(family.partitions));
  const SynonymDictionary* dict = session_.options().compat.synonyms;
  s.scored_synonym_version = dict ? dict->version() : 0;
  s.result = std::make_shared<const SynthesisResult>(std::move(family.result));
  // The merged artifacts resolve against the (possibly different) corpus
  // pool from here on.
  s.pool = corpus_->shared_pool();
  return CommitAndPublish(std::move(s));
}

Status MappingService::Resynthesize(SynthesisOptions new_options) {
  const std::lock_guard<std::mutex> lock(writer_mu_);
  return ResynthesizeLocked(std::move(new_options));
}

Status MappingService::ResynthesizeLocked(SynthesisOptions new_options) {
  static obs::Histogram* const transition_us =
      TransitionHistogram("resynthesize");
  obs::TraceSpan span("serving.resynthesize", transition_us);
  if (candidates_ == nullptr) {
    return Status::FailedPrecondition(
        "Resynthesize: nothing synthesized yet — call Synthesize (or "
        "OpenFromSnapshot) first so there are stage artifacts to reuse");
  }
  const SynthesisOptions old = session_.options();
  MS_RETURN_IF_ERROR(session_.UpdateOptions(std::move(new_options)));
  const SynthesisOptions& now = session_.options();

  // Resume from the first stage whose inputs changed (the defaulted
  // operator== on each options struct documents exactly which knobs an
  // artifact depends on). Thread-count changes only affect scheduling
  // (results are deterministic across worker counts), so they alone
  // invalidate nothing. The graph additionally depends on the synonym
  // dictionary's *contents*: the pointer compares equal after AddSynonym,
  // so reuse also requires the version the graph was scored at.
  const bool keep_candidates = old.extraction == now.extraction;
  if (!keep_candidates && corpus_ == nullptr) {
    // Snapshot-restored services carry artifacts but no raw corpus, so an
    // extraction-invalidating change has nothing to re-extract from.
    // Fail-closed: the options roll back too (artifacts and configuration
    // must describe the same generation).
    (void)session_.UpdateOptions(old);
    return Status::FailedPrecondition(
        "Resynthesize: the extraction options changed but this service has "
        "no corpus (opened from a snapshot) — re-synthesize from a corpus "
        "or keep extraction options fixed");
  }
  const bool keep_blocked = keep_candidates && old.blocking == now.blocking;
  const bool synonyms_unchanged =
      now.compat.synonyms == nullptr ||
      now.compat.synonyms->version() == scored_synonym_version_;
  const bool keep_scored =
      keep_blocked && old.compat == now.compat && synonyms_unchanged;
  BuildState s = StageFromCurrent();
  Status st = RunChain(&s, keep_candidates,
                       keep_blocked && s.blocked != nullptr,
                       keep_scored && s.scored != nullptr);
  if (st.ok()) st = CommitAndPublish(std::move(s));
  if (!st.ok()) {
    // Fail-closed includes the session configuration: the served artifacts
    // were built under `old`, so a failed transition must not leave `now`
    // active (a later no-op-diff Resynthesize would serve stale artifacts
    // as if rebuilt). `old` validated when it was first applied.
    (void)session_.UpdateOptions(old);
  }
  return st;
}

MappingService::BuildState MappingService::StageFromCurrent() const {
  BuildState s;
  s.corpus = corpus_;
  s.pool = pool_keepalive_;
  s.candidates = candidates_;
  s.blocked = blocked_;
  s.scored = scored_;
  s.partitions = partitions_;
  s.result = last_result_;
  s.scored_synonym_version = scored_synonym_version_;
  return s;
}

Status MappingService::RunChain(BuildState* s, bool have_candidates,
                                bool have_blocked, bool have_scored) {
  if (!have_candidates) {
    MS_RETURN_IF_ERROR(ConsumeFault(ServingFault::kExtract));
    Result<CandidateSet> c = session_.ExtractCandidates(*s->corpus);
    if (!c.ok()) return c.status();
    s->candidates = std::make_shared<const CandidateSet>(std::move(c).value());
    have_blocked = false;
    have_scored = false;
  }
  if (!have_blocked) {
    MS_RETURN_IF_ERROR(ConsumeFault(ServingFault::kBlock));
    Result<BlockedPairs> b = session_.BlockPairs(*s->candidates);
    if (!b.ok()) return b.status();
    s->blocked = std::make_shared<const BlockedPairs>(std::move(b).value());
    have_scored = false;
  }
  if (!have_scored) {
    MS_RETURN_IF_ERROR(ConsumeFault(ServingFault::kScore));
    Result<ScoredGraph> g = session_.ScorePairs(*s->candidates, *s->blocked);
    if (!g.ok()) return g.status();
    s->scored = std::make_shared<const ScoredGraph>(std::move(g).value());
    const SynonymDictionary* dict = session_.options().compat.synonyms;
    s->scored_synonym_version = dict ? dict->version() : 0;
  }
  MS_RETURN_IF_ERROR(ConsumeFault(ServingFault::kPartition));
  Result<Partitions> parts = session_.Partition(*s->scored);
  if (!parts.ok()) return parts.status();
  s->partitions = std::make_shared<const Partitions>(std::move(parts).value());
  MS_RETURN_IF_ERROR(ConsumeFault(ServingFault::kResolve));
  Result<SynthesisResult> r =
      session_.Resolve(*s->candidates, *s->scored, *s->partitions);
  if (!r.ok()) return r.status();
  s->result = std::make_shared<const SynthesisResult>(std::move(r).value());
  return Status::OK();
}

Status MappingService::CommitAndPublish(BuildState&& s) {
  static obs::Histogram* const publish_us =
      obs::MetricsRegistry::Global().GetHistogram("ms_serving_publish_us");
  static obs::Histogram* const rebuild_us =
      obs::MetricsRegistry::Global().GetHistogram(
          "ms_serving_store_rebuild_us");
  static obs::Counter* const transitions = obs::MetricsRegistry::Global()
      .GetCounter("ms_serving_transitions_total");
  static obs::Gauge* const version_gauge = obs::MetricsRegistry::Global()
      .GetGauge("ms_serving_snapshot_version");
  static obs::Gauge* const mappings_gauge = obs::MetricsRegistry::Global()
      .GetGauge("ms_serving_num_mappings");
  obs::TraceSpan span("serving.publish", publish_us);
  MS_RETURN_IF_ERROR(ConsumeFault(ServingFault::kPublish));
  if (s.pool == nullptr) {
    return Status::Internal("CommitAndPublish: no string pool handle");
  }
  if (s.result == nullptr) {
    return Status::Internal("CommitAndPublish: no synthesis result");
  }
  // Build the next generation's store off to the side. Store lookups must
  // normalize exactly like the pipeline did, or raw user probes ("CA ",
  // "California[1]") miss values the pipeline matched.
  Timer rebuild_timer;
  auto store = std::make_shared<MappingStore>(
      s.pool, session_.options().extraction.normalize);
  for (const auto& m : s.result->mappings) {
    store->Add(m, m.left_label + "->" + m.right_label);
  }
  rebuild_us->Record(
      static_cast<uint64_t>(rebuild_timer.ElapsedSeconds() * 1e6));
  // Point of no return: from here on everything is noexcept pointer moves,
  // finished by one atomic release-store. Readers either see the complete
  // previous generation or the complete new one — never a mix.
  if (s.replace_corpus) {
    owned_corpus_ = std::move(s.owned_corpus);
    corpus_ = owned_corpus_ != nullptr ? owned_corpus_.get() : s.corpus;
  }
  pool_keepalive_ = std::move(s.pool);
  candidates_ = std::move(s.candidates);
  blocked_ = std::move(s.blocked);
  scored_ = std::move(s.scored);
  partitions_ = std::move(s.partitions);
  scored_synonym_version_ = s.scored_synonym_version;
  last_result_ = std::move(s.result);
  store_ = std::move(store);
  auto snap = std::make_shared<const ServingSnapshot>(ServingSnapshot{
      store_, pool_keepalive_, last_result_, ++versions_published_});
  serving_.store(std::move(snap), std::memory_order_release);
  transitions->Increment();
  // Process-global gauges: with several services in one process the last
  // publisher wins — documented in docs/observability.md.
  version_gauge->Set(static_cast<int64_t>(versions_published_));
  mappings_gauge->Set(static_cast<int64_t>(store_->size()));
  {
    // Every successful transition serves fresh state: the rotation walk
    // that degraded an *earlier* generation says nothing about this one.
    // The rotation-aware entry points re-record their walk right after.
    const std::lock_guard<std::mutex> h(health_mu_);
    generation_served_ = 0;
    generations_skipped_ = 0;
    quarantined_files_.clear();
  }
  return Status::OK();
}

std::vector<std::optional<std::string>> MappingService::LookupBatch(
    size_t mapping_index, const std::vector<std::string>& values,
    LookupDirection direction) const {
  static obs::Histogram* const request_us = RequestHistogram("lookup_batch");
  obs::TraceSpan span("serving.lookup_batch", request_us);
  const auto snap = AcquireSnapshot();
  if (snap == nullptr || mapping_index >= snap->store->size()) {
    return std::vector<std::optional<std::string>>(values.size());
  }
  return direction == LookupDirection::kLeftToRight
             ? snap->store->LookupRightBatch(mapping_index, values)
             : snap->store->LookupLeftBatch(mapping_index, values);
}

AutoCorrectResult MappingService::SuggestCorrections(
    const std::vector<std::string>& column,
    const AutoCorrectOptions& options) const {
  static obs::Histogram* const request_us =
      RequestHistogram("suggest_corrections");
  obs::TraceSpan span("serving.suggest_corrections", request_us);
  const auto snap = AcquireSnapshot();
  if (snap == nullptr) return AutoCorrectResult{};
  return ::ms::SuggestCorrections(*snap->store, column, options);
}

AutoFillResult MappingService::AutoFill(
    const std::vector<std::string>& keys,
    const std::vector<std::pair<size_t, std::string>>& examples,
    const AutoFillOptions& options) const {
  static obs::Histogram* const request_us = RequestHistogram("auto_fill");
  obs::TraceSpan span("serving.auto_fill", request_us);
  const auto snap = AcquireSnapshot();
  if (snap == nullptr) return AutoFillResult{};
  return ::ms::AutoFill(*snap->store, keys, examples, options);
}

AutoJoinResult MappingService::AutoJoin(
    const std::vector<std::string>& left_keys,
    const std::vector<std::string>& right_keys,
    const AutoJoinOptions& options) const {
  static obs::Histogram* const request_us = RequestHistogram("auto_join");
  obs::TraceSpan span("serving.auto_join", request_us);
  const auto snap = AcquireSnapshot();
  if (snap == nullptr) return AutoJoinResult{};
  return ::ms::AutoJoin(*snap->store, left_keys, right_keys, options);
}

}  // namespace ms
