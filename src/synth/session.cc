#include "synth/session.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common/hashing.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/connected_components.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/artifact_codec.h"
#include "persist/wire.h"
#include "stats/inverted_index.h"
#include "table/tsv.h"

namespace ms {

Status SynthesisOptions::Validate() const {
  MS_RETURN_IF_ERROR(extraction.Validate());
  MS_RETURN_IF_ERROR(blocking.Validate());
  MS_RETURN_IF_ERROR(compat.Validate());
  MS_RETURN_IF_ERROR(partitioner.Validate());
  if (min_pairs == 0) {
    return Status::InvalidArgument(
        "min_pairs must be >= 1: a zero-pair curation floor keeps empty "
        "mappings whose popularity ratios divide by zero");
  }
  if (min_domains == 0) {
    return Status::InvalidArgument(
        "min_domains must be >= 1: every mapping is contributed by at "
        "least one domain, so 0 expresses nothing and usually means an "
        "uninitialized config");
  }
  // A count beyond any real machine is an overflow/typo (e.g. a size_t
  // underflow producing 2^64 - 1), not a parallelism request; ThreadPool
  // would try to spawn that many workers and take the process down.
  constexpr size_t kMaxThreads = 4096;
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "num_threads = " + std::to_string(num_threads) +
        " exceeds the sanity cap of " + std::to_string(kMaxThreads) +
        " (0 means hardware concurrency)");
  }
  return Status::OK();
}

uint64_t OptionsFingerprint(const SynthesisOptions& o) {
  // Serialize every result-affecting knob through the persist wire encoding
  // (stable little-endian bytes) and FNV-hash the stream. Field order is
  // part of snapshot compatibility: changing it orphans old snapshots with
  // FailedPrecondition, which is exactly what a semantics change should do.
  persist::WireWriter w;
  w.F64(o.extraction.coherence_threshold);
  w.F64(o.extraction.fd_theta);
  w.U64(o.extraction.min_pairs);
  w.U64(o.extraction.max_columns);
  w.Bool(o.extraction.drop_numeric_left);
  w.U64(o.extraction.coherence.max_sampled_values);
  w.U64(o.extraction.coherence.sample_seed);
  w.U64(o.extraction.coherence.min_value_support);
  w.Bool(o.extraction.normalize.lowercase);
  w.Bool(o.extraction.normalize.strip_punctuation);
  w.Bool(o.extraction.normalize.collapse_whitespace);
  w.Bool(o.extraction.normalize.strip_footnote_marks);
  w.U64(o.blocking.theta_overlap);
  w.U64(o.blocking.max_posting);
  w.Bool(o.compat.approximate_matching);
  w.F64(o.compat.edit.fractional);
  w.U64(o.compat.edit.cap);
  // Synonym feeds can't be persisted (caller-owned), but artifact contents
  // depend on theirs: fingerprint presence + content version so a restart
  // with a drifted dictionary refuses the stale graph.
  w.Bool(o.compat.synonyms != nullptr);
  w.U64(o.compat.synonyms ? o.compat.synonyms->version() : 0);
  w.F64(o.partitioner.tau);
  w.F64(o.partitioner.theta_edge);
  w.Bool(o.partitioner.use_negative_signals);
  w.Bool(o.conflict.synonyms != nullptr);
  w.U64(o.conflict.synonyms ? o.conflict.synonyms->version() : 0);
  w.Bool(o.resolve_conflicts);
  w.Bool(o.use_majority_voting);
  w.Bool(o.divide_and_conquer);
  w.U64(o.min_domains);
  w.U64(o.min_pairs);
  return Fnv1a64(w.bytes());
}

namespace {

/// The shared scoring core: chunked scoring of `pairs` into a finalized
/// graph. `worker_matcher` (optional) supplies a persistent per-worker
/// matcher — the session's warm path; when absent, each chunk builds a
/// short-lived matcher exactly like the pre-session pipeline, so both paths
/// stay byte-identical by construction.
CompatibilityGraph ScorePairsCore(
    const std::vector<BinaryTable>& candidates, const StringPool& pool,
    const std::vector<CandidateTablePair>& pairs,
    const CompatibilityOptions& compat, ThreadPool* threads,
    const std::function<BatchApproxMatcher*()>& worker_matcher,
    ScoringStats* scoring_out) {
  // Scores land directly in the graph's edge list, one slot per pair; the
  // zero-weight slots are compacted out afterwards and the list is adopted
  // as is, so no per-pair score buffer is ever allocated.
  std::vector<CompatEdge> edges(pairs.size());

  // Pairs arrive sorted by (a, b), so consecutive pairs share table a and —
  // more importantly — value strings. Scoring in chunks through a matcher
  // lets every pattern bitmask build amortize across the chunk (and, for
  // session-owned matchers, across the whole run and every later run),
  // and the per-pair blocking hints let exactly-counted pairs skip the
  // pair-list merge entirely.
  constexpr size_t kScoringChunk = 256;
  const size_t num_chunks = (pairs.size() + kScoringChunk - 1) / kScoringChunk;
  std::vector<ScoringStats> chunk_stats(num_chunks);
  auto score_chunk = [&](size_t c) {
    const size_t begin = c * kScoringChunk;
    const size_t end = std::min(begin + kScoringChunk, pairs.size());
    BatchApproxMatcher* matcher =
        worker_matcher ? worker_matcher() : nullptr;
    std::unique_ptr<BatchApproxMatcher> local;
    if (matcher == nullptr) {
      local = std::make_unique<BatchApproxMatcher>(
          pool, compat.edit, compat.approximate_matching, compat.synonyms,
          compat.synonym_snapshot);
      matcher = local.get();
    }
    ScoringStats& st = chunk_stats[c];
    for (size_t i = begin; i < end; ++i) {
      const BlockingHint hint{pairs[i].shared_pairs, pairs[i].shared_lefts,
                              pairs[i].counts_exact};
      // ComputeCompatibility is orientation-sensitive: conflicts count the
      // FIRST table's conflicting left-runs, and the approximate-overlap
      // greedy matches the first table's residue against the second's. A
      // cold run orders operands by candidate id, which equals table order
      // under dense assignment — so score in (source table, id) order
      // explicitly. For cold runs this is the identical orientation; for
      // incremental families where a re-extracted table sits at tail ids it
      // is what keeps every edge weight bit-identical to the cold oracle's.
      const BinaryTable& ta = candidates[pairs[i].a];
      const BinaryTable& tb = candidates[pairs[i].b];
      const bool cold_swapped =
          std::tie(tb.source_table, pairs[i].b) <
          std::tie(ta.source_table, pairs[i].a);
      const PairScores s =
          cold_swapped ? ComputeCompatibility(tb, ta, pool, compat, matcher,
                                              &hint, &st)
                       : ComputeCompatibility(ta, tb, pool, compat, matcher,
                                              &hint, &st);
      edges[i] = {pairs[i].a, pairs[i].b, s.w_pos, s.w_neg};
    }
    // Short-lived matchers surrender their kernel counters here; persistent
    // ones accumulate and are drained once per run by the session.
    if (local) st.matcher.Add(local->stats());
  };
  if (threads) {
    threads->ParallelFor(num_chunks, score_chunk);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) score_chunk(c);
  }
  if (scoring_out) {
    for (const auto& st : chunk_stats) scoring_out->Add(st);
  }
  // Pairs are sorted by (a, b) with a < b, so the compacted list is already
  // in the normalized order AddEdge() would have produced.
  std::erase_if(edges, [](const CompatEdge& e) {
    return !(e.w_pos > 0.0 || e.w_neg < 0.0);
  });
  edges.shrink_to_fit();
  return CompatibilityGraph(candidates.size(), std::move(edges));
}

/// Builds the component-local subgraph of `members` and runs Algorithm 3 on
/// it. `local_of` maps global vertex -> component-local index; cross-
/// component edges (positive weight below θ_edge) are filtered via `comp`.
PartitionResult PartitionComponentSubgraph(
    const CompatibilityGraph& graph, const std::vector<uint32_t>& comp,
    const std::vector<uint32_t>& local_of,
    const std::vector<VertexId>& members, const PartitionerOptions& options) {
  // Two passes over the members' edges: count, then fill an exactly sized
  // edge list.
  const auto for_each_local_edge = [&](auto&& fn) {
    for (VertexId v : members) {
      for (uint32_t e : graph.IncidentEdges(v)) {
        const auto& edge = graph.edges()[e];
        if (edge.u != v) continue;  // visit each edge once (u < v)
        if (comp[edge.v] != comp[v]) continue;
        fn(edge);
      }
    }
  };
  size_t num_local = 0;
  for_each_local_edge([&](const CompatEdge&) { ++num_local; });
  CompatibilityGraph sub(members.size());
  sub.ReserveEdges(num_local);
  for_each_local_edge([&](const CompatEdge& edge) {
    sub.AddEdge(local_of[edge.u], local_of[edge.v], edge.w_pos, edge.w_neg);
  });
  sub.Finalize();
  return GreedyPartition(sub, options);
}

/// Conflict resolution + mapping assembly for a set of partition groups
/// (pre-curation).
std::vector<SynthesizedMapping> ResolveGroups(
    const std::vector<BinaryTable>& cands,
    const std::vector<std::vector<VertexId>>& groups,
    const SynthesisOptions& options, const ConflictResolutionOptions& conflict,
    ThreadPool* threads) {
  std::vector<SynthesizedMapping> mappings(groups.size());
  auto resolve_one = [&](size_t gi) {
    std::vector<const BinaryTable*> tables;
    tables.reserve(groups[gi].size());
    for (VertexId v : groups[gi]) tables.push_back(&cands[v]);

    if (options.use_majority_voting) {
      std::vector<size_t> all(tables.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      SynthesizedMapping m = BuildMapping(tables, all);
      m.merged = BinaryTable::FromPairs(MajorityVotePairs(tables, conflict));
      mappings[gi] = std::move(m);
    } else if (options.resolve_conflicts) {
      auto resolved = ResolveConflicts(tables, conflict);
      mappings[gi] = BuildMapping(tables, resolved.kept);
    } else {
      std::vector<size_t> all(tables.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      mappings[gi] = BuildMapping(tables, all);
    }
  };
  if (threads) {
    threads->ParallelFor(groups.size(), resolve_one);
  } else {
    for (size_t gi = 0; gi < groups.size(); ++gi) resolve_one(gi);
  }
  return mappings;
}

/// Field-wise sum of extraction counters: append passes report delta-only
/// counters that extend the base run's cumulative totals.
void AddExtractionStats(ExtractionStats* dst, const ExtractionStats& s) {
  dst->tables_seen += s.tables_seen;
  dst->columns_seen += s.columns_seen;
  dst->columns_kept += s.columns_kept;
  dst->pairs_considered += s.pairs_considered;
  dst->pairs_kept += s.pairs_kept;
  dst->normalize_cache_hits += s.normalize_cache_hits;
  dst->normalize_cache_misses += s.normalize_cache_misses;
}

/// One histogram per pipeline stage, labelled `ms_synth_stage_us{stage=...}`.
/// `stage` must be a string literal; call sites cache the pointer in a
/// function-local static so the hot path never touches the registry mutex.
obs::Histogram* StageHistogram(const char* stage) {
  return obs::MetricsRegistry::Global().GetHistogram("ms_synth_stage_us",
                                                     {{"stage", stage}});
}

void FillBlockingStats(const BlockingStats& bstats, size_t num_pairs,
                       double seconds, PipelineStats* stats) {
  stats->blocking_seconds = seconds;
  stats->candidate_pairs = num_pairs;
  stats->blocking_map_shuffle_seconds = bstats.map_shuffle_seconds;
  stats->blocking_count_seconds = bstats.count_seconds;
  stats->blocking_reduce_seconds = bstats.reduce_seconds;
  stats->blocking_keys = bstats.keys;
  stats->blocking_dropped_postings = bstats.dropped_postings;
  stats->blocking_tainted_candidates = bstats.tainted_candidates;
}

// ------------------------------------------------------- stage deltas
//
// Every stage applies a delta to a base artifact: candidates [0, first_new)
// are the base's, candidates >= first_new are new, and `retired` flags
// base candidates this mutation tombstoned (empty when none). The cold
// stage methods apply the delta that adds every candidate (first_new = 0)
// to the empty family, so cold runs and mutations share one implementation
// per stage.

/// The empty artifact family: the base a cold stage applies its delta to.
const AppendedArtifacts& EmptyFamily() {
  static const AppendedArtifacts* const kEmpty = new AppendedArtifacts();
  return *kEmpty;
}

/// Extract stage: the base candidates with every retired one cleared in
/// place — it keeps its id and provenance but loses its pairs, so
/// downstream it has the footprint of a candidate that was never extracted
/// — followed by the pass's candidates (appended tables' and flipped
/// tables' re-extractions) at the next dense ids in table order. Over the
/// empty family the pass's candidates are moved in whole.
void ApplyExtraction(const CandidateSet& base, ExtractionResult extracted,
                     const std::vector<uint8_t>& retired,
                     const std::vector<uint32_t>& removed_tables,
                     const TableCorpus& corpus, double index_s,
                     double extract_s, CandidateSet* out) {
  const std::vector<BinaryTable>& base_tables = base.tables();
  if (base_tables.empty()) {
    out->owned = std::move(extracted.candidates);
  } else {
    out->owned = base_tables;
    out->owned.reserve(base_tables.size() + extracted.candidates.size());
    for (auto& c : extracted.candidates) out->owned.push_back(std::move(c));
  }
  for (size_t i = 0; i < retired.size(); ++i) {
    if (!retired[i]) continue;
    BinaryTable& t = out->owned[i];
    BinaryTable cleared = BinaryTable::FromPairs({});
    cleared.id = t.id;
    cleared.source_table = t.source_table;
    cleared.domain = std::move(t.domain);
    cleared.source = t.source;
    cleared.left_name = std::move(t.left_name);
    cleared.right_name = std::move(t.right_name);
    t = std::move(cleared);
  }
  out->dead = base.dead;
  if (!retired.empty() || !out->dead.empty()) {
    out->dead.resize(out->owned.size(), 0);
    for (size_t i = 0; i < retired.size(); ++i) {
      if (retired[i]) out->dead[i] = 1;
    }
  }
  out->tombstoned_tables = base.tombstoned_tables;
  if (!removed_tables.empty()) {
    out->tombstoned_tables.insert(out->tombstoned_tables.end(),
                                  removed_tables.begin(),
                                  removed_tables.end());
    std::sort(out->tombstoned_tables.begin(), out->tombstoned_tables.end());
  }
  out->pool = &corpus.pool();
  out->source_tables = corpus.size();
  out->kept_offsets = std::move(extracted.kept_offsets);
  out->kept_columns = std::move(extracted.kept_columns);
  out->margin_offsets = std::move(extracted.margin_offsets);
  out->margins = std::move(extracted.margins);
  out->stats = base.stats;
  out->stats.index_seconds += index_s;
  out->stats.extract_seconds += extract_s;
  AddExtractionStats(&out->stats.extraction, extracted.stats);
  out->stats.candidates = out->num_live();
}

/// Merges two lists sorted by `less`, dropping the base items `retired`
/// rejects: (base minus retired) plus fresh. The keys of the two lists are
/// disjoint.
template <typename T, typename Retired, typename Less>
std::vector<T> Splice(const std::vector<T>& base, const Retired& retired,
                      const std::vector<T>& fresh, const Less& less) {
  std::vector<T> out;
  out.reserve(base.size() + fresh.size());
  auto b = base.begin();
  for (const T& f : fresh) {
    for (; b != base.end() && less(*b, f); ++b) {
      if (!retired(*b)) out.push_back(*b);
    }
    out.push_back(f);
  }
  for (; b != base.end(); ++b) {
    if (!retired(*b)) out.push_back(*b);
  }
  return out;
}

bool PairLess(const CandidateTablePair& x, const CandidateTablePair& y) {
  return std::tie(x.a, x.b) < std::tie(y.a, y.b);
}

bool EdgeLess(const CompatEdge& x, const CompatEdge& y) {
  return std::tie(x.u, x.v) < std::tie(y.u, y.v);
}

/// Block stage: the base pairs minus every pair touching a retired
/// candidate, merged with the pairs the candidates >= first_new create.
/// Old pairs' counts and old-candidate taint are append-invariant (appended
/// ids sort last, so truncation keeps the identical old-id prefix of every
/// posting list), and the retired filter is exact as long as the base run
/// never truncated a posting list. When it did, deleting ids can pull
/// previously dropped postings back under the cap and resurrect pairs
/// between old candidates, so the pass re-blocks from scratch. `fresh`
/// (nullable) receives the pairs the base never held — the only ones that
/// need scoring; a caller that passes null scores `out->pairs` whole.
void ApplyBlocking(const CandidateSet& cands, uint32_t first_new,
                   const std::vector<uint8_t>& retired,
                   const BlockedPairs& base, const BlockingOptions& options,
                   ThreadPool* threads, BlockedPairs* out,
                   std::vector<CandidateTablePair>* fresh) {
  Timer timer;
  const std::vector<BinaryTable>& tables = cands.tables();
  if (!retired.empty() && base.blocking.dropped_postings != 0) {
    out->pairs =
        GenerateCandidatePairs(tables, 0, options, threads, &out->blocking);
    for (const auto& p : out->pairs) {
      if (fresh != nullptr &&
          !std::binary_search(base.pairs.begin(), base.pairs.end(), p,
                              PairLess)) {
        fresh->push_back(p);
      }
    }
  } else {
    out->blocking = base.blocking;
    std::vector<CandidateTablePair> added = GenerateCandidatePairs(
        tables, first_new, options, threads, &out->blocking);
    if (base.pairs.empty() && fresh == nullptr) {
      out->pairs = std::move(added);
    } else {
      out->pairs = Splice(
          base.pairs,
          [&](const CandidateTablePair& p) {
            return !retired.empty() && (retired[p.a] || retired[p.b]);
          },
          added, PairLess);
      if (fresh != nullptr) *fresh = std::move(added);
    }
  }
  out->stats = cands.stats;
  FillBlockingStats(out->blocking, out->pairs.size(),
                    base.stats.blocking_seconds + timer.ElapsedSeconds(),
                    &out->stats);
}

/// Partition stage: a positive component is re-partitioned iff it holds a
/// vertex >= first_new or one `changed` flags (a retired candidate, or an
/// endpoint of an edge the score splice dropped or added). Every other
/// component's induced subgraph — and therefore its greedy partition — is
/// identical to the base run's, so its partition is carried, renumbered
/// densely. (If removal split a base component, every piece holds a former
/// neighbor of a retired vertex, so all pieces are re-partitioned.) Without
/// divide-and-conquer the greedy runs over the whole graph and nothing is
/// carried. `order` is null when live candidate ids are in source-table
/// order; otherwise it is the candidate list, and each dirty component gets
/// its members in the relative order a cold run's dense ids would impose
/// (source table, then id) — the greedy tie-breaks on vertex ids. Fills
/// `out`'s partition and stats; returns the per-vertex carried flags
/// (empty when nothing was carried).
std::vector<uint8_t> ApplyPartition(const ScoredGraph& sg, uint32_t first_new,
                                    const std::vector<uint8_t>& changed,
                                    const Partitions& base,
                                    const std::vector<BinaryTable>* order,
                                    const SynthesisOptions& options,
                                    ThreadPool* threads, Partitions* out,
                                    size_t* dirty_components) {
  Timer timer;
  const CompatibilityGraph& graph = sg.graph;
  out->stats = sg.stats;
  std::vector<uint8_t> carried;
  PartitionResult& partition = out->partition;
  size_t num_dirty = 0;
  if (options.divide_and_conquer) {
    const auto comp =
        ConnectedComponentsBfs(graph, options.partitioner.theta_edge);
    auto groups = GroupByComponent(comp);
    out->stats.components = groups.size();
    const auto dirty = [&](VertexId v) {
      return v >= first_new || (v < changed.size() && changed[v] != 0);
    };

    // Clean components carry the base partitioning, renumbered densely.
    // Dirty ones get one global vertex -> component-local-index table,
    // filled in a single O(V) pass (component member lists are disjoint).
    partition.partition_of.assign(graph.num_vertices(), 0);
    std::vector<uint32_t> local_of(graph.num_vertices(), 0);
    std::vector<size_t> dirty_idx;
    std::unordered_map<uint32_t, uint32_t> remap;
    uint32_t next_pid = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
      auto& members = groups[g];
      if (std::none_of(members.begin(), members.end(), dirty)) {
        if (carried.empty()) carried.assign(graph.num_vertices(), 0);
        for (VertexId v : members) {
          carried[v] = 1;
          const auto [it, inserted] =
              remap.emplace(base.partition.partition_of[v], next_pid);
          if (inserted) ++next_pid;
          partition.partition_of[v] = it->second;
        }
        continue;
      }
      dirty_idx.push_back(g);
      if (order != nullptr) {
        std::sort(members.begin(), members.end(),
                  [&](VertexId x, VertexId y) {
                    return std::tie((*order)[x].source_table, x) <
                           std::tie((*order)[y].source_table, y);
                  });
      }
      for (uint32_t i = 0; i < members.size(); ++i) local_of[members[i]] = i;
    }

    std::atomic<uint32_t> next_partition{next_pid};
    std::mutex mu;
    auto run_dirty = [&](size_t k) {
      const auto& members = groups[dirty_idx[k]];
      if (members.size() == 1) {
        partition.partition_of[members[0]] = next_partition.fetch_add(1);
        return;
      }
      PartitionResult local = PartitionComponentSubgraph(
          graph, comp, local_of, members, options.partitioner);
      const uint32_t first = next_partition.fetch_add(
          static_cast<uint32_t>(local.num_partitions));
      for (uint32_t i = 0; i < members.size(); ++i) {
        partition.partition_of[members[i]] = first + local.partition_of[i];
      }
      // merges_performed covers re-partitioned components only: a base
      // artifact stores a whole-run total that cannot be decomposed per
      // carried component.
      std::lock_guard<std::mutex> lock(mu);
      partition.merges_performed += local.merges_performed;
    };
    threads->ParallelFor(dirty_idx.size(), run_dirty);
    partition.num_partitions = next_partition.load();
    num_dirty = dirty_idx.size();
  } else {
    partition = GreedyPartition(graph, options.partitioner);
    num_dirty = partition.num_partitions;
  }
  out->stats.partition_seconds =
      base.stats.partition_seconds + timer.ElapsedSeconds();
  out->stats.partitions = partition.num_partitions;
  if (dirty_components != nullptr) *dirty_components = num_dirty;
  return carried;
}

/// Resolve stage: resolves every partition group outside the carried
/// components (a retired candidate's singleton resolves nothing) and keeps
/// the base mappings of carried components verbatim — their partitions,
/// members and conflict sets are untouched, and the curation filter is
/// per-mapping. `reorder` hands each group its members in (source table,
/// id) order, as ApplyPartition's `order` does. Fills `out`; returns the
/// number of carried mappings.
size_t ApplyResolve(const CandidateSet& cands, const Partitions& partitions,
                    const std::vector<uint8_t>& carried, bool reorder,
                    const SynthesisResult& base,
                    const SynthesisOptions& options,
                    const ConflictResolutionOptions& conflict,
                    ThreadPool* threads, SynthesisResult* out) {
  Timer timer;
  const std::vector<BinaryTable>& tables = cands.tables();
  const PartitionResult& partition = partitions.partition;
  std::vector<std::vector<VertexId>> groups(partition.num_partitions);
  for (VertexId v = 0; v < partition.partition_of.size(); ++v) {
    if (v < carried.size() && carried[v]) continue;
    groups[partition.partition_of[v]].push_back(v);
  }
  std::erase_if(groups, [&](const std::vector<VertexId>& g) {
    return g.empty() || (g.size() == 1 && cands.is_dead(g[0]));
  });
  if (reorder) {
    for (auto& g : groups) {
      std::sort(g.begin(), g.end(), [&](VertexId x, VertexId y) {
        return std::tie(tables[x].source_table, x) <
               std::tie(tables[y].source_table, y);
      });
    }
  }
  std::vector<SynthesizedMapping> mappings = FilterByPopularity(
      ResolveGroups(tables, groups, options, conflict, threads),
      options.min_domains, options.min_pairs);
  size_t num_carried = 0;
  for (const auto& m : base.mappings) {
    if (!carried.empty() && !m.member_tables.empty() &&
        carried[m.member_tables[0]]) {
      mappings.push_back(m);
      ++num_carried;
    }
  }
  if (num_carried > 0) {
    std::sort(mappings.begin(), mappings.end(), PopularityGreater);
  }
  out->mappings = std::move(mappings);
  out->stats = partitions.stats;
  out->stats.resolve_seconds =
      base.stats.resolve_seconds + timer.ElapsedSeconds();
  out->stats.mappings = out->mappings.size();
  out->stats.total_seconds =
      out->stats.index_seconds + out->stats.extract_seconds +
      out->stats.blocking_seconds + out->stats.scoring_seconds +
      out->stats.partition_seconds + out->stats.resolve_seconds;
  return num_carried;
}

}  // namespace

CompatibilityGraph BuildCompatibilityGraph(
    const std::vector<BinaryTable>& candidates, const StringPool& pool,
    const BlockingOptions& blocking, const CompatibilityOptions& compat,
    ThreadPool* pool_threads, PipelineStats* stats) {
  Timer timer;
  BlockingStats bstats;
  auto pairs =
      GenerateCandidatePairs(candidates, 0, blocking, pool_threads, &bstats);
  if (stats) {
    FillBlockingStats(bstats, pairs.size(), timer.ElapsedSeconds(), stats);
  }

  timer.Restart();
  ScoringStats scoring;
  CompatibilityGraph graph = ScorePairsCore(candidates, pool, pairs, compat,
                                            pool_threads, nullptr, &scoring);
  if (stats) {
    stats->scoring.Add(scoring);
    stats->scoring_seconds = timer.ElapsedSeconds();
    stats->graph_edges = graph.num_edges();
  }
  return graph;
}

// ------------------------------------------------------------------ session

/// Per-worker persistent matchers: slot i belongs to pool worker i, the
/// extra last slot to the submitting thread (serial runs). Cache contents
/// never affect scores, so reuse across runs changes speed only.
struct SynthesisSession::MatcherSlots {
  const StringPool* pool = nullptr;
  /// pool->truncations() when the slots were built: a truncated pool may
  /// re-intern cached ids with other strings.
  uint64_t pool_truncations = 0;
  double fractional = 0.0;
  size_t cap = 0;
  std::vector<std::unique_ptr<BatchApproxMatcher>> slots;
};

SynthesisSession::SynthesisSession(SynthesisOptions options)
    : options_(std::move(options)) {
  init_status_ = options_.Validate();
  if (init_status_.ok()) {
    threads_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

SynthesisSession::~SynthesisSession() = default;

Status SynthesisSession::UpdateOptions(SynthesisOptions options) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(options.Validate());
  const bool threads_changed =
      options.num_threads != options_.num_threads || threads_ == nullptr;
  if (options.compat.synonyms != options_.compat.synonyms) {
    snapshot_valid_ = false;
  }
  options_ = std::move(options);
  init_status_ = Status::OK();
  if (threads_changed) {
    matchers_.reset();  // slots are sized to the pool
    threads_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return Status::OK();
}

Status SynthesisSession::ReadyToRun() const {
  if (!init_status_.ok()) return init_status_;
  return Status::OK();
}

Status SynthesisSession::CheckSameSession(const char* stage,
                                          const void* session) const {
  if (session != this) {
    return Status::FailedPrecondition(
        std::string(stage) +
        ": artifact was produced by a different SynthesisSession");
  }
  return Status::OK();
}

Status SynthesisSession::CheckLineage(const char* stage, const void* session,
                                      uint64_t got_candidates_id,
                                      uint64_t want_candidates_id) const {
  MS_RETURN_IF_ERROR(CheckSameSession(stage, session));
  if (got_candidates_id != want_candidates_id) {
    return Status::FailedPrecondition(
        std::string(stage) +
        ": artifact lineage mismatch — the artifacts come from different "
        "candidate sets (ids " + std::to_string(got_candidates_id) + " vs " +
        std::to_string(want_candidates_id) + ")");
  }
  return Status::OK();
}

const SynonymSnapshot* SynthesisSession::RefreshSnapshot(
    const SynonymDictionary* dict) {
  const uint64_t v = dict->version();
  if (!snapshot_valid_ || synonym_snapshot_.source_version() != v) {
    synonym_snapshot_ = dict->Snapshot();
    snapshot_valid_ = true;
    ++session_stats_.snapshot_rebuilds;
  }
  return &synonym_snapshot_;
}

CompatibilityOptions SynthesisSession::EffectiveCompat() {
  CompatibilityOptions eff = options_.compat;
  if (eff.synonyms != nullptr && eff.synonym_snapshot == nullptr) {
    eff.synonym_snapshot = RefreshSnapshot(eff.synonyms);
  }
  return eff;
}

ConflictResolutionOptions SynthesisSession::EffectiveConflict() {
  ConflictResolutionOptions eff = options_.conflict;
  // Reuse the scoring snapshot when conflict resolution reads the same
  // dictionary (the common wiring); a different dictionary keeps the locked
  // path rather than risking a view of the wrong feed.
  if (eff.synonyms != nullptr && eff.synonym_snapshot == nullptr &&
      eff.synonyms == options_.compat.synonyms) {
    eff.synonym_snapshot = RefreshSnapshot(eff.synonyms);
  }
  return eff;
}

Result<CandidateSet> SynthesisSession::ExtractCandidates(
    const TableCorpus& corpus) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  static obs::Histogram* const stage_us = StageHistogram("extract");
  obs::TraceSpan span("synth.extract", stage_us);
  Timer step;
  // With the coherence filter disabled (threshold at/below the score
  // floor), ColumnPassesCoherence short-circuits and nothing reads the
  // index — skip the full-corpus build.
  ColumnInvertedIndex index;
  if (options_.extraction.coherence_threshold > -1.0) {
    index.Build(corpus, threads_.get());
  }
  const double index_s = step.ElapsedSeconds();

  step.Restart();
  ExtractionResult extracted = ::ms::ExtractCandidates(
      corpus, index, options_.extraction, threads_.get());
  CandidateSet out;
  ApplyExtraction(EmptyFamily().candidates, std::move(extracted),
                  /*retired=*/{}, /*removed_tables=*/{}, corpus, index_s,
                  step.ElapsedSeconds(), &out);
  if (options_.extraction.coherence_threshold > -1.0) {
    // Seed the maintained-index cache: the first incremental mutation on
    // this corpus patches these postings in place instead of paying a
    // full rebuild (cold extraction is generation 0 of the family).
    index_cache_ = std::move(index);
    index_corpus_ = &corpus;
    index_tables_ = corpus.size();
    index_columns_ = index_cache_.num_columns();
    index_generation_ = 0;
  }
  out.artifact_id = NextArtifactId();
  out.session = this;
  ++session_stats_.extract_runs;
  return out;
}

Result<CandidateSet> SynthesisSession::AdoptCandidates(
    const std::vector<BinaryTable>& candidates, const StringPool& pool) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].id != static_cast<BinaryTableId>(i)) {
      return Status::InvalidArgument(
          "AdoptCandidates: candidate ids must be dense 0..n-1 (candidate " +
          std::to_string(i) + " has id " + std::to_string(candidates[i].id) +
          "); provenance and graph vertices index by id");
    }
  }
  CandidateSet out;
  out.borrowed = &candidates;
  out.pool = &pool;
  out.stats.candidates = candidates.size();
  out.artifact_id = NextArtifactId();
  out.session = this;
  ++session_stats_.adopt_runs;
  return out;
}

Result<BlockedPairs> SynthesisSession::BlockPairs(
    const CandidateSet& candidates) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("BlockPairs", candidates.session));
  static obs::Histogram* const stage_us = StageHistogram("block");
  obs::TraceSpan span("synth.block", stage_us);
  BlockedPairs out;
  ApplyBlocking(candidates, /*first_new=*/0, /*retired=*/{},
                EmptyFamily().blocked, options_.blocking, threads_.get(), &out,
                /*fresh=*/nullptr);
  out.artifact_id = NextArtifactId();
  out.candidates_id = candidates.artifact_id;
  out.session = this;
  ++session_stats_.blocking_runs;
  return out;
}

CompatibilityGraph SynthesisSession::ScoreThroughSessionMatchers(
    const std::vector<BinaryTable>& tables, const StringPool& pool,
    const std::vector<CandidateTablePair>& pairs, ScoringStats* scoring) {
  const CompatibilityOptions eff = EffectiveCompat();

  // (Re)build or re-point the per-worker matchers. Everything cached in a
  // matcher depends only on the pool contents and edit.fractional, so a
  // re-score under tweaked thresholds starts with every mask it ever built
  // — unless the pool was truncated since, which can give cached ids new
  // strings.
  const size_t num_slots = threads_->num_threads() + 1;
  const bool warm = matchers_ != nullptr && matchers_->pool == &pool &&
                    matchers_->pool_truncations == pool.truncations() &&
                    matchers_->slots.size() == num_slots &&
                    matchers_->fractional == eff.edit.fractional &&
                    matchers_->cap == options_.matcher_cache_cap;
  if (!warm) {
    matchers_ = std::make_unique<MatcherSlots>();
    matchers_->pool = &pool;
    matchers_->pool_truncations = pool.truncations();
    matchers_->fractional = eff.edit.fractional;
    matchers_->cap = options_.matcher_cache_cap;
    matchers_->slots.resize(num_slots);
    for (auto& slot : matchers_->slots) {
      slot = std::make_unique<BatchApproxMatcher>(
          pool, eff.edit, eff.approximate_matching, eff.synonyms,
          eff.synonym_snapshot, options_.matcher_cache_cap);
    }
  } else {
    ++session_stats_.warm_scoring_runs;
    for (auto& slot : matchers_->slots) {
      slot->Reconfigure(eff.edit, eff.approximate_matching, eff.synonyms,
                        eff.synonym_snapshot);
    }
  }
  for (auto& slot : matchers_->slots) slot->ResetStats();

  auto worker_matcher = [this, num_slots]() -> BatchApproxMatcher* {
    size_t wi = ThreadPool::CurrentWorkerIndex();
    if (wi == ThreadPool::kNotAWorker || wi + 1 >= num_slots) {
      wi = num_slots - 1;
    }
    return matchers_->slots[wi].get();
  };

  CompatibilityGraph graph = ScorePairsCore(tables, pool, pairs, eff,
                                            threads_.get(), worker_matcher,
                                            scoring);
  for (const auto& slot : matchers_->slots) {
    scoring->matcher.Add(slot->stats());
  }
  return graph;
}

ScoredGraph SynthesisSession::ApplyScoring(
    const CandidateSet& cands, const BlockedPairs& blocked,
    const std::vector<CandidateTablePair>& fresh, const ScoredGraph& base,
    const std::vector<uint8_t>& retired, std::vector<uint8_t>* changed,
    size_t* fresh_edges) {
  Timer timer;
  ScoringStats scoring;
  CompatibilityGraph scored = ScoreThroughSessionMatchers(
      cands.tables(), *cands.pool, fresh, &scoring);
  if (fresh_edges != nullptr) *fresh_edges = scored.num_edges();
  const auto is_retired = [&](const CompatEdge& e) {
    return !retired.empty() && (retired[e.u] || retired[e.v]);
  };
  if (!retired.empty() && changed != nullptr) {
    changed->assign(cands.tables().size(), 0);
    std::copy(retired.begin(), retired.end(), changed->begin());
    const auto mark = [&](const CompatEdge& e) {
      (*changed)[e.u] = 1;
      (*changed)[e.v] = 1;
    };
    for (const auto& e : base.graph.edges()) {
      if (is_retired(e)) mark(e);
    }
    for (const auto& e : scored.edges()) mark(e);
  }
  ScoredGraph out;
  if (base.graph.num_edges() == 0) {
    out.graph = std::move(scored);
  } else {
    out.graph = CompatibilityGraph(
        cands.tables().size(),
        Splice(base.graph.edges(), is_retired, scored.edges(), EdgeLess));
  }
  out.stats = blocked.stats;  // blocking never fills scoring
  out.stats.scoring = base.stats.scoring;
  out.stats.scoring.Add(scoring);
  out.stats.scoring_seconds =
      base.stats.scoring_seconds + timer.ElapsedSeconds();
  out.stats.graph_edges = out.graph.num_edges();
  return out;
}

Result<ScoredGraph> SynthesisSession::ScorePairs(
    const CandidateSet& candidates, const BlockedPairs& blocked) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  // Both artifacts must come from this session — artifact ids are only
  // unique within one session's counter, so the id comparison below is
  // meaningless across sessions.
  MS_RETURN_IF_ERROR(CheckSameSession("ScorePairs", candidates.session));
  MS_RETURN_IF_ERROR(CheckLineage("ScorePairs", blocked.session,
                                  blocked.candidates_id,
                                  candidates.artifact_id));
  static obs::Histogram* const stage_us = StageHistogram("score");
  obs::TraceSpan span("synth.score", stage_us);
  ScoredGraph out = ApplyScoring(candidates, blocked, blocked.pairs,
                                 EmptyFamily().scored, /*retired=*/{},
                                 /*changed=*/nullptr, /*fresh_edges=*/nullptr);
  out.artifact_id = NextArtifactId();
  out.candidates_id = candidates.artifact_id;
  out.session = this;
  ++session_stats_.scoring_runs;
  return out;
}

Result<Partitions> SynthesisSession::Partition(const ScoredGraph& sg) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("Partition", sg.session));
  static obs::Histogram* const stage_us = StageHistogram("partition");
  obs::TraceSpan span("synth.partition", stage_us);
  // Algorithm 3, optionally per positive component (Appendix F
  // divide-and-conquer).
  Partitions out;
  ApplyPartition(sg, /*first_new=*/0, /*changed=*/{}, EmptyFamily().partitions,
                 /*order=*/nullptr, options_, threads_.get(), &out,
                 /*dirty_components=*/nullptr);
  out.artifact_id = NextArtifactId();
  out.candidates_id = sg.candidates_id;
  out.graph_id = sg.artifact_id;
  out.session = this;
  ++session_stats_.partition_runs;
  return out;
}

Result<SynthesisResult> SynthesisSession::Resolve(
    const CandidateSet& candidates, const ScoredGraph& graph,
    const Partitions& partitions) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("Resolve", candidates.session));
  MS_RETURN_IF_ERROR(CheckLineage("Resolve", graph.session,
                                  graph.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage("Resolve", partitions.session,
                                  partitions.candidates_id,
                                  candidates.artifact_id));
  // The partitions must come from *this* graph, not just the same
  // candidate set: the same candidates scored under different options
  // yield different graphs, and mixing them would pair one graph's stats
  // with another's partitioning.
  if (partitions.graph_id != graph.artifact_id) {
    return Status::FailedPrecondition(
        "Resolve: partitions were computed from a different ScoredGraph "
        "(ids " + std::to_string(partitions.graph_id) + " vs " +
        std::to_string(graph.artifact_id) + ")");
  }
  static obs::Histogram* const stage_us = StageHistogram("resolve");
  obs::TraceSpan span("synth.resolve", stage_us);
  SynthesisResult result;
  ApplyResolve(candidates, partitions, /*carried=*/{}, /*reorder=*/false,
               EmptyFamily().result, options_, EffectiveConflict(),
               threads_.get(), &result);
  ++session_stats_.resolve_runs;
  MS_LOG(Info) << "synthesis: " << result.stats.candidates << " candidates, "
               << result.stats.graph_edges << " edges, "
               << result.stats.partitions << " partitions, "
               << result.stats.mappings << " mappings";
  return result;
}

// --------------------------------------------------------- incremental growth

Status SynthesisSession::ValidateAppendFamily(
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) const {
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("AppendTables", candidates.session));
  MS_RETURN_IF_ERROR(CheckLineage("AppendTables", blocked.session,
                                  blocked.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage("AppendTables", scored.session,
                                  scored.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage("AppendTables", partitions.session,
                                  partitions.candidates_id,
                                  candidates.artifact_id));
  if (partitions.graph_id != scored.artifact_id) {
    return Status::FailedPrecondition(
        "AppendTables: partitions were computed from a different ScoredGraph "
        "(ids " + std::to_string(partitions.graph_id) + " vs " +
        std::to_string(scored.artifact_id) + ")");
  }
  if (candidates.kept_offsets.size() != candidates.source_tables + 1) {
    return Status::FailedPrecondition(
        "AppendTables: the candidate set carries no extraction signatures "
        "(adopted candidates or a pre-append-format snapshot) — incremental "
        "growth needs the per-table kept-column provenance ExtractCandidates "
        "records to re-check coherence under the grown corpus");
  }
  // SynthesisResult carries no lineage ids of its own; the member-table
  // bounds check catches a result from a different (larger) family before
  // the carry-over path would index component arrays with it.
  for (const SynthesizedMapping& m : result.mappings) {
    for (BinaryTableId id : m.member_tables) {
      if (id >= candidates.tables().size()) {
        return Status::FailedPrecondition(
            "AppendTables: result references candidate " +
            std::to_string(id) + " outside the candidate set (" +
            std::to_string(candidates.tables().size()) +
            " candidates) — it is not this artifact family's result");
      }
    }
  }
  return Status::OK();
}

Result<AppendedArtifacts> SynthesisSession::AppendTables(
    const TableCorpus& corpus, size_t first_new_table,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
  if (first_new_table != candidates.source_tables) {
    return Status::InvalidArgument(
        "AppendTables: first_new_table (" + std::to_string(first_new_table) +
        ") must equal the table count the candidate set was extracted from (" +
        std::to_string(candidates.source_tables) +
        "); the corpus prefix must be exactly the synthesized tables");
  }
  if (corpus.size() < first_new_table) {
    return Status::InvalidArgument(
        "AppendTables: corpus has " + std::to_string(corpus.size()) +
        " tables but the artifacts were synthesized from " +
        std::to_string(first_new_table) + " — corpora only grow");
  }
  ++session_stats_.append_runs;
  return ApplyCorpusDeltaLocked(corpus, first_new_table, {}, {},
                                /*removed_columns=*/0, candidates, blocked,
                                scored, partitions, result);
}

const ColumnInvertedIndex& SynthesisSession::MaintainedIndexLocked(
    const TableCorpus& corpus, size_t first_new_table,
    const std::vector<uint32_t>& removed_tables, size_t removed_columns,
    uint32_t base_generation) {
  // Reconstruct the pre-mutation fingerprint: the corpus is already
  // mutated, so the pre-state is its current live columns minus the
  // appended tables' plus what the tombstoning cleared.
  size_t appended_columns = 0;
  for (size_t t = first_new_table; t < corpus.size(); ++t) {
    appended_columns += corpus.table(t).num_columns();
  }
  const size_t pre_columns =
      corpus.TotalColumns() - appended_columns + removed_columns;
  const bool patchable = index_corpus_ == &corpus &&
                         index_tables_ == first_new_table &&
                         index_columns_ == pre_columns &&
                         index_generation_ == base_generation;
  if (patchable) {
    if (!removed_tables.empty()) index_cache_.RemoveTables(removed_tables);
    if (corpus.size() > first_new_table) {
      index_cache_.AppendTables(corpus, first_new_table);
    }
  } else {
    index_cache_.Build(corpus, threads_.get());
  }
  index_corpus_ = &corpus;
  index_tables_ = corpus.size();
  index_columns_ = index_cache_.num_columns();
  index_generation_ = base_generation + 1;
  return index_cache_;
}

Result<AppendedArtifacts> SynthesisSession::ApplyCorpusDeltaLocked(
    const TableCorpus& corpus, size_t first_new_table,
    std::vector<uint32_t> removed_tables, std::vector<ValueId> removed_values,
    size_t removed_columns, const CandidateSet& candidates,
    const BlockedPairs& blocked, const ScoredGraph& scored,
    const Partitions& partitions, const SynthesisResult& result) {
  // The corpus pool may be a different object than the artifacts' pool
  // (restore-then-append: artifacts resolve against the mmap'd snapshot
  // pool, the corpus against a reopened store). Ids must agree wherever
  // both pools define them, or artifact ValueIds would silently change
  // meaning; verify the shared prefix outright.
  const StringPool* pool = &corpus.pool();
  if (candidates.pool == nullptr) {
    return Status::FailedPrecondition(
        "AppendTables: candidate set has no string pool");
  }
  if (candidates.pool != pool) {
    const size_t n = candidates.pool->size();
    if (pool->size() < n) {
      return Status::FailedPrecondition(
          "AppendTables: the corpus pool holds " +
          std::to_string(pool->size()) + " strings but the artifacts "
          "reference " + std::to_string(n) +
          " — persist the corpus store from the same pool state as the "
          "snapshot (after synthesis) so normalized values share ids");
    }
    for (size_t i = 0; i < n; ++i) {
      if (pool->Get(static_cast<ValueId>(i)) !=
          candidates.pool->Get(static_cast<ValueId>(i))) {
        return Status::FailedPrecondition(
            "AppendTables: the corpus pool diverges from the artifacts' "
            "pool at id " + std::to_string(i) +
            " — these artifacts were not synthesized from this corpus");
      }
    }
  }

  static obs::Histogram* const stage_us = StageHistogram("append");
  obs::TraceSpan span("synth.append", stage_us);
  static obs::Counter* const unstable_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_append_unstable_total");
  static obs::Counter* const full_rebuilds_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_append_full_rebuilds_total");
  static obs::Counter* const margin_skips_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_margin_skips_total");
  static obs::Counter* const margin_rechecks_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_margin_rechecks_total");
  Timer append_timer;
  AppendedArtifacts out;
  out.append.appended_tables = corpus.size() - first_new_table;
  out.append.removed_tables = removed_tables.size();

  const std::vector<BinaryTable>& base_tables = candidates.tables();
  const auto restamp = [&](uint32_t generation) {
    out.candidates.artifact_id = NextArtifactId();
    out.candidates.session = this;
    out.candidates.generation = generation;
    out.blocked.artifact_id = NextArtifactId();
    out.blocked.candidates_id = out.candidates.artifact_id;
    out.blocked.session = this;
    out.scored.artifact_id = NextArtifactId();
    out.scored.candidates_id = out.candidates.artifact_id;
    out.scored.session = this;
    out.partitions.artifact_id = NextArtifactId();
    out.partitions.candidates_id = out.candidates.artifact_id;
    out.partitions.graph_id = out.scored.artifact_id;
    out.partitions.session = this;
  };

  // Empty mutation: nothing can change — hand back copies of the inputs
  // under a fresh lineage generation.
  if (corpus.size() == first_new_table && removed_tables.empty()) {
    out.candidates = candidates;
    out.blocked = blocked;
    out.scored = scored;
    out.partitions = partitions;
    out.result = result;
    restamp(candidates.generation + 1);
    out.append.extraction_stable = true;
    out.append.carried_mappings = result.mappings.size();
    out.append.append_seconds = append_timer.ElapsedSeconds();
    return out;
  }

  // Candidates retired by the removal itself (flipped tables add theirs
  // after extraction below).
  std::vector<uint8_t> retired(base_tables.size(), 0);
  size_t num_retired = 0;
  for (size_t i = 0; !removed_tables.empty() && i < base_tables.size(); ++i) {
    if (candidates.is_dead(static_cast<BinaryTableId>(i))) continue;
    if (std::binary_search(removed_tables.begin(), removed_tables.end(),
                           base_tables[i].source_table)) {
      retired[i] = 1;
      ++num_retired;
    }
  }

  // --- Maintained index + incremental extraction. Re-checking every live
  // old table's coherence signature is the exactness tax: coherence is
  // corpus-global (p(u) = |C(u)|/N moves for every value when the corpus
  // changes) — but the maintained index patches postings in place instead
  // of rebuilding, the margin cache proves most verdicts stable without
  // touching a posting list, and the expensive half of extraction
  // (normalize + FD filter + candidate assembly) runs only over the
  // appended and flipped tables.
  Timer step;
  ColumnInvertedIndex no_index;
  const ColumnInvertedIndex& index =
      options_.extraction.coherence_threshold > -1.0
          ? MaintainedIndexLocked(corpus, first_new_table, removed_tables,
                                  removed_columns, candidates.generation)
          : no_index;
  const double index_s = step.ElapsedSeconds();

  step.Restart();
  const BinaryTableId first_new_id =
      static_cast<BinaryTableId>(base_tables.size());
  ExtractionBase base;
  base.first_new_table = first_new_table;
  base.first_new_id = first_new_id;
  base.kept_offsets = &candidates.kept_offsets;
  base.kept_columns = &candidates.kept_columns;
  if (candidates.margin_offsets.size() == first_new_table + 1) {
    base.margin_offsets = &candidates.margin_offsets;
    base.margins = &candidates.margins;
  }
  base.removed_tables = removed_tables;
  base.removed_values = std::move(removed_values);
  ExtractionResult delta = ::ms::ExtractCandidates(
      corpus, index, options_.extraction, threads_.get(), base);
  const double extract_s = step.ElapsedSeconds();
  const size_t unstable_tables = delta.flipped_tables.size();
  out.append.extraction_stable = delta.stable();
  out.append.unstable_tables = unstable_tables;
  out.append.margin_skips = delta.margin_skips;
  out.append.margin_rechecks = delta.margin_rechecks;
  out.append.new_candidates = delta.candidates.size();
  unstable_total->Add(unstable_tables);
  margin_skips_total->Add(delta.margin_skips);
  margin_rechecks_total->Add(delta.margin_rechecks);

  const size_t live_old_tables = first_new_table -
                                 candidates.tombstoned_tables.size() -
                                 removed_tables.size();
  const auto full_rebuild =
      [&](const std::string& why) -> Result<AppendedArtifacts> {
    ++session_stats_.append_full_rebuilds;
    full_rebuilds_total->Increment();
    out.append.full_rebuild = true;
    Result<CandidateSet> c = ExtractCandidates(corpus);
    if (!c.ok()) return c.status();
    Result<BlockedPairs> b = BlockPairs(c.value());
    if (!b.ok()) return b.status();
    Result<ScoredGraph> g = ScorePairs(c.value(), b.value());
    if (!g.ok()) return g.status();
    Result<Partitions> p = Partition(g.value());
    if (!p.ok()) return p.status();
    Result<SynthesisResult> r = Resolve(c.value(), g.value(), p.value());
    if (!r.ok()) return r.status();
    out.candidates = std::move(c).value();
    out.candidates.generation = candidates.generation + 1;
    // The internal cold extraction reseeded the index cache at generation
    // 0; the family continues at the next generation.
    index_generation_ = candidates.generation + 1;
    // The corpus slots stay shells; record them so observers (and the
    // snapshot) keep the provenance even though the fresh extraction has
    // no dead candidates to carry.
    out.candidates.tombstoned_tables = candidates.tombstoned_tables;
    out.candidates.tombstoned_tables.insert(
        out.candidates.tombstoned_tables.end(), removed_tables.begin(),
        removed_tables.end());
    std::sort(out.candidates.tombstoned_tables.begin(),
              out.candidates.tombstoned_tables.end());
    out.blocked = std::move(b).value();
    out.scored = std::move(g).value();
    out.partitions = std::move(p).value();
    out.result = std::move(r).value();
    out.append.removed_candidates = num_retired;
    out.append.new_candidates =
        out.candidates.owned.size() -
        std::min(out.candidates.owned.size(), base_tables.size());
    out.append.append_seconds = append_timer.ElapsedSeconds();
    MS_LOG(Info) << "append: " << why << "; fell back to a full rebuild ("
                 << out.candidates.owned.size() << " candidates)";
    return out;
  };
  if (!delta.stable() && unstable_tables * 2 > live_old_tables) {
    // A majority of the surviving tables flipped their coherence verdict:
    // partial re-extraction would churn most candidate ids anyway, so an
    // internal cold re-run is both cheaper and re-densifies ids (results
    // are still exact — exactness is never traded for speed).
    return full_rebuild(std::to_string(unstable_tables) + "/" +
                        std::to_string(live_old_tables) +
                        " coherence verdicts shifted");
  }
  // Flipped tables: their base candidates are superseded by the
  // re-extractions riding along in delta.candidates.
  for (size_t i = 0;
       !delta.flipped_tables.empty() && i < base_tables.size(); ++i) {
    if (retired[i] || candidates.is_dead(static_cast<BinaryTableId>(i))) {
      continue;
    }
    if (std::binary_search(delta.flipped_tables.begin(),
                           delta.flipped_tables.end(),
                           base_tables[i].source_table)) {
      retired[i] = 1;
      ++num_retired;
    }
  }
  out.append.removed_candidates = num_retired;
  const bool have_dead = num_retired > 0;
  if (!have_dead) retired.clear();  // the stage helpers read empty as none

  ApplyExtraction(candidates, std::move(delta), retired, removed_tables,
                  corpus, index_s, extract_s, &out.candidates);
  const size_t total_dead = out.candidates.num_dead();

  // Appends and removals only ever *relabel* live candidate ids — they
  // never reorder them, so the live sequence stays sorted by source table
  // exactly like a cold run's dense assignment. A flipped table's
  // re-extraction is the one mutation that can break this (it takes tail
  // ids where a cold run would slot it in table order), and the break
  // persists across later mutations until the table is removed or a
  // rebuild re-densifies ids. Every downstream step that is
  // id-ORDER-dependent — posting-list truncation keeps the lowest ids, the
  // global greedy partition tie-breaks on vertex ids — is cold-exact iff
  // this ordering holds, so the order, not the presence of flips, is what
  // gates the shortcuts below.
  bool order_ok = true;
  {
    uint32_t prev_table = 0;
    for (size_t i = 0; i < out.candidates.owned.size(); ++i) {
      if (i < out.candidates.dead.size() && out.candidates.dead[i]) continue;
      const uint32_t t = out.candidates.owned[i].source_table;
      if (t < prev_table) {
        order_ok = false;
        break;
      }
      prev_table = t;
    }
  }
  if (!order_ok && !options_.divide_and_conquer) {
    // Without divide-and-conquer the greedy partition runs over the whole
    // graph on raw vertex ids; its tie-breaks cannot be re-sorted into
    // cold order the way per-component subgraphs can, so a broken id
    // order forces a rebuild to keep the cold-oracle equivalence exact.
    return full_rebuild(std::to_string(unstable_tables) +
                        " coherence verdicts shifted without "
                        "divide-and-conquer");
  }
  if (!order_ok && blocked.blocking.dropped_postings != 0) {
    // Posting-list truncation keeps the lowest candidate ids, so which
    // pairs survive a hot key depends on id order. The base run already
    // truncated, and this family's live ids are no longer in cold order:
    // only a rebuild keeps the cold-oracle equivalence exact.
    return full_rebuild(std::to_string(unstable_tables) +
                        " coherence verdicts shifted with truncated "
                        "posting lists");
  }

  // --- Block, score, partition, resolve: each stage applies this
  // mutation to its base artifact, through the same helpers a cold run
  // applies to the empty family.
  std::vector<CandidateTablePair> fresh;
  ApplyBlocking(out.candidates, first_new_id, retired, blocked,
                options_.blocking, threads_.get(), &out.blocked, &fresh);
  if (!order_ok && out.blocked.blocking.dropped_postings !=
                       blocked.blocking.dropped_postings) {
    // The union posting lists truncated for the first time during this
    // mutation (possibly a pure append — the id-order break can stem from
    // a flip several generations back). Same reasoning as the pre-blocking
    // check: truncation keeps the lowest ids, and the live ids are not in
    // cold order, so only a rebuild preserves exact cold equivalence.
    return full_rebuild(std::to_string(unstable_tables) +
                        " coherence verdicts shifted and the delta "
                        "blocking pass truncated posting lists");
  }
  out.append.delta_pairs = fresh.size();

  std::vector<uint8_t> changed;
  out.scored = ApplyScoring(out.candidates, out.blocked, fresh, scored,
                            retired, &changed, &out.append.delta_edges);

  const std::vector<BinaryTable>* order =
      order_ok ? nullptr : &out.candidates.owned;
  const std::vector<uint8_t> carried = ApplyPartition(
      out.scored, first_new_id, changed, partitions, order, options_,
      threads_.get(), &out.partitions, &out.append.dirty_components);
  if (options_.divide_and_conquer) {
    // Retired candidates sit in singleton components holding a reserved
    // partition slot each; the reported counts cover live structure only,
    // matching what a cold rebuild over the surviving tables sees.
    out.append.clean_components =
        out.partitions.stats.components - out.append.dirty_components;
    out.partitions.stats.components -= total_dead;
  } else {
    // The global greedy re-ran every partition; the retired singletons
    // among them resolve nothing.
    out.append.dirty_components -= total_dead;
  }
  out.partitions.stats.partitions -= total_dead;

  out.append.carried_mappings = ApplyResolve(
      out.candidates, out.partitions, carried, order != nullptr, result,
      options_, EffectiveConflict(), threads_.get(), &out.result);

  restamp(candidates.generation + 1);
  out.append.append_seconds = append_timer.ElapsedSeconds();
  MS_LOG(Info) << "append: +" << out.append.appended_tables << "/-"
               << out.append.removed_tables << " tables, +"
               << out.append.new_candidates << "/-"
               << out.append.removed_candidates << " candidates, "
               << out.append.delta_pairs << " delta pairs, "
               << out.append.margin_skips << " margin skips / "
               << out.append.margin_rechecks << " rechecks, "
               << out.append.dirty_components << "/"
               << out.append.dirty_components + out.append.clean_components
               << " dirty components, " << out.append.carried_mappings
               << " mappings carried";
  return out;
}

Result<AppendedArtifacts> SynthesisSession::AppendCorpus(
    TableCorpus* corpus, const TableCorpus& delta,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument("AppendCorpus: corpus is null");
  }
  // Validate BEFORE mutating: merging the delta and then failing a lineage
  // check would leave the corpus permanently grown past the artifacts, a
  // stuck state every retry would re-reject.
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
  if (corpus->size() != candidates.source_tables) {
    return Status::InvalidArgument(
        "AppendCorpus: the corpus already has " +
        std::to_string(corpus->size()) + " tables but the artifacts cover " +
        std::to_string(candidates.source_tables) +
        " — pass the un-grown corpus and let AppendCorpus merge the delta");
  }
  Result<size_t> first_new = corpus->AppendFrom(delta);
  if (!first_new.ok()) return first_new.status();
  return AppendTables(*corpus, first_new.value(), candidates, blocked,
                      scored, partitions, result);
}

namespace {

/// Shared removal-id validation for RemoveTables/ReplaceTables: sorts
/// `removed` in place, rejects duplicates and out-of-range ids with
/// InvalidArgument BEFORE any corpus mutation, then drops no-op entries
/// (tables already tombstoned, or degenerate zero-column tables — their
/// removal cannot change any artifact).
Status PrepareRemovalIds(const char* stage, const TableCorpus& corpus,
                         std::vector<uint32_t>* removed) {
  std::sort(removed->begin(), removed->end());
  for (size_t i = 0; i < removed->size(); ++i) {
    if ((*removed)[i] >= corpus.size()) {
      return Status::InvalidArgument(
          std::string(stage) + ": table id " +
          std::to_string((*removed)[i]) + " is out of range (corpus has " +
          std::to_string(corpus.size()) + " tables)");
    }
    if (i > 0 && (*removed)[i] == (*removed)[i - 1]) {
      return Status::InvalidArgument(
          std::string(stage) + ": duplicate table id " +
          std::to_string((*removed)[i]) + " in the removal set");
    }
  }
  std::erase_if(*removed, [&](uint32_t id) {
    return corpus.table(id).num_columns() == 0;
  });
  return Status::OK();
}

/// Captures the removal footprint (distinct cell values + column count)
/// and tombstones each table, returning the moved-out columns so a failed
/// mutation can restore them.
struct RemovalCapture {
  std::vector<ValueId> values;
  size_t columns = 0;
  std::vector<std::pair<uint32_t, std::vector<Column>>> saved;
};

RemovalCapture TombstoneAll(TableCorpus* corpus,
                            const std::vector<uint32_t>& removed) {
  RemovalCapture cap;
  cap.saved.reserve(removed.size());
  for (uint32_t id : removed) {
    const Table& t = corpus->table(id);
    cap.columns += t.num_columns();
    for (const Column& c : t.columns) {
      cap.values.insert(cap.values.end(), c.cells.begin(), c.cells.end());
    }
    cap.saved.emplace_back(id, corpus->Tombstone(id));
  }
  std::sort(cap.values.begin(), cap.values.end());
  cap.values.erase(std::unique(cap.values.begin(), cap.values.end()),
                   cap.values.end());
  return cap;
}

void RestoreAll(TableCorpus* corpus, RemovalCapture* cap) {
  for (auto& [id, cols] : cap->saved) {
    corpus->RestoreColumns(id, std::move(cols));
  }
}

}  // namespace

Result<AppendedArtifacts> SynthesisSession::RemoveTables(
    TableCorpus* corpus, std::vector<uint32_t> removed,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument("RemoveTables: corpus is null");
  }
  // Validate BEFORE mutating — same discipline as AppendCorpus.
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
  if (corpus->size() != candidates.source_tables) {
    return Status::InvalidArgument(
        "RemoveTables: the corpus has " + std::to_string(corpus->size()) +
        " tables but the artifacts cover " +
        std::to_string(candidates.source_tables) +
        " — removals operate on the exact synthesized corpus");
  }
  MS_RETURN_IF_ERROR(PrepareRemovalIds("RemoveTables", *corpus, &removed));
  RemovalCapture cap = TombstoneAll(corpus, removed);
  Result<AppendedArtifacts> out = ApplyCorpusDeltaLocked(
      *corpus, corpus->size(), std::move(removed), std::move(cap.values),
      cap.columns, candidates, blocked, scored, partitions, result);
  if (!out.ok()) {
    RestoreAll(corpus, &cap);
    return out.status();
  }
  ++session_stats_.remove_runs;
  return out;
}

Result<AppendedArtifacts> SynthesisSession::ReplaceTables(
    TableCorpus* corpus, std::vector<uint32_t> removed,
    const TableCorpus& delta, const CandidateSet& candidates,
    const BlockedPairs& blocked, const ScoredGraph& scored,
    const Partitions& partitions, const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument("ReplaceTables: corpus is null");
  }
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
  if (corpus->size() != candidates.source_tables) {
    return Status::InvalidArgument(
        "ReplaceTables: the corpus has " + std::to_string(corpus->size()) +
        " tables but the artifacts cover " +
        std::to_string(candidates.source_tables) +
        " — replacements operate on the exact synthesized corpus");
  }
  MS_RETURN_IF_ERROR(PrepareRemovalIds("ReplaceTables", *corpus, &removed));
  // One atomic remove + append: tombstone, merge the delta at the tail,
  // reconcile in a single maintenance pass. A failure at any point rolls
  // the corpus back — tables, columns, and pool tail.
  const size_t prev_pool_size = corpus->pool().size();
  RemovalCapture cap = TombstoneAll(corpus, removed);
  Result<size_t> first_new = corpus->AppendFrom(delta);
  if (!first_new.ok()) {
    RestoreAll(corpus, &cap);
    return first_new.status();
  }
  Result<AppendedArtifacts> out = ApplyCorpusDeltaLocked(
      *corpus, first_new.value(), std::move(removed), std::move(cap.values),
      cap.columns, candidates, blocked, scored, partitions, result);
  if (!out.ok()) {
    corpus->Truncate(first_new.value());
    corpus->pool().TruncateTo(prev_pool_size);
    RestoreAll(corpus, &cap);
    return out.status();
  }
  ++session_stats_.replace_runs;
  return out;
}

// --------------------------------------------------------------- persistence

Status SynthesisSession::SaveSnapshot(const std::string& path,
                                      const CandidateSet& candidates,
                                      const BlockedPairs* blocked,
                                      const ScoredGraph* scored,
                                      const SynthesisResult* result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("SaveSnapshot", candidates.session));
  if (blocked != nullptr) {
    MS_RETURN_IF_ERROR(CheckLineage("SaveSnapshot", blocked->session,
                                    blocked->candidates_id,
                                    candidates.artifact_id));
  }
  if (scored != nullptr) {
    MS_RETURN_IF_ERROR(CheckLineage("SaveSnapshot", scored->session,
                                    scored->candidates_id,
                                    candidates.artifact_id));
  }
  static obs::Histogram* const save_us =
      obs::MetricsRegistry::Global().GetHistogram("ms_persist_save_us");
  obs::TraceSpan span("persist.save_snapshot", save_us);
  MS_RETURN_IF_ERROR(persist::SaveSessionSnapshot(
      path, OptionsFingerprint(options_), candidates, blocked, scored,
      result, env_));
  ++session_stats_.snapshot_saves;
  return Status::OK();
}

Result<SessionSnapshot> SynthesisSession::RestoreSnapshot(
    const std::string& path) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  static obs::Histogram* const restore_us =
      obs::MetricsRegistry::Global().GetHistogram("ms_persist_restore_us");
  obs::TraceSpan span("persist.restore_snapshot", restore_us);
  Result<SessionSnapshot> loaded =
      persist::LoadSessionSnapshot(path, OptionsFingerprint(options_), env_);
  if (!loaded.ok()) return loaded.status();
  SessionSnapshot snap = std::move(loaded).value();

  // Stamp the artifacts as this session's. Saved lineage ids are kept
  // verbatim (they round-trip) unless they would collide with ids this
  // session already issued — then the whole restored family is rebased by a
  // constant offset, preserving every internal candidates/graph link.
  uint64_t min_id = snap.candidates->artifact_id;
  uint64_t max_id = snap.candidates->artifact_id;
  auto track = [&](uint64_t id) {
    min_id = std::min(min_id, id);
    max_id = std::max(max_id, id);
  };
  if (snap.blocked) track(snap.blocked->artifact_id);
  if (snap.scored) track(snap.scored->artifact_id);
  const uint64_t shift = min_id < next_artifact_id_
                             ? next_artifact_id_ - min_id
                             : 0;
  snap.candidates->session = this;
  snap.candidates->artifact_id += shift;
  if (snap.blocked) {
    snap.blocked->session = this;
    snap.blocked->artifact_id += shift;
    snap.blocked->candidates_id += shift;
  }
  if (snap.scored) {
    snap.scored->session = this;
    snap.scored->artifact_id += shift;
    snap.scored->candidates_id += shift;
  }
  next_artifact_id_ = std::max(next_artifact_id_, max_id + shift + 1);
  ++session_stats_.snapshot_restores;
  return snap;
}

// ---------------------------------------------------------------- composites

Result<SynthesisResult> SynthesisSession::Run(const TableCorpus& corpus) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  obs::TraceSpan span("synth.run");
  Timer total;
  Result<CandidateSet> cands = ExtractCandidates(corpus);
  if (!cands.ok()) return cands.status();
  Result<SynthesisResult> r = FinishFromCandidates(cands.value());
  if (!r.ok()) return r.status();
  SynthesisResult out = std::move(r).value();
  out.stats.total_seconds = total.ElapsedSeconds();
  return out;
}

Result<SynthesisResult> SynthesisSession::RunOnCandidates(
    const std::vector<BinaryTable>& candidates, const StringPool& pool) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Timer total;
  Result<CandidateSet> cands = AdoptCandidates(candidates, pool);
  if (!cands.ok()) return cands.status();
  Result<SynthesisResult> r = FinishFromCandidates(cands.value());
  if (!r.ok()) return r.status();
  SynthesisResult out = std::move(r).value();
  out.stats.total_seconds = total.ElapsedSeconds();
  return out;
}

Result<SynthesisResult> SynthesisSession::RunOnCorpusFile(
    const std::string& path, TableCorpus* corpus) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument(
        "RunOnCorpusFile: corpus out-parameter is null (the caller owns the "
        "corpus because mappings reference its string pool)");
  }
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(LoadCorpus(path, corpus));
  return Run(*corpus);
}

Result<SynthesisResult> SynthesisSession::FinishFromCandidates(
    const CandidateSet& candidates) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Result<BlockedPairs> blocked = BlockPairs(candidates);
  if (!blocked.ok()) return blocked.status();
  return FinishFromBlocked(candidates, blocked.value());
}

Result<SynthesisResult> SynthesisSession::FinishFromBlocked(
    const CandidateSet& candidates, const BlockedPairs& blocked) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Result<ScoredGraph> graph = ScorePairs(candidates, blocked);
  if (!graph.ok()) return graph.status();
  Result<Partitions> parts = Partition(graph.value());
  if (!parts.ok()) return parts.status();
  return Resolve(candidates, graph.value(), parts.value());
}

}  // namespace ms
