// Inverted-index blocking (Section 4.1 "Efficiency"): instead of scoring all
// O(N^2) candidate-table pairs, group tables that share value pairs (for w+)
// or left-hand values (for w-) and only score pairs within a group with at
// least θ_overlap shared items.
//
// The production path is a sharded streaming design: one map+shuffle round
// hash-partitions (item-hash -> table-id) postings, each partition is
// sort-grouped into compact de-duplicated posting lists, and then one task
// per shard of the id-pair space walks every list, streaming the
// co-occurring id pairs it owns into its own flat count map and emitting
// the survivors. The quadratic id-pair stream is never materialized, each
// id pair has exactly one counter, and no merge step follows.
//
// One entry point serves cold runs and appends: GenerateCandidatePairs
// counts the pairs that touch a candidate id >= first_new, so a cold run
// is the pass with first_new = 0 and an append is the pass whose first_new
// is the base run's candidate count. The seed emit-everything-then-count
// implementation is the equivalence oracle (tests/oracles/blocking_oracle.h);
// it shares EmitBlockingKeys below.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "mr/mapreduce.h"
#include "table/binary_table.h"

namespace ms {

struct BlockingOptions {
  /// Minimum shared value pairs for a pair to be scored for w+ and minimum
  /// shared left values for w- (θ_overlap in Section 5.4).
  size_t theta_overlap = 2;
  /// Posting lists longer than this are truncated: extremely common values
  /// ("usa", "total") would otherwise create quadratic hot keys. Truncation
  /// is deterministic (lowest candidate ids win) and the number of dropped
  /// postings is reported in BlockingStats.
  size_t max_posting = 256;

  /// InvalidArgument when θ_overlap is 0 (every id pair would survive —
  /// the quadratic blow-up blocking exists to prevent) or max_posting < 2
  /// (no posting list could ever emit a co-occurrence).
  Status Validate() const;

  bool operator==(const BlockingOptions&) const = default;
};

/// A pair of candidate tables that blocking selected for exact scoring.
struct CandidateTablePair {
  uint32_t a = 0;
  uint32_t b = 0;             ///< a < b
  uint32_t shared_pairs = 0;  ///< co-occurring (left,right) value pairs
  uint32_t shared_lefts = 0;  ///< co-occurring left values
  /// True when this pair's counts are provably the true co-occurrence
  /// cardinalities: neither a nor b was ever dropped from a truncated
  /// posting list, so no list containing both could have lost either of
  /// them. Scoring uses this to skip the exact pair-list merge per pair
  /// (BlockingHint::exact) instead of requiring the whole run to be
  /// truncation-free.
  bool counts_exact = false;
};

/// Observability for the blocking stage (feeds PipelineStats). After an
/// append pass these are the union run's figures: the base run's plus what
/// the pass added.
struct BlockingStats {
  double map_shuffle_seconds = 0.0;  ///< map + hash-partition phase
  /// sort-group + shard-owned counting + threshold
  double count_seconds = 0.0;
  double reduce_seconds = 0.0;  ///< concatenating and sorting survivors
  size_t keys = 0;                   ///< distinct blocking keys seen
  /// Postings dropped by the max_posting cap. The cap keeps lowest candidate
  /// ids, so high-id candidates silently lose pairs; this counter makes that
  /// bias observable instead of silent.
  size_t dropped_postings = 0;
  /// Candidates dropped from at least one truncated posting list. Only
  /// pairs touching one of these have potentially understated counts; all
  /// other pairs keep CandidateTablePair::counts_exact even in truncated
  /// runs (previously one dropped posting anywhere disabled count reuse
  /// globally).
  size_t tainted_candidates = 0;
  /// True when no posting list was truncated, i.e. every returned
  /// shared_pairs / shared_lefts is the true co-occurrence cardinality.
  /// Kept as the whole-run summary; per-pair reuse is driven by
  /// CandidateTablePair::counts_exact.
  bool exact_counts = false;
  /// Per-candidate taint bitmap (empty when no posting list was truncated):
  /// tainted[id] == 1 iff candidate `id` was dropped from at least one
  /// truncated posting list. This is the state an append pass needs:
  /// appended candidates sort after every existing id, so truncation keeps
  /// the same old-id prefix and an old candidate's taint can never change —
  /// the union run's bitmap is the base's plus whatever the pass taints.
  /// Persisted with the BlockedPairs artifact so restore-then-append works.
  std::vector<uint8_t> tainted;
};

/// Blocking as a delta: returns exactly the pairs of a full run over
/// `candidates` that involve at least one id >= `first_new`, sorted by
/// (a, b), each satisfying shared_pairs >= θ_overlap or shared_lefts >=
/// θ_overlap. With first_new = 0 that is every pair: the cold run. Pairs
/// between two ids < first_new are untouched by appends (appended ids sort
/// after all existing ids, so truncation keeps the identical old-id prefix
/// of every posting list), which is what makes merging this output into a
/// base run's pairs byte-equivalent to re-blocking from scratch.
///
/// With first_new > 0 only keys held by a candidate >= first_new are
/// counted: the older candidates are scanned once (linear) to contribute
/// their postings for those keys, and the quadratic counting runs over the
/// delta-relevant keys alone.
///
/// `stats` is in/out. With first_new > 0 pass the base run's stats: the
/// pass adds its new keys, extra dropped postings and taint to them, and
/// the returned pairs' counts_exact is computed against the union taint
/// bitmap. With first_new = 0 the incoming contents are ignored.
std::vector<CandidateTablePair> GenerateCandidatePairs(
    const std::vector<BinaryTable>& candidates, uint32_t first_new = 0,
    const BlockingOptions& options = {}, ThreadPool* pool = nullptr,
    BlockingStats* stats = nullptr);

/// Emits candidate `id`'s blocking keys: each full value pair with tag bit
/// 0 (feeds shared_pairs / w+) and each distinct left value with tag bit 1
/// (feeds shared_lefts / w-). Every blocking implementation keys through
/// this one function.
void EmitBlockingKeys(const BinaryTable& b, uint32_t id,
                      Emitter<uint64_t, uint32_t>& em);

}  // namespace ms
