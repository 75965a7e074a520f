// Step 1 of the pipeline (Section 3, Algorithm 1): from each corpus table,
// extract ordered two-column candidate tables, dropping
//   (a) incoherent columns (PMI/NPMI coherence below threshold), and
//   (b) column pairs whose local relationship is not a θ-approximate FD.
// Cell values are normalized (text/normalize.h) before candidates are built,
// so all downstream matching operates on normalized values.
//
// One entry point serves cold runs and incremental mutations: a pass
// extends a base artifact generation (ExtractionBase), and a cold run is
// the pass over the empty base.
#pragma once

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "stats/coherence.h"
#include "stats/inverted_index.h"
#include "table/binary_table.h"
#include "table/corpus.h"
#include "text/normalize.h"

namespace ms {

struct ExtractionOptions {
  /// Columns with coherence S(C) below this are removed (Section 3.1).
  double coherence_threshold = 0.10;
  /// θ for the approximate-FD check (Definition 2; the paper uses 95%).
  double fd_theta = 0.95;
  /// Candidate tables with fewer distinct pairs than this are dropped:
  /// tiny fragments provide no synthesis signal.
  size_t min_pairs = 3;
  /// Tables wider than this are skipped (guards pathological extractions).
  size_t max_columns = 16;
  /// Drop candidates whose left column is dominated by numeric values
  /// (Section 4.3 suggests pruning numeric/temporal relationships).
  bool drop_numeric_left = false;

  CoherenceOptions coherence;
  NormalizeOptions normalize;

  /// InvalidArgument on out-of-domain thresholds: fd_theta outside (0, 1]
  /// (Definition 2 is a fraction of rows), min_pairs == 0 (an empty
  /// candidate carries no synthesis signal and breaks downstream ratios),
  /// max_columns < 2 (no column pair can ever form), or a non-finite
  /// coherence threshold.
  Status Validate() const;

  bool operator==(const ExtractionOptions&) const = default;
};

/// Statistics reported alongside candidates (the paper notes ~78% of raw
/// column pairs are filtered out by these two steps).
struct ExtractionStats {
  size_t tables_seen = 0;
  size_t columns_seen = 0;
  size_t columns_kept = 0;        ///< survived the PMI coherence filter
  size_t pairs_considered = 0;    ///< ordered pairs among kept columns
  size_t pairs_kept = 0;          ///< survived the FD filter
  size_t normalize_cache_hits = 0;    ///< cell lookups served from the cache
  size_t normalize_cache_misses = 0;  ///< distinct values actually normalized

  double FilterRate() const {
    return pairs_considered == 0
               ? 0.0
               : 1.0 - static_cast<double>(pairs_kept) /
                           static_cast<double>(pairs_considered);
  }
};

/// The artifact generation an extraction pass extends: the previous run's
/// per-table signatures plus what the mutation removed. The default is the
/// empty family (no tables, no signatures), and extracting over it is a
/// cold run. The margin cache is optional (snapshots from before format v3
/// restore without one — every column then pays an exact re-check once and
/// the cache repopulates).
struct ExtractionBase {
  /// Tables [0, first_new_table) are the base's; [first_new_table,
  /// corpus.size()) are appended by this pass.
  size_t first_new_table = 0;
  /// New candidates get ids assigned densely from here, in corpus-table
  /// order.
  BinaryTableId first_new_id = 0;
  const std::vector<uint32_t>* kept_offsets = nullptr;
  const std::vector<uint32_t>* kept_columns = nullptr;
  const std::vector<uint32_t>* margin_offsets = nullptr;   ///< optional
  const std::vector<CoherenceProfile>* margins = nullptr;  ///< optional
  /// Tables tombstoned by this mutation (sorted ids, already cleared in the
  /// corpus). Their signatures are reset to empty without counting as
  /// flips — the caller tombstones their candidates wholesale.
  std::vector<TableId> removed_tables;
  /// Every distinct cell value the removed tables held, captured before
  /// the tombstoning cleared them. Together with the appended tables'
  /// values this is the "touched" set: an old column containing none of
  /// these provably kept all its value counts, which is what lets the
  /// margin cache skip its coherence re-check.
  std::vector<ValueId> removed_values;
};

struct ExtractionResult {
  /// Candidates of appended tables and of flipped base tables, ids assigned
  /// densely from `first_new_id` in corpus-table order (flipped tables sort
  /// before appended ones). Over the empty base these are every candidate
  /// of the corpus, ids from 0.
  std::vector<BinaryTable> candidates;
  /// Counters for the appended tables only (add to the base run's to get
  /// the union totals; flipped re-extractions are deliberately excluded so
  /// the stable path stays byte-identical to a cold rebuild's counters).
  /// Normalize-cache counters cover this pass alone.
  ExtractionStats stats;
  /// Base tables whose kept-column set changed under the mutated index
  /// (sorted). The caller tombstones their base candidates in favor of the
  /// re-extractions included in `candidates`. Always empty for a cold run.
  std::vector<TableId> flipped_tables;
  bool stable() const { return flipped_tables.empty(); }
  /// Margin-cache effectiveness: base columns whose verdict the cached
  /// bound settled without touching the index vs columns that paid the
  /// exact sampled re-check.
  size_t margin_skips = 0;
  size_t margin_rechecks = 0;
  /// Per-table kept-column signatures, CSR over corpus table index (base
  /// tables re-checked + appended tables): kept_columns[kept_offsets[t] ..
  /// kept_offsets[t+1]) are the column indices of table t that passed the
  /// PMI coherence filter (empty for width-skipped tables). Column
  /// coherence is a corpus-global statistic (it reads |C(u)| and N from the
  /// inverted index), so mutating the corpus can flip a verdict; the next
  /// pass re-checks these signatures under the mutated index — everything
  /// *downstream* of the kept set (normalization, the FD filter, candidate
  /// assembly) depends only on the table's own cells.
  std::vector<uint32_t> kept_offsets;  ///< size tables + 1
  std::vector<uint32_t> kept_columns;
  /// Margin cache: one CoherenceProfile per column of every width-passed
  /// table (CSR over corpus table index, same shape discipline as kept_*;
  /// empty slices for width-skipped tables). The next pass uses these to
  /// prove a column's verdict cannot flip under the mutated index without
  /// re-touching the posting lists (CoherenceVerdictStable). Both vectors
  /// stay empty when the coherence filter is disabled (coherence_threshold
  /// <= -1), where verdicts are index-independent.
  std::vector<uint32_t> margin_offsets;  ///< size tables + 1, or empty
  std::vector<CoherenceProfile> margins;
};

/// Algorithm 1 as a delta over `base`: `index` must reflect the current
/// (possibly mutated) corpus. Re-checks the coherence signatures of live
/// base tables [0, first_new_table) against the base CSR — through the
/// margin cache when the bound applies, via exact sampled re-scoring when
/// it does not — fully extracts tables [first_new_table, corpus.size()),
/// and re-extracts any base table whose kept set flipped. Over the empty
/// base (the default) there is nothing to re-check and every table is
/// extracted: the cold run. Normalized values are interned into the corpus
/// pool. Thread pool optional (per-table parallelism).
ExtractionResult ExtractCandidates(const TableCorpus& corpus,
                                   const ColumnInvertedIndex& index,
                                   const ExtractionOptions& options = {},
                                   ThreadPool* pool = nullptr,
                                   const ExtractionBase& base = {});

/// Exposed for tests: true when the column passes the coherence filter.
/// Fills `profile` (when given and the filter is enabled) with the margin
/// cache for the evaluation.
bool ColumnPassesCoherence(const ColumnInvertedIndex& index,
                           const Column& column,
                           const ExtractionOptions& options,
                           CoherenceProfile* profile = nullptr);

}  // namespace ms
