// Corpus-level inverted index: value -> the set of columns containing it
// (C(u) in Section 3.1). This is the backbone of the PMI/NPMI coherence
// statistics and of the candidate-pair blocking in synthesis.
//
// Layout: CSR (compressed sparse row). One offsets array indexed by ValueId
// and one flat postings array of ColumnIds. Versus the per-value
// vector<vector> build this removes one heap allocation per distinct value,
// keeps all posting lists contiguous (sequential scans during coherence
// scoring stay in cache), and makes the build a two-pass counting sort that
// parallelizes over table ranges without locks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "table/corpus.h"

namespace ms {

/// Dense id for a (table, column) slot across the whole corpus.
using ColumnId = uint32_t;

/// Non-owning view of one posting list (sorted ColumnIds).
struct PostingsView {
  const ColumnId* data = nullptr;
  size_t size = 0;

  const ColumnId* begin() const { return data; }
  const ColumnId* end() const { return data + size; }
  ColumnId operator[](size_t i) const { return data[i]; }
  bool empty() const { return size == 0; }
};

/// Built once, then maintainable in place: AppendTables/RemoveTables patch
/// the CSR directly instead of re-indexing the corpus, the backbone of
/// incremental synthesis maintenance. Posting lists are sorted, so
/// co-occurrence counts are merges (with galloping for skewed list lengths).
///
/// ColumnIds are assigned monotonically and never reused: appended columns
/// get ids past every existing one (so each value's posting list grows at
/// its sorted tail), and removed columns' ids simply vanish from the lists.
/// Ids are therefore NOT dense after maintenance — only the counts
/// (num_columns, ColumnFrequency, CoOccurrence) are meaningful across
/// mutations, and those match a cold Build over the mutated corpus exactly.
class ColumnInvertedIndex {
 public:
  /// Indexes every column of every table. Values are indexed by their
  /// *distinct* presence per column (a value repeated in one column counts
  /// once), matching the paper's set-of-columns definition of C(u).
  /// With a thread pool the two CSR passes run over table ranges in
  /// parallel; results are identical to the serial build.
  void Build(const TableCorpus& corpus, ThreadPool* pool = nullptr);

  /// Appends the columns of tables [first_new_table, corpus.size()) in
  /// place: one counting pass over the new columns plus one linear rewrite
  /// of the postings array — O(existing postings + new postings), no
  /// re-sort, no rescan of pre-existing tables. Tables before
  /// `first_new_table` must be the ones this index already covers.
  void AppendTables(const TableCorpus& corpus, size_t first_new_table);

  /// Removes every posting of the given tables' columns in place (one
  /// compaction sweep over the postings array). Idempotent per table. The
  /// caller typically tombstones the corpus tables in tandem; the index
  /// only needs the ids, not the (possibly already cleared) contents.
  void RemoveTables(const std::vector<TableId>& tables);

  /// Number of columns indexed (the N in p(u) = |C(u)| / N).
  size_t num_columns() const { return num_columns_; }

  /// |C(u)|: how many columns contain value u. 0 for unseen values.
  size_t ColumnFrequency(ValueId u) const {
    // size_t arithmetic so u == UINT32_MAX (kInvalidValueId) cannot wrap.
    if (static_cast<size_t>(u) + 1 >= offsets_.size()) return 0;
    return offsets_[u + 1] - offsets_[u];
  }

  /// |C(u) ∩ C(v)|: columns containing both values.
  size_t CoOccurrence(ValueId u, ValueId v) const;

  /// Posting list for a value (sorted, possibly empty).
  PostingsView Postings(ValueId u) const {
    if (static_cast<size_t>(u) + 1 >= offsets_.size()) return {};
    return {postings_.data() + offsets_[u],
            static_cast<size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Maps a ColumnId back to its (table, column index) coordinates.
  std::pair<TableId, uint32_t> ColumnCoords(ColumnId c) const;

 private:
  size_t num_columns_ = 0;           // LIVE columns (the N in p(u))
  std::vector<uint32_t> offsets_;    // size = max ValueId + 2
  std::vector<ColumnId> postings_;   // flat, grouped by ValueId
  std::vector<std::pair<TableId, uint32_t>> coords_;  // by ever-assigned id
  /// Per table id: {first ColumnId, live column count}. Each table's
  /// columns occupy one contiguous id range assigned at Build/Append time;
  /// RemoveTables zeroes the count so removal is idempotent.
  std::vector<std::pair<ColumnId, uint32_t>> table_cols_;
  ColumnId next_column_id_ = 0;      // ids handed out so far (never reused)
};

}  // namespace ms
