// The seed vector<vector> inverted index: one heap-allocated posting list
// per value, built in one serial pass. The equivalence oracle for the CSR
// ColumnInvertedIndex in randomized tests and the baseline for
// bench_micro/bench_pr1.
#pragma once

#include <vector>

#include "stats/inverted_index.h"

namespace ms {

class ReferenceInvertedIndex {
 public:
  void Build(const TableCorpus& corpus);

  size_t num_columns() const { return num_columns_; }
  size_t ColumnFrequency(ValueId u) const;
  size_t CoOccurrence(ValueId u, ValueId v) const;
  const std::vector<ColumnId>& Postings(ValueId u) const;

 private:
  size_t num_columns_ = 0;
  std::vector<std::vector<ColumnId>> postings_;  // indexed by ValueId
  static const std::vector<ColumnId> kEmpty;
};

}  // namespace ms
