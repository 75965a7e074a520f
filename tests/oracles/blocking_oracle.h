// The seed blocking implementation: materialize every co-occurring id pair
// through one MapReduce round, then count in one hash map. It keys through
// the production EmitBlockingKeys, so it differs from GenerateCandidatePairs
// only in how co-occurrences are counted. The equivalence oracle for the
// blocking tests and the baseline for bench_micro/bench_pr1; do not use on
// large inputs.
#pragma once

#include <vector>

#include "synth/blocking.h"

namespace ms {

std::vector<CandidateTablePair> GenerateCandidatePairsReference(
    const std::vector<BinaryTable>& candidates,
    const BlockingOptions& options = {}, ThreadPool* pool = nullptr);

}  // namespace ms
