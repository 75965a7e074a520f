// The seed scalar pair scorer: per-call value matching through the banded
// DP (no Myers kernels, no mask caching, no blocking-count reuse). Tests
// and bench_pr2 hold the production ComputeCompatibility to byte-identical
// agreement with it, and bench_pr2 times it as the scalar baseline.
#pragma once

#include "synth/compatibility.h"

namespace ms {

/// ValuesMatch's scalar twin: exact id equality, then synonyms, then
/// ReferenceApproxMatch (the banded DP).
bool ReferenceValuesMatch(ValueId a, ValueId b, const StringPool& pool,
                          const CompatibilityOptions& opts);

/// Both scores for a pair of candidate tables, computed the seed way.
PairScores ComputeCompatibilityReference(const BinaryTable& a,
                                         const BinaryTable& b,
                                         const StringPool& pool,
                                         const CompatibilityOptions& opts = {});

}  // namespace ms
