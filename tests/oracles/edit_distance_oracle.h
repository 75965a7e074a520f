// Scalar edit-distance oracles: the full-matrix Levenshtein DP and the
// paper's banded DP (Algorithm 2, Ukkonen-style), plus the ApproxMatch
// predicate evaluated through the banded DP. The library matches with the
// bit-parallel Myers kernels (text/myers.h); tests and benches hold those
// kernels to these implementations.
#pragma once

#include <cstddef>
#include <string_view>

#include "text/edit_distance.h"

namespace ms {

/// Full-matrix Levenshtein distance. O(|a|·|b|); the ground truth every
/// banded and bit-parallel variant is validated against.
size_t EditDistanceFull(std::string_view a, std::string_view b);

/// Banded Levenshtein: returns the exact distance if it is <= band,
/// otherwise any value > band (early-exits). band may be 0 (exact match).
size_t EditDistanceBanded(std::string_view a, std::string_view b, size_t band);

/// ApproxMatch's scalar twin: the same fractional threshold, decided by
/// EditDistanceBanded instead of the Myers kernels.
bool ReferenceApproxMatch(std::string_view a, std::string_view b,
                          const EditDistanceOptions& opts = {});

}  // namespace ms
