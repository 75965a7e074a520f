// Curated mapping store: the materialized, indexed form of synthesized
// mappings that applications consume (paper introduction: "one could index
// synthesized mapping tables using hash-based techniques (e.g., bloom
// filters) for efficient lookup based on value containment. Such logic is
// both simple to implement and easy to scale.").
//
// Two hash layers serve every lookup: per mapping, left->right and
// right->left maps answer Probe/Lookup*; across mappings, one value ->
// postings map (built by Add) answers FindByContainment with one probe per
// input value instead of a scan over every mapping.
//
// All lookups normalize their inputs with the same rules the synthesis
// pipeline used, so raw user values ("CA ", "California[1]") hit.
//
// Thread contract: a store is built single-threaded (Add) and immutable
// afterwards — every const method is safe to call from any number of
// threads concurrently provided no Add runs. MappingService enforces this
// by only ever publishing fully-built stores inside an immutable
// ServingSnapshot (apps/serving.h).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "synth/mapping.h"
#include "table/string_pool.h"
#include "text/normalize.h"

namespace ms {

/// One mapping direction resolved for a probe value.
enum class ValueSide { kNone = 0, kLeft, kRight, kBoth };

class MappingStore {
 public:
  explicit MappingStore(std::shared_ptr<StringPool> pool,
                        NormalizeOptions normalize = {});

  /// Registers a curated mapping under a human-readable name. Returns its
  /// index. Not thread-safe against any concurrent method — build first,
  /// serve after.
  size_t Add(SynthesizedMapping mapping, std::string name);

  size_t size() const { return entries_.size(); }
  const SynthesizedMapping& mapping(size_t i) const {
    return entries_[i].mapping;
  }
  const std::string& name(size_t i) const { return entries_[i].name; }

  /// Which side(s) of mapping `i` contain the (raw) value.
  ValueSide Probe(size_t i, const std::string& raw_value) const;

  /// Batched Probe over a request vector: normalizes once per input and
  /// probes once per *distinct* normalized value (serving columns are full
  /// of repeats), the way InternBatch amortized extraction. Element k of
  /// the result is exactly Probe(i, raw_values[k]).
  std::vector<ValueSide> ProbeBatch(
      size_t i, const std::vector<std::string>& raw_values) const;

  /// Containment search: mappings ranked by how many of `values` they
  /// contain on either side (ties broken by ascending mapping index). Each
  /// input occurrence counts, so duplicates in `values` score once per
  /// copy. O(values + postings touched) through the containment index.
  /// Only mappings with >= min_hits matches return.
  struct ContainmentMatch {
    size_t index = 0;
    size_t left_hits = 0;
    size_t right_hits = 0;
    size_t total() const { return left_hits + right_hits; }
  };
  std::vector<ContainmentMatch> FindByContainment(
      const std::vector<std::string>& values, size_t min_hits = 2) const;

  /// Functional lookup left -> right within mapping `i` (normalized).
  std::optional<std::string> LookupRight(size_t i,
                                         const std::string& raw_left) const;

  /// Reverse lookup right -> canonical left (the first left mention seen).
  std::optional<std::string> LookupLeft(size_t i,
                                        const std::string& raw_right) const;

  /// Reusable normalize/dedup working set for the batched lookups. A
  /// caller serving many batches (one network connection, a bench loop)
  /// keeps one of these alive and hands it to every call: the distinct
  /// table, slot map, and per-slot result vectors then reuse their grown
  /// capacity instead of re-allocating per request. Contents are
  /// call-scoped scratch — never read them between calls. Not shareable
  /// across threads.
  struct BatchScratch {
    std::vector<std::string> distinct;
    std::vector<size_t> slot_of;
    std::unordered_map<std::string, size_t> slots;
    std::vector<const std::string*> per_slot;
  };

  /// Batched LookupRight/LookupLeft with the same amortization as
  /// ProbeBatch. Element k is exactly the scalar lookup of raw value k.
  /// The scratch-taking overloads are byte-identical to the plain ones
  /// (differential-tested); pass the same scratch across calls to skip the
  /// per-request allocations.
  std::vector<std::optional<std::string>> LookupRightBatch(
      size_t i, const std::vector<std::string>& raw_lefts) const;
  std::vector<std::optional<std::string>> LookupLeftBatch(
      size_t i, const std::vector<std::string>& raw_rights) const;
  std::vector<std::optional<std::string>> LookupRightBatch(
      size_t i, const std::vector<std::string>& raw_lefts,
      BatchScratch* scratch) const;
  std::vector<std::optional<std::string>> LookupLeftBatch(
      size_t i, const std::vector<std::string>& raw_rights,
      BatchScratch* scratch) const;

 private:
  struct Entry {
    std::string name;
    SynthesizedMapping mapping;
    std::unordered_map<std::string, std::string> left_to_right;
    std::unordered_map<std::string, std::string> right_to_left;
  };

  /// Containment-index posting: which entry holds a value, on which sides.
  struct Posting {
    uint32_t entry = 0;
    uint8_t sides = 0;  ///< bit 0 = left, bit 1 = right
  };

  std::string Norm(const std::string& raw) const {
    return NormalizeCell(raw, normalize_);
  }
  void IndexEntryValues(uint32_t entry_index, const Entry& e);
  /// Shared batch plumbing: fills `distinct` with one slot per distinct
  /// normalized value and returns, per input, the index of its slot.
  std::vector<size_t> DedupNormalized(
      const std::vector<std::string>& raw_values,
      std::vector<std::string>* distinct) const;
  /// Scratch-reusing variant: fills scratch->distinct / slot_of in place,
  /// reusing the slot map's buckets and the vectors' capacity.
  void DedupNormalized(const std::vector<std::string>& raw_values,
                       BatchScratch* scratch) const;
  std::vector<std::optional<std::string>> LookupBatchImpl(
      const std::unordered_map<std::string, std::string>& map,
      const std::vector<std::string>& raw_values, BatchScratch* scratch) const;

  std::shared_ptr<StringPool> pool_;
  NormalizeOptions normalize_;
  std::vector<Entry> entries_;
  /// Containment index: normalized value -> postings (one per entry holding
  /// the value, its side bits merged), in ascending entry order.
  std::unordered_map<std::string, std::vector<Posting>> containment_;
};

}  // namespace ms
