#include "apps/mapping_store.h"

#include <algorithm>

namespace ms {

namespace {
constexpr uint8_t kSideLeft = 1;
constexpr uint8_t kSideRight = 2;
}  // namespace

MappingStore::MappingStore(std::shared_ptr<StringPool> pool,
                           NormalizeOptions normalize)
    : pool_(std::move(pool)), normalize_(normalize) {}

size_t MappingStore::Add(SynthesizedMapping mapping, std::string name) {
  Entry e{std::move(name), std::move(mapping), {}, {}};
  for (const auto& p : e.mapping.merged.pairs()) {
    std::string left(pool_->Get(p.left));
    std::string right(pool_->Get(p.right));
    e.left_to_right.emplace(left, right);
    e.right_to_left.emplace(std::move(right), std::move(left));
  }
  IndexEntryValues(static_cast<uint32_t>(entries_.size()), e);
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

void MappingStore::IndexEntryValues(uint32_t entry_index, const Entry& e) {
  // One posting per (value, entry): merge the side bits so a value sitting
  // on both sides of the same mapping costs one posting and counts once per
  // side, exactly like probing the entry's two maps.
  auto post = [&](const std::string& normed, uint8_t side) {
    auto& postings = containment_[normed];
    if (!postings.empty() && postings.back().entry == entry_index) {
      postings.back().sides |= side;
      return;
    }
    postings.push_back(Posting{entry_index, side});
  };
  for (const auto& [left, right] : e.left_to_right) post(left, kSideLeft);
  for (const auto& [right, left] : e.right_to_left) post(right, kSideRight);
}

ValueSide MappingStore::Probe(size_t i, const std::string& raw_value) const {
  const Entry& e = entries_[i];
  const std::string v = Norm(raw_value);
  const bool left = e.left_to_right.count(v) > 0;
  const bool right = e.right_to_left.count(v) > 0;
  if (left && right) return ValueSide::kBoth;
  if (left) return ValueSide::kLeft;
  if (right) return ValueSide::kRight;
  return ValueSide::kNone;
}

std::vector<size_t> MappingStore::DedupNormalized(
    const std::vector<std::string>& raw_values,
    std::vector<std::string>* distinct) const {
  std::vector<size_t> slot_of;
  slot_of.reserve(raw_values.size());
  std::unordered_map<std::string, size_t> slots;
  slots.reserve(raw_values.size());
  for (const auto& raw : raw_values) {
    std::string normed = Norm(raw);
    auto [it, inserted] = slots.emplace(std::move(normed), distinct->size());
    if (inserted) distinct->push_back(it->first);
    slot_of.push_back(it->second);
  }
  return slot_of;
}

std::vector<ValueSide> MappingStore::ProbeBatch(
    size_t i, const std::vector<std::string>& raw_values) const {
  const Entry& e = entries_[i];
  std::vector<std::string> distinct;
  const std::vector<size_t> slot_of = DedupNormalized(raw_values, &distinct);
  std::vector<ValueSide> per_slot(distinct.size());
  for (size_t s = 0; s < distinct.size(); ++s) {
    const std::string& v = distinct[s];
    const bool left = e.left_to_right.count(v) > 0;
    const bool right = e.right_to_left.count(v) > 0;
    per_slot[s] = left && right ? ValueSide::kBoth
                  : left        ? ValueSide::kLeft
                  : right       ? ValueSide::kRight
                                : ValueSide::kNone;
  }
  std::vector<ValueSide> out;
  out.reserve(raw_values.size());
  for (size_t slot : slot_of) out.push_back(per_slot[slot]);
  return out;
}

std::vector<MappingStore::ContainmentMatch> MappingStore::FindByContainment(
    const std::vector<std::string>& values, size_t min_hits) const {
  // One posting probe per input value, hits accumulated per entry. Each
  // input occurrence counts (duplicates in `values` score once per copy).
  std::vector<size_t> left_hits(entries_.size(), 0);
  std::vector<size_t> right_hits(entries_.size(), 0);
  std::vector<uint32_t> touched;
  for (const auto& raw : values) {
    auto it = containment_.find(Norm(raw));
    if (it == containment_.end()) continue;
    for (const Posting& p : it->second) {
      if (left_hits[p.entry] == 0 && right_hits[p.entry] == 0) {
        touched.push_back(p.entry);
      }
      if (p.sides & kSideLeft) ++left_hits[p.entry];
      if (p.sides & kSideRight) ++right_hits[p.entry];
    }
  }
  if (min_hits == 0) {
    // Degenerate request: every entry qualifies (0 hits >= 0).
    touched.resize(entries_.size());
    for (uint32_t i = 0; i < touched.size(); ++i) touched[i] = i;
  }
  std::vector<ContainmentMatch> out;
  for (uint32_t entry : touched) {
    ContainmentMatch m;
    m.index = entry;
    m.left_hits = left_hits[entry];
    m.right_hits = right_hits[entry];
    if (m.total() >= min_hits) out.push_back(m);
  }
  // Deterministic rank: hits descending, then mapping index ascending, so
  // app results do not depend on posting visit order.
  std::sort(out.begin(), out.end(),
            [](const ContainmentMatch& a, const ContainmentMatch& b) {
              if (a.total() != b.total()) return a.total() > b.total();
              return a.index < b.index;
            });
  return out;
}

std::optional<std::string> MappingStore::LookupRight(
    size_t i, const std::string& raw_left) const {
  const Entry& e = entries_[i];
  auto it = e.left_to_right.find(Norm(raw_left));
  if (it == e.left_to_right.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> MappingStore::LookupLeft(
    size_t i, const std::string& raw_right) const {
  const Entry& e = entries_[i];
  auto it = e.right_to_left.find(Norm(raw_right));
  if (it == e.right_to_left.end()) return std::nullopt;
  return it->second;
}

void MappingStore::DedupNormalized(const std::vector<std::string>& raw_values,
                                   BatchScratch* scratch) const {
  // clear() keeps the slot map's buckets and the vectors' capacity, so a
  // long-lived scratch (one per serving connection) pays the map/vector
  // allocations once instead of per request.
  scratch->distinct.clear();
  scratch->slot_of.clear();
  scratch->slots.clear();
  scratch->slot_of.reserve(raw_values.size());
  if (scratch->slots.bucket_count() < raw_values.size()) {
    scratch->slots.reserve(raw_values.size());
  }
  for (const auto& raw : raw_values) {
    std::string normed = Norm(raw);
    auto [it, inserted] =
        scratch->slots.emplace(std::move(normed), scratch->distinct.size());
    if (inserted) scratch->distinct.push_back(it->first);
    scratch->slot_of.push_back(it->second);
  }
}

std::vector<std::optional<std::string>> MappingStore::LookupBatchImpl(
    const std::unordered_map<std::string, std::string>& map,
    const std::vector<std::string>& raw_values, BatchScratch* scratch) const {
  DedupNormalized(raw_values, scratch);
  scratch->per_slot.assign(scratch->distinct.size(), nullptr);
  for (size_t s = 0; s < scratch->distinct.size(); ++s) {
    auto it = map.find(scratch->distinct[s]);
    if (it != map.end()) scratch->per_slot[s] = &it->second;
  }
  std::vector<std::optional<std::string>> out;
  out.reserve(raw_values.size());
  for (size_t slot : scratch->slot_of) {
    if (scratch->per_slot[slot] != nullptr) {
      out.emplace_back(*scratch->per_slot[slot]);
    } else {
      out.emplace_back(std::nullopt);
    }
  }
  return out;
}

std::vector<std::optional<std::string>> MappingStore::LookupRightBatch(
    size_t i, const std::vector<std::string>& raw_lefts) const {
  BatchScratch scratch;
  return LookupRightBatch(i, raw_lefts, &scratch);
}

std::vector<std::optional<std::string>> MappingStore::LookupLeftBatch(
    size_t i, const std::vector<std::string>& raw_rights) const {
  BatchScratch scratch;
  return LookupLeftBatch(i, raw_rights, &scratch);
}

std::vector<std::optional<std::string>> MappingStore::LookupRightBatch(
    size_t i, const std::vector<std::string>& raw_lefts,
    BatchScratch* scratch) const {
  return LookupBatchImpl(entries_[i].left_to_right, raw_lefts, scratch);
}

std::vector<std::optional<std::string>> MappingStore::LookupLeftBatch(
    size_t i, const std::vector<std::string>& raw_rights,
    BatchScratch* scratch) const {
  return LookupBatchImpl(entries_[i].right_to_left, raw_rights, scratch);
}

}  // namespace ms
