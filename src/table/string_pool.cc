#include "table/string_pool.h"

namespace ms {

StringPool::~StringPool() {
  for (auto& seg : segments_) delete[] seg.load(std::memory_order_relaxed);
}

ValueId StringPool::AppendLocked(std::string_view v) {
  const size_t id = size_.load(std::memory_order_relaxed);
  const size_t seg = SegmentOf(id);
  std::string_view* slots = segments_[seg].load(std::memory_order_relaxed);
  if (slots == nullptr) {
    slots = new std::string_view[SegmentCapacity(seg)];
    segments_[seg].store(slots, std::memory_order_release);
  }
  slots[id - SegmentStart(seg)] = v;
  // Publishes the view: a reader that observes the new size (or receives
  // the id from a thread that did) also observes the slot and segment.
  size_.store(id + 1, std::memory_order_release);
  return static_cast<ValueId>(id);
}

void StringPool::EnsureIndexLocked() const {
  const size_t n = size_.load(std::memory_order_relaxed);
  if (indexed_ == n) return;
  index_.reserve(n);
  for (; indexed_ < n; ++indexed_) {
    // Keep-first on duplicates, matching Intern(): ids stay dense either
    // way, and persisted pools are deduplicated by construction.
    index_.emplace(Get(static_cast<ValueId>(indexed_)),
                   static_cast<ValueId>(indexed_));
  }
}

ValueId StringPool::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureIndexLocked();
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  if (read_only_) return kInvalidValueId;
  owned_.emplace_back(s);
  const ValueId id = AppendLocked(owned_.back());
  index_.emplace(owned_.back(), id);
  indexed_ = size_t{id} + 1;
  return id;
}

void StringPool::InternBatch(const std::vector<std::string>& strs,
                             std::vector<ValueId>* ids) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureIndexLocked();
  ids->reserve(ids->size() + strs.size());
  for (const std::string& s : strs) {
    auto it = index_.find(s);
    if (it != index_.end()) {
      ids->push_back(it->second);
      continue;
    }
    if (read_only_) {
      ids->push_back(kInvalidValueId);
      continue;
    }
    owned_.emplace_back(s);
    const ValueId id = AppendLocked(owned_.back());
    index_.emplace(owned_.back(), id);
    indexed_ = size_t{id} + 1;
    ids->push_back(id);
  }
}

void StringPool::AdoptExternal(const std::vector<std::string_view>& views) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) return;
  // Deliberately no index_ update: the hash build is deferred until the
  // first string -> id lookup (EnsureIndexLocked), so id-only consumers
  // (serving from a restored snapshot) never pay it.
  for (std::string_view v : views) AppendLocked(v);
}

void StringPool::RetainBacking(std::shared_ptr<const void> backing) {
  std::lock_guard<std::mutex> lock(mu_);
  backings_.push_back(std::move(backing));
}

void StringPool::MarkReadOnly() {
  std::lock_guard<std::mutex> lock(mu_);
  read_only_ = true;
}

bool StringPool::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_only_;
}

void StringPool::TruncateTo(size_t new_size) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = size_.load(std::memory_order_relaxed);
  if (new_size >= n) return;
  for (size_t i = n; i-- > new_size;) {
    const std::string_view v = Get(static_cast<ValueId>(i));
    // Keep-first duplicate semantics: only drop the index entry if this id
    // owns it (a tail duplicate of an earlier string must not unmap it).
    auto it = index_.find(v);
    if (it != index_.end() && it->second == static_cast<ValueId>(i)) {
      index_.erase(it);
    }
    // Owned strings are appended to owned_ in id order, so the tail of
    // the id space that points into owned_ is exactly the tail of owned_.
    if (!owned_.empty() && v.data() == owned_.back().data()) {
      owned_.pop_back();
    }
  }
  // Segments stay allocated; the dropped slots are rewritten by later
  // appends.
  size_.store(new_size, std::memory_order_release);
  truncations_.fetch_add(1, std::memory_order_release);
  if (indexed_ > new_size) indexed_ = new_size;
}

ValueId StringPool::Find(std::string_view s) const {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureIndexLocked();
  auto it = index_.find(s);
  return it == index_.end() ? kInvalidValueId : it->second;
}

size_t StringPool::indexed_strings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexed_;
}

}  // namespace ms
