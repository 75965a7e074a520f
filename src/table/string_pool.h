// Global string interning. Every distinct cell value in a corpus is stored
// once and referenced by a dense 32-bit ValueId everywhere else (tables,
// binary relations, inverted indexes, graphs). This keeps the quadratic
// compatibility computations id-based and cache-friendly.
//
// Two storage modes coexist in one pool:
//   - Intern()'d strings are copied into pool-owned storage (deque: stored
//     bytes never move).
//   - AdoptExternal() appends string_views over caller-owned memory without
//     copying — the zero-copy path the persistence layer uses to rebuild a
//     pool over an mmap'd snapshot/corpus-store region. The backing mapping
//     is pinned for the pool's lifetime with RetainBacking(), so views can
//     never outlive their bytes no matter where the pool handle travels.
//
// Read contract. Get() and size() take no lock: scoring resolves ids
// through Get() billions of times per run from every worker, and a mutex
// there convoys all of them. The id -> view table lives in segments that
// are allocated once and never move (segment k holds twice as many views
// as segment k-1), and the writer publishes the new size with a release
// store only after the view is in place. So Get(id) is safe, concurrently
// with any writer, for every id the caller obtained in a way that happens
// after the write that created it: the id came back from Intern() /
// InternBatch() on this thread, or was read from size() / Find(), or was
// handed over by a synchronizing operation (a mutex, an acquire load, a
// thread join). Every writer (Intern, InternBatch, AdoptExternal,
// TruncateTo, MarkReadOnly) and every string -> id lookup (Find) holds the
// pool mutex. TruncateTo() is the one exception to "ids stay valid": ids
// at or past the new size must no longer be read.
//
// The string -> id hash over adopted views is built lazily: AdoptExternal()
// only appends the views, and the index over them is materialized on the
// first operation that needs it (Intern / InternBatch / Find). Serving
// paths that only resolve ids (Get) — a MappingStore answering lookups from
// a restored snapshot — never pay the hash build, which dominates the
// corpus-store open time. Laziness is invisible to callers: results are
// identical either way.
//
// MarkReadOnly() freezes the pool for serving-only deployments: lookups
// keep working, but interning an unseen string returns kInvalidValueId
// instead of mutating the pool.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ms {

using ValueId = uint32_t;

/// Sentinel for "no value".
inline constexpr ValueId kInvalidValueId = UINT32_MAX;

/// Append-only interning pool. Writers serialize on a mutex; Get() and
/// size() are lock-free (see the read contract above).
class StringPool {
 public:
  StringPool() = default;
  ~StringPool();
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Returns the id for `s`, inserting it on first sight. On a read-only
  /// pool, unseen strings return kInvalidValueId instead of inserting.
  ValueId Intern(std::string_view s);

  /// Interns every string in `strs` under a single lock acquisition and
  /// appends the resulting ids to `ids` (same order). Batching matters on
  /// the extraction hot path: per-cell Intern() calls serialize every
  /// worker on this pool's mutex.
  void InternBatch(const std::vector<std::string>& strs,
                   std::vector<ValueId>* ids);

  /// Zero-copy bulk adoption: appends `views` verbatim as ids
  /// size()..size()+n-1 WITHOUT copying the bytes. The caller guarantees
  /// the backing memory outlives the pool — pin an mmap with
  /// RetainBacking(). The string -> id index over adopted views is built
  /// lazily on the first Find()/Intern(); id-based lookups (Get) never
  /// trigger it. Ignored on a read-only pool.
  void AdoptExternal(const std::vector<std::string_view>& views);

  /// Pins `backing` (e.g. a persist::MmapFile) until the pool is destroyed,
  /// making AdoptExternal()'d views safe wherever the pool handle is shared.
  void RetainBacking(std::shared_ptr<const void> backing);

  /// Freezes the pool: Find()/Get() keep working, Intern() of an already
  /// interned string still returns its id, but unseen strings return
  /// kInvalidValueId instead of inserting. Irreversible; used by
  /// serving-only deployments restored from snapshots.
  void MarkReadOnly();
  bool read_only() const;

  /// Removes every id >= `new_size`, releasing owned storage and index
  /// entries for the dropped tail. The unintern half of the append-rollback
  /// protocol: a failed corpus append truncates the pool back to its
  /// pre-append size so the strings the dead delta interned are neither
  /// Find-able nor held in memory. Only owned (Intern'd) strings may be in
  /// the dropped tail — adopted views are only ever created by restore
  /// paths that precede any append. No-op when new_size >= size().
  void TruncateTo(size_t new_size);

  /// Number of TruncateTo calls that dropped ids. A dropped id can come
  /// back holding a different string, so caches keyed by ValueId (the
  /// session's warm matchers) compare this counter to notice. Lock-free.
  uint64_t truncations() const {
    return truncations_.load(std::memory_order_acquire);
  }

  /// Returns the id for `s` or kInvalidValueId if never interned. Builds
  /// the deferred index over adopted views if necessary.
  ValueId Find(std::string_view s) const;

  /// The interned string for a valid id. Lock-free.
  std::string_view Get(ValueId id) const {
    assert(id < size());
    const size_t seg = SegmentOf(id);
    return segments_[seg].load(std::memory_order_acquire)[id -
                                                          SegmentStart(seg)];
  }

  /// Number of ids handed out so far. Lock-free.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Observability for the lazy index: how many strings are currently
  /// covered by the string -> id hash. Stays 0 after AdoptExternal() until
  /// a Find()/Intern() forces the build; tests and bench_micro use this to
  /// prove serving-only paths never pay it.
  size_t indexed_strings() const;

 private:
  /// Segment 0 holds ids [0, 2^kFirstSegmentBits); segment k >= 1 holds
  /// [2^(kFirstSegmentBits+k-1), 2^(kFirstSegmentBits+k)). Enough segments
  /// cover the whole 32-bit id space.
  static constexpr unsigned kFirstSegmentBits = 10;
  static constexpr size_t kNumSegments = 32 - kFirstSegmentBits + 1;

  static size_t SegmentOf(size_t id) {
    const unsigned width = static_cast<unsigned>(std::bit_width(id));
    return width <= kFirstSegmentBits ? 0 : width - kFirstSegmentBits;
  }
  static size_t SegmentStart(size_t seg) {
    return seg == 0 ? 0 : size_t{1} << (seg + kFirstSegmentBits - 1);
  }
  static size_t SegmentCapacity(size_t seg) {
    return seg == 0 ? size_t{1} << kFirstSegmentBits : SegmentStart(seg);
  }

  /// Stores `v` as id size() and publishes the new size. Caller holds mu_.
  ValueId AppendLocked(std::string_view v);
  /// Indexes ids [indexed_, size()) into index_. Caller holds mu_.
  void EnsureIndexLocked() const;

  mutable std::mutex mu_;
  /// id -> bytes; views point into `owned_` or into retained backings.
  /// Segments are written only under mu_ and freed only by the destructor.
  std::array<std::atomic<std::string_view*>, kNumSegments> segments_{};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> truncations_{0};
  std::deque<std::string> owned_;
  /// Lazily covers ids [0, indexed_); adopted views are indexed on the
  /// first string -> id operation, never on adoption.
  mutable std::unordered_map<std::string_view, ValueId> index_;
  mutable size_t indexed_ = 0;
  std::vector<std::shared_ptr<const void>> backings_;
  bool read_only_ = false;
};

}  // namespace ms
