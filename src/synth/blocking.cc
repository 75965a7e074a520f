#include "synth/blocking.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "common/flat_hash.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "mr/mapreduce.h"

namespace ms {
namespace {

struct OverlapCounts {
  uint32_t pairs = 0;
  uint32_t lefts = 0;
};

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Blocking key spaces shared by both implementations: full value pairs get
// tag bit 0 (feeds shared_pairs / w+), left values get tag bit 1 (feeds
// shared_lefts / w-).
void EmitBlockingKeys(const BinaryTable& b, uint32_t id,
                      Emitter<uint64_t, uint32_t>& em) {
  for (const auto& p : b.pairs()) {
    em.Emit(HashIdPair(p.left, p.right) << 1, id);
  }
  for (ValueId l : b.LeftValues()) {
    em.Emit((Mix64(l) << 1) | 1, id);
  }
}

// Appends all co-occurring (i < j) id pairs from one posting list
// (reference implementation only). Dropped ids go to `tainted` under
// `tainted_mu` so the reference matches the production per-pair exactness.
void EmitIdPairs(std::vector<uint32_t>& ids, size_t max_posting,
                 std::vector<std::pair<uint64_t, bool>>* out, bool is_pair,
                 std::mutex& tainted_mu, std::vector<uint32_t>* tainted) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() > max_posting) {
    std::lock_guard<std::mutex> lock(tainted_mu);
    tainted->insert(tainted->end(), ids.begin() + max_posting, ids.end());
    ids.resize(max_posting);
  }
  for (size_t x = 0; x < ids.size(); ++x) {
    for (size_t y = x + 1; y < ids.size(); ++y) {
      out->push_back({(static_cast<uint64_t>(ids[x]) << 32) | ids[y], is_pair});
    }
  }
}

std::vector<CandidateTablePair> CollectAndSort(
    const std::vector<std::vector<CandidateTablePair>>& per_shard) {
  std::vector<CandidateTablePair> out;
  size_t total = 0;
  for (const auto& s : per_shard) total += s.size();
  out.reserve(total);
  for (const auto& s : per_shard) {
    out.insert(out.end(), s.begin(), s.end());
  }
  // Deterministic order for reproducibility.
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return out;
}

using Partition = std::vector<std::pair<uint64_t, uint32_t>>;

/// One partition's posting lists after de-dup and truncation, keeping only
/// the lists that can emit an id pair: list k is ids[offsets[k],
/// offsets[k+1]) (sorted ascending) under a value-pair key iff is_pair[k].
/// 4 bytes per kept posting instead of the shuffle's 16 per posting.
struct PostingLists {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> offsets{0};
  std::vector<uint8_t> is_pair;
};

/// Key accounting of one counting pass. With first_new = 0 (a cold run)
/// every key is "new" and every drop is a union-run drop.
struct PassAccount {
  size_t keys = 0;      ///< keys walked
  size_t new_keys = 0;  ///< keys no id < first_new holds
  /// Postings dropped by truncation beyond what the ids < first_new alone
  /// would drop (all drops when first_new = 0).
  size_t dropped = 0;
  std::vector<uint32_t> tainted;  ///< ids in some truncated tail
};

/// Position of the first id >= first_new in the sorted list [ids, ids+n).
size_t NewFrom(const uint32_t* ids, size_t n, uint32_t first_new) {
  if (first_new == 0) return 0;
  return static_cast<size_t>(std::lower_bound(ids, ids + n, first_new) - ids);
}

/// Sorts `part`, walks its posting-list runs, de-dups and truncates each
/// (lowest ids kept), and appends to `out` the lists that hold a pair with
/// at least one id >= first_new. Releases `part`'s buffer when done.
void CompactPartition(Partition& part, size_t max_posting, uint32_t first_new,
                      PassAccount* acct, PostingLists* out) {
  std::sort(part.begin(), part.end());
  size_t i = 0;
  while (i < part.size()) {
    const uint64_t key = part[i].first;
    const size_t list_begin = out->ids.size();
    for (; i < part.size() && part[i].first == key; ++i) {
      // Runs are sorted by id, so de-dup is an adjacency check.
      if (out->ids.size() == list_begin || out->ids.back() != part[i].second) {
        out->ids.push_back(part[i].second);
      }
    }
    const uint32_t* ids = out->ids.data() + list_begin;
    const size_t n = out->ids.size() - list_begin;
    ++acct->keys;
    // Ids are sorted, so the list the ids < first_new alone would form is
    // the prefix before first_new.
    const size_t old_len = NewFrom(ids, n, first_new);
    if (old_len == 0) ++acct->new_keys;
    size_t kept = n;
    if (n > max_posting) {
      // Deterministic truncation (lowest ids kept), but accounted for. The
      // dropped tail can include old ids (already tainted by the run that
      // counted them — re-adding is idempotent) and new ones.
      const size_t base_dropped =
          old_len > max_posting ? old_len - max_posting : 0;
      acct->dropped += (n - max_posting) - base_dropped;
      acct->tainted.insert(acct->tainted.end(), ids + max_posting, ids + n);
      kept = max_posting;
    }
    if (kept >= 2 && std::min(old_len, kept) < kept) {
      out->ids.resize(list_begin + kept);
      out->offsets.push_back(static_cast<uint32_t>(out->ids.size()));
      out->is_pair.push_back((key & 1) == 0);
    } else {
      out->ids.resize(list_begin);
    }
  }
  Partition().swap(part);
}

/// Shard tasks per worker: more, smaller shards keep each task's count map
/// (and the memory a worker holds at once) a fraction of the run's
/// distinct id pairs, for one more linear scan of the lists per shard.
constexpr size_t kShardsPerWorker = 4;

/// The counting kernel shared by cold and delta blocking. Task s of
/// `num_shards` owns the id pairs (a, b) with a % num_shards == s: it walks
/// every partition's lists and increments only its own pairs, so the shard
/// maps are disjoint, there is one counter per id pair as in a serial run,
/// and no merge step follows. Only pairs with b >= first_new are counted
/// (all of them when first_new = 0). Each shard's survivors (θ_overlap)
/// are emitted straight from its map into an exactly sized vector, then the
/// map is freed.
std::vector<std::vector<CandidateTablePair>> CountShards(
    const std::vector<PostingLists>& lists, uint32_t first_new,
    const BlockingOptions& options, const std::vector<uint8_t>& tainted,
    ThreadPool* pool) {
  const bool parallel = pool && pool->num_threads() > 1;
  const size_t workers = parallel ? pool->num_threads() : 1;
  const size_t num_shards = NextPow2(workers) * kShardsPerWorker;
  const uint32_t shard_mask = static_cast<uint32_t>(num_shards - 1);
  std::vector<std::vector<CandidateTablePair>> survivors(num_shards);
  const auto survives = [&](const OverlapCounts& c) {
    return c.pairs >= options.theta_overlap || c.lefts >= options.theta_overlap;
  };
  auto count_shard = [&](size_t shard) {
    // Growth-by-doubling beats an upfront reservation here — increment
    // counts overestimate distinct id pairs several-fold, and an oversized
    // map trades amortized rehash for a cache miss on every increment.
    FlatMap64<OverlapCounts> counts;
    for (const PostingLists& pl : lists) {
      for (size_t k = 0; k + 1 < pl.offsets.size(); ++k) {
        const uint32_t* ids = pl.ids.data() + pl.offsets[k];
        const size_t n = pl.offsets[k + 1] - pl.offsets[k];
        const size_t new_from = NewFrom(ids, n, first_new);
        uint32_t OverlapCounts::*field =
            pl.is_pair[k] ? &OverlapCounts::pairs : &OverlapCounts::lefts;
        for (size_t x = 0; x + 1 < n; ++x) {
          if ((ids[x] & shard_mask) != shard) continue;
          const uint64_t hi = static_cast<uint64_t>(ids[x]) << 32;
          for (size_t y = std::max(x + 1, new_from); y < n; ++y) {
            ++(counts[hi | ids[y]].*field);
          }
        }
      }
    }
    size_t num_survivors = 0;
    counts.ForEach([&](uint64_t, const OverlapCounts& c) {
      num_survivors += survives(c);
    });
    auto& out = survivors[shard];
    out.reserve(num_survivors);
    counts.ForEach([&](uint64_t packed, const OverlapCounts& c) {
      if (!survives(c)) return;
      CandidateTablePair p;
      p.a = static_cast<uint32_t>(packed >> 32);
      p.b = static_cast<uint32_t>(packed & 0xffffffffu);
      p.shared_pairs = c.pairs;
      p.shared_lefts = c.lefts;
      p.counts_exact = tainted.empty() || (!tainted[p.a] && !tainted[p.b]);
      out.push_back(p);
    });
  };
  if (parallel) {
    pool->ParallelFor(num_shards, count_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) count_shard(s);
  }
  return survivors;
}

/// Everything after the map + shuffle, shared by cold and delta blocking:
/// compacts each partition's posting lists (parallel over partitions), folds
/// the truncated tails into `tainted` (in/out: empty until the first
/// truncation), and counts and thresholds the pairs touching an id >=
/// first_new, returning each shard's survivors. `acct` sums the partitions'
/// key accounting; `*newly_tainted` counts the bitmap entries this pass set.
std::vector<std::vector<CandidateTablePair>> CountPairs(
    std::vector<Partition>& parts, size_t num_candidates, uint32_t first_new,
    const BlockingOptions& options, ThreadPool* pool,
    std::vector<uint8_t>* tainted, PassAccount* acct, size_t* newly_tainted) {
  std::vector<PostingLists> lists(parts.size());
  std::vector<PassAccount> part_acct(parts.size());
  auto compact = [&](size_t p) {
    CompactPartition(parts[p], options.max_posting, first_new, &part_acct[p],
                     &lists[p]);
  };
  if (pool && pool->num_threads() > 1) {
    pool->ParallelFor(parts.size(), compact);
  } else {
    for (size_t p = 0; p < parts.size(); ++p) compact(p);
  }

  // A pair's counts are exact iff neither endpoint was ever dropped from a
  // truncated list (a pair only loses count from a list both appear in when
  // one of them sits in the dropped tail).
  for (const PassAccount& a : part_acct) {
    acct->keys += a.keys;
    acct->new_keys += a.new_keys;
    acct->dropped += a.dropped;
    for (uint32_t id : a.tainted) {
      if (tainted->empty()) tainted->assign(num_candidates, 0);
      if (!(*tainted)[id]) {
        (*tainted)[id] = 1;
        ++*newly_tainted;
      }
    }
  }

  return CountShards(lists, first_new, options, *tainted, pool);
}

}  // namespace

std::vector<CandidateTablePair> GenerateCandidatePairs(
    const std::vector<BinaryTable>& candidates, const BlockingOptions& options,
    ThreadPool* pool, BlockingStats* stats) {
  if (candidates.empty()) return {};
  Timer timer;

  // --- Map + shuffle: hash-partition (blocking key -> candidate id), so
  // every posting list lives wholly inside one partition.
  std::vector<uint32_t> inputs(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) inputs[i] = i;
  std::function<void(const uint32_t&, Emitter<uint64_t, uint32_t>&)> map_fn =
      [&](const uint32_t& id, Emitter<uint64_t, uint32_t>& em) {
        EmitBlockingKeys(candidates[id], id, em);
      };
  auto parts = RunMapShuffle<uint32_t, uint64_t, uint32_t>(inputs, map_fn, pool);
  const double map_shuffle_seconds = timer.ElapsedSeconds();

  // --- Count: compact posting lists, stream co-occurring id pairs into
  // shard-owned flat count maps, threshold. Nothing quadratic is stored.
  std::vector<uint8_t> tainted;
  PassAccount acct;
  size_t num_tainted = 0;
  timer.Restart();
  const auto survivors =
      CountPairs(parts, candidates.size(), /*first_new=*/0, options, pool,
                 &tainted, &acct, &num_tainted);
  const double count_seconds = timer.ElapsedSeconds();
  timer.Restart();
  auto out = CollectAndSort(survivors);
  if (stats) {
    stats->map_shuffle_seconds = map_shuffle_seconds;
    stats->count_seconds = count_seconds;
    stats->reduce_seconds = timer.ElapsedSeconds();
    stats->keys += acct.keys;
    stats->dropped_postings += acct.dropped;
    stats->tainted_candidates = num_tainted;
    stats->exact_counts = stats->dropped_postings == 0;
    stats->tainted = std::move(tainted);
  }
  return out;
}

Status BlockingOptions::Validate() const {
  if (theta_overlap == 0) {
    return Status::InvalidArgument(
        "blocking.theta_overlap must be >= 1: 0 would emit every candidate "
        "pair and defeat blocking entirely");
  }
  if (max_posting < 2) {
    return Status::InvalidArgument(
        "blocking.max_posting must be >= 2: shorter posting lists can never "
        "produce a co-occurrence, so no pair would ever be scored");
  }
  return Status::OK();
}

std::vector<CandidateTablePair> GenerateDeltaCandidatePairs(
    const std::vector<BinaryTable>& candidates, uint32_t first_new,
    const BlockingOptions& options, ThreadPool* pool,
    std::vector<uint8_t>* tainted, DeltaBlockingStats* stats) {
  if (first_new >= candidates.size()) return {};
  std::vector<uint8_t> local_tainted;
  if (tainted == nullptr) tainted = &local_tainted;
  if (!tainted->empty()) tainted->resize(candidates.size(), 0);

  // --- Delta key set: every blocking key any appended candidate holds.
  // FlatMap64 reserves key 0 as its empty sentinel, so keys are stored
  // shifted by one (the pipeline already tolerates 64-bit key-hash
  // collisions, which an unrepresentable key 2^64-1 would amount to).
  FlatMap64<char> delta_keys;
  {
    Emitter<uint64_t, uint32_t> collector(1);
    for (uint32_t id = first_new; id < candidates.size(); ++id) {
      EmitBlockingKeys(candidates[id], id, collector);
    }
    for (const auto& [key, unused] : collector.buffers()[0]) {
      delta_keys[key + 1] = 1;
    }
  }

  // --- Map + shuffle over ALL candidates, filtered to delta-relevant keys:
  // existing candidates contribute their postings for exactly the keys the
  // appended candidates touch, nothing else. This is the only full-corpus
  // scan the delta pass pays, and it is linear.
  std::vector<uint32_t> inputs(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) inputs[i] = i;
  std::function<void(const uint32_t&, Emitter<uint64_t, uint32_t>&)> map_fn =
      [&](const uint32_t& id, Emitter<uint64_t, uint32_t>& em) {
        Emitter<uint64_t, uint32_t> probe(1);
        EmitBlockingKeys(candidates[id], id, probe);
        for (const auto& [key, emitted_id] : probe.buffers()[0]) {
          if (delta_keys.Find(key + 1) != nullptr) em.Emit(key, emitted_id);
        }
      };
  auto parts = RunMapShuffle<uint32_t, uint64_t, uint32_t>(inputs, map_fn, pool);

  // --- Count, restricted to pairs with at least one appended id, through
  // the same kernel as a cold run. Truncation follows union semantics
  // exactly: appended ids sort after all existing ids, so the kept prefix
  // of every list starts with the base run's kept old ids — old-old counts
  // and old-candidate taint can never change, which is why they are not
  // recomputed here.
  PassAccount acct;
  size_t newly_tainted = 0;
  auto out = CollectAndSort(CountPairs(parts, candidates.size(), first_new,
                                       options, pool, tainted, &acct,
                                       &newly_tainted));
  if (stats) {
    stats->new_keys += acct.new_keys;
    stats->scanned_keys += acct.keys;
    stats->dropped_postings += acct.dropped;
  }
  return out;
}

std::vector<CandidateTablePair> GenerateCandidatePairsReference(
    const std::vector<BinaryTable>& candidates, const BlockingOptions& options,
    ThreadPool* pool) {
  // --- MapReduce round: key = hashed value pair (or hashed left value with
  // a tag bit), value = candidate id. Reduce emits co-occurring id pairs.
  std::vector<uint32_t> inputs(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) inputs[i] = i;

  using KV = std::pair<uint64_t, bool>;  // (packed id pair, is_pair_key)
  std::mutex tainted_mu;
  std::vector<uint32_t> tainted_ids;
  std::function<void(const uint32_t&, Emitter<uint64_t, uint32_t>&)> map_fn =
      [&](const uint32_t& id, Emitter<uint64_t, uint32_t>& em) {
        EmitBlockingKeys(candidates[id], id, em);
      };
  std::function<void(const uint64_t&, std::vector<uint32_t>&,
                     std::vector<KV>*)>
      reduce_fn = [&](const uint64_t& key, std::vector<uint32_t>& ids,
                      std::vector<KV>* out) {
        EmitIdPairs(ids, options.max_posting, out, (key & 1) == 0,
                    tainted_mu, &tainted_ids);
      };

  auto emitted = RunMapReduce<uint32_t, uint64_t, uint32_t, KV>(
      inputs, map_fn, reduce_fn, pool);

  // --- Count per id-pair.
  std::unordered_map<uint64_t, OverlapCounts> counts;
  counts.reserve(emitted.size());
  for (const auto& [packed, is_pair] : emitted) {
    auto& c = counts[packed];
    if (is_pair) {
      ++c.pairs;
    } else {
      ++c.lefts;
    }
  }

  std::vector<uint8_t> tainted;
  if (!tainted_ids.empty()) {
    tainted.assign(candidates.size(), 0);
    for (uint32_t id : tainted_ids) tainted[id] = 1;
  }

  std::vector<CandidateTablePair> out;
  for (const auto& [packed, c] : counts) {
    if (c.pairs >= options.theta_overlap || c.lefts >= options.theta_overlap) {
      CandidateTablePair p;
      p.a = static_cast<uint32_t>(packed >> 32);
      p.b = static_cast<uint32_t>(packed & 0xffffffffu);
      p.shared_pairs = c.pairs;
      p.shared_lefts = c.lefts;
      p.counts_exact = tainted.empty() || (!tainted[p.a] && !tainted[p.b]);
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return out;
}

}  // namespace ms
