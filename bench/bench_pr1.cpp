// PR 1 acceptance benchmark: sharded streaming blocking and the CSR
// inverted-index build versus their seed (reference) implementations, at
// >= 100k-candidate scale. Results go to BENCH_PR1.json (or argv[2]) so the
// speedup claim is reproducible:
//
//   ./bench/bench_pr1 [num_candidates] [output.json]
//
// Both workloads verify old-vs-new equivalence before timing is reported.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "oracles/blocking_oracle.h"
#include "oracles/inverted_index_oracle.h"
#include "stats/inverted_index.h"
#include "synth/blocking.h"
#include "table/binary_table.h"
#include "table/corpus.h"

namespace ms {
namespace {

constexpr int kRepeats = 3;

template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < kRepeats; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

/// Cheap popularity skew (Rng::Zipf is O(n) per draw — far too slow for
/// millions of cells): ~10% of draws hit a handful of hot values, 30% a
/// warm band, the rest a long uniform tail. This mirrors the value-
/// popularity shape of web tables: a few truncation-triggering hot posting
/// lists over a long thin tail.
ValueId SkewedValue(Rng& rng, uint32_t n) {
  const uint32_t warm = n / 100;
  const double r = rng.UniformDouble();
  if (r < 0.10) return static_cast<ValueId>(rng.Uniform(8));
  if (r < 0.40) return static_cast<ValueId>(8 + rng.Uniform(warm));
  return static_cast<ValueId>(8 + warm + rng.Uniform(n - 8 - warm));
}

/// Candidate tables with skewed (left, right) pairs: a few hot values
/// produce long (truncated) posting lists, the tail produces short ones —
/// the same shape web-extracted binary relations have.
std::vector<BinaryTable> BuildCandidates(size_t n) {
  Rng rng(1234);
  std::vector<BinaryTable> cands;
  cands.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    std::vector<ValuePair> pairs;
    const size_t rows = 6 + rng.Uniform(8);
    pairs.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      const auto left = SkewedValue(rng, 40000);
      const auto right = static_cast<ValueId>(rng.Uniform(5000));
      pairs.push_back({left, right});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = static_cast<BinaryTableId>(t);
    cands.push_back(std::move(b));
  }
  return cands;
}

/// Web-shaped corpus for the index build: many narrow tables, Zipf-skewed
/// value popularity, large distinct-value space.
TableCorpus BuildCorpus(size_t n_tables) {
  Rng rng(99);
  TableCorpus corpus;
  for (size_t t = 0; t < n_tables; ++t) {
    std::vector<std::string> cells;
    const size_t rows = 10 + rng.Uniform(15);
    cells.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      cells.push_back("v" + std::to_string(SkewedValue(rng, 400000)));
    }
    corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {cells});
  }
  return corpus;
}

}  // namespace
}  // namespace ms

int main(int argc, char** argv) {
  using namespace ms;
  const size_t n_candidates =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_PR1.json";

  // ------------------------------------------------------------- blocking
  std::cout << "building " << n_candidates << " candidate tables...\n" << std::flush;
  auto candidates = BuildCandidates(n_candidates);

  BlockingOptions bopts;  // defaults: theta_overlap=2, max_posting=256
  std::cout << "blocking: reference (emit-then-count)...\n" << std::flush;
  std::vector<CandidateTablePair> ref_pairs;
  const double ref_blocking =
      BestOf([&] { ref_pairs = GenerateCandidatePairsReference(candidates, bopts); });
  std::cout << "blocking: sharded streaming...\n" << std::flush;
  std::vector<CandidateTablePair> new_pairs;
  BlockingStats bstats;
  const double new_blocking = BestOf([&] {
    bstats = BlockingStats{};
    new_pairs = GenerateCandidatePairs(candidates, bopts, nullptr, &bstats);
  });

  bool blocking_equal = ref_pairs.size() == new_pairs.size();
  for (size_t i = 0; blocking_equal && i < ref_pairs.size(); ++i) {
    blocking_equal = ref_pairs[i].a == new_pairs[i].a &&
                     ref_pairs[i].b == new_pairs[i].b &&
                     ref_pairs[i].shared_pairs == new_pairs[i].shared_pairs &&
                     ref_pairs[i].shared_lefts == new_pairs[i].shared_lefts;
  }
  const double blocking_speedup = ref_blocking / new_blocking;
  std::cout << "  reference " << ref_blocking << "s, sharded " << new_blocking
            << "s  => " << blocking_speedup << "x, " << new_pairs.size()
            << " pairs, equal=" << blocking_equal << ", dropped postings "
            << bstats.dropped_postings << "\n";

  // ---------------------------------------------------------- index build
  const size_t n_tables = n_candidates / 2;
  std::cout << "building corpus of " << n_tables << " tables...\n" << std::flush;
  TableCorpus corpus = BuildCorpus(n_tables);

  std::cout << "index: reference (vector<vector>)...\n" << std::flush;
  ReferenceInvertedIndex ref_index;
  const double ref_build = BestOf([&] {
    ReferenceInvertedIndex idx;
    idx.Build(corpus);
    ref_index = std::move(idx);
  });
  std::cout << "index: CSR two-pass...\n" << std::flush;
  ColumnInvertedIndex csr_index;
  const double csr_build = BestOf([&] {
    ColumnInvertedIndex idx;
    idx.Build(corpus);
    csr_index = std::move(idx);
  });

  bool index_equal = csr_index.num_columns() == ref_index.num_columns();
  for (ValueId u = 0; index_equal && u < corpus.pool().size(); ++u) {
    index_equal = csr_index.ColumnFrequency(u) == ref_index.ColumnFrequency(u);
  }
  Rng probe(7);
  size_t checked_cooc = 0;
  for (int i = 0; index_equal && i < 2000; ++i) {
    const auto u = static_cast<ValueId>(probe.Uniform(corpus.pool().size()));
    const auto v = SkewedValue(
        probe, static_cast<uint32_t>(corpus.pool().size()));
    index_equal = csr_index.CoOccurrence(u, v) == ref_index.CoOccurrence(u, v);
    ++checked_cooc;
  }
  const double index_speedup = ref_build / csr_build;
  std::cout << "  reference " << ref_build << "s, CSR " << csr_build
            << "s  => " << index_speedup << "x over "
            << csr_index.num_columns() << " columns (" << checked_cooc
            << " co-occurrence probes verified), equal=" << index_equal
            << "\n";

  // ----------------------------------------------------------------- JSON
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n"
      << "  \"pr\": 1,\n"
      << "  \"bench\": \"bench_pr1 (blocking + inverted-index hot path)\",\n"
      << "  \"repeats\": " << kRepeats << ",\n"
      << "  \"blocking\": {\n"
      << "    \"candidates\": " << candidates.size() << ",\n"
      << "    \"candidate_pairs\": " << new_pairs.size() << ",\n"
      << "    \"blocking_keys\": " << bstats.keys << ",\n"
      << "    \"dropped_postings\": " << bstats.dropped_postings << ",\n"
      << "    \"reference_seconds\": " << ref_blocking << ",\n"
      << "    \"sharded_seconds\": " << new_blocking << ",\n"
      << "    \"speedup\": " << blocking_speedup << ",\n"
      << "    \"equivalent\": " << (blocking_equal ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"index_build\": {\n"
      << "    \"tables\": " << corpus.size() << ",\n"
      << "    \"columns\": " << csr_index.num_columns() << ",\n"
      << "    \"distinct_values\": " << corpus.pool().size() << ",\n"
      << "    \"reference_seconds\": " << ref_build << ",\n"
      << "    \"csr_seconds\": " << csr_build << ",\n"
      << "    \"speedup\": " << index_speedup << ",\n"
      << "    \"equivalent\": " << (index_equal ? "true" : "false") << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  // Equivalence is a correctness property: enforce it at every scale. The
  // >=2x speedup bar only means anything at acceptance scale — small runs
  // are fixed-cost dominated — so gate it there and let CI run a quick
  // small-scale equivalence check without "|| true".
  if (!blocking_equal || !index_equal) {
    std::cerr << "FAIL: new implementation diverges from reference\n";
    return 1;
  }
  constexpr size_t kAcceptanceScale = 100000;
  if (n_candidates >= kAcceptanceScale &&
      (blocking_speedup < 2.0 || index_speedup < 2.0)) {
    std::cerr << "FAIL: speedup below 2x at acceptance scale\n";
    return 1;
  }
  return 0;
}
