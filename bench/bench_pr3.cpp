// PR 3 acceptance benchmark: the staged SynthesisSession API's warm-state
// reuse. A serving deployment repeatedly re-synthesizes with tweaked
// scoring thresholds (CompatibilityOptions); the staged API re-runs scoring
// onward over the materialized CandidateSet + BlockedPairs artifacts with
// warm per-worker matcher caches, while the monolithic path re-pays the
// full pipeline — index build, extraction, blocking, cold scoring — on
// every call. Results go to BENCH_PR3.json (or argv[2]):
//
//   ./bench/bench_pr3 [num_tables] [output.json]
//
// Correctness gates run before any speedup is reported and fail the binary
// at every scale:
//   1. the warm re-scored result must be byte-identical (member counts +
//      exact pair lists) to a cold monolithic run under the same options,
//   2. malformed options must be rejected with InvalidArgument by the
//      session instead of running.
// The >= 3x warm-over-cold bar is enforced at acceptance scale (100k).
//
// Thread-scaling gate: the same cold runs are repeated at num_threads = 1.
// Their mappings must equal the default (hardware_concurrency) runs' at
// every scale, and on a multi-core machine the default must not be slower
// than one thread — a parallel pipeline that loses to its own serial path
// is a contention bug. At acceptance scale on >= 4 cores it must also
// reach a 0.6·N speedup.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "synth/session.h"
#include "table/corpus.h"

namespace ms {
namespace {

constexpr int kRepeats = 3;
constexpr size_t kAcceptanceScale = 100000;
/// At acceptance scale on >= kScalingMinCores cores, the default cold run
/// must be at least kScalingPerThread * N times faster than one thread.
constexpr double kScalingPerThread = 0.6;
constexpr size_t kScalingMinCores = 4;

/// The speedup bar needs the cores to exist and a run long enough to time;
/// smoke runs and small boxes record the measurement without enforcing it.
bool ScalingBarEnforced(size_t hw, size_t n_tables) {
  return hw >= kScalingMinCores && n_tables >= kAcceptanceScale;
}

/// Web-shaped vocabulary (same shape as bench_pr2): multi-word entity names
/// with typo'd variants, short codes, a sprinkle of > 64-byte strings for
/// the blocked kernel.
struct Vocab {
  std::vector<std::string> lefts;
  std::vector<std::string> rights;

  Vocab(size_t n_lefts, size_t n_rights, Rng& rng) {
    const char* first[] = {"united", "republic", "southern", "new", "grand",
                           "upper", "saint", "north", "royal", "east"};
    const char* second[] = {"province", "island", "territory", "state",
                            "district", "region", "county", "kingdom",
                            "federation", "commonwealth"};
    for (size_t i = 0; i < n_lefts; ++i) {
      std::string s = std::string(first[rng.Uniform(10)]) + " " +
                      second[rng.Uniform(10)] + " " +
                      std::to_string(i / 7);
      switch (rng.Uniform(8)) {
        case 0:
          s[rng.Uniform(s.size())] = static_cast<char>('a' + rng.Uniform(26));
          break;
        case 1:
          s += static_cast<char>('a' + rng.Uniform(26));
          break;
        case 2:
          s += " of the greater unified historical administrative division";
          break;
        default:
          break;
      }
      lefts.push_back(std::move(s));
    }
    for (size_t i = 0; i < n_rights; ++i) {
      rights.push_back("c" + std::to_string(i));
    }
  }
};

/// A corpus of n two-column tables sampling the vocabulary with popularity
/// skew (a few hot values, a long thin tail) — the raw-table form of the
/// candidate sets bench_pr1/pr2 use, so extraction does real work in the
/// cold path.
TableCorpus BuildCorpus(size_t n, const Vocab& vocab, Rng& rng) {
  const uint32_t nl = static_cast<uint32_t>(vocab.lefts.size());
  const uint32_t nr = static_cast<uint32_t>(vocab.rights.size());
  auto skewed = [&](uint32_t space) -> uint32_t {
    const double r = rng.UniformDouble();
    if (r < 0.10) return static_cast<uint32_t>(rng.Uniform(8));
    const uint32_t warm = space / 100 + 1;
    if (r < 0.40) return 8 + static_cast<uint32_t>(rng.Uniform(warm));
    return 8 + warm + static_cast<uint32_t>(rng.Uniform(space - 8 - warm));
  };
  TableCorpus corpus;
  std::vector<std::string> left_col, right_col;
  std::set<uint32_t> seen;
  for (size_t t = 0; t < n; ++t) {
    left_col.clear();
    right_col.clear();
    seen.clear();
    const size_t rows = 6 + rng.Uniform(8);
    while (left_col.size() < rows) {
      // Distinct lefts per table so the θ-approximate FD check passes and
      // the left -> right direction survives extraction.
      const uint32_t li = skewed(nl);
      if (!seen.insert(li).second) continue;
      left_col.push_back(vocab.lefts[li]);
      right_col.push_back(vocab.rights[skewed(nr)]);
    }
    // Two lefts sharing one right makes the reverse (code -> name)
    // direction violate the FD check, so extraction yields exactly one
    // candidate per table — keeping candidate count == table count.
    right_col[1] = right_col[0];
    corpus.AddFromStrings("domain" + std::to_string(t % 64) + ".example",
                          TableSource::kWeb, {"name", "code"},
                          {left_col, right_col});
  }
  return corpus;
}

/// Canonical multiset of mappings: order-independent exact comparison.
std::multiset<std::string> Canonical(const SynthesisResult& r) {
  std::multiset<std::string> out;
  for (const auto& m : r.mappings) {
    std::string key = std::to_string(m.kept_tables.size()) + "|";
    for (const auto& p : m.merged.pairs()) {
      key += std::to_string(p.left) + ":" + std::to_string(p.right) + ",";
    }
    out.insert(std::move(key));
  }
  return out;
}

SynthesisOptions BenchOptions(size_t edit_cap, size_t num_threads = 0) {
  SynthesisOptions o;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.compat.edit.cap = edit_cap;
  o.num_threads = num_threads;
  return o;
}

/// Best-of-`repeats` wall time of cold monolithic full runs over
/// `cap_sweep` at `num_threads` (0 = hardware concurrency); fills each
/// config's canonical mappings and the last run's stats. False on a run
/// error.
bool TimeColdRuns(const TableCorpus& corpus,
                  const std::vector<size_t>& cap_sweep, size_t num_threads,
                  int repeats, double* best_s,
                  std::map<size_t, std::multiset<std::string>>* canonical,
                  PipelineStats* stats) {
  *best_s = 1e100;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    for (size_t cap : cap_sweep) {
      SynthesisSession session(BenchOptions(cap, num_threads));
      auto res = session.Run(corpus);
      if (!res.ok()) {
        std::cerr << "FAIL: cold run error: " << res.status().ToString()
                  << "\n";
        return false;
      }
      (*canonical)[cap] = Canonical(res.value());
      *stats = res.value().stats;
    }
    *best_s = std::min(*best_s, t.ElapsedSeconds());
  }
  return true;
}

}  // namespace
}  // namespace ms

int main(int argc, char** argv) {
  using namespace ms;
  // ~14% of tables are filtered by extraction (coherence/minimum-pairs), so
  // the default corpus yields >= 100k candidate tables at acceptance scale.
  const size_t n_tables =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 118000;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_PR3.json";

  Rng rng(4321);
  std::cout << "building vocabulary + corpus of " << n_tables
            << " two-column tables...\n"
            << std::flush;
  Vocab vocab(30000, 4000, rng);
  TableCorpus corpus = BuildCorpus(n_tables, vocab, rng);

  // ------------------------------------------------- validation gate
  {
    SynthesisOptions bad = BenchOptions(10);
    bad.min_pairs = 0;
    if (SynthesisSession(bad).status().code() !=
        StatusCode::kInvalidArgument) {
      std::cerr << "FAIL: min_pairs == 0 was not rejected\n";
      return 1;
    }
    bad = BenchOptions(10);
    bad.compat.edit.fractional = -1.0;
    if (SynthesisSession(bad).status().code() !=
        StatusCode::kInvalidArgument) {
      std::cerr << "FAIL: negative f_ed was not rejected\n";
      return 1;
    }
  }

  // The serving scenario: a curator sweeps the approximate-matching cap.
  // Both paths execute cap=10 then cap=8, so the work compared per repeat
  // is an identical pair of configurations.
  const std::vector<size_t> cap_sweep = {10, 8};

  // ------------------------------------------------- cold monolithic runs
  // What callers paid before the staged API: every re-synthesis rebuilds
  // the session and re-runs the full chain — index, extraction, blocking,
  // cold scoring — even though only scoring options changed.
  std::cout << "cold: monolithic full run per option change...\n"
            << std::flush;
  // Two repeats suffice for the cold side: each repeat runs the full
  // pipeline twice at ~70s per run at acceptance scale, and the comparison
  // takes the best, so scheduler noise only ever understates the speedup.
  constexpr int kColdRepeats = 2;
  std::map<size_t, std::multiset<std::string>> cold_canonical;
  PipelineStats cold_stats;
  double cold_s = 0.0;
  if (!TimeColdRuns(corpus, cap_sweep, 0, kColdRepeats, &cold_s,
                    &cold_canonical, &cold_stats)) {
    return 1;
  }

  // The same cold runs on one thread: the thread-scaling gate's baseline.
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "cold: the same runs at 1 thread (default is " << hw
            << ")...\n"
            << std::flush;
  std::map<size_t, std::multiset<std::string>> cold_1t_canonical;
  PipelineStats cold_1t_stats;
  double cold_1t_s = 0.0;
  if (!TimeColdRuns(corpus, cap_sweep, 1, kColdRepeats, &cold_1t_s,
                    &cold_1t_canonical, &cold_1t_stats)) {
    return 1;
  }
  const double thread_scaling = cold_1t_s / cold_s;

  // ------------------------------------------------- warm staged re-score
  // One session; extraction + blocking run once, their artifacts are
  // materialized, and each option change re-runs scoring onward with warm
  // per-worker matcher caches.
  std::cout << "warm: staged re-score per option change on one session...\n"
            << std::flush;
  SynthesisSession session(BenchOptions(10));
  auto cands = session.ExtractCandidates(corpus);
  if (!cands.ok()) {
    std::cerr << "FAIL: " << cands.status().ToString() << "\n";
    return 1;
  }
  auto blocked = session.BlockPairs(cands.value());
  if (!blocked.ok()) {
    std::cerr << "FAIL: " << blocked.status().ToString() << "\n";
    return 1;
  }
  std::map<size_t, std::multiset<std::string>> warm_canonical;
  PipelineStats warm_stats;
  double warm_s = 1e100;
  for (int r = 0; r < kRepeats; ++r) {
    Timer t;
    for (size_t cap : cap_sweep) {
      if (!session.UpdateOptions(BenchOptions(cap)).ok()) std::abort();
      auto res = session.FinishFromBlocked(cands.value(), blocked.value());
      if (!res.ok()) {
        std::cerr << "FAIL: warm run error: " << res.status().ToString()
                  << "\n";
        return 1;
      }
      warm_canonical[cap] = Canonical(res.value());
      warm_stats = res.value().stats;
    }
    warm_s = std::min(warm_s, t.ElapsedSeconds());
  }

  // ------------------------------------------------- equivalence gate
  size_t divergence = 0;
  size_t thread_divergence = 0;
  for (size_t cap : cap_sweep) {
    if (cold_canonical[cap] != warm_canonical[cap]) ++divergence;
    if (cold_canonical[cap] != cold_1t_canonical[cap]) ++thread_divergence;
  }

  const double speedup = cold_s / warm_s;
  const auto& ss = session.session_stats();
  std::cout << "  cold " << cold_s << "s, warm " << warm_s << "s  => "
            << speedup << "x over " << cap_sweep.size()
            << " option changes\n"
            << "  candidates " << warm_stats.candidates << ", blocked pairs "
            << warm_stats.candidate_pairs << " (reused verbatim), mappings "
            << warm_stats.mappings << "\n"
            << "  cold per-config stages: index+extract "
            << cold_stats.index_seconds + cold_stats.extract_seconds
            << "s, blocking " << cold_stats.blocking_seconds
            << "s, scoring " << cold_stats.scoring_seconds << "s\n"
            << "  mapping divergence " << divergence << " / "
            << cap_sweep.size() << " configs\n"
            << "  cold at 1 thread " << cold_1t_s << "s vs " << hw
            << " threads " << cold_s << "s  => scaling " << thread_scaling
            << "x, 1-vs-" << hw << "-thread divergence "
            << thread_divergence << " / " << cap_sweep.size() << "\n"
            << "  session stage runs: " << ss.extract_runs << " extract, "
            << ss.blocking_runs << " blocking, " << ss.scoring_runs
            << " scoring (" << ss.warm_scoring_runs << " warm), "
            << ss.partition_runs << " partition\n";

  // ----------------------------------------------------------------- JSON
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n"
      << "  \"pr\": 3,\n"
      << "  \"bench\": \"bench_pr3 (staged session warm re-score vs cold "
         "full run)\",\n"
      << "  \"repeats\": " << kRepeats << ",\n"
      << "  \"warm_rescore\": {\n"
      << "    \"corpus_tables\": " << corpus.size() << ",\n"
      << "    \"candidates\": " << warm_stats.candidates << ",\n"
      << "    \"blocked_pairs\": " << warm_stats.candidate_pairs << ",\n"
      << "    \"mappings\": " << warm_stats.mappings << ",\n"
      << "    \"option_changes_per_run\": " << cap_sweep.size() << ",\n"
      << "    \"cold_seconds\": " << cold_s << ",\n"
      << "    \"warm_seconds\": " << warm_s << ",\n"
      << "    \"speedup\": " << speedup << ",\n"
      << "    \"mapping_divergence\": " << divergence << ",\n"
      << "    \"cold_index_extract_seconds\": "
      << cold_stats.index_seconds + cold_stats.extract_seconds << ",\n"
      << "    \"cold_blocking_seconds\": " << cold_stats.blocking_seconds
      << ",\n"
      << "    \"cold_scoring_seconds\": " << cold_stats.scoring_seconds
      << ",\n"
      << "    \"warm_scoring_seconds\": " << warm_stats.scoring_seconds
      << ",\n"
      << "    \"blocking_runs\": " << ss.blocking_runs << ",\n"
      << "    \"scoring_runs\": " << ss.scoring_runs << ",\n"
      << "    \"warm_scoring_runs\": " << ss.warm_scoring_runs << "\n"
      << "  },\n"
      << "  \"thread_scaling\": {\n"
      << "    \"hardware_concurrency\": " << hw << ",\n"
      << "    \"cold_seconds_1t\": " << cold_1t_s << ",\n"
      << "    \"cold_seconds_nt\": " << cold_s << ",\n"
      << "    \"scaling\": " << thread_scaling << ",\n"
      << "    \"mapping_divergence\": " << thread_divergence << ",\n"
      << "    \"speedup_gate_enforced\": "
      << (ScalingBarEnforced(hw, n_tables) ? "true" : "false") << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  // Correctness gates hold at every scale; the speedup bar only means
  // anything at acceptance scale (small runs are fixed-cost dominated).
  if (divergence != 0) {
    std::cerr << "FAIL: warm staged results diverge from cold monolithic "
                 "results\n";
    return 1;
  }
  if (n_tables >= kAcceptanceScale && warm_stats.candidates < kAcceptanceScale) {
    std::cerr << "FAIL: corpus yielded only " << warm_stats.candidates
              << " candidates at acceptance scale\n";
    return 1;
  }
  if (n_tables >= kAcceptanceScale && speedup < 3.0) {
    std::cerr << "FAIL: warm re-score speedup below 3x at acceptance "
                 "scale\n";
    return 1;
  }
  if (thread_divergence != 0) {
    std::cerr << "FAIL: 1-thread cold results diverge from " << hw
              << "-thread cold results\n";
    return 1;
  }
  if (hw > 1 && thread_scaling < 1.0) {
    std::cerr << "FAIL: the cold pipeline at " << hw << " threads ("
              << cold_s << "s) is slower than at 1 thread (" << cold_1t_s
              << "s)\n";
    return 1;
  }
  if (ScalingBarEnforced(hw, n_tables) &&
      thread_scaling < kScalingPerThread * static_cast<double>(hw)) {
    std::cerr << "FAIL: " << hw << "-thread cold scaling " << thread_scaling
              << "x below the " << kScalingPerThread << "*" << hw
              << " acceptance bar\n";
    return 1;
  }
  return 0;
}
