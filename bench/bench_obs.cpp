// Observability acceptance benchmark: the obs/ metrics + tracing layer must
// be cheap enough to leave on in production. Two claims are measured/gated:
//
//   1. Instrumentation overhead — the same fixed-work mixed-traffic loop as
//      bench_serving's read phase (80% LookupBatch-32, 10% AutoFill, 10%
//      SuggestCorrections) runs with tracing/metrics enabled and with the
//      layer compiled in but idle (SetTracingEnabled(false)). Reps are
//      interleaved and compared min-vs-min; enabled must cost < 2% over
//      idle. The gate self-arms only once the idle phase is long enough for
//      the comparison to be meaningful (tiny smoke runs record but do not
//      enforce).
//   2. Scrape liveness — a MappingServer is stood up on an ephemeral port,
//      remote traffic is driven through it, and a MetricsText scrape must
//      return a non-empty, well-formed exposition containing the synthesis
//      stage, serving, and net series. A missing series fails the binary at
//      every scale.
//
// Results go to BENCH_OBS.json (or argv[2]):
//
//   ./bench/bench_obs [num_tables] [output.json]
//
// The corpus is the same web-shaped workload as bench_serving.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "apps/serving.h"
#include "common/random.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/session.h"
#include "table/corpus.h"

namespace ms {
namespace {

constexpr size_t kBatchSize = 32;
/// Interleaved rep pairs. A rep takes ~0.3 s on a 4-core VM now that
/// containment lookups go through the store's index (it took ~1.2 s over
/// the bloom-screened scan), so 28 pairs keep the phase about as long as 7
/// were: min-vs-min needs enough reps for both modes to see the machine's
/// quiet moments.
constexpr size_t kReps = 28;
constexpr size_t kItersPerRep = 1200;
constexpr double kOverheadGate = 0.02;
/// Below this idle-phase duration the quantization noise of a single rep is
/// comparable to the overhead being measured; record, don't enforce.
constexpr double kEnforceMinSeconds = 0.05;

/// Web-shaped vocabulary (same shape as bench_serving/bench_pr2..pr5).
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
                      second[rng.Uniform(10)] + " " + std::to_string(i / 7);
      switch (rng.Uniform(8)) {
        case 0:
          s[rng.Uniform(s.size())] = static_cast<char>('a' + rng.Uniform(26));
          break;
        case 1:
          s += static_cast<char>('a' + rng.Uniform(26));
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

void GrowCorpus(TableCorpus* corpus, size_t count, const Vocab& vocab,
                Rng& rng) {
  const uint32_t nl = static_cast<uint32_t>(vocab.lefts.size());
  const uint32_t nr = static_cast<uint32_t>(vocab.rights.size());
  auto skewed = [&](uint32_t space) -> uint32_t {
    const double r = rng.UniformDouble();
    if (r < 0.10) return static_cast<uint32_t>(rng.Uniform(8));
    const uint32_t warm = space / 100 + 1;
    if (r < 0.40) return 8 + static_cast<uint32_t>(rng.Uniform(warm));
    return 8 + warm + static_cast<uint32_t>(rng.Uniform(space - 8 - warm));
  };
  std::vector<std::string> left_col, right_col;
  std::set<uint32_t> seen;
  for (size_t t = 0; t < count; ++t) {
    left_col.clear();
    right_col.clear();
    seen.clear();
    const size_t rows = 6 + rng.Uniform(8);
    while (left_col.size() < rows) {
      const uint32_t li = skewed(nl);
      if (!seen.insert(li).second) continue;
      left_col.push_back(vocab.lefts[li]);
      right_col.push_back(vocab.rights[skewed(nr)]);
    }
    right_col[1] = right_col[0];
    corpus->AddFromStrings(
        "domain" + std::to_string(corpus->size() % 64) + ".example",
        TableSource::kWeb, {"name", "code"}, {left_col, right_col});
  }
}

SynthesisOptions BenchOptions() {
  SynthesisOptions o;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.extraction.coherence_threshold = -1.0;
  return o;
}

/// Pre-generated request stream, identical in shape to bench_serving's.
struct RequestPool {
  std::vector<std::vector<std::string>> batches;
  std::vector<std::vector<std::string>> columns;
};

RequestPool BuildRequests(const ServingSnapshot& snap, Rng& rng,
                          size_t n_batches) {
  std::vector<std::string> lefts;
  for (const auto& m : snap.result->mappings) {
    for (const auto& p : m.merged.pairs()) {
      lefts.emplace_back(snap.pool->Get(p.left));
    }
    if (lefts.size() > 50000) break;
  }
  RequestPool pool;
  pool.batches.reserve(n_batches);
  pool.columns.reserve(n_batches);
  for (size_t b = 0; b < n_batches; ++b) {
    std::vector<std::string> batch;
    batch.reserve(kBatchSize);
    for (size_t k = 0; k < kBatchSize; ++k) {
      const double roll = rng.UniformDouble();
      if (lefts.empty() || roll < 0.15) {
        batch.push_back("miss value " + std::to_string(rng.Uniform(10000)));
      } else {
        std::string v = lefts[rng.Uniform(lefts.size())];
        if (roll < 0.3 && !v.empty()) v[rng.Uniform(v.size())] = 'z';
        batch.push_back(std::move(v));
      }
    }
    for (size_t k = kBatchSize / 2; k + 1 < kBatchSize; k += 3) {
      batch[k] = batch[k / 2];
    }
    std::vector<std::string> column(batch.begin(), batch.begin() + 12);
    pool.batches.push_back(std::move(batch));
    pool.columns.push_back(std::move(column));
  }
  return pool;
}

/// One fixed-work rep of the mixed phase. The rng seed pins the request
/// sequence, so the enabled and idle modes execute byte-identical work and
/// only the instrumentation differs. Returns elapsed seconds; the lookup
/// tally is accumulated into *sink so the loop cannot be optimized away.
double MixedRep(const MappingService& svc, const RequestPool& pool,
                uint64_t seed, uint64_t* sink) {
  Rng rng(seed);
  const size_t n = pool.batches.size();
  uint64_t lookups = 0;
  Timer t;
  for (size_t it = 0; it < kItersPerRep; ++it) {
    const size_t i = rng.Uniform(n);
    const double roll = rng.UniformDouble();
    if (roll < 0.8) {
      const auto snap = svc.AcquireSnapshot();
      if (snap == nullptr) continue;
      const size_t mi = rng.Uniform(snap->store->size());
      lookups += svc.LookupBatch(mi, pool.batches[i]).size();
    } else if (roll < 0.9) {
      const auto res = svc.AutoFill(pool.columns[i],
                                    {{0, std::string(pool.columns[i][0])}});
      lookups += res.values.size();
    } else {
      (void)svc.SuggestCorrections(pool.columns[i]);
      lookups += pool.columns[i].size();
    }
  }
  const double s = t.ElapsedSeconds();
  *sink += lookups;
  return s;
}

}  // namespace
}  // namespace ms

int main(int argc, char** argv) {
  using namespace ms;
  const size_t n_tables =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8000;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_OBS.json";

  Rng vocab_rng(4321);
  std::cout << "building corpus of " << n_tables << " tables...\n"
            << std::flush;
  Vocab vocab(std::max<size_t>(n_tables / 4, 500),
              std::max<size_t>(n_tables / 30, 100), vocab_rng);
  Rng grow_rng = vocab_rng;
  TableCorpus corpus;
  GrowCorpus(&corpus, n_tables, vocab, grow_rng);

  MappingService svc(BenchOptions());
  {
    Timer t;
    const Status st = svc.Synthesize(corpus);
    if (!st.ok()) {
      std::cerr << "FAIL: synthesize: " << st.ToString() << "\n";
      return 1;
    }
    std::cout << "synthesized " << svc.num_mappings() << " mappings in "
              << t.ElapsedSeconds() << "s\n"
              << std::flush;
  }
  const auto snap0 = svc.AcquireSnapshot();
  if (snap0 == nullptr || snap0->store->size() == 0) {
    std::cerr << "FAIL: nothing published to serve\n";
    return 1;
  }
  Rng req_rng(777);
  const RequestPool requests = BuildRequests(*snap0, req_rng, 512);

  // --------------------------------------------- overhead: enabled vs idle
  // Interleaved reps (idle, enabled, idle, enabled, ...) so thermal drift
  // and cache warmth hit both modes equally; min-vs-min discards scheduler
  // noise. One warmup rep per mode is discarded.
  uint64_t sink = 0;
  obs::SetTracingEnabled(false);
  (void)MixedRep(svc, requests, 1, &sink);
  obs::SetTracingEnabled(true);
  (void)MixedRep(svc, requests, 1, &sink);

  double min_idle = 1e300, min_enabled = 1e300;
  std::cout << "overhead phase: " << kReps << " interleaved reps of "
            << kItersPerRep << " mixed ops...\n"
            << std::flush;
  for (size_t rep = 0; rep < kReps; ++rep) {
    // Alternate which mode runs first within the pair so neither gets a
    // systematic cache-warmth or frequency-scaling advantage.
    const bool idle_first = rep % 2 == 0;
    for (int half = 0; half < 2; ++half) {
      const bool idle = (half == 0) == idle_first;
      obs::SetTracingEnabled(!idle);
      const double s = MixedRep(svc, requests, 100 + rep, &sink);
      (idle ? min_idle : min_enabled) = std::min(idle ? min_idle : min_enabled, s);
    }
  }
  obs::SetTracingEnabled(true);
  const double overhead =
      min_idle > 0 ? (min_enabled - min_idle) / min_idle : 0.0;
  const bool gate_enforced = min_idle >= kEnforceMinSeconds;
  std::cout << "  idle    " << min_idle << "s\n  enabled " << min_enabled
            << "s\n  overhead " << overhead * 100 << "% (gate "
            << kOverheadGate * 100 << "%, "
            << (gate_enforced ? "enforced" : "recorded only") << ")\n";

  // ----------------------------------------------------- live scrape smoke
  std::cout << "scrape smoke: server + remote traffic + MetricsText...\n"
            << std::flush;
  std::string scrape;
  bool scrape_ok = false;
  {
    net::MappingServer server(svc, net::ServerOptions{});
    const Status st = server.Start();
    if (!st.ok()) {
      std::cerr << "FAIL: server start: " << st.ToString() << "\n";
      return 1;
    }
    auto client = net::MappingClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::cerr << "FAIL: connect: " << client.status().message() << "\n";
      return 1;
    }
    for (size_t i = 0; i < 16; ++i) {
      const auto r =
          client.value().LookupBatch(i % snap0->store->size(),
                                     requests.batches[i]);
      if (!r.ok()) {
        std::cerr << "FAIL: remote lookup: " << r.status().message() << "\n";
        return 1;
      }
    }
    auto text = client.value().MetricsText();
    if (!text.ok()) {
      std::cerr << "FAIL: MetricsText: " << text.status().message() << "\n";
      return 1;
    }
    scrape = std::move(text.value());
    const char* required[] = {
        "ms_synth_stage_us_bucket{stage=\"extract\"",
        "ms_serving_request_us_count{op=\"lookup_batch\"}",
        "ms_serving_snapshot_version ",
        "ms_env_retries_total ",
        "ms_net_requests_total{type=\"lookup_batch\"}",
        "ms_net_bytes_out_total ",
    };
    scrape_ok = !scrape.empty() && scrape.back() == '\n';
    for (const char* series : required) {
      if (scrape.find(series) == std::string::npos) {
        std::cerr << "FAIL: scrape is missing series " << series << "\n";
        scrape_ok = false;
      }
    }
    server.Stop();
  }
  std::cout << "  scraped " << scrape.size() << " bytes, "
            << (scrape_ok ? "all required series present" : "MISSING series")
            << "\n";

  // ----------------------------------------------------------------- JSON
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"bench_obs (instrumentation overhead on the mixed "
         "serving phase + live scrape smoke)\",\n"
      << "  \"corpus_tables\": " << n_tables << ",\n"
      << "  \"mappings\": " << svc.num_mappings() << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"iters_per_rep\": " << kItersPerRep << ",\n"
      << "  \"batch_size\": " << kBatchSize << ",\n"
      << "  \"min_idle_seconds\": " << min_idle << ",\n"
      << "  \"min_enabled_seconds\": " << min_enabled << ",\n"
      << "  \"overhead_fraction\": " << overhead << ",\n"
      << "  \"overhead_gate\": " << kOverheadGate << ",\n"
      << "  \"gate_enforced\": " << (gate_enforced ? "true" : "false") << ",\n"
      << "  \"scrape_bytes\": " << scrape.size() << ",\n"
      << "  \"scrape_ok\": " << (scrape_ok ? "true" : "false") << ",\n"
      << "  \"work_sink\": " << sink << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!scrape_ok) {
    std::cerr << "FAIL: live scrape missing required series or malformed\n";
    return 1;
  }
  if (gate_enforced && overhead >= kOverheadGate) {
    std::cerr << "FAIL: instrumentation overhead " << overhead * 100
              << "% exceeds the " << kOverheadGate * 100 << "% bar\n";
    return 1;
  }
  return 0;
}
