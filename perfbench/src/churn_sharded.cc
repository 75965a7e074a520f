// churn_sharded: a sharded-vocabulary corpus with the coherence filter on,
// built cold in set-up, then driven through a fixed cycle of small
// append / remove / replace batches via SynthesisSession::{AppendTables,
// RemoveTables, ReplaceTables}. This is the only workload that runs the
// mutation paths: index patching, the coherence margin cache, delta
// blocking and scoring, and dirty-component resolve. Cold scoring happens
// only in set-up.
//
// Each batch is 1% of the corpus. Removals and replacements take a
// contiguous run of live tables from a seeded random start (takedowns and
// re-crawls arrive site-clustered), appends and replacement tables land at
// the tail, so the live table count stays at its initial size while
// tombstoned slots accumulate (the system has no compaction). The schedule
// is a fixed number of cycles, kCyclesPerSecond x --seconds (a little under
// the window on a 4-core VM): a time-bounded loop would let a faster or
// slower machine reach a larger or smaller corpus, and every mutation's
// cost grows with the slot count. Afterwards the maintained mappings must
// equal a cold rebuild over the mutated corpus.
//
// Mutations run at one thread. At the default thread count the scoring
// pool-lock convoy dominates them and its run-to-run spread on a shared
// VM (~0.18 of the median on 4 cores) exceeds any usable bound; web_cold
// measures the convoy.
#include <algorithm>
#include <iostream>
#include <memory>

#include "corpora.h"
#include "harness.h"
#include "stages.h"

namespace perfbench {
namespace {

constexpr size_t kTablesFull = 8000;
constexpr size_t kTablesTiny = 640;
constexpr double kCyclesPerSecond = 3.0;
constexpr size_t kMinCycles = 4;
/// The initial corpus comes from one fixed generator seed, so every seed
/// starts from the same work; --seed drives the schedule (which runs are
/// removed and replaced, and the appended and replacement tables).
constexpr uint64_t kCorpusSeed = 10000;

ms::SynthesisOptions ChurnOptions() {
  ms::SynthesisOptions o;
  o.min_domains = 1;
  o.min_pairs = 1;
  // Shard-local vocabularies make every column strongly coherent, so this
  // threshold keeps verdicts stable: each mutation pays the corpus-global
  // re-check sweep, and the margin cache decides how much of it touches
  // the index. A threshold inside the score distribution would measure
  // the full-rebuild fallback instead.
  o.extraction.coherence_threshold = 0.05;
  o.num_threads = 1;  // see the file comment
  return o;
}

/// Everything set-up builds: the corpus, the warm session and its family.
struct ChurnState {
  std::unique_ptr<Vocab> vocab;
  ms::Rng rng;
  std::unique_ptr<ms::TableCorpus> corpus;
  std::unique_ptr<ms::SynthesisSession> session;
  Family family;
  bool ok = false;
};

std::unique_ptr<ChurnState> SetUp(const Args& args, size_t n_tables,
                                  size_t shard_block, Tracer& tracer,
                                  Report& report) {
  auto s = std::make_unique<ChurnState>();
  ms::Rng gen_rng(kCorpusSeed);
  s->vocab = args.tiny ? std::make_unique<Vocab>(6400, 1600, gen_rng, true)
                       : std::make_unique<Vocab>(30000, 4000, gen_rng, true);
  s->corpus = std::make_unique<ms::TableCorpus>();
  GrowSharded(s->corpus.get(), n_tables, *s->vocab, gen_rng, shard_block, 0);
  s->rng = ms::Rng(args.seed);
  s->session = std::make_unique<ms::SynthesisSession>(ChurnOptions());
  s->ok = ColdChain(*s->session, *s->corpus, "", tracer, report, &s->family);
  return s;
}

struct OpLog {
  std::vector<double> wall_ms;
  size_t delta_pairs = 0;
  size_t dirty = 0;
  size_t clean = 0;
  size_t margin_skips = 0;
  size_t margin_rechecks = 0;
  size_t full_rebuilds = 0;

  void Add(double took_ms, const ms::AppendStats& a) {
    wall_ms.push_back(took_ms);
    delta_pairs += a.delta_pairs;
    dirty += a.dirty_components;
    clean += a.clean_components;
    margin_skips += a.margin_skips;
    margin_rechecks += a.margin_rechecks;
    full_rebuilds += a.full_rebuild ? 1 : 0;
  }
};

}  // namespace

void RunChurnSharded(const Args& args, Tracer& tracer, Report& report) {
  const size_t n_tables = args.tiny ? kTablesTiny : kTablesFull;
  const size_t shard_block = n_tables / kShards;
  const size_t batch = n_tables / 100;

  // ------------------------------------------------------------- set-up
  // setup_s is the median of SetupReps set-ups. The first builds the state
  // the schedule runs on; the others build throwaway copies between
  // segments of the schedule, so set-ups and mutations alike are sampled
  // across the whole run: on a shared host, single-thread speed shifts by
  // a fifth for tens of seconds at a time.
  const size_t setup_reps = static_cast<size_t>(SetupReps(args, 3));
  std::vector<double> setup_s, synth_s;
  const auto timed_setup = [&](Tracer& t) {
    const double t0 = NowSeconds();
    std::unique_ptr<ChurnState> s =
        SetUp(args, n_tables, shard_block, t, report);
    setup_s.push_back(NowSeconds() - t0);
    if (s->ok) synth_s.push_back(s->family.synth_s);
    report.Check(s->ok, "churn_sharded: set-up chain completed");
    return s;
  };
  std::unique_ptr<ChurnState> state = timed_setup(tracer);
  if (!state->ok) return;
  ms::TableCorpus& corpus = *state->corpus;
  ms::SynthesisSession& session = *state->session;
  Family& fam = state->family;
  ms::Rng& rng = state->rng;
  const size_t setup_candidates = fam.candidates.num_live();
  if (tracer.enabled()) {
    // The set-up chain's stage metrics, read before mutations move the
    // family; then the same corpus cold at the default thread count, for
    // synth.scaling.
    EmitStageMetrics(tracer, fam, report);
    ms::SynthesisOptions options = ChurnOptions();
    options.num_threads = 0;
    ms::SynthesisSession tn(options);
    Family tn_family;
    report.Check(ColdChain(tn, corpus, ".tN", tracer, report, &tn_family),
                 "churn_sharded: default-thread cold chain completed");
    EmitScalingMetrics(tracer, "", ".tN", report);
  }

  // ------------------------------------------------------- timed schedule
  // With tracing on, cycles run in traced / untraced pairs ordered T U,
  // U T, ...: every mutation costs a little more than the one before (the
  // slot count grows), so a fixed order would bias one side. The overhead
  // of the spans is the median of the pairs' ratios.
  std::vector<uint8_t> dead(corpus.size(), 0);
  OpLog append_log, remove_log, replace_log;
  std::vector<double> pair_ratios;
  double prev_cycle_s = 0.0;
  Tracer off(false);
  bool failed = false;
  size_t cycles = 0;
  const size_t schedule = std::max(
      kMinCycles, static_cast<size_t>(kCyclesPerSecond * args.seconds));
  // Even, so a set-up never splits a traced / untraced pair.
  const size_t segment = std::max<size_t>(2, schedule / setup_reps / 2 * 2);
  while (!failed && cycles < schedule) {
    if (cycles > 0 && cycles % segment == 0 && setup_s.size() < setup_reps &&
        !timed_setup(off)->ok) {
      failed = true;
      break;
    }
    const bool traced = tracer.enabled() && (cycles % 4 == 0 || cycles % 4 == 3);
    Tracer& t = traced ? tracer : off;
    const double cycle_start = NowSeconds();

    // append: grow the tail, then maintain.
    const size_t first_new = corpus.size();
    GrowSharded(&corpus, batch, *state->vocab, rng, shard_block, first_new);
    dead.resize(corpus.size(), 0);
    {
      const double t0 = NowSeconds();
      ms::Result<ms::AppendedArtifacts> r = [&] {
        Span s(t, "mutate.append");
        return session.AppendTables(corpus, first_new, fam.candidates,
                                    fam.blocked, fam.scored, fam.partitions,
                                    fam.result);
      }();
      const double took_ms = (NowSeconds() - t0) * 1e3;
      report.Attempt(r.ok(), "AppendTables: " + r.status().ToString());
      if (!r.ok()) {
        failed = true;
        break;
      }
      append_log.Add(took_ms, r.value().append);
      fam.Adopt(std::move(r).value());
    }
    // remove: a contiguous run of live tables.
    {
      std::vector<uint32_t> ids = TakeLiveRun(&dead, batch, rng);
      const double t0 = NowSeconds();
      ms::Result<ms::AppendedArtifacts> r = [&] {
        Span s(t, "mutate.remove");
        return session.RemoveTables(&corpus, std::move(ids), fam.candidates,
                                    fam.blocked, fam.scored, fam.partitions,
                                    fam.result);
      }();
      const double took_ms = (NowSeconds() - t0) * 1e3;
      report.Attempt(r.ok(), "RemoveTables: " + r.status().ToString());
      if (!r.ok()) {
        failed = true;
        break;
      }
      remove_log.Add(took_ms, r.value().append);
      fam.Adopt(std::move(r).value());
    }
    // replace: another live run, re-crawled as fresh tables at the tail.
    {
      std::vector<uint32_t> ids = TakeLiveRun(&dead, batch, rng);
      ms::TableCorpus delta;
      GrowSharded(&delta, batch, *state->vocab, rng, shard_block,
                  corpus.size());
      const double t0 = NowSeconds();
      ms::Result<ms::AppendedArtifacts> r = [&] {
        Span s(t, "mutate.replace");
        return session.ReplaceTables(&corpus, std::move(ids), delta,
                                     fam.candidates, fam.blocked, fam.scored,
                                     fam.partitions, fam.result);
      }();
      const double took_ms = (NowSeconds() - t0) * 1e3;
      report.Attempt(r.ok(), "ReplaceTables: " + r.status().ToString());
      if (!r.ok()) {
        failed = true;
        break;
      }
      replace_log.Add(took_ms, r.value().append);
      fam.Adopt(std::move(r).value());
      dead.resize(corpus.size(), 0);
    }
    const double cycle_s = NowSeconds() - cycle_start;
    if (tracer.enabled() && cycles % 2 == 1) {
      pair_ratios.push_back(traced ? cycle_s / prev_cycle_s
                                   : prev_cycle_s / cycle_s);
    }
    prev_cycle_s = cycle_s;
    ++cycles;
  }
  report.Check(!failed, "churn_sharded: every mutation succeeded");
  if (failed) return;

  // ------------------------------------------------------ correctness
  {
    ms::SynthesisSession cold(ChurnOptions());
    ms::Result<ms::SynthesisResult> rebuilt = cold.Run(corpus);
    report.Attempt(rebuilt.ok(), "cold rebuild: " + rebuilt.status().ToString());
    std::vector<std::string> want =
        rebuilt.ok() ? Canonical(rebuilt.value().mappings, corpus.pool())
                     : std::vector<std::string>{};
    std::vector<std::string> got = Canonical(fam.result.mappings, corpus.pool());
    if (args.perturb && !got.empty()) got.pop_back();
    report.Check(rebuilt.ok() && got == want,
                 "churn_sharded: maintained mappings equal a cold rebuild "
                 "over the mutated corpus");
  }

  report.Meta("threads", 1.0);
  report.Meta("tables", static_cast<double>(n_tables));
  report.Meta("batch_tables", static_cast<double>(batch));
  report.Meta("candidates", static_cast<double>(setup_candidates));
  report.Meta("mappings", static_cast<double>(fam.result.mappings.size()));
  report.Meta("cycles", static_cast<double>(cycles));
  std::cout << "churn_sharded: " << n_tables << " tables, " << setup_candidates
            << " candidates; " << cycles << " cycles of " << batch
            << "-table batches\n";

  const double append_p50 = Median(append_log.wall_ms);
  const double remove_p50 = Median(remove_log.wall_ms);
  const double replace_p50 = Median(replace_log.wall_ms);
  report.Detail("append_p50_ms", append_p50, "ms");
  report.Detail("remove_p50_ms", remove_p50, "ms");
  report.Detail("replace_p50_ms", replace_p50, "ms");
  if (!tracer.enabled()) {
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("synth_tables_per_s",
                  static_cast<double>(n_tables) / Median(synth_s), "tables/s");
    // The schedule issues the three kinds equally often; their costs form
    // three clusters, so one median over all of them would sit in whichever
    // cluster is in the middle. Each kind gets its own, weighted equally.
    report.Metric("op_p50_ms", (append_p50 + remove_p50 + replace_p50) / 3,
                  "ms");
    return;
  }

  // ---------------------------------------------------- per-layer metrics
  const auto cpu = [&](const char* n) {
    return MedianOf(tracer.Spans(n), &Usage::cpu_s);
  };
  report.Detail("mutate.append.cpu_s", cpu("mutate.append"), "s");
  report.Detail("mutate.remove.cpu_s", cpu("mutate.remove"), "s");
  report.Detail("mutate.replace.cpu_s", cpu("mutate.replace"), "s");
  size_t ops = 0, delta_pairs = 0, dirty = 0, clean = 0, skips = 0,
         rechecks = 0, rebuilds = 0;
  for (const OpLog* log : {&append_log, &remove_log, &replace_log}) {
    ops += log->wall_ms.size();
    delta_pairs += log->delta_pairs;
    dirty += log->dirty;
    clean += log->clean;
    skips += log->margin_skips;
    rechecks += log->margin_rechecks;
    rebuilds += log->full_rebuilds;
  }
  const auto ratio = [](size_t a, size_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  report.Detail("mutate.delta_pairs", ratio(delta_pairs, ops), "pairs/op");
  report.Detail("mutate.dirty_ratio", ratio(dirty, dirty + clean), "ratio");
  report.Detail("mutate.margin_skip_ratio", ratio(skips, skips + rechecks),
                "ratio");
  report.Detail("mutate.full_rebuilds", static_cast<double>(rebuilds), "count");
  report.Metric("obs.trace_overhead_frac", Median(pair_ratios) - 1.0, "ratio");
}

}  // namespace perfbench
