// web_cold: the paper's web world synthesized cold through the five
// session stages at the default thread count. Pair scoring does nearly all
// of the work here; serving, persistence and the mutation paths do none.
//
// The corpus is the standard web world every figure of the paper uses
// (generator seed 42: 2,338 tables); --seed permutes the order its tables
// are added in. Generator seeds change the world's size and its blocked
// pair count by up to ±25%, which would swamp any change under test, while
// a permutation changes every id and hash order but not the work.
//
// Set-up builds the permuted corpus (repeated across the run; setup_s is
// the median). A cold run at num_threads = 1 comes next, outside the
// window: its mappings must equal the N-thread ones, and with tracing on
// its stage walls give the *.t1 metrics and synth.scaling. The timed
// window then repeats full cold runs at the default thread count — a fresh
// SynthesisSession each time, so its thread pool and matcher caches start
// cold as a user's first run would — until --seconds have passed, at least
// twice.
#include <algorithm>
#include <iostream>
#include <optional>
#include <thread>

#include "common/random.h"
#include "corpora.h"
#include "corpusgen/generator.h"
#include "eval/metrics.h"
#include "harness.h"
#include "stages.h"

namespace perfbench {
namespace {

/// Mean best-relation F1 of the default configuration; deterministic per
/// seed (0.943 at full scale). The floor sits 5% below it, so losing a
/// few benchmark cases fails the run.
constexpr double kQualityFloorFull = 0.89;
constexpr double kQualityFloorTiny = 0.2;
constexpr size_t kMaxColdRuns = 50;

struct ColdRun {
  bool ok = false;
  double wall_s = 0.0;
  Family family;
};

/// One cold run: a fresh session, then the five stages.
ColdRun RunCold(const ms::TableCorpus& corpus, size_t num_threads,
                const std::string& suffix, Tracer& tracer, Report& report) {
  ColdRun run;
  const double t0 = NowSeconds();
  ms::SynthesisOptions options;
  options.num_threads = num_threads;
  ms::SynthesisSession session(options);
  run.ok = ColdChain(session, corpus, suffix, tracer, report, &run.family);
  run.wall_s = NowSeconds() - t0;
  return run;
}

/// The web world's tables in a seeded order, and its benchmark cases'
/// ground truth re-interned into the permuted corpus's pool.
struct WebInput {
  ms::TableCorpus corpus;
  std::vector<ms::BinaryTable> truth;
};

WebInput MakeInput(const Args& args) {
  ms::GeneratorOptions gen;
  gen.seed = 42;
  gen.popularity_scale = args.tiny ? 0.1 : 1.0;
  const ms::GeneratedWorld world = ms::GenerateWebWorld(gen);
  const ms::StringPool& from = world.corpus.pool();
  ms::Rng rng(args.seed);
  WebInput in;
  AddPermuted(world.corpus, rng, &in.corpus);
  for (const auto& c : world.cases) {
    std::vector<ms::ValuePair> pairs;
    for (const auto& p : c.ground_truth.pairs()) {
      pairs.push_back({in.corpus.pool().Intern(from.Get(p.left)),
                       in.corpus.pool().Intern(from.Get(p.right))});
    }
    in.truth.push_back(ms::BinaryTable::FromPairs(std::move(pairs)));
  }
  return in;
}

double QualityF1(const ms::SynthesisResult& result,
                 const std::vector<ms::BinaryTable>& truth) {
  std::vector<ms::BinaryTable> relations;
  relations.reserve(result.mappings.size());
  for (const auto& m : result.mappings) relations.push_back(m.merged);
  double sum = 0.0;
  for (const auto& t : truth) {
    sum += ms::FindBestRelation(relations, t).score.fscore;
  }
  return truth.empty() ? 0.0 : sum / static_cast<double>(truth.size());
}

}  // namespace

void RunWebCold(const Args& args, Tracer& tracer, Report& report) {
  // ------------------------------------------------------------- set-up
  // A set-up takes ~0.1 s, and on a shared host single-thread speed shifts
  // by up to half in stretches of a second or two. So the set-ups are
  // spread over the run, a third before the single-thread run, a third
  // before the window and a third after it, and setup_s is their median.
  // The later ones build a throwaway copy of the same input.
  std::vector<double> setup_s;
  const int setup_batch = (SetupReps(args, 21) + 2) / 3;
  const auto time_setups = [&](std::optional<WebInput>* into) {
    for (int i = 0; i < setup_batch; ++i) {
      into->reset();
      const double t0 = NowSeconds();
      into->emplace(MakeInput(args));
      setup_s.push_back(NowSeconds() - t0);
    }
  };
  std::optional<WebInput> input;
  time_setups(&input);
  const ms::TableCorpus& corpus = input->corpus;
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());

  // ------------------------------------------- single-thread reference run
  // It runs first, so it also warms the allocator and page cache: the first
  // cold run in a process is otherwise slower than the rest.
  const ColdRun t1 = RunCold(corpus, 1, ".t1", tracer, report);
  report.Check(t1.ok, "web_cold: single-thread run completed");
  {
    std::optional<WebInput> throwaway;
    time_setups(&throwaway);
  }

  // ------------------------------------------------- timed cold repetitions
  // With tracing on, repetitions run in traced / untraced pairs ordered
  // T U, U T, ... so both orders appear, at least two pairs; the span
  // overhead is the median of the pairs' ratios.
  std::vector<ColdRun> runs;
  std::vector<double> pair_ratios;
  Tracer off(false);
  const size_t min_runs = tracer.enabled() ? 4 : 2;
  const double window_start = NowSeconds();
  while (runs.size() < min_runs || (tracer.enabled() && runs.size() % 2 == 1) ||
         (NowSeconds() - window_start < args.seconds &&
          runs.size() < kMaxColdRuns)) {
    const size_t i = runs.size();
    const bool traced = tracer.enabled() && (i % 4 == 0 || i % 4 == 3);
    // num_threads = 0 is the library default (hardware concurrency).
    ColdRun run = RunCold(corpus, 0, "", traced ? tracer : off, report);
    if (!run.ok) break;
    if (tracer.enabled() && i % 2 == 1) {
      const double prev = runs.back().wall_s;
      pair_ratios.push_back(traced ? run.wall_s / prev : prev / run.wall_s);
    }
    runs.push_back(std::move(run));
  }
  {
    std::optional<WebInput> throwaway;
    time_setups(&throwaway);
  }
  report.Check(runs.size() >= min_runs, "web_cold: cold runs completed");
  if (runs.size() < min_runs) return;

  // ------------------------------------------------------ correctness
  const ms::StringPool& pool = corpus.pool();
  std::vector<std::vector<std::string>> canon;
  for (const auto& r : runs) {
    canon.push_back(Canonical(r.family.result.mappings, pool));
  }
  if (args.perturb && !canon[0].empty()) canon[0].pop_back();
  for (size_t i = 1; i < canon.size(); ++i) {
    report.Check(canon[i] == canon[0],
                 "web_cold: repetition " + std::to_string(i) +
                     " mappings identical to repetition 0");
  }
  report.Check(t1.ok && Canonical(t1.family.result.mappings, pool) == canon[0],
               "web_cold: 1-thread mappings identical to N-thread mappings");
  const double quality = QualityF1(runs[0].family.result, input->truth);
  const double floor = args.tiny ? kQualityFloorTiny : kQualityFloorFull;
  report.Check(quality >= floor, "web_cold: quality_f1 " +
                                     std::to_string(quality) + " >= " +
                                     std::to_string(floor));

  std::vector<double> walls;
  for (const auto& r : runs) walls.push_back(r.wall_s);
  const double median_wall = Median(walls);
  const Family& first = runs[0].family;
  report.Meta("threads", static_cast<double>(threads));
  report.Meta("tables", static_cast<double>(corpus.size()));
  report.Meta("candidates", static_cast<double>(first.candidates.num_live()));
  report.Meta("blocked_pairs", static_cast<double>(first.blocked.pairs.size()));
  report.Meta("mappings", static_cast<double>(first.result.mappings.size()));
  report.Meta("cases", static_cast<double>(input->truth.size()));
  report.Meta("cold_runs", static_cast<double>(runs.size()));
  std::cout << "web_cold: " << corpus.size() << " tables -> "
            << first.candidates.num_live() << " candidates, "
            << first.blocked.pairs.size() << " blocked pairs, "
            << first.result.mappings.size() << " mappings, quality_f1 "
            << quality << "; " << runs.size() << " cold runs at " << threads
            << " threads, median " << median_wall << " s; 1 thread "
            << t1.wall_s << " s\n";

  report.Detail("quality_f1", quality, "f1");
  if (!tracer.enabled()) {
    std::vector<double> score_s;
    for (const auto& r : runs) score_s.push_back(r.family.score_s);
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("synth_tables_per_s",
                  static_cast<double>(corpus.size()) / median_wall, "tables/s");
    report.Metric("op_p50_ms", Median(score_s) * 1e3, "ms");
    return;
  }

  // ---------------------------------------------------- per-layer metrics
  EmitStageMetrics(tracer, first, report);
  EmitScalingMetrics(tracer, ".t1", "", report);
  report.Metric("obs.trace_overhead_frac", Median(pair_ratios) - 1.0, "ratio");
}

}  // namespace perfbench
