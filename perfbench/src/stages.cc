#include "stages.h"

#include <string_view>
#include <utility>

namespace perfbench {

void Family::Adopt(ms::AppendedArtifacts&& a) {
  candidates = std::move(a.candidates);
  blocked = std::move(a.blocked);
  scored = std::move(a.scored);
  partitions = std::move(a.partitions);
  result = std::move(a.result);
}

bool ColdChain(ms::SynthesisSession& session, const ms::TableCorpus& corpus,
               const std::string& suffix, Tracer& tracer, Report& report,
               Family* out) {
  Span whole(tracer, "synth" + suffix);
  const double start = NowSeconds();
  // Each stage: span around the public call, then record the attempt.
  const auto stage = [&](const char* name, auto&& call, auto* dest) {
    const double t0 = NowSeconds();
    auto r = [&] {
      Span s(tracer, name + suffix);
      return call();
    }();
    if (std::string_view(name) == "score") out->score_s = NowSeconds() - t0;
    report.Attempt(r.ok(), std::string(name) + ": " + r.status().ToString());
    if (!r.ok()) return false;
    *dest = std::move(r).value();
    return true;
  };
  const bool ok =
      stage("extract", [&] { return session.ExtractCandidates(corpus); },
            &out->candidates) &&
      stage("block", [&] { return session.BlockPairs(out->candidates); },
            &out->blocked) &&
      stage("score",
            [&] { return session.ScorePairs(out->candidates, out->blocked); },
            &out->scored) &&
      stage("partition", [&] { return session.Partition(out->scored); },
            &out->partitions) &&
      stage("resolve",
            [&] {
              return session.Resolve(out->candidates, out->scored,
                                     out->partitions);
            },
            &out->result);
  out->synth_s = NowSeconds() - start;
  return ok;
}

void EmitStageMetrics(const Tracer& tracer, const Family& family,
                      Report& report) {
  const auto wall = [&](const char* n) {
    return MedianOf(tracer.Spans(n), &Usage::wall_s);
  };
  const auto cpu = [&](const char* n) {
    return MedianOf(tracer.Spans(n), &Usage::cpu_s);
  };
  const ms::PipelineStats& st = family.result.stats;
  const ms::MatcherStats& m = st.scoring.matcher;
  const double pairs = static_cast<double>(family.blocked.pairs.size());
  const double mask_lookups =
      static_cast<double>(m.pattern_cache_hits + m.pattern_cache_misses);

  report.Metric("extract.wall_s", wall("extract"), "s");
  report.Metric("extract.cpu_s", cpu("extract"), "s");
  report.Metric("extract.index_s", st.index_seconds, "s");
  report.Metric("extract.candidates",
                static_cast<double>(family.candidates.num_live()), "count");
  report.Metric("block.wall_s", wall("block"), "s");
  report.Metric("block.pairs", pairs, "count");
  report.Metric("block.keys", static_cast<double>(st.blocking_keys), "count");
  report.Metric("score.wall_s", wall("score"), "s");
  report.Metric("score.cpu_s", cpu("score"), "s");
  report.Metric("score.sys_s", MedianOf(tracer.Spans("score"), &Usage::sys_s),
                "s");
  report.Metric("score.match_calls", static_cast<double>(m.match_calls),
                "count");
  report.Metric("score.charmask_rejects",
                static_cast<double>(m.charmask_rejects), "count");
  report.Metric("score.kernel_calls",
                static_cast<double>(m.myers64_calls + m.myers_blocked_calls +
                                    m.banded_calls),
                "count");
  report.Metric("score.mask_cache_hit_ratio",
                mask_lookups > 0
                    ? static_cast<double>(m.pattern_cache_hits) / mask_lookups
                    : 0.0,
                "ratio");
  report.Metric("score.edge_yield",
                pairs > 0 ? static_cast<double>(st.graph_edges) / pairs : 0.0,
                "ratio");
  report.Metric("partition.wall_s", wall("partition"), "s");
  report.Metric("partition.components", static_cast<double>(st.components),
                "count");
  report.Metric("resolve.wall_s", wall("resolve"), "s");
  report.Metric("resolve.mappings",
                static_cast<double>(family.result.mappings.size()), "count");
}

void EmitScalingMetrics(const Tracer& tracer, const std::string& t1_suffix,
                        const std::string& tn_suffix, Report& report) {
  for (const char* stage :
       {"extract", "block", "score", "partition", "resolve"}) {
    report.Metric(std::string(stage) + ".wall_s.t1",
                  MedianOf(tracer.Spans(stage + t1_suffix), &Usage::wall_s),
                  "s");
  }
  const double t1 = MedianOf(tracer.Spans("synth" + t1_suffix), &Usage::wall_s);
  const double tn = MedianOf(tracer.Spans("synth" + tn_suffix), &Usage::wall_s);
  report.Metric("synth.scaling", tn > 0 ? t1 / tn : 0.0, "ratio");
}

}  // namespace perfbench
