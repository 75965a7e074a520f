// The five synthesis stages driven one public call at a time, each under a
// span, and the per-layer metrics read off those spans and the returned
// artifacts. Shared by the workloads that synthesize cold.
#pragma once

#include <string>

#include "harness.h"
#include "synth/session.h"

namespace perfbench {

/// The artifact family of one synthesis chain.
struct Family {
  ms::CandidateSet candidates;
  ms::BlockedPairs blocked;
  ms::ScoredGraph scored;
  ms::Partitions partitions;
  ms::SynthesisResult result;
  /// Wall time of the whole chain and of its score stage, measured with
  /// tracing on or off.
  double synth_s = 0.0;
  double score_s = 0.0;

  /// Adopts the family an incremental mutation returned.
  void Adopt(ms::AppendedArtifacts&& a);
};

/// Runs extract → block → score → partition → resolve on `session`, with
/// spans named `<stage><suffix>` inside one `synth<suffix>` span. Returns
/// false (after recording the failed operation) when a stage fails.
bool ColdChain(ms::SynthesisSession& session, const ms::TableCorpus& corpus,
               const std::string& suffix, Tracer& tracer, Report& report,
               Family* out);

/// extract.*, block.*, score.*, partition.* and resolve.* metrics: stage
/// walls and CPU from the tracer's spans (median over chains), counts from
/// `family`.
void EmitStageMetrics(const Tracer& tracer, const Family& family,
                      Report& report);

/// `<stage>.wall_s.t1` from the chains traced with suffix `t1_suffix` (run
/// at one thread) and synth.scaling, their median chain wall over that of
/// the chains traced with `tn_suffix` (run at the default thread count).
void EmitScalingMetrics(const Tracer& tracer, const std::string& t1_suffix,
                        const std::string& tn_suffix, Report& report);

}  // namespace perfbench
