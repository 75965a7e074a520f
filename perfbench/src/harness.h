// Shared plumbing of the repository benchmark: command-line arguments, the
// result every workload fills (metrics with units, correctness checks,
// attempted/failed operation counts, metadata), quantiles, and the
// benchmark's own trace spans.
//
// Spans are recorded by the benchmark around each public call it makes into
// the library (never inside the library). Each span records wall time and
// the process's user and system CPU time (getrusage), so a stage's CPU can
// be read next to its wall time; with tracing off a span costs one branch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: tiny corpora and short windows, same code paths.
  bool tiny = false;
  /// Self-test hook: corrupts one checked output so the correctness check
  /// must fail.
  bool perturb = false;
  /// Scratch directory inside the checkout (snapshots, corpora, traces).
  std::string work_dir = ".bench_build/perfbench/work";
  /// Source revision recorded in the metadata block.
  std::string source_id = "unknown";
};

/// Wall clock plus process-wide CPU time at one instant.
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;

  static Usage Now();
  Usage operator-(const Usage& o) const {
    return {wall_s - o.wall_s, user_s - o.user_s, sys_s - o.sys_s};
  }
  double cpu_s() const { return user_s + sys_s; }
};

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// In-memory span recorder; written out as JSON when the run ends.
/// Single-threaded: spans are recorded from the thread driving the calls.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  struct Record {
    std::string name;
    int64_t id = 0;
    int64_t parent = -1;  ///< enclosing span's id, -1 at top level
    double start_s = 0.0;
    double end_s = 0.0;
    double user_s = 0.0;
    double sys_s = 0.0;
  };

  /// Opens a span nested in the innermost open one; returns its id.
  int64_t Begin(const std::string& name);
  void End(int64_t id);

  /// Wall and CPU time of each closed span named `name`, in order.
  std::vector<Usage> Spans(const std::string& name) const;

  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<Usage> open_usage_;
  std::vector<int64_t> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// What one workload run produced.
class Report {
 public:
  /// A metric of the result line: one BENCHMARK.json declares, which every
  /// workload emits.
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A figure only this workload has (e.g. churn's per-kind mutation
  /// latencies, serve_rw's server-side percentiles). Printed on the
  /// `{"details": ...}` line before the result, never in the result.
  void Detail(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, double value);
  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation of the workload and whether it failed.
  void Attempt(bool ok, const std::string& what);

  bool correct() const { return correct_; }
  double error_rate() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }
  /// Prints the metadata line, then the result line (last line of stdout).
  void Print(const Args& args) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
  std::vector<Entry> details_;
  std::vector<std::pair<std::string, std::string>> meta_;  ///< JSON values
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Median over `spans` of one field or accessor (e.g. &Usage::wall_s,
/// &Usage::cpu_s).
template <typename Field>
double MedianOf(const std::vector<Usage>& spans, Field field) {
  std::vector<double> v;
  v.reserve(spans.size());
  for (const auto& u : spans) v.push_back(std::invoke(field, u));
  return Median(std::move(v));
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// How many times a workload repeats its set-up (setup_s is the median):
/// `full` at full scale, two in the self-test.
inline int SetupReps(const Args& args, int full) { return args.tiny ? 2 : full; }

// The three workloads (one file each).
void RunWebCold(const Args& args, Tracer& tracer, Report& report);
void RunChurnSharded(const Args& args, Tracer& tracer, Report& report);
void RunServeRw(const Args& args, Tracer& tracer, Report& report);

}  // namespace perfbench
