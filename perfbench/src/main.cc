// perfbench: the repository benchmark binary.
//
//   perfbench --workload <web_cold|churn_sharded|serve_rw> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--perturb]
//             [--work-dir <dir>] [--source-id <rev>]
//
// Prints progress lines, a details line (figures only this workload has), a
// metadata line, and as its last line one JSON object {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the per-layer ones from the benchmark's
// own spans. Every workload emits the same metrics. Exits 1 when a
// correctness check failed and 2 on a usage error. perfbench/run.py builds
// and runs it.
#include <sys/stat.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <web_cold|churn_sharded|serve_rw>"
               " --seed <n> --seconds <s> --trace <0|1> [--tiny] [--perturb]"
               " [--work-dir <dir>] [--source-id <rev>]\n";
  return 2;
}

/// mkdir -p.
bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else if (flag == "--workload" || flag == "--seed" ||
               flag == "--seconds" || flag == "--trace" ||
               flag == "--work-dir" || flag == "--source-id") {
      const char* v = value();
      if (v == nullptr) return Usage("missing value for " + flag);
      char* end = nullptr;
      if (flag == "--workload") {
        args.workload = v;
      } else if (flag == "--work-dir") {
        args.work_dir = v;
      } else if (flag == "--source-id") {
        args.source_id = v;
      } else if (flag == "--seed") {
        args.seed = std::strtoull(v, &end, 10);
      } else if (flag == "--seconds") {
        args.seconds = std::strtod(v, &end);
      } else {
        const std::string t = v;
        if (t != "0" && t != "1") return Usage("--trace takes 0 or 1");
        args.trace = t == "1";
      }
      if (end != nullptr && (*end != '\0' || end == v)) {
        return Usage("bad number for " + flag + ": " + v);
      }
    } else {
      return Usage("unknown argument " + flag);
    }
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  if (!MakeDirs(args.work_dir)) {
    std::cerr << "perfbench: cannot create " << args.work_dir << ": "
              << std::strerror(errno) << "\n";
    return 2;
  }

  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  if (args.workload == "web_cold") {
    perfbench::RunWebCold(args, tracer, report);
  } else if (args.workload == "churn_sharded") {
    perfbench::RunChurnSharded(args, tracer, report);
  } else if (args.workload == "serve_rw") {
    perfbench::RunServeRw(args, tracer, report);
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }

  if (args.trace) {
    report.Metric("error_rate", report.error_rate(), "ratio");
    const std::string path = args.work_dir + "/trace_" + args.workload +
                              "_" + std::to_string(args.seed) + ".json";
    if (tracer.Write(path)) {
      std::cout << "spans written to " << path << "\n";
    } else {
      std::cerr << "perfbench: could not write " << path << "\n";
    }
  } else {
    report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  }
  report.Print(args);
  return report.correct() ? 0 : 1;
}
