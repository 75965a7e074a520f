#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

namespace perfbench {
namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Full-precision JSON number ("with all its digits").
std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {NowSeconds(), TimevalSeconds(ru.ru_utime), TimevalSeconds(ru.ru_stime)};
}

int64_t Tracer::Begin(const std::string& name) {
  Record r;
  r.name = name;
  r.id = static_cast<int64_t>(records_.size());
  r.parent = stack_.empty() ? -1 : stack_.back();
  const Usage u = Usage::Now();
  r.start_s = u.wall_s;
  records_.push_back(std::move(r));
  open_usage_.push_back(u);
  stack_.push_back(records_.back().id);
  return records_.back().id;
}

void Tracer::End(int64_t id) {
  const Usage u = Usage::Now();
  // Spans are RAII-scoped, so the one closing is the innermost open one.
  const Usage d = u - open_usage_.back();
  open_usage_.pop_back();
  stack_.pop_back();
  Record& r = records_[static_cast<size_t>(id)];
  r.end_s = u.wall_s;
  r.user_s = d.user_s;
  r.sys_s = d.sys_s;
}

std::vector<Usage> Tracer::Spans(const std::string& name) const {
  std::vector<Usage> out;
  for (const auto& r : records_) {
    if (r.name == name && r.end_s != 0.0) {
      out.push_back({r.end_s - r.start_s, r.user_s, r.sys_s});
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "  {\"name\": " << JsonString(r.name) << ", \"id\": " << r.id
        << ", \"parent\": " << r.parent
        << ", \"start_s\": " << JsonNumber(r.start_s)
        << ", \"end_s\": " << JsonNumber(r.end_s)
        << ", \"user_s\": " << JsonNumber(r.user_s)
        << ", \"sys_s\": " << JsonNumber(r.sys_s) << "}"
        << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  Check(std::isfinite(value), "detail " + name + " is finite");
  details_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, JsonNumber(value));
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "OPERATION FAILED: " << what << "\n";
}

namespace {

/// {"name": {"value": v, "unit": u}, ...}
template <typename Entries>
std::string MetricsObject(const Entries& entries) {
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(entries[i].name) + ": {\"value\": " +
           JsonNumber(entries[i].value) +
           ", \"unit\": " + JsonString(entries[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::Print(const Args& args) const {
  std::cout << "{\"details\": " << MetricsObject(details_) << "}\n";
  std::string meta = "{\"metadata\": {";
  const auto add = [&meta](const std::string& k, const std::string& v) {
    if (meta.back() != '{') meta += ", ";
    meta += JsonString(k) + ": " + v;
  };
  add("workload", JsonString(args.workload));
  add("seed", std::to_string(args.seed));
  add("seconds", JsonNumber(args.seconds));
  add("trace", args.trace ? "true" : "false");
  add("scale", JsonString(args.tiny ? "tiny" : "full"));
  add("nproc", std::to_string(std::thread::hardware_concurrency()));
#if defined(__clang__)
  add("compiler", JsonString(std::string("clang ") + __clang_version__));
#else
  add("compiler", JsonString(std::string("gcc ") + __VERSION__));
#endif
  add("flags", JsonString(PERFBENCH_CXX_FLAGS));
  add("source", JsonString(args.source_id));
  for (const auto& [k, v] : meta_) add(k, v);
  meta += "}}";
  std::cout << meta << "\n";

  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": " + MetricsObject(metrics_) + "}";
  std::cout << line << std::endl;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
