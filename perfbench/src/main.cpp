// jmh_perfbench: the measuring half of the repo benchmark. perfbench/run.py
// builds it, runs it, and turns its output into the benchmark's result line.
//
//   jmh_perfbench --workload mpi_large|inline_large|service_mix --seed N
//                 --seconds S [--trace 0|1] [--setup-only]
//                 [--trace-out FILE] [--saturate]
//
// Output (stdout), one line each:
//   PB_READY <t>      steady-clock seconds when set-up ended, right before
//                     the first timed request (same clock as Python's
//                     time.monotonic, so the parent can time set-up from
//                     its own spawn)
//   PB_RESULT {...}   attempted / failed / end-to-end / per-layer metrics,
//                     context, failure reasons and the build record
//
// --saturate (service_mix) submits a whole schedule at once and reports the
// service's saturation throughput, the measurement behind the frozen
// arrival rate (METHODOLOGY.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
}

void json_metrics(std::string& out, const char* key, const MetricSet& set) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, m] : set.items()) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", m.first);
    out += first ? "\"" : ",\"";
    out += name + "\":{\"value\":" + (std::isfinite(m.first) ? buf : "null") +
           ",\"unit\":\"" + m.second + "\"}";
    first = false;
  }
  out += "}";
}

/// This process's peak resident set in MB: VmHWM from /proc/self/status.
/// (getrusage's ru_maxrss survives exec, so under a launcher it can report
/// the launcher's peak instead of ours.) 0 when the file is unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "jmh_perfbench: %s\nusage: jmh_perfbench --workload mpi_large|inline_large|"
               "service_mix --seed N --seconds S [--trace 0|1] [--setup-only] "
               "[--trace-out FILE] [--saturate]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "jmh_perfbench: refusing to measure a build with assertions on "
                       "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               JMH_PB_BUILD_TYPE);
  return 3;
#endif
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      opt.setup_only = true;
    } else if (arg == "--saturate") {
      opt.saturate = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  SpanRecorder recorder;
  if (opt.trace) SpanRecorder::install(&recorder);
  const ReadyFn ready = [] {
    const double t = std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
    std::printf("PB_READY %.9f\n", t);
    std::fflush(stdout);
  };

  Outcome out;
  try {
    if (opt.workload == "mpi_large" || opt.workload == "inline_large")
      out = run_closed_loop(opt, ready);
    else if (opt.workload == "service_mix")
      out = run_service_mix(opt, ready);
    else
      return usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jmh_perfbench: %s\n", e.what());
    return 1;
  }
  SpanRecorder::install(nullptr);
  if (opt.setup_only) return 0;

  out.info.set("pm_tie_columns", out.pm_tie_columns, "count");
  out.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (opt.trace) {
    for (const auto& [layer, self_ms] : recorder.self_ms_by_layer())
      out.info.set("self_ms." + layer, self_ms, "ms");
    if (!opt.trace_out.empty() && !recorder.write_chrome_trace(opt.trace_out))
      std::fprintf(stderr, "jmh_perfbench: could not write %s\n", opt.trace_out.c_str());
  }

  std::string json = "{\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) + ",";
  json_metrics(json, "e2e", out.e2e);
  json += ",";
  json_metrics(json, "layer", out.layer);
  json += ",";
  json_metrics(json, "info", out.info);
  json += ",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    json += i == 0 ? "\"" : ",\"";
    json_escape(json, out.failures[i]);
    json += "\"";
  }
  json += "],\"build\":{\"type\":\"" JMH_PB_BUILD_TYPE "\",\"flags\":\"" JMH_PB_CXX_FLAGS
          "\",\"compiler\":\"" JMH_PB_COMPILER "\"}}";
  std::printf("PB_RESULT %s\n", json.c_str());
  return 0;
}
