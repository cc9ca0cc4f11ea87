// End-to-end benchmark of the decoder farm: one command, three workloads.
//
//   ldpc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each exists):
//   mixed_saturated  closed-loop mixed-standard stream, both serving paths
//   nr_ber_sim       sim::Simulator on rate-matched NR BG1 z=384
//   storage_retry    the NAND read-retry ladder through run_storage_live
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// three times (untraced, traced, untraced), prints the traced run's
// per-layer metrics plus its overhead against the untraced runs, and writes
// the spans to .bench_build/perfbench-trace/<workload>-seed<n>.json.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a `host {...}` line. The exit code is non-zero when any
// output fails its correctness check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ldpc_perfbench: " << why
            << "\nusage: ldpc_perfbench --workload "
               "<mixed_saturated|nr_ber_sim|storage_retry> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0) || opt.seconds > 60.0)
    usage("--seconds must be in (0, 60]");
  return opt;
}

Outcome run(const Options& opt, Trace& trace) {
  if (opt.workload == "mixed_saturated") return run_mixed(opt, trace);
  if (opt.workload == "nr_ber_sim") return run_nr_sim(opt, trace);
  if (opt.workload == "storage_retry") return run_storage(opt, trace);
  usage("unknown workload " + opt.workload);
}

/// The end-to-end figure tracing overhead is judged on: the cost per unit
/// of work of the workload's headline metric.
double headline_cost(const std::string& workload, const Outcome& o) {
  const auto& e = o.end_to_end;
  if (workload == "storage_retry") return 1.0 / e.at("pages_per_s").value;
  return 1.0 / e.at("frames_per_s").value;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::ostringstream s;
  s << '{';
  bool first = true;
  for (const auto& [name, m] : metrics) {
    s << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
      << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  s << '}';
  return s.str();
}

std::string host_json(const Options& opt,
                      std::map<std::string, std::string> host) {
  host["workload"] = opt.workload;
  host["seed"] = std::to_string(opt.seed);
  host["seconds"] = number(opt.seconds);
  host["trace"] = opt.trace ? "1" : "0";
  std::ostringstream s;
  s << '{';
  bool first = true;
  for (const auto& [k, v] : host) {
    s << (first ? "" : ", ") << '"' << k << "\": \"" << json_escape(v)
      << '"';
    first = false;
  }
  s << '}';
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Outcome result;
  std::map<std::string, std::string> host = host_record();
  Trace trace(opt.trace);
  try {
    if (!opt.trace) {
      result = run(opt, trace);
    } else {
      // Untraced, traced, untraced: the overhead compares the traced run
      // with the mean of the runs around it, so in-process warm-up drift
      // does not read as (negative) tracing cost.
      Trace off(false);
      const Outcome before = run(opt, off);
      result = run(opt, trace);
      result.per_layer["codes.build_ms"] = {
          median(trace.durations_us("codes.build")) * 1e-3, "ms"};
      const Outcome after = run(opt, off);
      for (const Outcome* o : {&before, &after}) {
        result.attempted += o->attempted;
        result.failed += o->failed;
        result.correct = result.correct && o->correct;
      }
      const double untraced_cost = 0.5 * (headline_cost(opt.workload, before) +
                                          headline_cost(opt.workload, after));
      result.per_layer["bench.trace_overhead_frac"] = {
          headline_cost(opt.workload, result) / untraced_cost - 1.0, "frac"};
    }
  } catch (const std::exception& e) {
    std::cerr << "ldpc_perfbench: " << opt.workload << " aborted: "
              << e.what() << "\n";
    return 1;
  }
  fill_bypassed_layers(result);
  for (const auto& [k, v] : result.host) host[k] = v;
  const std::string host_line = host_json(opt, host);
  const auto& metrics = opt.trace ? result.per_layer : result.end_to_end;

  if (opt.trace) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(".bench_build") / "perfbench-trace";
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path file =
        dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".json");
    trace.write(file.string(), host_line, metrics_json(metrics));
    std::cout << "trace " << file.string() << "\n";
  }
  std::cout << "host " << host_line << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return result.correct ? 0 : 1;
}
