// Shared machinery of the end-to-end benchmark: clocks, order statistics,
// the span recorder behind the traced run, the run outcome (operation
// accounting + metrics) and the host record.
//
// Every measurement is taken from OUTSIDE the decoder libraries: the
// benchmark times its own calls into their public APIs and reads the
// public StreamJob timestamps. Nothing here reaches into a library's
// internals, so a later change to any layer is measured by the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ldpc/core/datapath.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the benchmark's own steady clock (process-wide epoch).
long long now_ns();

/// CPU time of the calling thread in nanoseconds. Single-threaded phases
/// (the modeled farm is a discrete-event simulation on the caller's thread)
/// are timed on it: it leaves out the time the thread waits for a CPU,
/// including vCPU time the hypervisor gives to other guests.
long long thread_cpu_ns();

/// CPU time of the whole process in nanoseconds. Set-up is timed on it:
/// it runs while no other benchmark thread works, so it counts the set-up
/// work of every thread (including the service's workers starting) and, on
/// an idle host, equals the wall time; unlike the wall time it leaves out
/// vCPU time the hypervisor gives to other guests.
long long process_cpu_ns();

inline double seconds_between(long long t0_ns, long long t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);
/// Nearest-rank percentile of `v`, 0 < p <= 100 (0 for an empty sample).
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// Chip clock of the modeled farm (the paper's 450 MHz design point).
inline constexpr double kChipClockHz = 450e6;

/// Decoder configuration of the wireless workloads: the paper's
/// ten-iteration min-sum chip with hard-decision early termination.
ldpc::core::DecoderConfig wireless_decoder();

/// Span recorder of the traced run. Disabled recorders cost one branch per
/// call site. Spans are kept in memory (every duration feeds the per-layer
/// aggregates; at most kMaxStoredPerName spans per name are kept with full
/// detail for the trace file) and written out when the run ends.
class Trace {
 public:
  static constexpr std::size_t kMaxStoredPerName = 4000;

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// Records span [t0_ns, t1_ns] named `name` (a string literal) under
  /// `parent` (-1 = root) for request `request` (-1 = none). Thread-safe.
  /// Returns the span id (-1 when disabled).
  long long record(const char* name, long long t0_ns, long long t1_ns,
                   long long parent = -1, long long request = -1);
  /// Records a zero-length span now (a phase marker other spans point at).
  long long mark(const char* name) {
    const long long t = enabled_ ? now_ns() : 0;
    return record(name, t, t);
  }
  /// Opens a span now; close() records it.
  struct Scope {
    Trace* trace = nullptr;
    const char* name = nullptr;
    long long t0 = 0;
    long long parent = -1;
    long long close();
  };
  Scope open(const char* name, long long parent = -1) {
    return Scope{this, name, enabled_ ? now_ns() : 0, parent};
  }

  /// Every recorded duration of `name`, in microseconds.
  std::vector<double> durations_us(const std::string& name) const;

  /// Writes host record, per-layer metrics and spans as one JSON document.
  void write(const std::string& path, const std::string& header_json,
             const std::string& metrics_json) const;

 private:
  struct Span {
    const char* name;
    long long id, parent, request, t0, t1;
  };
  bool enabled_;
  mutable std::mutex mu_;
  long long next_id_ = 0;
  std::vector<Span> spans_;
  // Keyed by views of the span-name literals: no allocation per record.
  std::map<std::string_view, std::vector<double>, std::less<>> durations_us_;
  std::map<std::string_view, long long, std::less<>> dropped_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a workload hands back: the operation ledger, the
/// correctness verdict, and both metric families (the printer picks the
/// family the run asked for).
struct Outcome {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Host facts the workload learns while running (lane type/width).
  std::map<std::string, std::string> host;

  /// Counts `count` failed operations and explains them on stderr. A
  /// correctness failure also clears `correct`.
  void fail(const std::string& why, long long count = 1,
            bool incorrect = true);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The benchmark clock `share` of the run's --seconds from now: the end of
/// a measurement phase that owns that share of the run.
inline long long deadline(const Options& opt, double share) {
  return now_ns() + static_cast<long long>(opt.seconds * share * 1e9);
}

/// Workload entry points (one translation unit each).
Outcome run_mixed(const Options& opt, Trace& trace);
Outcome run_nr_sim(const Options& opt, Trace& trace);
Outcome run_storage(const Options& opt, Trace& trace);

/// Adds every per-layer metric the workload did not produce, at 0: the
/// workload bypasses that layer (e.g. nr_ber_sim never reaches src/stream).
void fill_bypassed_layers(Outcome& out);

/// Host record: CPU model, core count, dispatched SIMD tier, build type.
std::map<std::string, std::string> host_record();

}  // namespace perfbench
