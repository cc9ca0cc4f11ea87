// Tallies over the two serving paths' public reports, shared by the
// workloads that drive them (mixed_saturated and storage_retry).
#pragma once

#include <vector>

#include "bench.hpp"
#include "ldpc/stream/stream_types.hpp"

namespace perfbench {

/// The modeled chip farm (StreamScheduler / run_storage_modeled): host
/// time of every timed run plus the simulated ledgers of the reference
/// pass (repeat passes decode the same frames, so their ledgers would only
/// repeat it).
struct ModelTally {
  std::vector<double> host_fps;  // one sample per pass over the frames
  long long pass_frames = 0;     // the open pass so far
  double pass_seconds = 0.0;
  long long frames = 0;
  long long payload_bits = 0;
  long long makespan_cycles = 0;
  long long decode_cycles = 0;   // chip cores computing
  long long elapsed_cycles = 0;  // computing + stalled on I/O or config
  long long reconfigurations = 0;
  long long iterations = 0;

  /// Folds one run of the open pass (its host seconds; its ledgers when
  /// `ledgers`).
  void add(const ldpc::stream::StreamReport& report, double host_seconds,
           bool ledgers);
  /// Closes the open pass: one host_fps sample over all its runs.
  void end_pass();
  /// model_frames_per_s / model_payload_gbps.
  void emit_end_to_end(Outcome& out) const;
  /// arch.model_us_per_frame / arch.model_reconfigs / arch.model_occupancy.
  void emit_per_layer(Outcome& out) const;
};

/// The live DecodeService: everything the public StreamJob timestamps and
/// report counters say about a pass, pooled over timed passes.
struct ServiceTally {
  int workers = 0;
  int lanes = 0;
  std::vector<double> queue_wait_us;   // start - submit, per job
  std::vector<double> bin_frames;      // frames per decode_bin call
  std::vector<double> bin_decode_us;   // span of each decode_bin call
  std::vector<double> busy_frac;       // per pass
  std::vector<double> finish_ms;       // finish() call, per pass
  long long frames = 0;
  long long reconfigurations = 0;
  long long steals = 0;

  /// Folds one finished pass.
  void add(const ldpc::stream::StreamReport& report);
  /// stream.* per-layer metrics (submit and service-start times come from
  /// the trace).
  void emit_per_layer(Outcome& out, const Trace& trace) const;
};

}  // namespace perfbench
