// The streaming decoder farm: dispatching a mixed-standard job stream
// across N modeled decoder chips.
//
// Each worker is one arch::DecoderChip (universal dimensions, so every
// registered mode fits) behind an arch::FramePipeline whose
// FramePipelineStats is the worker's ledger. The scheduler is a
// deterministic discrete-event simulation over modeled cycles: workers
// advance a free-at clock, jobs wait in ready queues, and every decode
// runs the real bit-accurate datapath — so per-frame hard decisions and
// iteration counts depend only on the job's (seed, id), never on the
// policy or the worker count (test-locked), while the *timing* outcomes
// (latency, stalls, reconfigurations, utilization) are exactly what the
// policy is being judged on.
//
// Policies:
//   kFifo    strict arrival order — the baseline. A mixed stream makes
//            the chip reconfigure on nearly every frame.
//   kBinned  reconfiguration-cost-aware: a worker keeps draining jobs of
//            its currently configured mode (amortising
//            FramePipelineConfig::reconfigure_cycles over a bin), until
//            the oldest queued job has waited max_bin_delay_cycles — then
//            that job is served regardless, bounding queue delay.
//
// With max_burst > 1 a worker drains up to that many same-mode jobs per
// dispatch through FramePipeline::decode_burst_quantised (one
// reconfiguration, and the continuous SIMD lane-refill kernel when the
// decoder config selects min-sum). Frames of a double-emitting source are
// quantised once per frame (sim::quantise_llrs under `decoder`) when the
// burst is built, so the farm has a single ingest domain.
#pragma once

#include <string>

#include "ldpc/arch/frame_pipeline.hpp"
#include "ldpc/core/datapath.hpp"
#include "ldpc/stream/stream_types.hpp"
#include "ldpc/stream/traffic.hpp"

namespace ldpc::stream {

enum class Policy { kFifo, kBinned };

std::string to_string(Policy policy);

struct SchedulerConfig {
  int workers = 1;
  Policy policy = Policy::kFifo;
  /// kBinned: longest a queued job may wait (modeled cycles) before it is
  /// served regardless of the binning preference.
  long long max_bin_delay_cycles = 1'000'000;
  /// Same-mode jobs a worker may drain per dispatch through the batch
  /// datapath. 1 = frame at a time.
  int max_burst = 1;
  arch::FramePipelineConfig pipeline{};
  core::DecoderConfig decoder{};
};

// StreamJob and StreamReport (the shared per-job record and composed
// ledger vocabulary, also produced by stream::DecodeService) live in
// ldpc/stream/stream_types.hpp.

struct ClosedLoopPolicy;
class SessionCarry;
StreamReport run_closed_loop_modeled(TrafficSource& source,
                                     SchedulerConfig config,
                                     long long sessions,
                                     const ClosedLoopPolicy& policy);

class StreamScheduler {
 public:
  /// The scheduler references `source` (job metadata and frame synthesis);
  /// the caller keeps it alive. Throws std::invalid_argument for a
  /// non-positive worker count / burst size or a negative delay bound.
  StreamScheduler(TrafficSource& source, SchedulerConfig config);

  /// Draws `jobs` jobs from the source and runs the farm to completion.
  /// `jobs == 0` is valid and yields an empty report (zero jobs, one
  /// empty ledger per worker, all-zero percentiles/occupancy); a negative
  /// count throws std::invalid_argument.
  StreamReport run(long long jobs);

  const SchedulerConfig& config() const noexcept { return config_; }

 private:
  // The closed-loop driver's hand-off (harq_stream.hpp): with `carry`,
  // frames are synthesised from the carried session states and the
  // states of sessions that go again stay in the table for the next
  // generation.
  friend StreamReport run_closed_loop_modeled(TrafficSource&,
                                              SchedulerConfig, long long,
                                              const ClosedLoopPolicy&);
  StreamReport run(long long jobs, SessionCarry* carry);

  TrafficSource& source_;
  SchedulerConfig config_;
};

}  // namespace ldpc::stream
