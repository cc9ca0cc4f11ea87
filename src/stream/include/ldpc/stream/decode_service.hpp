// The live serving path: a wall-clock, multi-threaded decode service over
// the same job vocabulary as the modeled farm.
//
// Where stream::StreamScheduler *simulates* N chips in modeled cycles,
// DecodeService actually runs N worker threads, each owning one
// core::StreamBatchEngine (the continuous SIMD lane-refill engine, over
// the narrowest lane type the decoder config's rails admit, at the
// dispatched SIMD tier's lane width — the service has no shape option)
// and decoding under the SAME optimised layer schedule the chip model
// programs (arch::chip_layer_order at universal chip dimensions). Frame
// content is pure in the submitter's data, the engines are bit-identical
// to the scalar reference for any batching, and the layer order is fixed
// per mode — so per-frame hard decisions and iteration counts cannot
// depend on thread interleaving, queue capacity, bin size or the
// dispatch policy; they equal the modeled scheduler's results for the
// same jobs (test-locked across worker counts / batch sizes / queue
// capacities).
//
// Serving mechanics:
//
//   Admission     one BoundedMpmcQueue<QueuedJob> in front of the farm.
//                 kBlock: submit() blocks while the queue is full
//                 (capacity 0 = rendezvous handoff, the hardest
//                 backpressure). kReject: submit() fails fast; rejected
//                 jobs are tallied (count + payload bits) in the report,
//                 so payload-bit conservation is auditable end to end.
//   Dispatch      workers claim same-mode BINS from the central queue
//                 (one engine reconfiguration per bin, exactly like the
//                 modeled binned policy; a bin holds one non-deadline
//                 class — best-effort or storage — and deadline-class
//                 jobs go one per dispatch) under a selector that runs under
//                 the queue lock: earliest-deadline-first over
//                 deadline-class jobs when the SLO policy is enabled,
//                 then the oldest job when it has waited past
//                 max_bin_delay_ns (no starvation), then the oldest job
//                 of the worker's configured mode. max_bin_delay_ns = 0
//                 disables binning: always the oldest job, one at a time
//                 — with one worker that degenerates to FIFO exactly
//                 (test-locked).
//   Ownership     a claim takes up to two engine batches of one mode;
//                 the claiming worker decodes all of it, the residue
//                 right after the first batch and without another
//                 reconfiguration. Claimed jobs never move between
//                 workers, and an idle worker simply blocks in the
//                 queue's claim() until a job or the close arrives.
//   Shutdown      finish() closes the queue, drains every queued and
//                 claimed job, joins the workers and returns the composed
//                 StreamReport (wall-clock frames/s and per-class p50/p99
//                 latency next to the shared ledger totals).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ldpc/core/datapath.hpp"
#include "ldpc/core/quantised_frame.hpp"
#include "ldpc/stream/mpmc_queue.hpp"
#include "ldpc/stream/stream_types.hpp"
#include "ldpc/stream/traffic.hpp"

namespace ldpc::stream {

/// What submit() does when the admission queue is full: kBlock
/// backpressures the submitter until room frees up, kReject fails fast
/// (the rejection is tallied in the report).
enum class Admission { kBlock, kReject };

/// Lower-case policy name ("block" / "reject") for tables and logs.
std::string to_string(Admission admission);

struct ServiceSlo {
  /// Enables deadline-class EDF dispatch ahead of best-effort binning.
  bool enabled = false;
  /// Deadline granted to a kDeadline job that does not carry its own
  /// (relative to submission, nanoseconds; 0 = no deadline).
  long long default_deadline_ns = 5'000'000;
};

struct ServiceConfig {
  /// Decoding threads, each owning one StreamBatchEngine (must be >= 1).
  int workers = 1;
  /// Central queue bound; 0 = rendezvous handoff (see BoundedMpmcQueue).
  std::size_t queue_capacity = 64;
  /// Full-queue behaviour of submit(); see Admission.
  Admission admission = Admission::kBlock;
  /// Frames a worker decodes per engine dispatch. 0 = the engine's SIMD
  /// lane width (one full vector of frames).
  int max_local_batch = 0;
  /// Bin-dispatch delay bound on the wall clock, the live analogue of
  /// SchedulerConfig::max_bin_delay_cycles: a worker may keep serving its
  /// configured mode until the oldest queued job has waited this long.
  /// 0 = strict oldest-first dispatch, one job at a time.
  long long max_bin_delay_ns = 2'000'000;
  ServiceSlo slo{};
  /// Must be a quantized min-sum-family config (the StreamBatchEngine
  /// contract); the constructor throws otherwise.
  core::DecoderConfig decoder{};
  /// Completion hook: invoked from the decoding worker's thread with each
  /// finished job record, before finish() composes the report. This is
  /// the live ACK/NACK feedback path — a closed-loop driver applies its
  /// ACK rule there and may synthesise the session's next round on the
  /// worker, but must hand the request to a non-worker thread to submit:
  /// a hook that calls submit() under kBlock admission can block the very
  /// worker that would free the queue (see stream::run_closed_loop_live).
  /// The callback must be thread-safe; it runs concurrently from every
  /// worker. An exception it throws fails that worker (finish() rethrows
  /// it). Leave empty for no hook.
  std::function<void(const StreamJob&)> on_complete;
};

/// One decode request. The submitter owns frame synthesis (the service
/// never calls TrafficSource::make_frame; it only reads the mode table):
/// either `quantised` holds the mode's n pre-quantised raw codes
/// (sim::quantise_llrs under the service's decoder config) and `llrs`
/// stays empty — the serving path — or `llrs` holds the mode's
/// transmitted_bits() channel LLRs, which submit() quantises once with
/// sim::quantise_llrs before queueing (bit-identical, and the queue then
/// carries the 4-8x smaller payload either way).
struct ServiceRequest {
  long long id = 0;
  int mode = 0;
  /// HARQ identity, copied into the job record verbatim (the service
  /// itself is round-agnostic: a round-r request simply carries the
  /// combined soft state in `quantised`). Leave session negative to
  /// default it to `id`.
  long long session = -1;
  int round = 0;
  int rv = 0;
  TrafficClass cls = TrafficClass::kBestEffort;
  std::vector<double> llrs;
  core::QuantisedFrame quantised;
  /// Optional: the first payload_bits() bits of the expected codeword;
  /// when present the job's StreamJob::payload_ok is evaluated.
  std::vector<std::uint8_t> expected_payload;
  /// Relative completion deadline (ns from submission) for kDeadline
  /// jobs; 0 = ServiceSlo::default_deadline_ns.
  long long deadline_ns = 0;
};

class DecodeService {
 public:
  /// `source` provides the mode table only (const, thread-safe reads);
  /// the caller keeps it alive for the service's lifetime. Worker threads
  /// start immediately. Throws std::invalid_argument for a non-positive
  /// worker count, negative batch/delay/deadline bounds, or a decoder
  /// config the stream engine rejects (non-min-sum kernel or float
  /// datapath).
  DecodeService(const TrafficSource& source, ServiceConfig config);
  ~DecodeService();

  DecodeService(const DecodeService&) = delete;
  DecodeService& operator=(const DecodeService&) = delete;

  /// Submits one job. kBlock admission waits for queue room (false only
  /// after finish() closed the queue); kReject returns false immediately
  /// when the queue is full — either way a false return is tallied as a
  /// rejected job in the report. Throws std::invalid_argument for an
  /// unknown mode, an LLR buffer that is not transmitted_bits() long, both
  /// payloads at once, or a quantised frame failing
  /// QuantisedFrame::valid_for(code.n()) — a malformed request never
  /// reaches a worker.
  bool submit(ServiceRequest request);

  /// Closes admission, drains every pending job, joins the workers and
  /// returns the report (jobs ordered by id). Single-shot: a second call
  /// throws std::logic_error. Worker exceptions (from a mid-decode
  /// failure) are rethrown here.
  StreamReport finish();

  const ServiceConfig& config() const noexcept { return config_; }
  /// Lane width of the workers' engines (after auto-selection).
  int engine_lanes() const noexcept { return engine_lanes_; }

 private:
  struct QueuedJob {
    ServiceRequest req;
    long long submit_ns = 0;
    long long deadline_abs_ns = 0;  // absolute on the service clock; 0 = none
  };
  struct Worker;

  void worker_main(int index);
  std::size_t claim(const Worker& w, std::vector<QueuedJob>& claimed);
  void decode_bin(int index, std::span<const QueuedJob> bin);
  std::size_t select_index(const std::deque<QueuedJob>& q, long long now,
                           int worker_mode) const;
  long long now_ns() const;
  void shutdown();

  const TrafficSource& source_;
  ServiceConfig config_;
  int engine_lanes_ = 0;
  int batch_ = 0;  // frames per engine dispatch
  std::vector<std::vector<int>> orders_;  // per-mode chip layer order
  std::chrono::steady_clock::time_point epoch_;

  BoundedMpmcQueue<QueuedJob> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<long long> rejected_jobs_{0};
  std::atomic<long long> rejected_payload_bits_{0};
  std::atomic<long long> finish_seq_{0};
  std::atomic<long long> first_submit_ns_{-1};
  std::atomic<long long> last_finish_ns_{-1};
  std::atomic<bool> finished_{false};
};

}  // namespace ldpc::stream
