// Closed-loop serving: per-session feedback driven through BOTH serving
// paths of `src/stream`, shared by HARQ (this header) and the storage
// read-retry ladder (storage/storage_stream.hpp). A workload is a small
// ClosedLoopPolicy — ACK rule, round budget, modeled feedback delay,
// traffic class — over one pair of drivers:
//
//   run_closed_loop_modeled  generation-by-generation over StreamScheduler:
//                     draw one generation of sessions, decode it on the
//                     modeled farm, feed every NACK with budget left back
//                     into the TrafficSource as the session's next round
//                     (TrafficSource::push_retransmission, arriving
//                     decode-finish + feedback-delay cycles later), and run
//                     the next generation — until every session ACKs or
//                     exhausts its budget. Generations serialise on the
//                     modeled clock (a round-r attempt never competes with
//                     round-(r-1) work), which keeps the discrete-event
//                     model deterministic.
//
//   run_closed_loop_live     the same loop against the wall-clock
//                     DecodeService, split over two kinds of thread. The
//                     completing worker applies the ACK rule in the
//                     service's on_complete hook and, on a NACK with
//                     budget left, synthesises the session's next round
//                     (combined soft state, quantised ingest) itself and
//                     hands the ready request to the driver. The driver
//                     thread synthesises and submits round-0 frames and,
//                     between its own submits, submits the ready
//                     escalations. Workers never submit, so admission
//                     backpressure cannot deadlock the farm.
//
// Both drivers carry each open session's combined soft state
// (SessionState) from round to round, so a round-r frame is the carried
// per-round step TrafficSource::make_frame(job, state) — one new channel
// read on top of rounds 0..r-1 — rather than a replay of every round.
// The live driver opens a session's state before submitting its round 0;
// afterwards only the thread holding the session's single in-flight
// request touches it (the completing worker advances or releases it; the
// driver releases it on a refused submit), and the admission queue and
// the feedback mutex order those hand-offs. A state is released when its
// session resolves, so the carried memory is bounded by the open
// sessions, and StreamReport::harq reports its high-water marks.
//
// Both paths decode a round-r attempt from the SAME combined
// core::QuantisedFrame (the carried step equals the pure
// make_frame(job), which replays it, byte for byte) under the SAME chip
// layer order, so per-(session, round) decode results — decision hash,
// iterations, convergence — are bit-identical between the modeled and
// live paths and across worker counts; only timelines differ. Both fill
// the report's StreamReport::harq block: sessions/delivered/goodput and
// per-round attempt/ACK/latency tallies under the policy's ACK rule.
//
// HARQ is the policy {ACK = converged, max_rounds, feedback delay,
// best-effort class}: each round retransmits the next redundancy version.
#pragma once

#include "ldpc/stream/decode_service.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "ldpc/stream/stream_types.hpp"
#include "ldpc/stream/traffic.hpp"

namespace ldpc::stream {

/// What distinguishes one closed-loop workload from another.
struct ClosedLoopPolicy {
  /// ACK rule: true when a decode ends its session. A NACK with round
  /// budget left re-enters the source as the session's next round.
  bool (*ack)(const StreamJob&) = nullptr;
  /// Rounds per session, >= 1.
  int max_rounds = 1;
  /// Modeled feedback delay: a NACKed session's next round arrives this
  /// many cycles after the failed decode finished (modeled path only; the
  /// live path's turnaround is the real wall clock).
  long long feedback_delay_cycles = 0;
  /// Traffic class of every live request.
  TrafficClass cls = TrafficClass::kBestEffort;
};

/// Runs `sessions` sessions through the modeled farm under `policy`. The
/// source must emit quantised frames (rounds > 0 carry combined soft
/// state — TrafficSource::emit_quantised with the scheduler's decoder
/// config) and must hold no pending retransmissions (the driver owns the
/// draw order; with max_rounds > 1 such a source throws
/// std::logic_error); its cursor need not be at 0. A session pushed back
/// to the next generation keeps its soft state, so each round costs one
/// channel read.
/// Returns the merged report: job records of every round (ordered by id),
/// summed ledgers, the makespan of the last generation, and the filled
/// StreamReport::harq. Throws std::invalid_argument for a negative
/// session count, a null ACK rule, max_rounds < 1 or a negative delay,
/// and std::logic_error for a source without quantised emission.
StreamReport run_closed_loop_modeled(TrafficSource& source,
                                     SchedulerConfig config,
                                     long long sessions,
                                     const ClosedLoopPolicy& policy);

/// The live counterpart over DecodeService. `service_config.on_complete`
/// must be empty (the driver installs its own feedback hook); the decoder
/// config must match the source's quantised-emission config for the
/// served frames to be the modeled path's bit-identical twins. Round
/// latencies land in StreamReport::harq in wall nanoseconds. Escalation
/// frames are synthesised on the decoding workers from the session's
/// carried state, so the source's make_frame (and any RungSynth behind
/// it) runs concurrently with itself and with the driver's next(). Job
/// ids are unique within the run: escalations are numbered after the
/// round-0 ids drawn, wherever the source's cursor stood; a source
/// holding pending retransmissions is refused with std::logic_error.
/// Throws std::runtime_error when no completion arrives within 30 s
/// (naming the sessions outstanding, the submitted and completed counts
/// and the ready-queue depth); an exception thrown while synthesising an
/// escalation is rethrown here as soon as the driver sees it.
StreamReport run_closed_loop_live(TrafficSource& source,
                                  ServiceConfig service_config,
                                  long long sessions,
                                  const ClosedLoopPolicy& policy);

struct HarqStreamConfig {
  /// HARQ rounds per session, >= 1 (1 = one-shot, no feedback).
  int max_rounds = 4;
  /// Modeled ACK/NACK feedback delay: a NACKed session's next round
  /// arrives this many cycles after the failed decode finished (modeled
  /// path only; the live path's feedback latency is the real wall clock).
  long long feedback_delay_cycles = 0;
};

/// Closed-loop HARQ over the modeled farm: run_closed_loop_modeled with
/// ACK = converged.
StreamReport run_harq_modeled(TrafficSource& source, SchedulerConfig config,
                              long long sessions, HarqStreamConfig harq);

/// Closed-loop HARQ over DecodeService: run_closed_loop_live with
/// ACK = converged.
StreamReport run_harq_live(TrafficSource& source,
                           ServiceConfig service_config, long long sessions,
                           HarqStreamConfig harq);

}  // namespace ldpc::stream
