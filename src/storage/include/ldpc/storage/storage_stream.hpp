// Storage read-path serving: the NAND read-retry ladder routed through
// BOTH serving paths of `src/stream` as one more policy of the shared
// closed-loop drivers (stream::run_closed_loop_{modeled,live}, see
// stream/harq_stream.hpp): one round per read rung, ACK = delivered,
// feedback delay = the modeled escalation delay, requests tagged
// stream::TrafficClass::kStorage. Every frame whose decode was NOT
// delivered (CRC veto, or no codeword and no repair) escalates to the
// next read rung. This file adds only the storage preconditions (an outer
// CRC on every mode) and the RetryLadderLedger fill.
//
// Delivery rule (the ACK of the storage loop): crc_ok && (converged ||
// crc_repaired). A round-r job is read rung r; its frame carries the
// Chase-combined soft state of rungs 0..r (TrafficSource custom modes
// accumulate rung LLRs in the double domain and quantise once), so per-
// (frame, rung) decode results are bit-identical between the two paths
// and across worker counts — only timelines differ. Both drivers carry
// each open page's soft state, so an escalation to rung r performs one
// rung read (the RungSynth call for rung r), not r + 1.
//
// Results: the familiar StreamReport (harq block re-used as the per-rung
// attempts/deliveries/latency tally) plus the RetryLadderLedger with
// read/decode costs and the residual-bit-error UBER numerator.
#pragma once

#include "ldpc/storage/read_retry.hpp"
#include "ldpc/stream/decode_service.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "ldpc/stream/traffic.hpp"

namespace ldpc::storage {

struct StorageStreamConfig {
  /// Ladder the source's RungSynth models; the driver uses it for the
  /// rung budget (max rounds) and the ledger's per-rung read costs.
  NandLadderConfig ladder = default_ladder();
  /// Modeled escalation turnaround: a non-delivered frame's next rung
  /// arrives this many cycles after its decode finished (modeled path
  /// only; the live path's turnaround is the real wall clock).
  long long escalation_delay_cycles = 0;
};

/// A storage serving run: the per-job report (report.harq re-used as the
/// per-rung serving tally, ACK == delivered) plus the retry-ladder
/// ledger. Ledger decode_iterations/read costs are path-independent;
/// decode_cycles is modeled-path only.
struct StorageRunResult {
  stream::StreamReport report;
  RetryLadderLedger ledger;
};

/// Runs `frames` storage frames through the modeled farm with closed-
/// loop rung escalation. The source must emit quantised frames and every
/// registered mode must carry an outer CRC (add_custom_mode with a
/// non-kNone FrameCrc); throws std::logic_error / std::invalid_argument
/// otherwise.
StorageRunResult run_storage_modeled(stream::TrafficSource& source,
                                     stream::SchedulerConfig config,
                                     long long frames,
                                     StorageStreamConfig storage);

/// The live counterpart over stream::DecodeService; requests are tagged
/// TrafficClass::kStorage, so same-mode reads share engine bins.
/// `service_config.on_complete` must be empty (the driver owns the
/// escalation hook). The worker that completes a non-delivered read
/// synthesises the next rung's frame from the page's carried soft state,
/// so the source's RungSynth runs concurrently on several threads; an
/// exception it throws is rethrown here. Back-to-back runs on one source
/// without reset() serve the stream's next pages (ids stay unique).
StorageRunResult run_storage_live(stream::TrafficSource& source,
                                  stream::ServiceConfig service_config,
                                  long long frames,
                                  StorageStreamConfig storage);

}  // namespace ldpc::storage
