#include "ldpc/storage/storage_stream.hpp"

#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "ldpc/stream/harq_stream.hpp"

namespace ldpc::storage {

namespace {

using stream::StreamJob;
using stream::TrafficSource;

/// The storage ACK rule: CRC-clean, either as a codeword or through the
/// bounded bit-flip repair.
bool delivered(const StreamJob& rec) {
  return rec.crc_ok && (rec.converged || rec.crc_repaired);
}

/// Storage-only preconditions (the closed-loop driver checks the rest)
/// and the ladder they admit.
NandReadLadder validated_ladder(const TrafficSource& source,
                                const StorageStreamConfig& storage) {
  if (source.mode_count() == 0)
    throw std::logic_error("run_storage: source has no modes");
  for (int m = 0; m < source.mode_count(); ++m)
    if (source.frame_crc(m) == core::FrameCrc::kNone)
      throw std::logic_error(
          "run_storage: every mode needs an outer CRC (add_custom_mode "
          "with a non-kNone FrameCrc)");
  return NandReadLadder(storage.ladder);
}

/// The read-retry ladder as a closed loop: one round per read rung, a
/// non-delivered frame escalates after the modeled escalation delay.
stream::ClosedLoopPolicy ladder_policy(const NandReadLadder& ladder,
                                       const StorageStreamConfig& storage) {
  return {.ack = delivered,
          .max_rounds = ladder.rungs(),
          .feedback_delay_cycles = storage.escalation_delay_cycles,
          .cls = stream::TrafficClass::kStorage};
}

/// Fills the retry-ladder ledger from the completed records.
void fill_ledger(const TrafficSource& source, const NandReadLadder& ladder,
                 bool modeled, StorageRunResult& out) {
  RetryLadderLedger& ledger = out.ledger;
  ledger.rungs.assign(static_cast<std::size_t>(ladder.rungs()),
                      RungLedger{});

  // Records are id-ordered and a session's rung index grows with id, so
  // the last record seen per session is its final state.
  std::unordered_map<long long, const StreamJob*> final_rec;
  for (const StreamJob& rec : out.report.jobs) {
    RungLedger& rl = ledger.rungs.at(static_cast<std::size_t>(rec.round));
    ++rl.reads;
    const long long read_cost = ladder.rung_latency_cycles(rec.round);
    rl.read_latency_cycles += read_cost;
    ledger.read_latency_cycles += read_cost;
    rl.decode_iterations += rec.iterations;
    if (modeled) rl.decode_cycles += rec.finish_cycle - rec.start_cycle;
    if (rec.converged && !rec.crc_ok) ++rl.crc_rejects;
    if (delivered(rec)) ++rl.delivered;
    final_rec[rec.session] = &rec;
  }

  for (const auto& [session, rec] : final_rec) {
    ++ledger.frames;
    ledger.payload_bits += source.code(rec->mode).payload_bits();
    if (rec->payload_bit_errors > 0)
      ledger.bit_errors += rec->payload_bit_errors;
    if (delivered(*rec)) {
      ++ledger.delivered;
      if (rec->crc_repaired) ++ledger.repaired;
    }
  }
}

}  // namespace

StorageRunResult run_storage_modeled(TrafficSource& source,
                                     stream::SchedulerConfig config,
                                     long long frames,
                                     StorageStreamConfig storage) {
  const NandReadLadder ladder = validated_ladder(source, storage);
  StorageRunResult out;
  out.report = stream::run_closed_loop_modeled(
      source, std::move(config), frames, ladder_policy(ladder, storage));
  fill_ledger(source, ladder, /*modeled=*/true, out);
  return out;
}

StorageRunResult run_storage_live(TrafficSource& source,
                                  stream::ServiceConfig service_config,
                                  long long frames,
                                  StorageStreamConfig storage) {
  const NandReadLadder ladder = validated_ladder(source, storage);
  StorageRunResult out;
  out.report = stream::run_closed_loop_live(
      source, std::move(service_config), frames,
      ladder_policy(ladder, storage));
  fill_ledger(source, ladder, /*modeled=*/false, out);
  return out;
}

}  // namespace ldpc::storage
