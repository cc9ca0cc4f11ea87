// The shared serving-layer vocabulary: job records, latency accounting
// and the composed report, used by BOTH serving paths of `src/stream`:
//
//   stream::StreamScheduler   the deterministic discrete-event *model* of
//                             an N-chip farm (modeled cycles);
//   stream::DecodeService     the live, wall-clock multi-threaded serving
//                             path (per-core StreamBatchEngine workers).
//
// One vocabulary is the point: a StreamJob carries a modeled timeline
// (arrival/start/finish cycles, filled by the scheduler) AND a wall-clock
// timeline (submit/start/finish nanoseconds, filled by the service), and
// a StreamReport composes per-worker arch::FramePipelineStats ledgers the
// same way for either path — so the model and the real service can be
// compared number for number on the same seeded traffic. Per-frame decode
// *results* (hard-decision hash, iteration count) are identical between
// the two by construction: frame content is counter-seeded on (seed, id)
// and every datapath is bit-identical (test-locked), so scheduling —
// modeled or real thread interleaving — can only move work in time.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "ldpc/arch/frame_pipeline.hpp"

namespace ldpc::stream {

/// Decision hash over a byte span: the per-frame decode identity (hash of
/// the n hard-decision bits) the scheduler/service invariance tests
/// compare. The name is historical (it was byte-serial FNV-1a); the hash
/// now steps over 8-byte little-endian words (the tail zero-padded) with a
/// multiply-xorshift round, then mixes in the length and applies the
/// splitmix64 finaliser. Each round is a bijection of the state, so inputs
/// of one length that differ in one word always hash apart, and the
/// xorshift carries high-bit differences back down (a bare xor-multiply
/// chain only moves them up, so flips in the top byte of different words
/// collided); the length term separates zero-padded tails. One round per
/// word instead of per byte keeps the serial chain 8x shorter on every
/// decoded frame.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  const auto load_le = [](const std::uint8_t* p, std::size_t len) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, len);
    if constexpr (std::endian::native == std::endian::big)
      w = __builtin_bswap64(w);
    return w;
  };
  const auto round = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
  };
  std::uint64_t h = 14695981039346656037ULL;
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) h = round(h, load_le(bytes.data() + i, 8));
  if (i < n) h = round(h, load_le(bytes.data() + i, n - i));
  h ^= n;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Service traffic classes for SLO-aware dispatch: kDeadline jobs carry a
/// completion deadline and are served earliest-deadline-first, one job
/// per dispatch, ahead of everything else. kBestEffort jobs fall back to
/// reconfiguration-aware binning. kStorage marks SSD read-path jobs
/// (CRC-checked, rung-escalated by storage::run_storage_*); they are
/// binned exactly like best-effort, but a bin never mixes the two
/// classes, and they are tallied separately. The modeled scheduler treats
/// everything as best-effort.
enum class TrafficClass { kBestEffort, kDeadline, kStorage };

std::string to_string(TrafficClass cls);

/// Latency sample collector shared by the modeled and wall-clock report
/// sides: nearest-rank percentiles over whatever unit the caller feeds it
/// (modeled cycles or nanoseconds).
class LatencyHistogram {
 public:
  void add(long long sample) { samples_.push_back(sample); }
  std::size_t count() const noexcept { return samples_.size(); }
  /// Nearest-rank percentile (0 < p <= 100; throws std::invalid_argument
  /// otherwise). Returns 0 with no samples — an empty stream has a valid,
  /// all-zero latency profile rather than a division by zero.
  long long percentile(double p) const;

 private:
  std::vector<long long> samples_;
};

/// Per-job outcome: the decode result identity (hash of the hard
/// decisions + iteration count) plus the job's timeline — modeled cycles
/// when produced by StreamScheduler, wall-clock nanoseconds when produced
/// by DecodeService (each path leaves the other's timeline at zero).
struct StreamJob {
  long long id = 0;
  int mode = 0;
  int worker = 0;
  /// HARQ identity (filled by the closed-loop drivers; a plain stream
  /// leaves session == id and round == rv == 0). `session` is the id of
  /// the session's round-0 job; a round-r record decoded the combined
  /// soft state of rounds 0..r.
  long long session = 0;
  int round = 0;
  int rv = 0;
  int iterations = 0;
  bool converged = false;
  /// Payload tail CRC of the decode result (vacuously true when the mode
  /// carries no CRC — see core::FrameCrc). The storage drivers deliver on
  /// crc_ok && (converged || crc_repaired).
  bool crc_ok = true;
  /// crc_ok came from the decoder's bounded bit-flip fallback (the frame
  /// never formed a codeword — see FixedDecodeResult::crc_repaired).
  bool crc_repaired = false;
  /// Decoded information bits match the transmitted payload (only
  /// evaluated when the submitter supplied the expected payload).
  bool payload_ok = false;
  /// Mismatching payload bits behind payload_ok (-1 = expected payload
  /// unknown). The storage ledger's UBER numerator.
  int payload_bit_errors = -1;
  /// fnv1a() of the n hard-decision bits: the per-frame decode identity
  /// the policy/worker-count/interleaving invariance tests compare.
  std::uint64_t decision_hash = 0;

  // Modeled timeline (StreamScheduler; zero for the live service).
  long long arrival_cycle = 0;
  long long start_cycle = 0;
  long long finish_cycle = 0;
  long long latency_cycles() const noexcept {
    return finish_cycle - arrival_cycle;
  }

  // Wall-clock timeline (DecodeService; zero for the modeled scheduler).
  TrafficClass cls = TrafficClass::kBestEffort;
  long long wall_submit_ns = 0;
  long long wall_start_ns = 0;
  long long wall_finish_ns = 0;
  /// Absolute deadline on the service clock (0 = none assigned).
  long long deadline_ns = 0;
  /// Service completion order (0-based stamp from a shared counter); -1
  /// when produced by the modeled scheduler. The FIFO-degeneracy tests
  /// assert this follows submission order exactly.
  long long finish_seq = -1;

  long long wall_latency_ns() const noexcept {
    return wall_finish_ns - wall_submit_ns;
  }
  bool deadline_met() const noexcept {
    return deadline_ns == 0 || wall_finish_ns <= deadline_ns;
  }
};

/// Per-HARQ-round serving tallies: how many round-r attempts the farm
/// decoded, how many ACKed, and their latency profile (modeled cycles for
/// the scheduler path, wall nanoseconds for the live service).
struct HarqRoundServing {
  long long attempts = 0;
  long long acks = 0;
  LatencyHistogram latency;
  double ack_rate() const {
    return attempts ? static_cast<double>(acks) /
                          static_cast<double>(attempts)
                    : 0.0;
  }
};

/// Closed-loop HARQ accounting over a served stream (filled by the
/// closed-loop drivers run_closed_loop_{modeled,live} under each policy's
/// ACK rule; `enabled` stays false for plain one-shot streams).
struct HarqStreamStats {
  bool enabled = false;
  long long sessions = 0;   // transport blocks entered
  long long delivered = 0;  // ACKed within the round budget
  long long tx_bits_sent = 0;           // channel bits across every round
  long long payload_bits_delivered = 0; // payload of ACKed sessions
  std::vector<HarqRoundServing> rounds; // indexed by HARQ round
  /// Soft-state occupancy: the most sessions open at once, and the most
  /// carried session states (one per open session that may go again)
  /// the driver held at once — the receiver's soft-buffer memory.
  long long peak_open = 0;
  long long peak_carried = 0;

  /// Payload bits delivered per transmitted channel bit (the link-layer
  /// goodput of the served stream).
  double goodput() const {
    return tx_bits_sent ? static_cast<double>(payload_bits_delivered) /
                              static_cast<double>(tx_bits_sent)
                        : 0.0;
  }
  double residual_fer() const {
    return sessions ? static_cast<double>(sessions - delivered) /
                          static_cast<double>(sessions)
                    : 0.0;
  }
};

struct StreamReport {
  std::vector<StreamJob> jobs;  // ordered by job id
  /// One FramePipelineStats ledger per worker. The modeled scheduler
  /// fills every cycle field from the chip pipeline; the live service
  /// fills frames/payload_bits/reconfigurations plus idealised datapath
  /// cycles (its workers run the functional engine, not the chip model).
  std::vector<arch::FramePipelineStats> worker_ledgers;
  /// merge() of every worker ledger; totals.payload_bits must equal
  /// total_payload_bits (conservation, test-locked).
  arch::FramePipelineStats totals;
  /// Payload bits summed over the completed job records (source-side
  /// accounting; rejected jobs are excluded and tallied below).
  long long total_payload_bits = 0;
  /// Last completion cycle across the farm (modeled side).
  long long makespan_cycles = 0;

  // Live-service admission accounting (zero for the modeled scheduler).
  long long rejected_jobs = 0;
  long long rejected_payload_bits = 0;
  /// Always empty: a claimed job stays with the worker that claimed it,
  /// so there are no steals to count. Kept only so that existing readers
  /// that sum it still build; they read 0.
  std::vector<long long> worker_steals;
  /// First submit -> last completion on the service's wall clock.
  long long wall_elapsed_ns = 0;

  /// Closed-loop accounting (run_closed_loop_modeled / _live).
  HarqStreamStats harq;

  /// Aggregate delivered payload throughput at `f_clk_hz` over the
  /// modeled makespan.
  double aggregate_payload_bps(double f_clk_hz) const;
  /// Fraction of the modeled makespan worker `w` spent occupied.
  double worker_occupancy(int w) const;
  /// Nearest-rank latency percentile in modeled cycles (0 < p <= 100).
  long long latency_percentile(double percentile) const;

  /// Completed frames per wall-clock second over wall_elapsed_ns.
  double wall_frames_per_sec() const;
  /// Nearest-rank wall-clock latency percentile in nanoseconds, over all
  /// jobs or one traffic class.
  long long wall_latency_percentile_ns(double percentile) const;
  long long wall_latency_percentile_ns(double percentile,
                                       TrafficClass cls) const;
};

}  // namespace ldpc::stream
