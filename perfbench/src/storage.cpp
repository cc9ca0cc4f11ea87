// storage_retry: the NAND read-retry ladder through the live service's
// closed loop (run_storage_live, 2 workers; CRC-16 stop rule;
// Chase-combined rungs). Completions feed resubmissions through its
// on_complete hook, and the loop thread's synthesis (make_frame,
// HarqSoftBuffer, the registered RungSynth) plus the CRC gate and flip
// repair do the work — a different use of the service than the one-shot
// wireless stream.
//
// run_storage_modeled on the same seed is the reference: every live pass
// replays the same pages and must reproduce the modeled farm's result for
// every (page, rung) exactly, and every ledger must conserve.
#include <atomic>
#include <iostream>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/storage/storage_stream.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

using namespace ldpc;

constexpr int kWorkers = 2;
// Pages per pass (the reference covers them): ~0.4 s of live service, so
// the pipeline's fill and drain at either end of a pass stay a small share.
constexpr int kPages = 2500;
constexpr int kModelBurst = 4;
constexpr int kSetupRepeats = 5;
// Untimed live warm-up passes (the first passes of a run read up to 2x
// slower than the rest).
constexpr int kWarmupPasses = 2;
// Pages of the modeled farm's untimed warm-up run.
constexpr int kModelWarmupPages = 100;
// Timed live passes (~0.5 s each) per modeled-farm pass (~0.7 s).
constexpr int kLivePerModelPass = 2;
// Share of --seconds given to the timed phase.
constexpr double kTimedShare = 0.8;

core::DecoderConfig storage_decoder() {
  core::DecoderConfig cfg = wireless_decoder();
  cfg.stop_on_codeword = true;
  cfg.frame_crc = core::FrameCrc::kCrc16;
  cfg.crc_flip_budget = 4;
  return cfg;
}

/// The default escalation at a programming spread noisy enough that a
/// healthy share of pages outlive the hard read.
storage::NandLadderConfig ladder() {
  storage::NandLadderConfig cfg = storage::default_ladder();
  cfg.program_sigma = 0.65;
  return cfg;
}

/// Time spent inside the registered RungSynth, from outside it.
struct SynthClock {
  std::atomic<long long> ns{0};
};

stream::TrafficSource make_source(std::uint64_t seed, Trace& trace,
                                  long long parent, SynthClock& clock) {
  auto build = trace.open("codes.build", parent);
  auto code = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 24});
  build.close();
  auto modes = trace.open("traffic.modes", parent);
  stream::RungSynth inner = storage::NandReadLadder(ladder()).synth();
  stream::RungSynth timed = [inner, &trace, &clock](
                                const codes::QCCode& c,
                                std::span<const std::uint8_t> codeword,
                                std::uint64_t key, int rung) {
    const long long t0 = now_ns();
    auto llrs = inner(c, codeword, key, rung);
    const long long t1 = now_ns();
    clock.ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    trace.record("storage.rung_synth", t0, t1);
    return llrs;
  };
  stream::TrafficSource source({.seed = seed});
  source.add_custom_mode(std::move(code), 1.0, std::move(timed),
                         core::FrameCrc::kCrc16);
  source.emit_quantised(storage_decoder());
  modes.close();
  return source;
}

stream::ServiceConfig service_config() {
  stream::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = static_cast<std::size_t>(kWorkers) * 128;
  cfg.decoder = storage_decoder();
  return cfg;
}

using RungKey = std::pair<long long, int>;  // (page session, rung)
using RungResult = std::tuple<std::uint64_t, int, bool, bool, bool>;

std::map<RungKey, RungResult> by_rung(const stream::StreamReport& report) {
  std::map<RungKey, RungResult> out;
  for (const auto& job : report.jobs)
    out[{job.session, job.round}] = {job.decision_hash, job.iterations,
                                     job.converged, job.crc_ok,
                                     job.crc_repaired};
  return out;
}

/// Pages whose rung results differ from (or are missing against) `ref`.
long long page_mismatches(const std::map<RungKey, RungResult>& got,
                          const std::map<RungKey, RungResult>& ref) {
  std::map<long long, bool> bad;
  for (const auto& [key, want] : ref) {
    const auto it = got.find(key);
    if (it == got.end() || it->second != want) bad[key.first] = true;
  }
  for (const auto& [key, have] : got)
    if (!ref.count(key)) bad[key.first] = true;
  return static_cast<long long>(bad.size());
}

bool ledger_conserves(const storage::RetryLadderLedger& ledger) {
  long long delivered = 0, latency = 0;
  for (const auto& rung : ledger.rungs) {
    delivered += rung.delivered;
    latency += rung.read_latency_cycles;
  }
  return delivered == ledger.delivered &&
         latency == ledger.read_latency_cycles &&
         ledger.delivered <= ledger.frames &&
         ledger.repaired <= ledger.delivered;
}

}  // namespace

Outcome run_storage(const Options& opt, Trace& trace) {
  Outcome out;
  const long long root = trace.mark("workload.storage_retry");
  ServiceTally tally;
  tally.workers = kWorkers;
  SynthClock synth;
  storage::StorageStreamConfig storage_cfg;
  storage_cfg.ladder = ladder();

  // --- Set-up: code + encoder + custom mode + service start, on a fresh
  // source each time. Measured kSetupRepeats times now and once after every
  // timed live pass, so the median samples the whole run.
  std::vector<double> setup_s;
  auto set_up = [&] {
    auto span = trace.open("setup", root);
    const long long cpu0 = process_cpu_ns();
    stream::TrafficSource fresh = make_source(opt.seed, trace, root, synth);
    const long long c1 = now_ns();
    stream::DecodeService service(fresh, service_config());
    const long long t1 = now_ns();
    setup_s.push_back(seconds_between(cpu0, process_cpu_ns()));
    span.close();
    trace.record("stream.service_start", c1, t1, root);
    tally.lanes = service.engine_lanes();
    service.finish();
  };
  for (int r = 0; r < kSetupRepeats; ++r) set_up();
  stream::TrafficSource source = make_source(opt.seed, trace, root, synth);

  // --- Modeled farm: after an untimed warm-up, the first pass is the
  // reference and carries the simulated ledgers; repeat passes are timed
  // and must reproduce it.
  stream::SchedulerConfig model_cfg;
  model_cfg.workers = kWorkers;
  model_cfg.policy = stream::Policy::kBinned;
  model_cfg.max_burst = kModelBurst;
  model_cfg.decoder = storage_decoder();
  source.reset();
  storage::run_storage_modeled(source, model_cfg, kModelWarmupPages,
                               storage_cfg);
  ModelTally model;
  std::map<RungKey, RungResult> ref;
  storage::RetryLadderLedger ref_ledger;
  auto model_pass = [&](bool reference) {
    source.reset();
    auto span = trace.open("storage.run_modeled", root);
    const long long t0 = thread_cpu_ns();
    const auto modeled =
        storage::run_storage_modeled(source, model_cfg, kPages, storage_cfg);
    model.add(modeled.report, seconds_between(t0, thread_cpu_ns()), reference);
    model.end_pass();
    span.close();
    if (reference) {
      ref = by_rung(modeled.report);
      ref_ledger = modeled.ledger;
      if (!ledger_conserves(ref_ledger))
        out.fail("modeled retry ledger does not conserve");
    } else if (const long long bad =
                   page_mismatches(by_rung(modeled.report), ref)) {
      out.fail("modeled farm is not deterministic across passes", bad);
    }
  };
  model_pass(true);

  // --- Live passes.
  std::vector<double> pps, fps, mbps, synth_frac;
  long long live_jobs = 0, live_delivered = 0;
  double live_iterations = 0.0;
  auto live_pass = [&](bool timed) {
    source.reset();
    synth.ns = 0;
    auto span = trace.open(timed ? "storage.run_live" : "live.warmup", root);
    storage::StorageRunResult live;
    try {
      live = storage::run_storage_live(source, service_config(), kPages,
                                       storage_cfg);
    } catch (const std::runtime_error& e) {
      span.close();
      out.attempted += kPages;
      out.fail(std::string("live escalation loop stalled: ") + e.what(), kPages,
               false);
      return;
    }
    span.close();
    out.attempted += kPages;
    if (const long long bad = page_mismatches(by_rung(live.report), ref))
      out.fail("live (page, rung) results differ from the modeled farm", bad);
    if (!ledger_conserves(live.ledger) ||
        live.ledger.delivered != ref_ledger.delivered ||
        live.ledger.bit_errors != ref_ledger.bit_errors)
      out.fail("live retry ledger does not match the modeled reference");
    if (!timed) return;

    const double wall = static_cast<double>(live.report.wall_elapsed_ns) * 1e-9;
    pps.push_back(kPages / wall);
    fps.push_back(static_cast<double>(live.report.jobs.size()) / wall);
    mbps.push_back(static_cast<double>(live.report.harq.payload_bits_delivered) /
                   wall * 1e-6);
    synth_frac.push_back(static_cast<double>(synth.ns.load()) * 1e-9 / wall);
    for (const auto& job : live.report.jobs) live_iterations += job.iterations;
    live_jobs += static_cast<long long>(live.report.jobs.size());
    live_delivered += live.ledger.delivered;
    tally.add(live.report);
  };
  // --- Timed phase: model and live passes interleave, so both medians
  // sample the whole phase rather than one stretch of host load.
  for (int w = 0; w < kWarmupPasses; ++w) live_pass(false);
  const long long end = deadline(opt, kTimedShare);
  do {
    model_pass(false);
    for (int k = 0; k < kLivePerModelPass; ++k) {
      live_pass(true);
      set_up();
    }
  } while (now_ns() < end || pps.size() < 3);

  // Self-test of the check: a corrupted reference must be caught.
  {
    auto corrupted = ref;
    std::get<0>(corrupted.begin()->second) ^= 1;
    if (page_mismatches(ref, ref) != 0 ||
        page_mismatches(ref, corrupted) != 1)
      out.fail("self-test: the (page, rung) check missed a corrupted hash");
  }

  auto& e = out.end_to_end;
  e["pages_per_s"] = {median(pps), "1/s"};
  e["frames_per_s"] = {median(fps), "1/s"};
  e["payload_mbps"] = {median(mbps), "Mb/s"};
  e["setup_s"] = {median(setup_s), "s"};
  model.emit_end_to_end(out);

  auto& m = out.per_layer;
  tally.emit_per_layer(out, trace);
  model.emit_per_layer(out);
  const auto synth_us = trace.durations_us("storage.rung_synth");
  m["storage.rung_synth_us"] = {mean(synth_us), "us"};
  m["storage.synth_frac"] = {median(synth_frac), "frac"};
  const double pages = static_cast<double>(pps.size()) * kPages;
  m["storage.rungs_per_page"] = {static_cast<double>(live_jobs) / pages,
                                 "count"};
  m["storage.delivered_frac"] = {
      static_cast<double>(live_delivered) / static_cast<double>(live_jobs),
      "frac"};
  m["core.iterations_mean"] = {live_iterations / static_cast<double>(live_jobs),
                               "count"};

  out.host["engine_lanes"] = std::to_string(tally.lanes);
  out.host["engine_lane_type"] = core::kernels::to_string(
      core::StreamBatchEngine(storage_decoder()).lane_type());
  std::cerr << "perfbench: storage_retry passes=" << pps.size()
            << " pages_per_s=" << median(pps) << " fps=" << median(fps)
            << " model_fps=" << median(model.host_fps)
            << " rungs_per_page=" << static_cast<double>(live_jobs) / pages
            << " pass_pps=";
  for (double p : pps) std::cerr << static_cast<long long>(p) << ',';
  std::cerr << " pass_model_fps=";
  for (double f : model.host_fps) std::cerr << static_cast<long long>(f) << ',';
  std::cerr << "\n";
  return out;
}

}  // namespace perfbench
