// nr_ber_sim: the BER-curve user. sim::Simulator with the batched
// (lane-refill) decoder factory and 2 threads runs a fixed frame count of
// rate-matched NR BG1 at z = 384 (n = 26,112) at a waterfall Eb/N0 where
// both early termination and the iteration cap fire. Encoder, channel and
// the large code's memory traffic dominate; the serving layer (src/stream)
// is bypassed entirely.
//
// The reference is a pass over the same frames with one thread and a
// one-vector claim size: the simulator's statistics are bit-identical at
// any thread count and claim size, so every timed pass must reproduce its
// error and iteration totals exactly.
#include <climits>
#include <iostream>
#include <mutex>
#include <vector>

#include "bench.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/enc/encoder.hpp"
#include "ldpc/sim/simulator.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

using namespace ldpc;

constexpr int kZ = 384;
constexpr int kTransmitted = 17'000;  // rate-matched E (rate ~1/2)
constexpr int kFillers = 96;
constexpr double kEbN0Db = 3.2;
constexpr int kThreads = 2;
constexpr int kPassFrames = 512;
constexpr int kModelFrames = 256;
constexpr int kModelChunk = 32;
constexpr int kModelBurst = 16;  // two bursts per chunk: both chips work
constexpr int kSetupRepeats = 5;
// Timed simulator passes (~0.4 s each) per modeled-farm pass (~0.65 s).
constexpr int kSimPerModelPass = 2;
// Share of --seconds given to the timed phase.
constexpr double kTimedShare = 0.8;

codes::QCCode make_code(Trace& trace, long long parent) {
  auto span = trace.open("codes.build", parent);
  auto code = codes::make_nr_code(codes::Rate::kR13, kZ, kTransmitted,
                                  kFillers);
  span.close();
  return code;
}

/// The totals a pass must reproduce exactly.
struct Totals {
  long long frames = 0;
  std::uint64_t bit_errors = 0, frame_errors = 0;
  long long undetected = 0;
  double iterations_mean = 0.0, iterations_max = 0.0;
  bool operator==(const Totals&) const = default;
};

/// The pass check: the frames of a pass whose totals differ from the
/// reference count as failed (0 when they match).
long long check(const Totals& got, const Totals& ref) {
  return got == ref ? 0 : got.frames;
}

Totals totals_of(const sim::SweepPoint& p) {
  return {p.frames,
          p.info_errors.bit_errors(),
          p.info_errors.frame_errors(),
          p.undetected_errors,
          p.iterations.mean(),
          p.iterations.max()};
}

/// Batched factory whose decode calls are timed from outside: the
/// BatchDecodeFn the benchmark hands the Simulator.
struct TimedFactory {
  const codes::QCCode* code = nullptr;
  core::DecoderConfig config;
  Trace* trace = nullptr;
  std::mutex mu;
  double decode_us = 0.0;
  long long frames = 0;

  sim::BatchDecoderFactory factory() {
    return [this]() {
      sim::BatchDecodeFn inner =
          sim::batched_fixed_decoder_factory(*code, config)();
      return sim::BatchDecodeFn([this, inner](std::span<const double> llrs) {
        const long long t0 = now_ns();
        auto outs = inner(llrs);
        const long long t1 = now_ns();
        trace->record("sim.decode", t0, t1);
        const std::lock_guard<std::mutex> lock(mu);
        decode_us += static_cast<double>(t1 - t0) * 1e-3;
        frames += static_cast<long long>(outs.size());
        return outs;
      });
    };
  }
};

}  // namespace

Outcome run_nr_sim(const Options& opt, Trace& trace) {
  Outcome out;
  const long long root = trace.mark("workload.nr_ber_sim");
  const core::DecoderConfig cfg = wireless_decoder();

  // --- Set-up: code, encoder, one worker decoder, simulator. Measured
  // kSetupRepeats times now and once after every timed pass, so the median
  // samples the whole run.
  std::vector<double> setup_s;
  auto set_up = [&] {
    auto span = trace.open("setup", root);
    const long long cpu0 = process_cpu_ns();
    const codes::QCCode code = make_code(trace, root);
    const auto encoder = enc::make_encoder(code);
    const auto worker_decoder = sim::batched_fixed_decoder_factory(code, cfg)();
    sim::Simulator simulator(code, sim::batched_fixed_decoder_factory(code, cfg),
                             {.seed = opt.seed, .threads = kThreads});
    setup_s.push_back(seconds_between(cpu0, process_cpu_ns()));
    span.close();
  };
  for (int r = 0; r < kSetupRepeats; ++r) set_up();

  const codes::QCCode code = make_code(trace, root);
  sim::SimConfig sim_cfg;
  sim_cfg.seed = opt.seed;
  sim_cfg.target_frame_errors = INT_MAX;
  sim_cfg.min_frames = kPassFrames;
  sim_cfg.max_frames = kPassFrames;

  // --- Reference (also the warm-up): one thread, one-vector claims.
  sim::SimConfig ref_cfg = sim_cfg;
  ref_cfg.threads = 1;
  ref_cfg.batch = core::StreamBatchEngine(cfg).lanes();
  auto ref_span = trace.open("sim.reference", root);
  const Totals ref = totals_of(
      sim::Simulator(code, sim::batched_fixed_decoder_factory(code, cfg),
                     ref_cfg)
          .run_point(kEbN0Db));
  ref_span.close();

  // --- Modeled chip farm on the same code and channel. The first pass
  // (after a one-chunk warm-up) carries the simulated ledgers and the
  // reference decisions; repeat passes replay its frames for host timing.
  stream::TrafficSource source({.seed = opt.seed});
  source.add_mode(make_code(trace, root), kEbN0Db);
  source.emit_quantised(cfg);
  stream::SchedulerConfig model_cfg;
  model_cfg.workers = kThreads;
  model_cfg.policy = stream::Policy::kBinned;
  model_cfg.max_burst = kModelBurst;
  model_cfg.decoder = cfg;
  stream::StreamScheduler(source, model_cfg).run(kModelChunk);
  ModelTally model;
  std::vector<std::uint64_t> model_ref;
  auto model_pass = [&](bool reference) {
    source.reset();
    stream::StreamScheduler scheduler(source, model_cfg);
    std::vector<std::uint64_t> hashes;
    for (int done = 0; done < kModelFrames; done += kModelChunk) {
      auto span = trace.open("sched.run", root);
      const long long t0 = thread_cpu_ns();
      const auto report = scheduler.run(kModelChunk);
      model.add(report, seconds_between(t0, thread_cpu_ns()), reference);
      span.close();
      for (const auto& job : report.jobs) hashes.push_back(job.decision_hash);
    }
    model.end_pass();
    if (reference)
      model_ref = hashes;
    else if (hashes != model_ref)
      out.fail("modeled farm is not deterministic across passes");
  };
  model_pass(true);

  // --- Timed phase: simulator and model passes interleave, so both
  // medians sample the whole phase rather than one stretch of host load.
  sim::SimConfig timed_cfg = sim_cfg;
  timed_cfg.threads = kThreads;
  TimedFactory timed;
  timed.code = &code;
  timed.config = cfg;
  timed.trace = &trace;
  std::vector<double> fps, mbps, wall_s;
  auto sim_pass = [&] {
    auto span = trace.open("sim.run_point", root);
    const long long t0 = now_ns();
    sim::Simulator simulator(code, timed.factory(), timed_cfg);
    const sim::SweepPoint point = simulator.run_point(kEbN0Db);
    const double s = seconds_between(t0, now_ns());
    span.close();
    out.attempted += point.frames;
    if (const long long bad = check(totals_of(point), ref))
      out.fail("simulator totals differ from the 1-thread reference", bad);
    fps.push_back(static_cast<double>(point.frames) / s);
    mbps.push_back(static_cast<double>(point.frames) * code.payload_bits() /
                   s * 1e-6);
    wall_s.push_back(s);
  };
  const long long end = deadline(opt, kTimedShare);
  do {
    model_pass(false);
    for (int k = 0; k < kSimPerModelPass; ++k) {
      sim_pass();
      set_up();
    }
  } while (now_ns() < end || fps.size() < 3);

  // --- Self-test of the check: a corrupted reference must be caught.
  Totals corrupted = ref;
  corrupted.bit_errors += 1;
  if (check(ref, ref) != 0 || check(ref, corrupted) == 0)
    out.fail("self-test: the totals check missed a corrupted reference");

  auto& e = out.end_to_end;
  e["frames_per_s"] = {median(fps), "1/s"};
  e["pages_per_s"] = {median(fps), "1/s"};
  e["payload_mbps"] = {median(mbps), "Mb/s"};
  e["setup_s"] = {median(setup_s), "s"};
  model.emit_end_to_end(out);
  // At the pipeline's default 64-bit interface every z = 384 frame spends
  // longer crossing the interface than in the core, so the farm's makespan
  // rate is the same bus-set constant for every seed. The cores' own rate
  // (payload over core-busy cycles across the workers) is the part a
  // decoder change can move, so that is what this workload reports.
  e["model_payload_gbps"] = {static_cast<double>(model.payload_bits) *
                                 kChipClockHz * kThreads /
                                 static_cast<double>(model.decode_cycles) * 1e-9,
                             "Gb/s"};

  auto& m = out.per_layer;
  model.emit_per_layer(out);
  m["core.iterations_mean"] = {ref.iterations_mean, "count"};
  const double decode_us = timed.decode_us;
  double wall_total = 0.0;
  for (double s : wall_s) wall_total += s;
  const double frames = static_cast<double>(timed.frames);
  const double worker_us = wall_total * 1e6 * kThreads;
  m["sim.decode_us_per_frame"] = {decode_us / frames, "us"};
  m["sim.decode_frac"] = {decode_us / worker_us, "frac"};
  m["sim.chain_us_per_frame"] = {(worker_us - decode_us) / frames, "us"};

  out.host["engine_lanes"] = std::to_string(core::StreamBatchEngine(cfg).lanes());
  out.host["engine_lane_type"] =
      core::kernels::to_string(core::StreamBatchEngine(cfg).lane_type());
  std::cerr << "perfbench: nr_ber_sim passes=" << fps.size()
            << " fps=" << median(fps) << " fer="
            << static_cast<double>(ref.frame_errors) / ref.frames
            << " iters_mean=" << ref.iterations_mean
            << " iters_max=" << ref.iterations_max
            << " model_fps=" << median(model.host_fps) << " model_iters="
            << static_cast<double>(model.iterations) / model.frames
            << " pass_model_fps=";
  for (double f : model.host_fps) std::cerr << static_cast<long long>(f) << ',';
  std::cerr << "\n";
  return out;
}

}  // namespace perfbench
