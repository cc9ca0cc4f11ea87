// mixed_saturated: the paper's runtime-switched standard mix (802.16e +
// 802.11n + DMB-T, plus rate-matched NR) through both serving paths on one
// replayed frame pool.
//
//   pool      kPoolFrames frames synthesised once from the seed, outside
//             every timed window (synthesis runs at ~4 kframes/s, far
//             below the service, so it must not sit in the loop).
//   model     the pool through StreamScheduler (binned, bursts) in chunks:
//             the modeled chip farm's host speed (on this thread's CPU
//             clock) and simulated Gb/s, and the per-frame reference
//             (decision hash, iterations).
//   live      the pool replayed through DecodeService with 2 workers and
//             quantised ingest, closed loop: this thread keeps the kBlock
//             admission queue full.
// Every live job is checked against the model's reference for its pool
// frame; a mismatch is a failed operation and fails the run.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/stream/decode_service.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

using namespace ldpc;

constexpr int kPoolFrames = 2048;
constexpr int kModelChunk = 256;  // frames per StreamScheduler::run
constexpr int kModelBurst = 32;
constexpr int kWorkers = 2;
constexpr std::size_t kQueueCapacity = 256;
constexpr int kSetupRepeats = 5;
// Pool replays per timed live pass (~0.3 s at 25 kframes/s).
constexpr int kSaturatedReplays = 4;
// Timed live passes per modeled-farm pass (~0.75 s at 2.7 kframes/s), so
// both paths get a similar share of the timed phase.
constexpr int kLivePerModelPass = 2;
// Share of --seconds given to the timed phase (set-up, pool synthesis and
// warm-ups take the rest).
constexpr double kTimedShare = 0.8;
// Untimed live warm-up: pool replays at saturation (the first in-process
// passes run well below steady state).
constexpr int kWarmupReplays = 3;
// Traced runs: timed passes of the single-engine ceiling over the pool.
constexpr int kCeilingPasses = 5;

struct Reference {
  std::uint64_t hash = 0;
  int iterations = 0;
};

stream::TrafficSource make_source(std::uint64_t seed, Trace& trace,
                                  long long parent) {
  auto build = trace.open("codes.build", parent);
  auto wimax = codes::make_code(
      {codes::Standard::kWimax80216e, codes::Rate::kR12, 96});
  auto wlan = codes::make_code(
      {codes::Standard::kWlan80211n, codes::Rate::kR34, 81});
  auto dmbt =
      codes::make_code({codes::Standard::kDmbT, codes::Rate::kR35, 127});
  auto nr = codes::make_nr_code(codes::Rate::kR13, 96, 5000, 64);
  build.close();

  auto modes = trace.open("traffic.modes", parent);
  stream::TrafficSource source({.seed = seed});
  source.add_mode(std::move(wimax), 3.0);
  source.add_mode(std::move(wlan), 4.5);
  source.add_mode(std::move(dmbt), 3.0);
  source.add_mode(std::move(nr), 3.0);
  source.emit_quantised(wireless_decoder());
  modes.close();
  return source;
}

stream::ServiceConfig service_config() {
  stream::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.decoder = wireless_decoder();
  return cfg;
}

/// Counts live jobs whose result differs from the pool reference.
long long count_mismatches(const stream::StreamReport& report,
                           const std::vector<Reference>& ref) {
  long long bad = 0;
  for (const auto& job : report.jobs) {
    const Reference& want = ref[static_cast<std::size_t>(job.id) % ref.size()];
    bad += job.decision_hash != want.hash || job.iterations != want.iterations;
  }
  return bad;
}

}  // namespace

Outcome run_mixed(const Options& opt, Trace& trace) {
  Outcome out;
  const long long root = trace.mark("workload.mixed_saturated");
  ServiceTally tally;
  tally.workers = kWorkers;

  // --- Set-up: codes + encoders + modes + service start, on a fresh
  // source each time. Measured kSetupRepeats times now and once after every
  // timed live pass, so the median samples the whole run.
  std::vector<double> setup_s;
  auto set_up = [&] {
    auto span = trace.open("setup", root);
    const long long cpu0 = process_cpu_ns();
    stream::TrafficSource fresh = make_source(opt.seed, trace, root);
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
  stream::TrafficSource source = make_source(opt.seed, trace, root);

  // --- Frame pool (untimed).
  auto pool_span = trace.open("pool.synth", root);
  std::vector<stream::Job> jobs;
  std::vector<core::QuantisedFrame> frames;
  source.reset();
  for (int i = 0; i < kPoolFrames; ++i) {
    jobs.push_back(source.next());
    frames.push_back(source.make_frame(jobs.back()).quantised);
  }
  pool_span.close();

  // --- Modeled farm: one pass over the pool through StreamScheduler. The
  // first (after a one-chunk warm-up) is the reference and carries the
  // simulated ledgers; repeat passes are timed and must reproduce it.
  stream::SchedulerConfig model_cfg;
  model_cfg.workers = kWorkers;
  model_cfg.policy = stream::Policy::kBinned;
  model_cfg.max_burst = kModelBurst;
  model_cfg.decoder = wireless_decoder();
  source.reset();
  stream::StreamScheduler(source, model_cfg).run(kModelChunk);
  ModelTally model;
  std::vector<Reference> ref(kPoolFrames);
  auto model_pass = [&](bool reference) {
    source.reset();
    stream::StreamScheduler scheduler(source, model_cfg);
    for (int done = 0; done < kPoolFrames; done += kModelChunk) {
      auto span = trace.open("sched.run", root);
      const long long t0 = thread_cpu_ns();
      const auto report = scheduler.run(kModelChunk);
      model.add(report, seconds_between(t0, thread_cpu_ns()), reference);
      span.close();
      long long bad = 0;
      for (const auto& job : report.jobs) {
        Reference& r = ref[static_cast<std::size_t>(job.id)];
        if (reference)
          r = {job.decision_hash, job.iterations};
        else
          bad += r.hash != job.decision_hash || r.iterations != job.iterations;
      }
      if (bad) out.fail("modeled farm is not deterministic across passes", bad);
    }
    model.end_pass();
  };
  model_pass(true);
  double iterations = 0.0;
  for (const auto& r : ref) iterations += r.iterations;

  // --- Live passes.
  long long next_id = 0;
  std::vector<double> fps, mbps;
  auto live_pass = [&](bool timed) {
    auto span = trace.open(timed ? "live.pass" : "live.warmup", root);
    // The service clock starts in its constructor: service time + epoch
    // is benchmark time (to within the constructor's first statement).
    const long long epoch = now_ns();
    stream::DecodeService service(source, service_config());
    const long long id0 = next_id;
    auto submit = [&](long long id) {
      const std::size_t idx = static_cast<std::size_t>(id) % frames.size();
      stream::ServiceRequest req;
      req.id = id;
      req.mode = jobs[idx].mode;
      req.quantised = frames[idx];
      const long long t0 = now_ns();
      const bool ok = service.submit(std::move(req));
      if (trace.enabled())
        trace.record("stream.submit", t0, now_ns(), -1, id);
      ++out.attempted;
      if (!ok) out.fail("submit rejected under kBlock admission", 1, false);
    };
    const long long n = static_cast<long long>(frames.size()) *
                        (timed ? kSaturatedReplays : kWarmupReplays);
    for (long long k = 0; k < n; ++k) submit(next_id++);
    const long long f0 = now_ns();
    const auto report = service.finish();
    const double finish_s = seconds_between(f0, now_ns());
    span.close();

    const long long submitted = next_id - id0;
    if (static_cast<long long>(report.jobs.size()) != submitted)
      out.fail("service returned " + std::to_string(report.jobs.size()) +
               " records for " + std::to_string(submitted) + " submits",
               std::abs(submitted -
                        static_cast<long long>(report.jobs.size())));
    const long long bad = count_mismatches(report, ref);
    if (bad) out.fail("live decisions differ from the modeled farm", bad);
    if (!timed) return;

    fps.push_back(report.wall_frames_per_sec());
    mbps.push_back(static_cast<double>(report.total_payload_bits) /
                   (static_cast<double>(report.wall_elapsed_ns) * 1e-9) *
                   1e-6);
    tally.add(report);
    tally.finish_ms.push_back(finish_s * 1e3);
    if (trace.enabled()) {
      for (const auto& job : report.jobs) {
        trace.record("stream.queue_wait", epoch + job.wall_submit_ns,
                     epoch + job.wall_start_ns, -1, job.id);
        trace.record("stream.bin_decode", epoch + job.wall_start_ns,
                     epoch + job.wall_finish_ns, -1, job.id);
      }
    }
  };

  // --- Timed phase: model and live passes interleave, so both medians
  // sample the whole phase rather than one stretch of host load.
  live_pass(false);
  const long long end = deadline(opt, kTimedShare);
  do {
    model_pass(false);
    for (int k = 0; k < kLivePerModelPass; ++k) {
      live_pass(true);
      set_up();
    }
  } while (now_ns() < end || fps.size() < 3);

  // --- End-to-end metrics.
  auto& e = out.end_to_end;
  e["frames_per_s"] = {median(fps), "1/s"};
  e["pages_per_s"] = {median(fps), "1/s"};
  e["payload_mbps"] = {median(mbps), "Mb/s"};
  e["setup_s"] = {median(setup_s), "s"};
  model.emit_end_to_end(out);

  // --- Per-layer metrics.
  auto& m = out.per_layer;
  tally.emit_per_layer(out, trace);
  model.emit_per_layer(out);
  m["core.iterations_mean"] = {iterations / kPoolFrames, "count"};
  if (trace.enabled()) {
    // Engine ceiling: one StreamBatchEngine on this thread, the pool
    // binned per mode under the chip layer order (warm pass, then timed).
    const core::DecoderConfig cfg = wireless_decoder();
    core::StreamBatchEngine engine(cfg);
    std::vector<double> ceiling_s;  // per timed pass (pass 0 warms up)
    long long bad = 0;
    for (int pass = 0; pass <= kCeilingPasses; ++pass) {
      auto span = trace.open("core.ceiling", root);
      double t = 0.0;
      for (int mode = 0; mode < source.mode_count(); ++mode) {
        const codes::QCCode& code = source.code(mode);
        std::vector<const core::QuantisedFrame*> bin;
        std::vector<std::size_t> idx;
        for (std::size_t i = 0; i < frames.size(); ++i)
          if (jobs[i].mode == mode) {
            bin.push_back(&frames[i]);
            idx.push_back(i);
          }
        const auto order = arch::chip_layer_order(
            code, cfg, arch::ChipDimensions::universal());
        std::vector<core::FixedDecodeResult> results(bin.size());
        const long long t0 = now_ns();
        engine.reconfigure(code);
        engine.decode_quantised(bin, order, results);
        t += seconds_between(t0, now_ns());
        for (std::size_t k = 0; k < idx.size(); ++k)
          bad += stream::fnv1a(results[k].bits) != ref[idx[k]].hash ||
                 results[k].iterations != ref[idx[k]].iterations;
      }
      span.close();
      if (pass > 0) ceiling_s.push_back(t);
    }
    if (bad) out.fail("engine ceiling decisions differ from the modeled farm", bad);
    const double pass_s = median(ceiling_s);
    const double ceiling = kPoolFrames / pass_s;
    m["core.ceiling_fps"] = {ceiling, "1/s"};
    m["core.us_per_frame_iter"] = {pass_s * 1e6 / iterations, "us"};
    m["stream.efficiency"] = {median(fps) / (kWorkers * ceiling), "frac"};
  }

  // Self-test of the check itself: a corrupted reference must be caught.
  {
    stream::StreamReport probe;
    probe.jobs.push_back({});
    probe.jobs[0].id = 0;
    probe.jobs[0].decision_hash = ref[0].hash;
    probe.jobs[0].iterations = ref[0].iterations;
    std::vector<Reference> corrupted = ref;
    corrupted[0].hash ^= 1;
    if (count_mismatches(probe, ref) != 0 ||
        count_mismatches(probe, corrupted) != 1)
      out.fail("self-test: the reference check missed a corrupted hash");
  }

  out.host["engine_lanes"] = std::to_string(tally.lanes);
  out.host["engine_lane_type"] = core::kernels::to_string(
      core::StreamBatchEngine(wireless_decoder()).lane_type());
  std::cerr << "perfbench: mixed_saturated passes=" << fps.size()
            << " live_fps=" << median(fps)
            << " model_fps=" << median(model.host_fps) << " iters_mean=" << iterations / kPoolFrames << " pass_fps=";
  for (double f : fps) std::cerr << static_cast<long long>(f) << ',';
  std::cerr << " pass_model_fps=";
  for (double f : model.host_fps) std::cerr << static_cast<long long>(f) << ',';
  std::cerr << "\n";
  return out;
}

}  // namespace perfbench
