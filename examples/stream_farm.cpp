// The streaming decoder farm: mixed-standard traffic across N chips.
//
// Scales the multi-standard story from one reconfigurable chip to a farm:
// a TrafficSource generates an interleaved 4-standard job stream
// (802.16e + 802.11n + DMB-T + 5G NR) and the StreamScheduler dispatches
// it across N DecoderChip+FramePipeline workers, FIFO versus the
// reconfiguration-cost-aware binned policy. The run prints the aggregate
// payload throughput, per-worker occupancy and ledgers, the
// reconfiguration count and the latency distribution — the serving-layer
// numbers the scheduler policy is judged on, all in modeled chip cycles.
//
// The run then replays the SAME jobs through the live wall-clock
// DecodeService (N real worker threads, each owning a SIMD stream engine)
// and checks the live per-frame decision hashes against the modeled
// farm's — the modeled-vs-live determinism contract, demonstrated end to
// end.
//
//   ./stream_farm [--jobs 64] [--workers 3] [--seed 1] [--gap 400]
//                 [--burst 8] [--delay 150000] [--snr 3.0]
#include <iostream>
#include <vector>

#include "ldpc/codes/registry.hpp"
#include "ldpc/stream/decode_service.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "ldpc/util/args.hpp"
#include "ldpc/util/table.hpp"

using namespace ldpc;

namespace {

stream::TrafficSource make_source(std::uint64_t seed, double gap,
                                  double snr) {
  stream::TrafficSource source(
      {.seed = seed, .mean_interarrival_cycles = gap});
  source.add_mode(
      codes::make_code({codes::Standard::kWimax80216e, codes::Rate::kR12, 96}),
      snr, 2.0);
  source.add_mode(
      codes::make_code({codes::Standard::kWlan80211n, codes::Rate::kR34, 81}),
      snr + 1.5, 1.0);
  source.add_mode(
      codes::make_code({codes::Standard::kDmbT, codes::Rate::kR25, 127}),
      snr + 1.0, 1.0);
  source.add_mode(codes::make_nr_code(codes::Rate::kR13, 96, 5000, 64), snr,
                  1.0);
  return source;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(
      argc, argv, {"jobs", "workers", "seed", "gap", "burst", "delay",
                   "snr"});
  const auto jobs = args.get_or("jobs", 64LL);
  const auto workers = static_cast<int>(args.get_or("workers", 3LL));
  const auto seed = static_cast<std::uint64_t>(args.get_or("seed", 1LL));
  const double gap = args.get_or("gap", 400.0);
  const double snr = args.get_or("snr", 3.0);
  const auto burst = static_cast<int>(args.get_or("burst", 8LL));
  const auto delay = args.get_or("delay", 150'000LL);
  if (jobs <= 0 || workers <= 0 || burst <= 0 || delay < 0) {
    std::cerr << "error: --jobs, --workers and --burst must be positive "
                 "and --delay non-negative\n";
    return 2;
  }

  stream::SchedulerConfig config;
  config.workers = workers;
  config.max_burst = burst;
  config.max_bin_delay_cycles = delay;
  // Min-sum explicitly: the live DecodeService below runs the quantized
  // stream engines, and the modeled farm must decode the same arithmetic
  // for the hash comparison to be meaningful.
  config.decoder = {.max_iterations = 10,
                    .kernel = core::CnuKernel::kMinSum,
                    .early_termination = {.enabled = true,
                                          .threshold_raw = 8}};

  std::cout << "dispatching " << jobs << " mixed 4-standard jobs across "
            << workers << " chips (mean inter-arrival "
            << util::fmt_fixed(gap, 0) << " cycles)...\n\n";

  util::Table policy_table("policy comparison (same seeded traffic)");
  policy_table.header({"policy", "payload Mbps", "reconfigs",
                       "p50 latency", "p99 latency", "makespan"});
  stream::StreamReport modeled;  // kept for the live comparison below
  for (const auto policy :
       {stream::Policy::kFifo, stream::Policy::kBinned}) {
    auto source = make_source(seed, gap, snr);
    config.policy = policy;
    stream::StreamScheduler scheduler(source, config);
    const auto report = scheduler.run(jobs);
    if (policy == stream::Policy::kBinned) modeled = report;
    policy_table.row(
        {to_string(policy),
         util::fmt_fixed(report.aggregate_payload_bps(450e6) / 1e6, 1),
         std::to_string(report.totals.reconfigurations),
         util::fmt_group(report.latency_percentile(50.0)),
         util::fmt_group(report.latency_percentile(99.0)),
         util::fmt_group(report.makespan_cycles)});

    if (policy == stream::Policy::kBinned) {
      util::Table per_worker("per-chip ledgers (binned policy)");
      per_worker.header({"chip", "frames", "reconfigs", "decode cycles",
                         "stall cycles", "occupancy", "payload bits"});
      for (int w = 0; w < workers; ++w) {
        const auto& ledger =
            report.worker_ledgers[static_cast<std::size_t>(w)];
        per_worker.row(
            {std::to_string(w), std::to_string(ledger.frames),
             std::to_string(ledger.reconfigurations),
             util::fmt_group(ledger.decode_cycles),
             util::fmt_group(ledger.stall_cycles),
             util::fmt_fixed(report.worker_occupancy(w) * 100.0, 1) + "%",
             util::fmt_group(ledger.payload_bits)});
      }
      policy_table.print(std::cout);
      std::cout << '\n';
      per_worker.print(std::cout);
      long long ledger_payload = 0;
      for (const auto& ledger : report.worker_ledgers)
        ledger_payload += ledger.payload_bits;
      std::cout << "\npayload conservation: "
                << util::fmt_group(report.total_payload_bits)
                << " bits generated == "
                << util::fmt_group(ledger_payload)
                << " bits across chip ledgers ("
                << (ledger_payload == report.total_payload_bits ? "ok"
                                                                : "VIOLATED")
                << ")\n";
    }
  }
  std::cout << "\nthe binned policy trades a bounded amount of queueing "
               "delay (--delay) for strictly fewer reconfigurations; both "
               "policies decode bit-identical frames (the scheduler only "
               "moves work in time).\n";

  // ---- the live service: same jobs, real threads, wall clock ------------
  // Pre-synthesize the identical counter-seeded frames (the submitter
  // owns synthesis; the service only sees buffers), run
  // them through N live worker threads, and check every hard-decision
  // hash against the modeled farm's.
  auto live_source = make_source(seed, gap, snr);
  std::vector<stream::Job> live_jobs;
  std::vector<stream::JobFrame> live_frames;
  for (long long i = 0; i < jobs; ++i) {
    live_jobs.push_back(live_source.next());
    live_frames.push_back(live_source.make_frame(live_jobs.back()));
  }

  stream::ServiceConfig service_config;
  service_config.workers = workers;
  service_config.queue_capacity = static_cast<std::size_t>(workers) * 128;
  service_config.decoder = config.decoder;
  stream::DecodeService service(live_source, service_config);
  for (std::size_t i = 0; i < live_jobs.size(); ++i) {
    stream::ServiceRequest req;
    req.id = live_jobs[i].id;
    req.mode = live_jobs[i].mode;
    req.llrs = live_frames[i].llrs;
    service.submit(std::move(req));
  }
  const auto live = service.finish();

  util::Table live_table("live decode service (" + std::to_string(workers) +
                         " worker threads, wall clock)");
  live_table.header({"wall kframes/s", "p50 us", "p99 us", "reconfigs"});
  live_table.row({util::fmt_fixed(live.wall_frames_per_sec() / 1e3, 1),
                  util::fmt_group(live.wall_latency_percentile_ns(50.0) /
                                  1000),
                  util::fmt_group(live.wall_latency_percentile_ns(99.0) /
                                  1000),
                  std::to_string(live.totals.reconfigurations)});
  std::cout << '\n';
  live_table.print(std::cout);

  bool identical = live.jobs.size() == modeled.jobs.size();
  for (std::size_t i = 0; identical && i < live.jobs.size(); ++i)
    identical = live.jobs[i].decision_hash == modeled.jobs[i].decision_hash &&
                live.jobs[i].iterations == modeled.jobs[i].iterations;
  std::cout << "\nmodeled vs live determinism: per-frame decision hashes "
            << (identical ? "MATCH" : "DIVERGE")
            << " — thread interleaving moves work in time, never changes "
               "the arithmetic.\n";
  return identical ? 0 : 1;
}
