// Live decode-service bench: wall-clock throughput of the multi-threaded
// DecodeService across worker counts and dispatch policies, verified
// against the modeled single-threaded scheduler.
//
// Every cell submits the identical pre-synthesized frames (counter-seeded
// traffic), decodes them on live worker threads, and checks each job's
// hard-decision hash and iteration count against the 1-worker modeled
// StreamScheduler reference — the service's determinism contract. Any
// mismatch prints to stderr and the bench exits non-zero, which is what
// the CI smoke run checks. The table reports what the serving layer
// controls: wall-clock frames/s, per-job latency percentiles and
// reconfigurations. A second sweep re-runs the binned policy with
// pre-quantised submissions (TrafficSource::emit_quantised →
// ServiceRequest::quantised), verified against the SAME reference.
// The sweep runs kRunsPerCell times over the same synthesized frames,
// a fresh service per cell and pass (every run verified), and each cell
// reports its run with the median wall frames/s. A cell's runs sit one
// whole sweep apart, so a host slowdown shorter than a sweep reaches at
// most one of them.
//
//   ./stream_service [--frames 96] [--workers 4] [--seed 1] [--csv]
//                    [--json PATH]
//
// --json writes google-benchmark-format JSON — a `context` block (host,
// num_cpus, date) like google-benchmark's own, then one entry per cell
// (BM_DecodeServiceW1/W2/... and BM_DecodeServiceQuantW1/W2/...) holding
// the binned-policy wall frames/s plus the cell's worker count and an
// `oversubscribed` flag (workers > num_cpus — such cells measure thread
// contention, not scaling, and bench/compare_bench.py
// --min-service-scaling skips them).
#include <algorithm>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/stream/decode_service.hpp"
#include "ldpc/stream/scheduler.hpp"

using namespace ldpc;

namespace {

constexpr int kRunsPerCell = 3;

stream::TrafficSource make_source(std::uint64_t seed) {
  // Same three-standard mix as bench/stream_scheduler.cpp so the modeled
  // and live tables describe one workload. All modes fit the universal
  // chip dimensions the service programs its layer schedules at.
  stream::TrafficSource source(
      {.seed = seed, .mean_interarrival_cycles = 300.0});
  source.add_mode(
      codes::make_code({codes::Standard::kWimax80216e, codes::Rate::kR12, 96}),
      3.0, 2.0);
  source.add_mode(codes::make_nr_code(codes::Rate::kR13, 96, 5000, 64), 3.0,
                  2.0);
  source.add_mode(
      codes::make_code({codes::Standard::kWlan80211n, codes::Rate::kR34, 81}),
      4.5, 1.0);
  return source;
}

core::DecoderConfig service_decoder() {
  core::DecoderConfig cfg;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.max_iterations = 10;
  cfg.early_termination = {.enabled = true, .threshold_raw = 8};
  return cfg;
}

struct SynthJob {
  stream::Job job;
  stream::JobFrame frame;
};

std::vector<SynthJob> synthesize(stream::TrafficSource& src, long long count) {
  std::vector<SynthJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    SynthJob s;
    s.job = src.next();
    s.frame = src.make_frame(s.job);
    jobs.push_back(std::move(s));
  }
  return jobs;
}

bool verify(const stream::StreamReport& got, const stream::StreamReport& want,
            const std::string& label) {
  if (got.jobs.size() != want.jobs.size()) {
    std::cerr << "determinism VIOLATED at " << label << ": " << got.jobs.size()
              << " jobs vs " << want.jobs.size() << " in the reference\n";
    return false;
  }
  for (std::size_t i = 0; i < got.jobs.size(); ++i) {
    const auto& g = got.jobs[i];
    const auto& w = want.jobs[i];
    if (g.id != w.id || g.decision_hash != w.decision_hash ||
        g.iterations != w.iterations || g.converged != w.converged) {
      std::cerr << "determinism VIOLATED at " << label << " job " << g.id
                << ": hash/iterations differ from the modeled reference\n";
      return false;
    }
  }
  return true;
}

/// One JSON entry: a named frames/s number annotated with the cell's
/// worker count and whether the cell oversubscribed the host's cores.
struct JsonCell {
  std::string name;
  double items_per_second = 0.0;
  int workers = 0;
  bool oversubscribed = false;
};

std::string iso_date_now() {
  const std::time_t now = std::time(nullptr);
  char buf[32];
  std::tm tm{};
  localtime_r(&now, &tm);
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S", &tm);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv,
                        {"csv", "frames", "seed", "threads", "json"});
  bench::Options opt;
  opt.csv = args.get_or("csv", false);
  opt.frames = args.get_or("frames", 0LL);
  opt.seed = static_cast<std::uint64_t>(args.get_or("seed", 1LL));
  opt.threads = static_cast<int>(args.get_or("threads", 0LL));
  const std::string json_path = args.get_or("json", std::string{});

  const long long jobs = opt.frames > 0 ? opt.frames : 96;
  const int max_workers = opt.threads > 0 ? opt.threads : 4;
  const auto decoder = service_decoder();
  const int num_cpus =
      static_cast<int>(std::thread::hardware_concurrency());

  // The modeled single-threaded reference every live cell must reproduce.
  auto ref_source = make_source(opt.seed);
  stream::SchedulerConfig ref_config;
  ref_config.workers = 1;
  ref_config.policy = stream::Policy::kFifo;
  ref_config.decoder = decoder;
  const auto reference =
      stream::StreamScheduler(ref_source, ref_config).run(jobs);

  util::Table t("live decode service: " + std::to_string(jobs) +
                " mixed NR+WiMax jobs, wall clock");
  t.header({"policy", "workers", "wall kframes/s", "p50 us", "p99 us",
            "reconfigs"});

  struct PolicyCell {
    std::string name;
    long long max_bin_delay_ns;
    bool slo;
    bool quantised;
  };
  const PolicyCell policies[] = {{"fifo", 0, false, false},
                                 {"binned", 2'000'000, false, false},
                                 {"slo", 2'000'000, true, false},
                                 {"binned-quant", 2'000'000, false, true}};

  // The quantised cells ship pre-quantised raw codes end to end: the
  // source runs the front-end quantiser once per frame, the submit
  // payload is 1-2 bytes per variable instead of 8 per transmitted bit,
  // and the engines alias the codes into their lanes. Results must still
  // match the double-domain modeled reference exactly. Each ingest kind
  // is synthesized once and replayed by every cell that uses it.
  auto double_source = make_source(opt.seed);
  const auto double_synth = synthesize(double_source, jobs);
  auto quant_source = make_source(opt.seed);
  quant_source.emit_quantised(decoder);
  const auto quant_synth = synthesize(quant_source, jobs);

  // One verified service run, reduced to what the table and JSON show.
  struct CellRun {
    double frames_per_sec = 0.0;
    long long p50_ns = 0, p99_ns = 0, reconfigurations = 0;
  };
  std::vector<int> cell_workers;
  for (int workers = 1; workers <= max_workers; workers *= 2)
    cell_workers.push_back(workers);
  std::vector<std::vector<CellRun>> cell_runs(
      cell_workers.size() * std::size(policies));

  bool deterministic = true;
  for (int pass = 0; pass < kRunsPerCell; ++pass) {
    std::size_t cell = 0;
    for (const int workers : cell_workers) {
      for (const auto& policy : policies) {
        const auto& source = policy.quantised ? quant_source : double_source;
        const auto& synth = policy.quantised ? quant_synth : double_synth;
        stream::ServiceConfig cfg;
        cfg.workers = workers;
        // Deep enough that every worker can claim a full-lane bin without
        // draining the queue under its peers (the engines are 16-32 lanes
        // wide); a shallow queue serializes the farm on tiny dispatches.
        cfg.queue_capacity = static_cast<std::size_t>(workers) * 128;
        cfg.max_bin_delay_ns = policy.max_bin_delay_ns;
        cfg.slo.enabled = policy.slo;
        cfg.decoder = decoder;
        const std::string label =
            policy.name + "/" + std::to_string(workers) + "w";
        stream::DecodeService service(source, cfg);
        for (const auto& s : synth) {
          stream::ServiceRequest req;
          req.id = s.job.id;
          req.mode = s.job.mode;
          // Under the SLO policy every 4th job carries a deadline so EDF
          // dispatch actually engages.
          req.cls = policy.slo && s.job.id % 4 == 0
                        ? stream::TrafficClass::kDeadline
                        : stream::TrafficClass::kBestEffort;
          if (policy.quantised)
            req.quantised = s.frame.quantised;
          else
            req.llrs = s.frame.llrs;
          if (!service.submit(std::move(req))) {
            std::cerr << "unexpected rejection (kBlock admission) at "
                      << label << "\n";
            deterministic = false;
          }
        }
        const auto report = service.finish();
        deterministic &= verify(report, reference, label);
        cell_runs[cell++].push_back(
            {report.wall_frames_per_sec(),
             report.wall_latency_percentile_ns(50.0),
             report.wall_latency_percentile_ns(99.0),
             report.totals.reconfigurations});
      }
    }
  }

  std::vector<JsonCell> json_cells;
  std::size_t cell = 0;
  for (const int workers : cell_workers) {
    for (const auto& policy : policies) {
      auto& runs = cell_runs[cell++];
      std::sort(runs.begin(), runs.end(), [](const auto& x, const auto& y) {
        return x.frames_per_sec < y.frames_per_sec;
      });
      const CellRun& run = runs[kRunsPerCell / 2];
      t.row({policy.name, std::to_string(workers),
             util::fmt_fixed(run.frames_per_sec / 1e3, 1),
             util::fmt_group(run.p50_ns / 1000),
             util::fmt_group(run.p99_ns / 1000),
             std::to_string(run.reconfigurations)});
      if (policy.name == "binned" || policy.name == "binned-quant") {
        JsonCell json;
        json.name =
            (policy.quantised ? "BM_DecodeServiceQuantW" : "BM_DecodeServiceW") +
            std::to_string(workers);
        json.items_per_second = run.frames_per_sec;
        json.workers = workers;
        json.oversubscribed = num_cpus > 0 && workers > num_cpus;
        json_cells.push_back(std::move(json));
      }
    }
  }
  bench::emit(t, opt);

  if (!json_path.empty()) {
    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    std::ofstream out(json_path);
    out << "{\n  \"context\": {\n"
        << "    \"date\": \"" << iso_date_now() << "\",\n"
        << "    \"host_name\": \"" << host << "\",\n"
        << "    \"num_cpus\": " << num_cpus << ",\n"
        << "    \"executable\": \"stream_service\"\n"
        << "  },\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < json_cells.size(); ++i) {
      const JsonCell& c = json_cells[i];
      out << "    {\"name\": \"" << c.name
          << "\", \"items_per_second\": " << c.items_per_second
          << ", \"workers\": " << c.workers << ", \"oversubscribed\": "
          << (c.oversubscribed ? "true" : "false") << "}"
          << (i + 1 < json_cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  std::cout << (deterministic
                    ? "determinism holds: every policy x worker cell matches "
                      "the modeled scheduler's hashes and iteration counts\n"
                    : "DETERMINISM VIOLATION (see stderr)\n")
            << "expected shape: wall frames/s scales with workers until "
               "submission or memory bandwidth binds; fifo pays one "
               "reconfiguration per mode switch, binned amortises them.\n";
  return deterministic ? 0 : 1;
}
