#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ldpc/core/kernels/minsum_kernels.hpp"

namespace perfbench {

namespace {
const Clock::time_point kEpoch = Clock::now();
}

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

namespace {
long long cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<long long>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}
}  // namespace

long long thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

long long process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

ldpc::core::DecoderConfig wireless_decoder() {
  ldpc::core::DecoderConfig cfg;
  cfg.kernel = ldpc::core::CnuKernel::kMinSum;
  cfg.max_iterations = 10;
  cfg.early_termination = {.enabled = true, .threshold_raw = 8};
  return cfg;
}

long long Trace::record(const char* name, long long t0_ns, long long t1_ns,
                        long long parent, long long request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  const long long id = next_id_++;
  auto& durations = durations_us_[name];
  durations.push_back(static_cast<double>(t1_ns - t0_ns) * 1e-3);
  if (durations.size() <= kMaxStoredPerName)
    spans_.push_back({name, id, parent, request, t0_ns, t1_ns});
  else
    ++dropped_[name];
  return id;
}

long long Trace::Scope::close() {
  if (!trace || !trace->enabled()) return -1;
  return trace->record(name, t0, now_ns(), parent);
}

std::vector<double> Trace::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = durations_us_.find(std::string_view(name));
  return it == durations_us_.end() ? std::vector<double>{} : it->second;
}

void Trace::write(const std::string& path, const std::string& header_json,
                  const std::string& metrics_json) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out.precision(15);
  out << "{\n\"host\": " << header_json << ",\n\"per_layer\": "
      << metrics_json << ",\n\"spans_dropped\": {";
  bool first = true;
  for (const auto& [name, count] : dropped_) {
    out << (first ? "" : ", ") << '"' << name << "\": " << count;
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_us\": " << static_cast<double>(s.t0) * 1e-3
        << ", \"end_us\": " << static_cast<double>(s.t1) * 1e-3 << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n}\n";
}

void Outcome::fail(const std::string& why, long long count, bool incorrect) {
  failed += count;
  if (incorrect) correct = false;
  std::cerr << "perfbench: FAILED (" << count << " op"
            << (count == 1 ? "" : "s") << "): " << why << "\n";
}

void fill_bypassed_layers(Outcome& out) {
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"codes.build_ms", "ms"},
      {"stream.service_start_ms", "ms"},
      {"stream.submit_us_p50", "us"},
      {"stream.submit_us_p99", "us"},
      {"stream.queue_wait_us_p50", "us"},
      {"stream.queue_wait_us_p99", "us"},
      {"stream.bin_frames_mean", "count"},
      {"stream.bin_fill_frac", "frac"},
      {"stream.bin_decode_us_mean", "us"},
      {"stream.busy_frac", "frac"},
      {"stream.reconfigs_per_kframe", "1/kframe"},
      {"stream.steals", "1/kframe"},
      {"stream.finish_ms", "ms"},
      {"stream.efficiency", "frac"},
      {"core.ceiling_fps", "1/s"},
      {"core.us_per_frame_iter", "us"},
      {"core.iterations_mean", "count"},
      {"sim.decode_us_per_frame", "us"},
      {"sim.decode_frac", "frac"},
      {"sim.chain_us_per_frame", "us"},
      {"arch.model_us_per_frame", "us"},
      {"arch.model_reconfigs", "count"},
      {"arch.model_occupancy", "frac"},
      {"storage.rung_synth_us", "us"},
      {"storage.synth_frac", "frac"},
      {"storage.rungs_per_page", "count"},
      {"storage.delivered_frac", "frac"},
  };
  for (const auto& [name, unit] : kPerLayer)
    out.per_layer.try_emplace(name, Metric{0.0, unit});
}

std::map<std::string, std::string> host_record() {
  std::map<std::string, std::string> host;
  // CPU brand string straight from CPUID (no file outside the checkout is
  // read).
  host["cpu_model"] = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    if (!model.empty()) host["cpu_model"] = model;
  }
#endif
  host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  host["simd_tier"] =
      ldpc::core::kernels::to_string(ldpc::core::kernels::active_tier());
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["compiler"] = __VERSION__;
  return host;
}

}  // namespace perfbench
