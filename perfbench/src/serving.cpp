#include "serving.hpp"

#include <map>
#include <tuple>

namespace perfbench {

void ModelTally::add(const ldpc::stream::StreamReport& report,
                     double host_seconds, bool ledgers) {
  const auto n = static_cast<long long>(report.jobs.size());
  pass_frames += n;
  pass_seconds += host_seconds;
  if (!ledgers) return;
  frames += n;
  payload_bits += report.total_payload_bits;
  makespan_cycles += report.makespan_cycles;
  decode_cycles += report.totals.decode_cycles;
  elapsed_cycles += report.totals.elapsed_cycles();
  reconfigurations += report.totals.reconfigurations;
  for (const auto& job : report.jobs) iterations += job.iterations;
}

void ModelTally::end_pass() {
  host_fps.push_back(static_cast<double>(pass_frames) / pass_seconds);
  pass_frames = 0;
  pass_seconds = 0.0;
}

void ModelTally::emit_end_to_end(Outcome& out) const {
  out.end_to_end["model_frames_per_s"] = {median(host_fps), "1/s"};
  out.end_to_end["model_payload_gbps"] = {
      makespan_cycles ? static_cast<double>(payload_bits) * kChipClockHz /
                            static_cast<double>(makespan_cycles) * 1e-9
                      : 0.0,
      "Gb/s"};
}

void ModelTally::emit_per_layer(Outcome& out) const {
  const double fps = median(host_fps);
  out.per_layer["arch.model_us_per_frame"] = {fps > 0 ? 1e6 / fps : 0.0,
                                              "us"};
  out.per_layer["arch.model_reconfigs"] = {
      static_cast<double>(reconfigurations), "count"};
  out.per_layer["arch.model_occupancy"] = {
      elapsed_cycles ? static_cast<double>(decode_cycles) /
                           static_cast<double>(elapsed_cycles)
                     : 0.0,
      "frac"};
}

void ServiceTally::add(const ldpc::stream::StreamReport& report) {
  // A decode_bin call stamps every job of its bin with the same
  // (worker, start, finish): group on that key to recover the bins.
  std::map<std::tuple<int, long long, long long>, int> bins;
  for (const auto& job : report.jobs) {
    queue_wait_us.push_back(
        static_cast<double>(job.wall_start_ns - job.wall_submit_ns) * 1e-3);
    ++bins[{job.worker, job.wall_start_ns, job.wall_finish_ns}];
  }
  double busy_ns = 0.0;
  for (const auto& [key, count] : bins) {
    const double span = static_cast<double>(std::get<2>(key) -
                                            std::get<1>(key));
    bin_frames.push_back(count);
    bin_decode_us.push_back(span * 1e-3);
    busy_ns += span;
  }
  if (report.wall_elapsed_ns > 0 && workers > 0)
    busy_frac.push_back(busy_ns /
                        (static_cast<double>(report.wall_elapsed_ns) *
                         workers));
  frames += static_cast<long long>(report.jobs.size());
  reconfigurations += report.totals.reconfigurations;
  for (const long long s : report.worker_steals) steals += s;
}

void ServiceTally::emit_per_layer(Outcome& out, const Trace& trace) const {
  auto& m = out.per_layer;
  const auto submit = trace.durations_us("stream.submit");
  m["stream.service_start_ms"] = {
      median(trace.durations_us("stream.service_start")) * 1e-3, "ms"};
  m["stream.submit_us_p50"] = {percentile(submit, 50.0), "us"};
  m["stream.submit_us_p99"] = {percentile(submit, 99.0), "us"};
  m["stream.queue_wait_us_p50"] = {percentile(queue_wait_us, 50.0), "us"};
  m["stream.queue_wait_us_p99"] = {percentile(queue_wait_us, 99.0), "us"};
  const double bin_mean = mean(bin_frames);
  m["stream.bin_frames_mean"] = {bin_mean, "count"};
  m["stream.bin_fill_frac"] = {lanes ? bin_mean / lanes : 0.0, "frac"};
  m["stream.bin_decode_us_mean"] = {mean(bin_decode_us), "us"};
  m["stream.busy_frac"] = {median(busy_frac), "frac"};
  const double kframes = static_cast<double>(frames) * 1e-3;
  m["stream.reconfigs_per_kframe"] = {
      kframes > 0 ? static_cast<double>(reconfigurations) / kframes : 0.0,
      "1/kframe"};
  m["stream.steals"] = {
      kframes > 0 ? static_cast<double>(steals) / kframes : 0.0, "1/kframe"};
  m["stream.finish_ms"] = {median(finish_ms), "ms"};
}

}  // namespace perfbench
