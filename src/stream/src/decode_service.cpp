#include "ldpc/stream/decode_service.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/sim/simulator.hpp"

namespace ldpc::stream {

std::string to_string(Admission admission) {
  return admission == Admission::kBlock ? "block" : "reject";
}

struct DecodeService::Worker {
  explicit Worker(const ServiceConfig& config)
      : engine(config.decoder, config.lanes) {}

  core::StreamBatchEngine engine;
  int mode = -1;  // currently configured mode (-1 = none)
  std::thread thread;

  // Local deque of bin residue; the owner takes from the FRONT, thieves
  // from the BACK, both under `mu`.
  std::mutex mu;
  std::deque<QueuedJob> local;

  // Written by the worker thread only; read by finish() after join().
  std::vector<StreamJob> records;
  arch::FramePipelineStats ledger;
  long long steals = 0;
  std::exception_ptr error;
};

DecodeService::DecodeService(const TrafficSource& source,
                             ServiceConfig config)
    : source_(source),
      config_(config),
      epoch_(std::chrono::steady_clock::now()),
      queue_(config.queue_capacity) {
  if (config_.workers <= 0 || config_.max_local_batch < 0 ||
      config_.max_bin_delay_ns < 0 || config_.slo.default_deadline_ns < 0)
    throw std::invalid_argument("DecodeService: config");
  // The chip model decodes under an optimised layer schedule, and layer
  // order changes layered-BP arithmetic — precompute each mode's order so
  // the live workers stay bit-identical to the modeled reference.
  const arch::ChipDimensions dims = arch::ChipDimensions::universal();
  orders_.reserve(static_cast<std::size_t>(source_.mode_count()));
  for (int m = 0; m < source_.mode_count(); ++m) {
    if (!dims.fits(source_.code(m)))
      throw std::invalid_argument("DecodeService: mode " +
                                  source_.code(m).name() +
                                  " exceeds universal chip dimensions");
    orders_.push_back(
        arch::chip_layer_order(source_.code(m), config_.decoder, dims));
  }
  // Engine construction validates the decoder config (min-sum family,
  // quantized datapath, rails/lanes) — any failure surfaces here, before
  // a single thread is spawned.
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w)
    workers_.push_back(std::make_unique<Worker>(config_));
  engine_lanes_ = workers_.front()->engine.lanes();
  batch_ = config_.max_local_batch > 0 ? config_.max_local_batch
                                       : engine_lanes_;
  for (int w = 0; w < config_.workers; ++w)
    workers_[static_cast<std::size_t>(w)]->thread =
        std::thread([this, w] { worker_main(w); });
}

DecodeService::~DecodeService() { shutdown(); }

long long DecodeService::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool DecodeService::submit(ServiceRequest request) {
  if (request.mode < 0 || request.mode >= source_.mode_count())
    throw std::invalid_argument("DecodeService::submit: unknown mode");
  const codes::QCCode& code = source_.code(request.mode);
  const long long payload = code.payload_bits();
  if (!request.expected_payload.empty() &&
      request.expected_payload.size() < static_cast<std::size_t>(payload))
    throw std::invalid_argument(
        "DecodeService::submit: expected_payload size");
  if (request.quantised.empty()) {
    // The double-LLR adapter: quantise once, here on the submitter's
    // thread, so the queue and the workers see one ingest domain.
    if (request.llrs.size() !=
        static_cast<std::size_t>(code.transmitted_bits()))
      throw std::invalid_argument("DecodeService::submit: llr size");
    request.quantised =
        sim::quantise_llrs(code, config_.decoder, request.llrs);
    std::vector<double>().swap(request.llrs);
  } else if (!request.llrs.empty()) {
    throw std::invalid_argument(
        "DecodeService::submit: both llrs and quantised payloads");
  } else if (!request.quantised.valid_for(code.n())) {
    throw std::invalid_argument(
        "DecodeService::submit: quantised frame does not match the mode");
  }

  QueuedJob job;
  job.submit_ns = now_ns();
  if (request.cls == TrafficClass::kDeadline) {
    const long long rel = request.deadline_ns > 0
                              ? request.deadline_ns
                              : config_.slo.default_deadline_ns;
    if (rel > 0) job.deadline_abs_ns = job.submit_ns + rel;
  }
  // First-submission stamp for wall_elapsed_ns (CAS: submits may race).
  long long expected = -1;
  first_submit_ns_.compare_exchange_strong(expected, job.submit_ns);
  job.req = std::move(request);

  const bool admitted = config_.admission == Admission::kBlock
                            ? queue_.push(std::move(job))
                            : queue_.try_push(std::move(job));
  if (!admitted) {
    rejected_jobs_.fetch_add(1, std::memory_order_relaxed);
    rejected_payload_bits_.fetch_add(payload, std::memory_order_relaxed);
  }
  return admitted;
}

std::size_t DecodeService::select_index(const std::deque<QueuedJob>& q,
                                        long long now,
                                        int worker_mode) const {
  // EDF over deadline-class jobs trumps everything when the SLO policy is
  // on: the queue's tightest deadline is served next, farm-wide.
  if (config_.slo.enabled) {
    std::size_t best = q.size();
    long long best_deadline = std::numeric_limits<long long>::max();
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].req.cls != TrafficClass::kDeadline) continue;
      const long long d = q[i].deadline_abs_ns
                              ? q[i].deadline_abs_ns
                              : std::numeric_limits<long long>::max() - 1;
      if (d < best_deadline) {
        best_deadline = d;
        best = i;
      }
    }
    if (best < q.size()) return best;
  }
  // Binning disabled: strict oldest-first.
  if (config_.max_bin_delay_ns == 0) return 0;
  // The delay bound caps binning-induced queueing: an overdue oldest job
  // is served unconditionally, as in the modeled binned policy.
  if (now - q.front().submit_ns >= config_.max_bin_delay_ns) return 0;
  if (worker_mode >= 0) {
    for (std::size_t i = 0; i < q.size(); ++i)
      if (q[i].req.mode == worker_mode) return i;
  }
  return 0;
}

std::size_t DecodeService::take_local(Worker& w,
                                      std::vector<QueuedJob>& bin) {
  std::unique_lock<std::mutex> lock(w.mu);
  if (w.local.empty()) return 0;
  // The front run shares one mode by construction (claims are same-mode
  // bins), but a stolen-into future could break that — gate on it anyway.
  const int mode = w.local.front().req.mode;
  std::size_t taken = 0;
  while (!w.local.empty() &&
         taken < static_cast<std::size_t>(batch_) &&
         w.local.front().req.mode == mode) {
    bin.push_back(std::move(w.local.front()));
    w.local.pop_front();
    ++taken;
  }
  return taken;
}

std::size_t DecodeService::claim_central(Worker& w,
                                         std::vector<QueuedJob>& bin) {
  auto selector = [&](const std::deque<QueuedJob>& q) {
    return select_index(q, now_ns(), w.mode);
  };
  // Binning on: grab up to two engine batches of the seed's mode (the
  // residue parks in the local deque and is stealable). Binning off:
  // exactly the selected job, preserving strict dispatch order.
  const std::size_t max_total =
      config_.max_bin_delay_ns > 0
          ? static_cast<std::size_t>(batch_) * 2
          : 1;
  // A bin holds one mode and one non-deadline class (best-effort with
  // best-effort, storage with storage). Deadline-class jobs are never
  // chunked: EDF order is per-job.
  auto same_bin = [](const QueuedJob& seed, const QueuedJob& cand) {
    return seed.req.cls != TrafficClass::kDeadline &&
           cand.req.cls == seed.req.cls && cand.req.mode == seed.req.mode;
  };
  const std::size_t taken = queue_.claim(selector, same_bin, max_total, bin);
  if (taken > static_cast<std::size_t>(batch_)) {
    // Park the residue beyond one engine dispatch in the local deque.
    std::unique_lock<std::mutex> lock(w.mu);
    for (std::size_t i = static_cast<std::size_t>(batch_); i < bin.size();
         ++i)
      w.local.push_back(std::move(bin[i]));
    bin.resize(static_cast<std::size_t>(batch_));
  }
  return bin.size();
}

bool DecodeService::steal(int thief, std::vector<QueuedJob>& bin) {
  const int n = config_.workers;
  for (int k = 1; k < n; ++k) {
    Worker& victim = *workers_[static_cast<std::size_t>((thief + k) % n)];
    std::unique_lock<std::mutex> lock(victim.mu);
    if (victim.local.empty()) continue;
    bin.push_back(std::move(victim.local.back()));
    victim.local.pop_back();
    lock.unlock();
    workers_[static_cast<std::size_t>(thief)]->steals += 1;
    return true;
  }
  return false;
}

void DecodeService::decode_bin(int index, std::vector<QueuedJob>& bin) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  const int mode = bin.front().req.mode;
  const codes::QCCode& code = source_.code(mode);
  if (w.mode != mode) {
    w.engine.reconfigure(code);
    w.mode = mode;
    w.ledger.reconfigurations += 1;
  }

  // submit() quantised every job, so a bin is one engine call.
  std::vector<const core::QuantisedFrame*> frames;
  frames.reserve(bin.size());
  for (const QueuedJob& job : bin) frames.push_back(&job.req.quantised);
  std::vector<core::FixedDecodeResult> results(bin.size());

  const long long start = now_ns();
  w.engine.decode_quantised(frames, orders_[static_cast<std::size_t>(mode)],
                            results);
  const long long finish = now_ns();

  const auto payload = static_cast<std::size_t>(code.payload_bits());
  for (std::size_t f = 0; f < bin.size(); ++f) {
    const QueuedJob& job = bin[f];
    const core::FixedDecodeResult& result = results[f];
    StreamJob rec;
    rec.id = job.req.id;
    rec.mode = mode;
    rec.worker = index;
    rec.session = job.req.session >= 0 ? job.req.session : job.req.id;
    rec.round = job.req.round;
    rec.rv = job.req.rv;
    rec.iterations = result.iterations;
    rec.converged = result.converged;
    rec.crc_ok = result.crc_ok;
    rec.crc_repaired = result.crc_repaired;
    if (!job.req.expected_payload.empty()) {
      rec.payload_bit_errors = 0;
      for (std::size_t v = 0; v < payload; ++v)
        rec.payload_bit_errors +=
            result.bits[v] != job.req.expected_payload[v];
      rec.payload_ok = rec.payload_bit_errors == 0;
    }
    rec.decision_hash = fnv1a(result.bits);
    rec.cls = job.req.cls;
    rec.wall_submit_ns = job.submit_ns;
    rec.wall_start_ns = start;
    rec.wall_finish_ns = finish;
    rec.deadline_ns = job.deadline_abs_ns;
    rec.finish_seq = finish_seq_.fetch_add(1, std::memory_order_relaxed);
    if (config_.on_complete) config_.on_complete(rec);
    w.records.push_back(std::move(rec));

    w.ledger.frames += 1;
    w.ledger.payload_bits += code.payload_bits();
    w.ledger.decode_cycles += result.datapath_cycles;
  }

  // Monotone max over racing workers.
  long long prev = last_finish_ns_.load(std::memory_order_relaxed);
  while (prev < finish &&
         !last_finish_ns_.compare_exchange_weak(prev, finish)) {
  }
}

void DecodeService::worker_main(int index) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  std::vector<QueuedJob> bin;
  try {
    for (;;) {
      bin.clear();
      if (take_local(w, bin) == 0 && claim_central(w, bin) == 0 &&
          (!config_.work_stealing || !steal(index, bin))) {
        auto selector = [&](const std::deque<QueuedJob>& q) {
          return select_index(q, now_ns(), w.mode);
        };
        auto job = queue_.pop_select_for(selector,
                                         std::chrono::microseconds(500));
        if (job) {
          bin.push_back(std::move(*job));
        } else if (queue_.closed() && queue_.empty()) {
          // Drained and closed; nothing local and nothing to steal (the
          // checks above ran after the close), so the farm is done for
          // this worker — victims can only shrink their own deques now.
          break;
        } else {
          continue;
        }
      }
      decode_bin(index, bin);
    }
  } catch (...) {
    w.error = std::current_exception();
    // Unblock producers and fellow workers rather than deadlocking the
    // farm on a poisoned job; finish() rethrows.
    queue_.close();
  }
}

void DecodeService::shutdown() {
  if (finished_.exchange(true)) return;
  queue_.close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

StreamReport DecodeService::finish() {
  if (finished_.exchange(true))
    throw std::logic_error("DecodeService::finish: already finished");
  queue_.close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();

  for (auto& w : workers_)
    if (w->error) std::rethrow_exception(w->error);

  StreamReport report;
  report.worker_ledgers.reserve(workers_.size());
  report.worker_steals.reserve(workers_.size());
  for (auto& w : workers_) {
    for (auto& rec : w->records) report.jobs.push_back(std::move(rec));
    report.worker_ledgers.push_back(w->ledger);
    report.totals.merge(w->ledger);
    report.worker_steals.push_back(w->steals);
  }
  std::sort(report.jobs.begin(), report.jobs.end(),
            [](const StreamJob& a, const StreamJob& b) { return a.id < b.id; });
  report.total_payload_bits = report.totals.payload_bits;
  report.rejected_jobs = rejected_jobs_.load();
  report.rejected_payload_bits = rejected_payload_bits_.load();
  const long long t0 = first_submit_ns_.load();
  const long long t1 = last_finish_ns_.load();
  if (t0 >= 0 && t1 >= t0) report.wall_elapsed_ns = t1 - t0;
  return report;
}

}  // namespace ldpc::stream
