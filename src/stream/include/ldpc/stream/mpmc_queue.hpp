// Bounded multi-producer/multi-consumer job queue: the admission point of
// the live serving path (stream::DecodeService).
//
// Semantics chosen for a decode service rather than a generic channel:
//
//   capacity > 0   classic bounded queue: push blocks (or try_push fails)
//                  while `capacity` items are waiting.
//   capacity == 0  rendezvous: a push can only complete by handing the
//                  item to a consumer that is already blocked in claim()
//                  — the strictest backpressure (no buffered latency
//                  hiding at all). try_push succeeds only when a consumer
//                  is waiting.
//   close()        producers: push/try_push return false immediately
//                  (blocked pushes wake and fail — a shutdown while full
//                  rejects the stragglers instead of deadlocking).
//                  Consumers: claims drain the remaining items, then
//                  return 0.
//
// claim() is the one consumer call: it blocks until an item waits, lets
// a selector pick WHICH item seeds the take (under the queue lock, with a
// const view of the deque, index 0 = oldest — this is how the service
// implements EDF and reconfiguration-aware binning without a
// priority-queue rebuild per policy), then sweeps the remaining items in
// queue order, taking those a predicate accepts (same mode, same class),
// up to a cap — one lock hold per dispatched bin.
//
// Plain mutex + two condition variables by design: every operation is
// O(queue length) at worst and the queue hands out millisecond-scale
// decode jobs, so lock-free subtlety would buy nothing measurable while
// costing the selector/claim flexibility. TSan runs the whole thing in CI.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace ldpc::stream {

template <class T>
class BoundedMpmcQueue {
 public:
  /// `capacity` bounds the waiting items; 0 selects rendezvous mode (see
  /// the header comment).
  explicit BoundedMpmcQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedMpmcQueue(const BoundedMpmcQueue&) = delete;
  BoundedMpmcQueue& operator=(const BoundedMpmcQueue&) = delete;

  /// Blocks until the item is admitted (or handed off, at capacity 0);
  /// returns false — with the item dropped — once the queue is closed.
  bool push(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [&] { return closed_ || can_push_locked(); });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking admission: false when closed or when backpressure would
  /// block (full queue, or no waiting consumer at capacity 0).
  bool try_push(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (closed_ || !can_push_locked()) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// The one consumer call, a blocking bin grab. Waits while the queue is
  /// empty (counting as a waiting consumer, so a rendezvous push can hand
  /// off to it); then `selector(const std::deque<T>&) -> std::size_t`
  /// picks a seed item under the queue lock (index 0 = oldest; an
  /// out-of-range return falls back to the oldest), and the remaining
  /// items are swept in queue order: every one accepted by
  /// `pred(seed, candidate)` joins the bin, up to `max_total` items in all
  /// (at least the seed). Taken items are appended to `out`, seed first;
  /// the items left behind keep their order. Returns the count, which is
  /// 0 only once the queue is closed and drained.
  template <class Selector, class Pred>
  std::size_t claim(Selector&& selector, Pred&& pred, std::size_t max_total,
                    std::vector<T>& out) {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    // A rendezvous producer may only proceed while a consumer waits.
    if (capacity_ == 0) not_full_.notify_all();
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    --waiting_;
    if (items_.empty()) return 0;
    std::size_t seed = selector(std::as_const(items_));
    if (seed >= items_.size()) seed = 0;
    const std::size_t first = out.size();
    out.push_back(std::move(items_[seed]));
    // One stable compaction pass: taken items leave holes that the kept
    // items behind them close up, so each kept item moves at most once.
    std::size_t taken = 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i == seed) continue;
      if (taken < max_total &&
          pred(std::as_const(out[first]), std::as_const(items_[i]))) {
        out.push_back(std::move(items_[i]));
        ++taken;
      } else {
        if (kept != i) items_[kept] = std::move(items_[i]);
        ++kept;
      }
    }
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(kept),
                 items_.end());
    not_full_.notify_all();
    return taken;
  }

  /// Wakes every blocked producer (push -> false) and consumer (claims
  /// drain, then return 0). Idempotent.
  void close() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Items currently waiting (a snapshot — stale by the time it returns).
  std::size_t size() const {
    std::unique_lock<std::mutex> lock(mu_);
    return items_.size();
  }

  /// size() == 0, same snapshot caveat.
  bool empty() const {
    std::unique_lock<std::mutex> lock(mu_);
    return items_.empty();
  }

 private:
  bool can_push_locked() const {
    return capacity_ > 0 ? items_.size() < capacity_
                         : items_.size() < waiting_;
  }

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t capacity_;
  std::size_t waiting_ = 0;  // consumers blocked in claim()
  bool closed_ = false;
};

}  // namespace ldpc::stream
