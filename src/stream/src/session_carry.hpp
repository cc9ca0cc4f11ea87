// The closed-loop drivers' per-session carry table (internal to
// src/stream): one SessionState per open session that may still need
// another round, so an escalation synthesises one channel read on top of
// the combined soft state instead of replaying the session's earlier
// rounds (TrafficSource::make_frame(job, state)).
//
// Ownership follows the session's single in-flight request. The thread
// that opens a session (the live driver, or the modeled scheduler) fills
// its slot before handing the round-0 request on; whoever holds the
// session's request next — the completing worker in on_complete, the
// driver after a refused submit, the scheduler after a decode — is the
// only thread touching the slot, and the hand-offs between them (the
// service's admission queue, the feedback mutex) order every access. The
// slot array itself never reallocates, so no lock guards it.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ldpc/stream/stream_types.hpp"
#include "ldpc/stream/traffic.hpp"

namespace ldpc::stream {

class SessionCarry {
 public:
  /// Room for `sessions` sessions with consecutive ids, starting at the
  /// first one opened. `keep` says whether a completed round's session
  /// goes again (its state stays) or resolves (its state is released).
  SessionCarry(long long sessions, std::function<bool(const StreamJob&)> keep)
      : slots_(static_cast<std::size_t>(sessions)), keep_(std::move(keep)) {}

  /// The empty state of a session opening with its round-0 job. Called by
  /// one thread only (the one drawing round-0 jobs).
  SessionState& open(long long session) {
    if (first_ < 0) first_ = session;
    std::unique_ptr<SessionState>& slot = slots_.at(index(session));
    if (slot) throw std::logic_error("closed loop: session opened twice");
    slot = std::make_unique<SessionState>();
    const long long held = held_.fetch_add(1) + 1;
    if (held > peak_) peak_ = held;
    return *slot;
  }

  /// The state `session` carries into its next round.
  SessionState& at(long long session) {
    std::unique_ptr<SessionState>& slot = slots_.at(index(session));
    if (!slot)
      throw std::logic_error(
          "closed loop: a retransmission without carried state (the source "
          "held pending retransmissions; reset it first)");
    return *slot;
  }

  /// Releases `session`'s state if it holds one (idempotent).
  void release(long long session) {
    std::unique_ptr<SessionState>& slot = slots_.at(index(session));
    if (!slot) return;
    slot.reset();
    held_.fetch_sub(1);
  }

  bool keeps(const StreamJob& rec) const { return keep_(rec); }
  /// States held now / at most at once.
  long long held() const { return held_.load(); }
  long long peak() const { return peak_; }

 private:
  std::size_t index(long long session) const {
    if (first_ < 0 || session < first_ ||
        session - first_ >= static_cast<long long>(slots_.size()))
      throw std::logic_error("closed loop: session outside the run");
    return static_cast<std::size_t>(session - first_);
  }

  std::vector<std::unique_ptr<SessionState>> slots_;
  std::function<bool(const StreamJob&)> keep_;
  long long first_ = -1;
  std::atomic<long long> held_{0};
  long long peak_ = 0;  // written by the opening thread only
};

}  // namespace ldpc::stream
