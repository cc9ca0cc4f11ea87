// HARQ soft-buffer combining in front of the deposit layer.
//
// Incremental-redundancy HARQ keeps the receiver's soft information alive
// across retransmission rounds: round r transmits the E-bit circular-buffer
// window starting at rv_start(rv_r), and the receiver adds the new channel
// LLRs onto the retained sum before decoding again. The repo's deposit
// layer already does exactly this *within* one round for E > sendable
// (wraparound repeats accumulate in a widened double-domain accumulator
// before a single quantise — see deposit_transmitted); HarqSoftBuffer
// extends the same accumulate-then-quantise discipline *across* rounds, so
// cross-round combining is bit-identical to the one-shot wraparound path by
// construction:
//
//   - every received transmitted position adds its unquantised LLR into a
//     codeword-indexed double accumulator via the identical
//     tx_bit_index((k0 + i) % sendable) map, walked as dense runs
//     (QCCode::for_each_tx_run);
//   - quantisation happens exactly once, when the combined frame is handed
//     to a decoder — never per round (quantising each round separately
//     would round twice and rail early, losing the combining gain);
//   - positions no round has covered stay exact-zero erasures, punctured
//     columns stay erasures, fillers rail to the APP max — the same
//     semantics as the one-shot deposit.
//
// A buffer holding exactly one rv0 round therefore quantises to the same
// raw codes as deposit_transmitted on that round's LLRs, which is what
// makes round-1 HARQ free: no special case anywhere downstream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/datapath.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"

namespace ldpc::core {

/// Per-session receiver soft state: the double-domain LLR accumulator over
/// the full codeword plus the coverage separating "received, sums to x"
/// from "never transmitted" (an exact-zero erasure — quantisers must not
/// apply the zero-excluding nudge there). Coverage is kept as the sorted,
/// disjoint codeword-index runs the received windows hit: every window is
/// a handful of dense runs (QCCode::for_each_tx_run), so the union stays
/// a few runs however many rounds land.
class HarqSoftBuffer {
 public:
  /// Half-open codeword-index run [begin, end) that some round covered.
  struct Run {
    int begin = 0;
    int end = 0;
    bool operator==(const Run&) const = default;
  };

  HarqSoftBuffer() = default;

  /// Clears the buffer for a new transport block of code `code`.
  void reset(const codes::QCCode& code) {
    acc_.assign(static_cast<std::size_t>(code.n()), 0.0);
    covered_.clear();
    rounds_ = 0;
  }

  /// Accumulates one round's transmitted LLRs (size
  /// code.transmitted_bits()) received with redundancy version `rv`. The
  /// map is the deposit layer's own — transmitted position i lands on
  /// codeword index tx_bit_index((rv_start(rv) + i) % sendable) — walked
  /// as dense runs in transmission order, so every position sums its
  /// repeats in the same order as a per-position walk (bit-identical).
  void add_round(const codes::QCCode& code, std::span<const double> tx,
                 int rv) {
    if (acc_.size() != static_cast<std::size_t>(code.n()))
      throw std::invalid_argument("HarqSoftBuffer::add_round: not reset");
    if (tx.size() != static_cast<std::size_t>(code.transmitted_bits()))
      throw std::invalid_argument("HarqSoftBuffer::add_round: tx size");
    code.for_each_tx_run(rv, [&](int i, int v, int len) {
      double* dst = acc_.data() + v;
      const double* src = tx.data() + i;
      for (int j = 0; j < len; ++j) dst[j] += src[j];
      cover({v, v + len});
    });
    ++rounds_;
  }

  int rounds() const noexcept { return rounds_; }
  std::span<const double> llrs() const noexcept { return acc_; }
  /// The covered codeword runs, ascending and pairwise disjoint
  /// (non-adjacent). Punctured columns and fillers are never covered.
  std::span<const Run> covered() const noexcept { return covered_; }

 private:
  /// Unions `run` into the sorted run list, merging overlaps and
  /// neighbours.
  void cover(Run run) {
    auto it = std::lower_bound(
        covered_.begin(), covered_.end(), run,
        [](const Run& a, const Run& b) { return a.begin < b.begin; });
    it = covered_.insert(it, run);
    if (it != covered_.begin() && std::prev(it)->end >= it->begin) --it;
    auto last = std::next(it);
    while (last != covered_.end() && last->begin <= it->end) {
      it->end = std::max(it->end, last->end);
      ++last;
    }
    covered_.erase(std::next(it), last);
  }

  std::vector<double> acc_;  // codeword-indexed LLR sums
  std::vector<Run> covered_;
  int rounds_ = 0;
};

/// Quantises a combined soft buffer into lane element type T raw codes
/// (size n) with the dispatched batch quantiser — the fused counterpart of
/// deposit_transmitted_quant for the cross-round case. Only the covered
/// runs are quantised; everything else keeps the exact-zero erasure and
/// fillers rail to the APP max, so every emitted code equals the int32
/// path's code narrowed.
template <class T>
void deposit_combined_quant(const codes::QCCode& code,
                            const DatapathTraits<std::int32_t>& traits,
                            const HarqSoftBuffer& buf, std::span<T> raw) {
  const int n = code.n();
  if (buf.llrs().size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("deposit_combined_quant: buffer size");
  if (raw.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("deposit_combined_quant: raw size");
  if (traits.app_fmt.raw_max() >
      kernels::lane_raw_max(kernels::lane_type_of<T>))
    throw std::invalid_argument(
        "deposit_combined_quant: config rails exceed lane type " +
        kernels::to_string(kernels::lane_type_of<T>));
  const codes::TransmissionScheme& scheme = code.scheme();

  const kernels::QuantSpec spec{
      static_cast<double>(std::int64_t{1} << traits.fmt.frac_bits()),
      traits.fmt.raw_max(), traits.exclude_zero};
  const kernels::QuantFnT<T> quant = kernels::quant_kernel<T>();
  const double* acc = buf.llrs().data();

  std::fill(raw.begin(), raw.end(), T{});
  for (const HarqSoftBuffer::Run& run : buf.covered())
    quant(acc + run.begin, raw.data() + run.begin,
          static_cast<std::size_t>(run.end - run.begin), spec);
  const int filler_start = code.k_info() - scheme.filler_bits;
  for (int f = 0; f < scheme.filler_bits; ++f)
    raw[static_cast<std::size_t>(filler_start + f)] =
        static_cast<T>(traits.filler_value());
}

/// The generic (any DatapathTraits) combined deposit: scalar
/// quantize_llr on covered positions, erasures elsewhere, fillers railed —
/// the cross-round analogue of deposit_transmitted. The int32
/// instantiation routes through the fused kernel above.
template <class Traits>
void deposit_combined(const codes::QCCode& code, const Traits& traits,
                      const HarqSoftBuffer& buf,
                      std::span<typename Traits::value_type> raw) {
  using V = typename Traits::value_type;
  if constexpr (std::is_same_v<V, std::int32_t>) {
    deposit_combined_quant<std::int32_t>(code, traits, buf, raw);
  } else {
    const int n = code.n();
    if (buf.llrs().size() != static_cast<std::size_t>(n))
      throw std::invalid_argument("deposit_combined: buffer size");
    if (raw.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument("deposit_combined: raw size");
    const codes::TransmissionScheme& scheme = code.scheme();
    const std::span<const double> acc = buf.llrs();
    std::fill(raw.begin(), raw.end(), V{});
    for (const HarqSoftBuffer::Run& run : buf.covered())
      for (int v = run.begin; v < run.end; ++v)
        raw[static_cast<std::size_t>(v)] =
            traits.quantize_llr(acc[static_cast<std::size_t>(v)]);
    const int filler_start = code.k_info() - scheme.filler_bits;
    for (int f = 0; f < scheme.filler_bits; ++f)
      raw[static_cast<std::size_t>(filler_start + f)] = traits.filler_value();
  }
}

}  // namespace ldpc::core
