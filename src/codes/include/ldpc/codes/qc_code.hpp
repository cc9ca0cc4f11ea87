// Expanded quasi-cyclic LDPC code with layered and flat (CSR) views.
//
// The layered view drives the paper's block-serial scheduling: layer l is
// block row l of the base matrix; each non-zero block contributes one column
// group processed in one "macro" step by z parallel SISO decoders. The flat
// CSR view serves the flooding baseline decoders and parity checking.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ldpc/codes/base_matrix.hpp"

namespace ldpc::codes {

/// One non-zero z x z block within a layer.
struct BlockEntry {
  int block_col = 0;  // column group index in [0, k)
  int shift = 0;      // cyclic shift x in [0, z)
};

/// How a codeword maps onto the channel. 5G NR LDPC (TS 38.212) never
/// transmits the first two block columns (they are recovered from their
/// high check degree), pads the information part with known-zero filler
/// bits, and rate-matches the remaining "sendable" bits to an arbitrary
/// transmitted length E by circular-buffer wraparound (E < sendable drops
/// a tail; E > sendable repeats bits, whose LLRs accumulate at the
/// receiver). The 2008-era standards are the degenerate scheme: nothing
/// punctured, no fillers, E = n.
struct TransmissionScheme {
  /// First `punctured_block_cols` block columns are never transmitted
  /// (their channel LLR is an exact zero — an erasure, not a weak bit).
  int punctured_block_cols = 0;
  /// Known-zero bits occupying the tail of the information part,
  /// positions [k_info - filler_bits, k_info). Not transmitted; the
  /// decoder pins them to the strongest positive LLR.
  int filler_bits = 0;
  /// Rate-matched transmission length E. 0 means "every sendable bit
  /// exactly once" (E = n - punctured - fillers).
  int transmitted_bits = 0;
  /// HARQ redundancy version in [0, 4): selects the read start position k0
  /// into the circular buffer (TS 38.212 style), so each retransmission
  /// round extracts a different E-bit window. rv0 starts at 0 — the
  /// historical behaviour — so every pre-HARQ scheme is unchanged.
  int redundancy_version = 0;

  /// True for the classic full-codeword transmission (802.11n / 802.16e /
  /// DMB-T): every datapath behaves exactly as before the scheme existed.
  bool is_degenerate() const noexcept {
    return punctured_block_cols == 0 && filler_bits == 0 &&
           transmitted_bits == 0 && redundancy_version == 0;
  }

  friend bool operator==(const TransmissionScheme&,
                         const TransmissionScheme&) = default;
};

/// All non-zero blocks of one block row, in column order.
using Layer = std::vector<BlockEntry>;

class QCCode {
 public:
  /// Expands `base` by factor z. Throws std::invalid_argument if any shift
  /// is >= z or the matrix has an empty row/column (such a code is
  /// degenerate: a variable with no checks or a vacuous check).
  QCCode(BaseMatrix base, int z, std::string name = {});

  const std::string& name() const noexcept { return name_; }
  const BaseMatrix& base() const noexcept { return base_; }

  int z() const noexcept { return z_; }
  int block_rows() const noexcept { return base_.rows(); }   // j
  int block_cols() const noexcept { return base_.cols(); }   // k
  int n() const noexcept { return base_.cols() * z_; }       // codeword bits
  int m() const noexcept { return base_.rows() * z_; }       // checks
  int k_info() const noexcept { return n() - m(); }          // info bits
  double rate() const noexcept {
    return static_cast<double>(k_info()) / n();
  }
  /// Number of non-zero sub-matrices (the paper's E in the throughput
  /// formula).
  int nonzero_blocks() const noexcept { return nonzero_blocks_; }
  /// Total Tanner-graph edges = E * z.
  int edges() const noexcept { return nonzero_blocks_ * z_; }

  /// Layered view: layers()[l] lists the non-zero blocks of block row l.
  const std::vector<Layer>& layers() const noexcept { return layers_; }

  /// Check-node adjacency in CSR form: variable indices of check row r are
  /// check_vars(r). Within a row, entries appear in ascending block-column
  /// order (matching the block-serial processing order).
  std::span<const std::int32_t> check_vars(int r) const;
  /// Degree of check row r. All z rows of a layer share one degree.
  int check_degree(int r) const;

  /// Raw CSR arrays behind check_vars(): row offsets (size m+1) into the
  /// flat variable-index array (size edges). The dispatched SoA stop scans
  /// (kernels::cw_scan_kernel) walk these directly.
  std::span<const std::int32_t> check_row_ptr() const noexcept {
    return row_ptr_;
  }
  std::span<const std::int32_t> check_col_idx() const noexcept {
    return col_idx_;
  }

  /// Variable-node adjacency: check indices of variable n.
  std::span<const std::int32_t> var_checks(int v) const;
  int var_degree(int v) const;

  /// Edge index of the e-th entry of check row r; edge indices enumerate
  /// (check,var) pairs row by row and are used to address message storage.
  int edge_index(int r, int e) const;

  /// True iff `bits` (size n, 0/1) satisfies every parity check.
  bool is_codeword(std::span<const std::uint8_t> bits) const;
  /// Number of unsatisfied parity checks (0 for a codeword).
  int syndrome_weight(std::span<const std::uint8_t> bits) const;

  /// Maximum check-row degree (sizing FIFOs in the SISO model).
  int max_check_degree() const noexcept { return max_check_degree_; }

  // --- transmission scheme (puncturing / fillers / rate matching) ---------

  /// Attaches a transmission scheme. Throws std::invalid_argument when the
  /// scheme does not fit this code (punctured columns beyond the
  /// information part, fillers overlapping the punctured region, E < 1).
  void set_scheme(TransmissionScheme scheme);
  const TransmissionScheme& scheme() const noexcept { return scheme_; }

  /// Information bits that actually carry data (k_info minus fillers).
  int payload_bits() const noexcept {
    return k_info() - scheme_.filler_bits;
  }
  /// Codeword bits eligible for transmission: everything except the
  /// punctured prefix and the filler range (the circular-buffer length).
  int sendable_bits() const noexcept {
    return n() - scheme_.punctured_block_cols * z_ - scheme_.filler_bits;
  }
  /// Rate-matched transmission length E (= sendable_bits() when the scheme
  /// leaves it 0).
  int transmitted_bits() const noexcept {
    return scheme_.transmitted_bits ? scheme_.transmitted_bits
                                    : sendable_bits();
  }
  /// Rate the channel actually sees: payload bits per transmitted bit.
  /// Equals rate() for degenerate schemes; for NR this is the mother rate
  /// after puncturing (1/3 for BG1, 1/5 for BG2) or the rate-matched value.
  double effective_rate() const noexcept {
    return static_cast<double>(payload_bits()) / transmitted_bits();
  }
  /// Codeword index carrying sendable position s in [0, sendable_bits()):
  /// the punctured prefix is skipped, then the filler range. Transmitted
  /// position i maps through tx_bit_index(i % sendable_bits()).
  int tx_bit_index(int s) const noexcept {
    int idx = scheme_.punctured_block_cols * z_ + s;
    if (idx >= k_info() - scheme_.filler_bits) idx += scheme_.filler_bits;
    return idx;
  }
  /// Circular-buffer read start position k0 for redundancy version rv in
  /// [0, 4), z-aligned as in TS 38.212 Table 5.4.2.1-2: BG1 (68 block
  /// cols) uses {0, 17, 33, 56}/66 of the buffer, BG2 (52) uses
  /// {0, 13, 25, 43}/50; other codes fall back to quarters. rv0 is always
  /// 0. Transmitted position i of round rv maps through
  /// tx_bit_index((k0 + i) % sendable_bits()).
  int rv_start(int rv) const;
  /// rv_start(scheme().redundancy_version): the read offset of the
  /// attached scheme.
  int rv_start() const { return rv_start(scheme_.redundancy_version); }
  /// Walks redundancy version `rv`'s transmitted window as dense runs, in
  /// transmission order: f(i, v, len) says transmitted positions
  /// [i, i + len) land on codeword indices [v, v + len) — the same map as
  /// tx_bit_index((rv_start(rv) + i) % sendable_bits()), without a
  /// per-position modulo or branch. Each pass over the circular buffer
  /// crosses the filler gap at most once, so a window with E <=
  /// sendable_bits() (it wraps at most once) is at most four runs.
  template <class F>
  void for_each_tx_run(int rv, F&& f) const {
    const int sendable = sendable_bits();
    const int e_bits = transmitted_bits();
    const int punct = scheme_.punctured_block_cols * z_;
    // Sendable positions below s_break land at punct + s; the rest shift
    // up by filler_bits.
    const int s_break = k_info() - scheme_.filler_bits - punct;
    int s = rv_start(rv);
    for (int i = 0; i < e_bits;) {
      const bool low = s < s_break;
      const int run_end = low ? s_break : sendable;
      const int len = run_end - s < e_bits - i ? run_end - s : e_bits - i;
      f(i, punct + s + (low ? 0 : scheme_.filler_bits), len);
      i += len;
      s += len;
      if (s == sendable) s = 0;
    }
  }
  /// Extracts the transmitted sequence (size transmitted_bits(), with
  /// wraparound repetition) from a full codeword (size n), reading from
  /// the attached scheme's redundancy-version start offset.
  void extract_transmitted(std::span<const std::uint8_t> codeword,
                           std::span<std::uint8_t> tx) const;
  /// Same, reading from redundancy version `rv`'s start offset instead of
  /// the attached scheme's.
  void extract_transmitted(std::span<const std::uint8_t> codeword,
                           std::span<std::uint8_t> tx, int rv) const;

 private:
  std::string name_;
  BaseMatrix base_;
  TransmissionScheme scheme_;
  int z_ = 0;
  int nonzero_blocks_ = 0;
  int max_check_degree_ = 0;

  std::vector<Layer> layers_;

  // CSR over expanded H (checks x vars).
  std::vector<std::int32_t> row_ptr_;   // size m+1
  std::vector<std::int32_t> col_idx_;   // size edges
  // CSC-like transpose (vars -> check indices).
  std::vector<std::int32_t> var_ptr_;   // size n+1
  std::vector<std::int32_t> var_adj_;   // size edges
};

}  // namespace ldpc::codes
