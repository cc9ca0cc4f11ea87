#include "ldpc/enc/encoder.hpp"

#include <cassert>
#include <stdexcept>

namespace ldpc::enc {

namespace {

using codes::BaseMatrix;
using codes::kZeroBlock;
using codes::QCCode;

/// Accumulates the rotated block `src` into `dst`:
/// dst[t] ^= src[(t + shift) mod z]. This matches the expansion convention
/// of QCCode (check row t of a block touches variable (t + shift) mod z).
/// Runs as two contiguous spans: dst[0, z-s) takes src[s, z) and the
/// wrapped tail dst[z-s, z) takes src[0, s).
void xor_rotated(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
                 int shift, int z) {
  const int s = shift % z;
  std::uint8_t* d = dst.data();
  const std::uint8_t* a = src.data();
  for (int t = 0; t < z - s; ++t) d[t] ^= a[t + s];
  for (int t = z - s; t < z; ++t) d[t] ^= a[t + s - z];
}

/// Collects the non-zero rows of block column c as (row, shift) pairs.
std::vector<std::pair<int, int>> column_entries(const BaseMatrix& base,
                                                int c) {
  std::vector<std::pair<int, int>> out;
  for (int r = 0; r < base.rows(); ++r)
    if (!base.is_zero(r, c)) out.emplace_back(r, base.at(r, c));
  return out;
}

}  // namespace

void Encoder::encode(std::span<const std::uint8_t> info,
                     std::span<std::uint8_t> codeword) const {
  const QCCode& c = code();
  if (info.size() != static_cast<std::size_t>(c.payload_bits()))
    throw std::invalid_argument("encode: info size");
  if (codeword.size() != static_cast<std::size_t>(c.n()))
    throw std::invalid_argument("encode: codeword size");
  const int fillers = c.scheme().filler_bits;
  if (fillers == 0) {
    encode_systematic(info, codeword);
    return;
  }
  // Insert the known-zero fillers at the tail of the information part.
  std::vector<std::uint8_t> full(static_cast<std::size_t>(c.k_info()), 0);
  std::copy(info.begin(), info.end(), full.begin());
  encode_systematic(full, codeword);
}

std::vector<std::uint8_t> Encoder::encode(
    std::span<const std::uint8_t> info) const {
  std::vector<std::uint8_t> cw(static_cast<std::size_t>(code().n()));
  encode(info, cw);
  return cw;
}

bool DualDiagonalEncoder::structure_ok(const QCCode& code) {
  const BaseMatrix& base = code.base();
  const int j = base.rows();
  const int k = base.cols();
  const int kb = k - j;
  if (kb <= 0) return false;

  // h column: exactly three entries with equal first/last shifts.
  const auto h = column_entries(base, kb);
  if (h.size() != 3) return false;
  if (h[0].second != h[2].second) return false;

  // Dual diagonal: column kb+i has zero-shift entries at rows i-1 and i.
  for (int i = 1; i < j; ++i) {
    const auto col = column_entries(base, kb + i);
    if (col.size() != 2) return false;
    if (col[0] != std::make_pair(i - 1, 0) ||
        col[1] != std::make_pair(i, 0))
      return false;
  }
  return true;
}

DualDiagonalEncoder::DualDiagonalEncoder(const QCCode& code) : code_(code) {
  if (!structure_ok(code))
    throw std::invalid_argument(
        "DualDiagonalEncoder: code lacks dual-diagonal structure: " +
        code.name());
  const auto h = column_entries(code.base(), code.block_cols() -
                                                 code.block_rows());
  for (int i = 0; i < 3; ++i) {
    h_rows_[i] = h[i].first;
    h_shifts_[i] = h[i].second;
  }
}

void DualDiagonalEncoder::encode_systematic(
    std::span<const std::uint8_t> info,
    std::span<std::uint8_t> codeword) const {
  const BaseMatrix& base = code_.base();
  const int j = base.rows();
  const int k = base.cols();
  const int z = code_.z();
  const int kb = k - j;

  // Systematic part.
  std::copy(info.begin(), info.end(), codeword.begin());
  std::fill(codeword.begin() + kb * z, codeword.end(), std::uint8_t{0});

  // v[i] = information contribution to block row i.
  std::vector<std::vector<std::uint8_t>> v(
      static_cast<std::size_t>(j), std::vector<std::uint8_t>(z, 0));
  for (int i = 0; i < j; ++i)
    for (int c = 0; c < kb; ++c)
      if (!base.is_zero(i, c))
        xor_rotated(v[i], info.subspan(static_cast<std::size_t>(c) * z, z),
                    base.at(i, c), z);

  // Summing all block rows cancels the dual diagonal and the paired h
  // entries, leaving P_b * p0 = sum_i v[i] with b the middle h shift.
  std::vector<std::uint8_t> s(z, 0);
  for (const auto& vi : v)
    for (int t = 0; t < z; ++t) s[t] ^= vi[t];
  const int b = h_shifts_[1];
  auto p = codeword.subspan(static_cast<std::size_t>(kb) * z, z);
  for (int t = 0; t < z; ++t) p[(t + b) % z] = s[t];  // p0 = P_b^{-1} s

  // Back-substitution down the dual diagonal:
  // row i: v[i] + (h entry at row i) * p0 + p_i + p_{i+1} = 0.
  std::vector<std::uint8_t> acc(z, 0);  // running p_i (p_0 term excluded)
  for (int i = 0; i + 1 < j; ++i) {
    for (int t = 0; t < z; ++t) acc[t] ^= v[i][t];
    for (int e = 0; e < 3; ++e)
      if (h_rows_[e] == i)
        xor_rotated(acc, codeword.subspan(static_cast<std::size_t>(kb) * z, z),
                    h_shifts_[e], z);
    auto pi = codeword.subspan(static_cast<std::size_t>(kb + 1 + i) * z, z);
    std::copy(acc.begin(), acc.end(), pi.begin());
  }
  assert(code_.is_codeword(codeword));
}

bool NrEncoder::structure_ok(const QCCode& code) {
  const BaseMatrix& base = code.base();
  const int j = base.rows();
  const int k = base.cols();
  const int kb = k - j;
  if (kb <= 0 || j < 5) return false;

  // Only the four CORE rows constrain the core parity columns: extension
  // rows may freely reference p0..p3 (they are solved afterwards by direct
  // accumulation), exactly as in the 38.212 base graphs.
  const auto core_entries = [&](int c) {
    std::vector<std::pair<int, int>> out;
    for (const auto& e : column_entries(base, c))
      if (e.first < 4) out.push_back(e);
    return out;
  };

  // First core parity column: core rows {0, 1, 3}, the outer pair sharing
  // one shift around a middle shift of 1 (so the four core rows sum to
  // I_1 * p0).
  const auto h = core_entries(kb);
  if (h.size() != 3) return false;
  if (h[0].first != 0 || h[1].first != 1 || h[2].first != 3) return false;
  if (h[0].second != h[2].second || h[1].second != 1) return false;

  // Double diagonal across the remaining core parity columns.
  const std::pair<int, int> diag[3][2] = {
      {{0, 0}, {1, 0}}, {{1, 0}, {2, 0}}, {{2, 0}, {3, 0}}};
  for (int i = 0; i < 3; ++i) {
    const auto col = core_entries(kb + 1 + i);
    if (col.size() != 2 || col[0] != diag[i][0] || col[1] != diag[i][1])
      return false;
  }

  // Identity extension columns: exactly one zero-shift entry on their own
  // row (this also guarantees no row reaches forward into later parities).
  for (int r = 4; r < j; ++r) {
    const auto col = column_entries(base, kb + r);
    if (col.size() != 1 || col[0] != std::make_pair(r, 0)) return false;
  }
  return true;
}

NrEncoder::NrEncoder(const QCCode& code) : code_(code) {
  if (!structure_ok(code))
    throw std::invalid_argument(
        "NrEncoder: code lacks the NR core structure: " + code.name());
  s_shift_ = column_entries(code.base(), code.block_cols() -
                                             code.block_rows())[0]
                 .second;
}

void NrEncoder::encode_systematic(std::span<const std::uint8_t> info,
                                  std::span<std::uint8_t> codeword) const {
  const BaseMatrix& base = code_.base();
  const int j = base.rows();
  const int z = code_.z();
  const int kb = base.cols() - j;
  const int s = s_shift_ % z;

  std::copy(info.begin(), info.end(), codeword.begin());
  std::fill(codeword.begin() + static_cast<std::ptrdiff_t>(kb) * z,
            codeword.end(), std::uint8_t{0});
  const auto block = [&](int c) {
    return codeword.subspan(static_cast<std::size_t>(c) * z, z);
  };

  // Information contributions of the four core rows.
  std::vector<std::vector<std::uint8_t>> v(
      4, std::vector<std::uint8_t>(static_cast<std::size_t>(z), 0));
  for (int i = 0; i < 4; ++i)
    for (int c = 0; c < kb; ++c)
      if (!base.is_zero(i, c))
        xor_rotated(v[static_cast<std::size_t>(i)],
                    info.subspan(static_cast<std::size_t>(c) * z, z),
                    base.at(i, c) % z, z);

  // Summing the core rows cancels the double diagonal and the paired
  // s-shift entries of column kb, leaving I_1 * p0 = sum_i v[i]:
  // p0[(t + 1) mod z] = S[t].
  auto p0 = block(kb);
  for (int t = 0; t < z; ++t)
    p0[static_cast<std::size_t>((t + 1) % z)] =
        v[0][static_cast<std::size_t>(t)] ^ v[1][static_cast<std::size_t>(t)] ^
        v[2][static_cast<std::size_t>(t)] ^ v[3][static_cast<std::size_t>(t)];

  // Back-substitute the core: row 0 yields p1, row 1 p2, row 2 p3 (row 3
  // is then satisfied by construction).
  auto p1 = block(kb + 1);
  auto p2 = block(kb + 2);
  auto p3 = block(kb + 3);
  for (int t = 0; t < z; ++t)
    p1[static_cast<std::size_t>(t)] =
        v[0][static_cast<std::size_t>(t)] ^
        p0[static_cast<std::size_t>((t + s) % z)];
  for (int t = 0; t < z; ++t)
    p2[static_cast<std::size_t>(t)] =
        v[1][static_cast<std::size_t>(t)] ^
        p0[static_cast<std::size_t>((t + 1) % z)] ^
        p1[static_cast<std::size_t>(t)];
  for (int t = 0; t < z; ++t)
    p3[static_cast<std::size_t>(t)] =
        v[2][static_cast<std::size_t>(t)] ^ p2[static_cast<std::size_t>(t)];

  // Extension rows: each parity is the direct sum of its row's
  // information and core-parity contributions (the extension column is a
  // zero-shift identity).
  for (int r = 4; r < j; ++r) {
    auto pr = block(kb + r);
    for (int c = 0; c < kb + 4; ++c)
      if (!base.is_zero(r, c))
        xor_rotated(pr, block(c), base.at(r, c) % z, z);
  }
  assert(code_.is_codeword(codeword));
}

std::unique_ptr<Encoder> make_encoder(const QCCode& code) {
  if (DualDiagonalEncoder::structure_ok(code))
    return std::make_unique<DualDiagonalEncoder>(code);
  if (NrEncoder::structure_ok(code)) return std::make_unique<NrEncoder>(code);
  return std::make_unique<DenseEncoder>(code);
}

void random_bits(util::Xoshiro256& rng, std::span<std::uint8_t> bits) {
  for (auto& b : bits) b = rng.bit() ? 1 : 0;
}

}  // namespace ldpc::enc
