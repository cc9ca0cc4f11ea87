#include "ldpc/codes/qc_code.hpp"

#include <algorithm>
#include <stdexcept>

namespace ldpc::codes {

QCCode::QCCode(BaseMatrix base, int z, std::string name)
    : name_(std::move(name)), base_(std::move(base)), z_(z) {
  if (z_ <= 0) throw std::invalid_argument("QCCode: z must be positive");
  if (base_.max_shift() >= z_)
    throw std::invalid_argument("QCCode: shift >= z in base matrix");

  const int j = base_.rows();
  const int k = base_.cols();
  layers_.resize(j);
  for (int r = 0; r < j; ++r) {
    if (base_.row_degree(r) == 0)
      throw std::invalid_argument("QCCode: empty block row");
    for (int c = 0; c < k; ++c)
      if (!base_.is_zero(r, c)) layers_[r].push_back({c, base_.at(r, c)});
  }
  for (int c = 0; c < k; ++c)
    if (base_.col_degree(c) == 0)
      throw std::invalid_argument("QCCode: empty block column");

  nonzero_blocks_ = base_.nonzero_blocks();

  // Expanded CSR: check row (l*z + t) connects, for each block (c, x) of
  // layer l, to variable c*z + ((t + x) mod z). Row-major enumeration of
  // these pairs defines the edge index space.
  row_ptr_.assign(static_cast<std::size_t>(m()) + 1, 0);
  col_idx_.reserve(static_cast<std::size_t>(edges()));
  for (int l = 0; l < j; ++l) {
    const auto& layer = layers_[l];
    max_check_degree_ = std::max(max_check_degree_,
                                 static_cast<int>(layer.size()));
    for (int t = 0; t < z_; ++t) {
      const int r = l * z_ + t;
      for (const BlockEntry& b : layer) {
        const int v = b.block_col * z_ + (t + b.shift) % z_;
        col_idx_.push_back(v);
      }
      row_ptr_[static_cast<std::size_t>(r) + 1] =
          static_cast<std::int32_t>(col_idx_.size());
    }
  }

  // Transpose for variable-node adjacency.
  var_ptr_.assign(static_cast<std::size_t>(n()) + 1, 0);
  for (std::int32_t v : col_idx_) ++var_ptr_[static_cast<std::size_t>(v) + 1];
  for (std::size_t i = 1; i < var_ptr_.size(); ++i)
    var_ptr_[i] += var_ptr_[i - 1];
  var_adj_.resize(col_idx_.size());
  std::vector<std::int32_t> cursor(var_ptr_.begin(), var_ptr_.end() - 1);
  for (int r = 0; r < m(); ++r)
    for (std::int32_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
      const std::int32_t v = col_idx_[e];
      var_adj_[cursor[v]++] = r;
    }
}

void QCCode::set_scheme(TransmissionScheme scheme) {
  if (scheme.punctured_block_cols < 0 ||
      scheme.punctured_block_cols * z_ > k_info())
    throw std::invalid_argument(
        "QCCode::set_scheme: punctured columns exceed the information part");
  if (scheme.filler_bits < 0 ||
      scheme.punctured_block_cols * z_ > k_info() - scheme.filler_bits)
    throw std::invalid_argument(
        "QCCode::set_scheme: fillers overlap the punctured region");
  if (scheme.transmitted_bits < 0 ||
      (scheme.transmitted_bits == 0 && !scheme.is_degenerate() &&
       n() - scheme.punctured_block_cols * z_ - scheme.filler_bits <= 0))
    throw std::invalid_argument("QCCode::set_scheme: transmitted bits");
  if (scheme.redundancy_version < 0 || scheme.redundancy_version >= 4)
    throw std::invalid_argument("QCCode::set_scheme: redundancy version");
  scheme_ = scheme;
}

int QCCode::rv_start(int rv) const {
  if (rv < 0 || rv >= 4)
    throw std::invalid_argument("QCCode::rv_start: rv");
  if (rv == 0) return 0;
  // TS 38.212 fixes k0 as z-aligned fractions of the full circular buffer
  // N_cb: BG1 has N_cb = 66 z (68 block cols minus 2 punctured), BG2 has
  // 50 z. The fractions are expressed over that full buffer; our sendable
  // length differs from N_cb by the filler bits, which the standard keeps
  // in the buffer as <NULL> positions. Scaling over sendable_bits() keeps
  // the same geometry while staying valid for shortened (filler-bearing)
  // codes: k0 = z * floor(num * sendable / (den * z)), clamped into the
  // buffer.
  static constexpr int kBg1Num[4] = {0, 17, 33, 56};
  static constexpr int kBg2Num[4] = {0, 13, 25, 43};
  const int* num = nullptr;
  int den = 4;
  if (block_cols() == 68) {
    num = kBg1Num;
    den = 66;
  } else if (block_cols() == 52) {
    num = kBg2Num;
    den = 50;
  }
  const long long sendable = sendable_bits();
  long long k0;
  if (num) {
    k0 = static_cast<long long>(z_) *
         (static_cast<long long>(num[rv]) * sendable /
          (static_cast<long long>(den) * z_));
  } else {
    // Codes without a standard table: quarter offsets, z-aligned.
    k0 = static_cast<long long>(z_) *
         (static_cast<long long>(rv) * sendable / (4LL * z_));
  }
  return static_cast<int>(k0 % sendable);
}

void QCCode::extract_transmitted(std::span<const std::uint8_t> codeword,
                                 std::span<std::uint8_t> tx) const {
  extract_transmitted(codeword, tx, scheme_.redundancy_version);
}

void QCCode::extract_transmitted(std::span<const std::uint8_t> codeword,
                                 std::span<std::uint8_t> tx, int rv) const {
  if (codeword.size() != static_cast<std::size_t>(n()))
    throw std::invalid_argument("QCCode::extract_transmitted: codeword");
  if (tx.size() != static_cast<std::size_t>(transmitted_bits()))
    throw std::invalid_argument("QCCode::extract_transmitted: tx size");
  for_each_tx_run(rv, [&](int i, int v, int len) {
    std::copy_n(codeword.begin() + v, len, tx.begin() + i);
  });
}

std::span<const std::int32_t> QCCode::check_vars(int r) const {
  if (r < 0 || r >= m()) throw std::out_of_range("QCCode::check_vars");
  return {col_idx_.data() + row_ptr_[r],
          static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
}

int QCCode::check_degree(int r) const {
  if (r < 0 || r >= m()) throw std::out_of_range("QCCode::check_degree");
  return row_ptr_[r + 1] - row_ptr_[r];
}

std::span<const std::int32_t> QCCode::var_checks(int v) const {
  if (v < 0 || v >= n()) throw std::out_of_range("QCCode::var_checks");
  return {var_adj_.data() + var_ptr_[v],
          static_cast<std::size_t>(var_ptr_[v + 1] - var_ptr_[v])};
}

int QCCode::var_degree(int v) const {
  if (v < 0 || v >= n()) throw std::out_of_range("QCCode::var_degree");
  return var_ptr_[v + 1] - var_ptr_[v];
}

int QCCode::edge_index(int r, int e) const {
  if (r < 0 || r >= m()) throw std::out_of_range("QCCode::edge_index");
  if (e < 0 || e >= check_degree(r))
    throw std::out_of_range("QCCode::edge_index: entry");
  return row_ptr_[r] + e;
}

bool QCCode::is_codeword(std::span<const std::uint8_t> bits) const {
  return syndrome_weight(bits) == 0;
}

int QCCode::syndrome_weight(std::span<const std::uint8_t> bits) const {
  if (bits.size() != static_cast<std::size_t>(n()))
    throw std::invalid_argument("QCCode::syndrome_weight: size");
  int weight = 0;
  for (int r = 0; r < m(); ++r) {
    unsigned parity = 0;
    for (std::int32_t v : check_vars(r)) parity ^= bits[v] & 1u;
    weight += static_cast<int>(parity);
  }
  return weight;
}

}  // namespace ldpc::codes
