// Kernel-layer unit tests: the dispatch knobs (tier / lane-type parsing,
// width validation), the row matrix — every SIMD tier's layer kernel on a
// one-row layer × lane element type × lane width × min-sum variant ×
// Lambda keep mask, locked lane-for-lane against the scalar int32 row on
// random in-rail inputs, including rails where the narrow lanes saturate —
// the layer matrix — every tier's walk of a whole z-row layer at each
// registered layer degree and two others, against a reference that builds
// each row from QCCode::check_vars — and the fresh-lane merge matrix
// against the reference merge body. The
// engine-level refill-equivalence suite pins absolute decode semantics;
// this suite pins the kernels directly, so a drift in one tier's
// saturation point, tie-breaking, correction or masking shows up as a
// one-word diff here instead of a whole-decode divergence there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ldpc/codes/base_matrix.hpp"
#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"

namespace {

using namespace ldpc::core;
namespace codes = ldpc::codes;

TEST(Kernels, ParseTierAcceptsCaseInsensitively) {
  EXPECT_EQ(kernels::parse_tier("scalar"), kernels::Tier::kScalar);
  EXPECT_EQ(kernels::parse_tier("Scalar"), kernels::Tier::kScalar);
  EXPECT_EQ(kernels::parse_tier("SSE42"), kernels::Tier::kSse42);
  EXPECT_EQ(kernels::parse_tier("sse42"), kernels::Tier::kSse42);
  EXPECT_EQ(kernels::parse_tier("avx2"), kernels::Tier::kAvx2);
  EXPECT_EQ(kernels::parse_tier("AVX2"), kernels::Tier::kAvx2);
  EXPECT_EQ(kernels::parse_tier("Avx512"), kernels::Tier::kAvx512);
  EXPECT_EQ(kernels::parse_tier("AVX512"), kernels::Tier::kAvx512);
}

TEST(Kernels, ParseTierRejectsUnknownNames) {
  // A silent kScalar mapping here once forfeited the whole SIMD win on an
  // LDPC_SIMD typo; unknown names must now be loud.
  EXPECT_THROW(kernels::parse_tier("avx1024"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_tier(""), std::invalid_argument);
  EXPECT_THROW(kernels::parse_tier("sse4.2"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_tier(" avx2"), std::invalid_argument);
  EXPECT_FALSE(kernels::try_parse_tier("neon").has_value());
  ASSERT_TRUE(kernels::try_parse_tier("aVx512").has_value());
  EXPECT_EQ(*kernels::try_parse_tier("aVx512"), kernels::Tier::kAvx512);
}

TEST(Kernels, ParseLaneTypeMirrorsTierParsing) {
  EXPECT_EQ(kernels::parse_lane_type("int32"), kernels::LaneType::kInt32);
  EXPECT_EQ(kernels::parse_lane_type("Int16"), kernels::LaneType::kInt16);
  EXPECT_EQ(kernels::parse_lane_type("INT8"), kernels::LaneType::kInt8);
  EXPECT_THROW(kernels::parse_lane_type("int64"), std::invalid_argument);
  EXPECT_THROW(kernels::parse_lane_type(""), std::invalid_argument);
  EXPECT_FALSE(kernels::try_parse_lane_type("short").has_value());
  ASSERT_TRUE(kernels::try_parse_lane_type("InT8").has_value());
  EXPECT_EQ(*kernels::try_parse_lane_type("InT8"), kernels::LaneType::kInt8);
}

TEST(Kernels, LaneTypeHelpers) {
  EXPECT_EQ(kernels::lane_scale(kernels::LaneType::kInt32), 1);
  EXPECT_EQ(kernels::lane_scale(kernels::LaneType::kInt16), 2);
  EXPECT_EQ(kernels::lane_scale(kernels::LaneType::kInt8), 4);
  EXPECT_EQ(kernels::lane_raw_max(kernels::LaneType::kInt16), 32767);
  EXPECT_EQ(kernels::lane_raw_max(kernels::LaneType::kInt8), 127);
  EXPECT_TRUE(kernels::valid_lane_width(kernels::LaneType::kInt32, 8));
  EXPECT_TRUE(kernels::valid_lane_width(kernels::LaneType::kInt16, 32));
  EXPECT_TRUE(kernels::valid_lane_width(kernels::LaneType::kInt8, 64));
  EXPECT_FALSE(kernels::valid_lane_width(kernels::LaneType::kInt32, 32));
  EXPECT_FALSE(kernels::valid_lane_width(kernels::LaneType::kInt16, 8));
  EXPECT_FALSE(kernels::valid_lane_width(kernels::LaneType::kInt8, 16));
  EXPECT_EQ(kernels::to_string(kernels::LaneType::kInt16), "int16");
}

TEST(Kernels, LayerKernelValidatesWidthPerType) {
  EXPECT_NE(kernels::layer_kernel<std::int32_t>(kernels::Tier::kScalar, 8),
            nullptr);
  EXPECT_NE(kernels::layer_kernel<std::int16_t>(kernels::Tier::kScalar, 32),
            nullptr);
  EXPECT_NE(kernels::layer_kernel<std::int8_t>(kernels::Tier::kScalar, 64),
            nullptr);
  EXPECT_THROW(kernels::layer_kernel<std::int32_t>(kernels::Tier::kScalar, 32),
               std::invalid_argument);
  EXPECT_THROW(kernels::layer_kernel<std::int16_t>(kernels::Tier::kScalar, 8),
               std::invalid_argument);
  EXPECT_THROW(kernels::layer_kernel<std::int8_t>(kernels::Tier::kScalar, 7),
               std::invalid_argument);
  EXPECT_NE(kernels::reference_row<std::int16_t>(16), nullptr);
  EXPECT_THROW(kernels::reference_row<std::int32_t>(64),
               std::invalid_argument);
}

/// The dispatch tiers this host can actually execute, deduplicated.
std::vector<kernels::Tier> available_tiers() {
  std::set<kernels::Tier> seen;
  for (const kernels::Tier t :
       {kernels::Tier::kScalar, kernels::Tier::kSse42, kernels::Tier::kAvx2,
        kernels::Tier::kAvx512})
    seen.insert(kernels::force_tier(t));
  kernels::clear_forced_tier();
  return {seen.begin(), seen.end()};
}

/// Keep-mask patterns of the row matrix: every lane kept, no lane kept
/// (a pass whose every lane was just loaded), and a random mix.
enum class Keep { kAll, kNone, kRandom };

/// One random row case: `deg` edges over `lanes` lanes of type T, inputs
/// uniform within the rails of `bounds`, and a keep mask per `keep`.
/// The row runs as a one-row layer (z = 1, every shift 0, edge e on block
/// column e), so the layer kernels see exactly the row. The reference is
/// the scalar int32 row, run in 8-lane chunks with every lane kept on a
/// Lambda row whose masked lanes were pre-zeroed — the Lambda = 0
/// initialisation the mask stands for. Three calls must match it word for
/// word (updated L rows and Lambda row): the layer kernel under test with
/// the mask on the raw Lambda row, the same kernel with every lane kept on
/// the pre-zeroed row, and the scalar tier of type T at the same width
/// with the mask. When `alias` is set, edge 2 shares its L row with edge 0
/// (block column 0 twice in one layer, a variable appearing twice in one
/// check), locking the write-back ordering too.
template <class T>
void check_row_against_scalar_ref(kernels::Tier tier, int lanes, int deg,
                                  const kernels::RowBounds& bounds,
                                  bool alias, Keep keep,
                                  std::uint32_t seed) {
  SCOPED_TRACE("tier=" + kernels::to_string(tier) + " type=" +
               kernels::to_string(kernels::lane_type_of<T>) + " lanes=" +
               std::to_string(lanes) + " deg=" + std::to_string(deg) +
               (alias ? " aliased" : "") + " keep=" +
               std::to_string(static_cast<int>(keep)) + " seed=" +
               std::to_string(seed));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int32_t> app_dist(bounds.app_lo,
                                                       bounds.app_hi);
  std::uniform_int_distribution<std::int32_t> msg_dist(bounds.msg_lo,
                                                       bounds.msg_hi);
  const auto d = static_cast<std::size_t>(deg);
  const auto w = static_cast<std::size_t>(lanes);

  // Master copies in int32 (all values fit T by construction).
  std::vector<std::vector<std::int32_t>> l0(d,
                                            std::vector<std::int32_t>(w));
  std::vector<std::int32_t> lam0(d * w);
  for (std::size_t e = 0; e < d; ++e)
    for (std::size_t k = 0; k < w; ++k) l0[e][k] = app_dist(rng);
  if (alias && d > 2) l0[2] = l0[0];
  for (auto& v : lam0) v = msg_dist(rng);
  std::vector<std::int32_t> mask(w, -1);
  for (auto& m : mask)
    m = keep == Keep::kNone ? 0
        : keep == Keep::kAll ? -1
                             : (rng() & 1 ? -1 : 0);
  std::vector<std::int32_t> lam_zeroed = lam0;
  for (std::size_t e = 0; e < d; ++e)
    for (std::size_t k = 0; k < w; ++k)
      if (mask[k] == 0) lam_zeroed[e * w + k] = 0;

  // Reference: the scalar int32 row over 8-lane chunks, all lanes kept.
  const auto ref_fn = kernels::reference_row<std::int32_t>(8);
  std::vector<std::vector<std::int32_t>> l_ref = l0;
  std::vector<std::int32_t> lam_ref = lam_zeroed;
  std::vector<std::int32_t> chunk_lam(d * 8), full8(d * 8), clip8(d * 8);
  const std::vector<std::int32_t> keep8(8, -1);
  std::vector<std::vector<std::int32_t>> chunk_l(d,
                                                 std::vector<std::int32_t>(8));
  std::vector<std::int32_t*> rows8(d);
  for (int c = 0; c < lanes / 8; ++c) {
    const auto base = static_cast<std::size_t>(c) * 8;
    for (std::size_t e = 0; e < d; ++e) {
      for (std::size_t k = 0; k < 8; ++k)
        chunk_l[e][k] = l_ref[e][base + k];
      rows8[e] = chunk_l[e].data();
      for (std::size_t k = 0; k < 8; ++k)
        chunk_lam[e * 8 + k] = lam_ref[e * w + base + k];
    }
    if (alias && d > 2) rows8[2] = rows8[0];  // mirror the aliasing
    ref_fn(rows8.data(), chunk_lam.data(), full8.data(), clip8.data(),
           keep8.data(), deg, bounds);
    for (std::size_t e = 0; e < d; ++e) {
      const std::int32_t* out =
          (alias && e == 2 && d > 2) ? chunk_l[0].data() : chunk_l[e].data();
      for (std::size_t k = 0; k < 8; ++k) {
        l_ref[e][base + k] = out[k];
        lam_ref[e * w + base + k] = chunk_lam[e * 8 + k];
      }
    }
    if (alias && d > 2)
      for (std::size_t k = 0; k < 8; ++k) l_ref[2][base + k] = l_ref[0][base + k];
  }

  // One call of `fn` on narrowed copies of l0 (L row e = block column e)
  // and `lambda` under `keep_words`, checked against the reference.
  std::vector<codes::BlockEntry> blocks(d);
  for (std::size_t e = 0; e < d; ++e)
    blocks[e] = {static_cast<int>(e), 0};
  if (alias && d > 2) blocks[2].block_col = 0;
  const auto check = [&](kernels::MinSumLayerFnT<T> fn,
                         const std::vector<std::int32_t>& lambda,
                         const std::vector<std::int32_t>& keep_words,
                         const std::string& call) {
    SCOPED_TRACE(call);
    ASSERT_NE(fn, nullptr);
    std::vector<T> l_got(d * w), lam_got(d * w), keep_got(w);
    for (std::size_t e = 0; e < d; ++e)
      for (std::size_t k = 0; k < w; ++k) {
        l_got[e * w + k] = static_cast<T>(l0[e][k]);
        lam_got[e * w + k] = static_cast<T>(lambda[e * w + k]);
      }
    for (std::size_t k = 0; k < w; ++k)
      keep_got[k] = static_cast<T>(keep_words[k]);
    fn(l_got.data(), lam_got.data(), blocks.data(), deg, 1, keep_got.data(),
       bounds);

    for (std::size_t e = 0; e < d; ++e) {
      const T* out =
          &l_got[static_cast<std::size_t>(blocks[e].block_col) * w];
      for (std::size_t k = 0; k < w; ++k) {
        ASSERT_EQ(l_ref[e][k], static_cast<std::int32_t>(out[k]))
            << "L edge " << e << " lane " << k;
        ASSERT_EQ(lam_ref[e * w + k],
                  static_cast<std::int32_t>(lam_got[e * w + k]))
            << "Lambda edge " << e << " lane " << k;
      }
    }
  };
  const auto fn = kernels::layer_kernel<T>(tier, lanes);
  check(fn, lam0, mask, "masked");
  check(fn, lam_zeroed, std::vector<std::int32_t>(w, -1),
        "all kept, pre-zeroed");
  check(kernels::layer_kernel<T>(kernels::Tier::kScalar, lanes), lam0, mask,
        "scalar tier, masked");
}

/// RowBounds of the standard config (Q5.2 messages, 10-bit APP) and of the
/// strict 8-bit-APP config, with the requested variant correction.
kernels::RowBounds standard_bounds(std::int32_t offset, std::int32_t norm) {
  return {.app_lo = -511, .app_hi = 511, .msg_lo = -127, .msg_hi = 127,
          .offset = offset, .norm = norm};
}
kernels::RowBounds strict_bounds(std::int32_t offset, std::int32_t norm) {
  return {.app_lo = -127, .app_hi = 127, .msg_lo = -127, .msg_hi = 127,
          .offset = offset, .norm = norm};
}
/// Rails where L - Lambda and the write-back add overflow the narrow lane
/// and the saturating ops decide the result: int16 at the full +/-32767
/// (reachable through a 16-bit APP DecoderConfig), a 12-bit APP with
/// offset + normalized correction, and int8 with a narrow message bus
/// under the full 8-bit APP.
const kernels::RowBounds kFull16{.app_lo = -32767, .app_hi = 32767,
                                 .msg_lo = -32767, .msg_hi = 32767,
                                 .offset = 0, .norm = 0};
const kernels::RowBounds kWide16{.app_lo = -2047, .app_hi = 2047,
                                 .msg_lo = -127, .msg_hi = 127,
                                 .offset = 3, .norm = 1};
const kernels::RowBounds kNarrowQ8{.app_lo = -127, .app_hi = 127,
                                     .msg_lo = -31, .msg_hi = 31,
                                     .offset = 0, .norm = 0};

TEST(Kernels, RowKernelMatrixMatchesScalarReference) {
  for (const kernels::Tier tier : available_tiers()) {
    for (const Keep keep : {Keep::kAll, Keep::kNone, Keep::kRandom}) {
      // Plain, offset (beta = 2 LSBs) and normalized (3/4) min-sum: the
      // correction rides in RowBounds, so the same matrix covers all
      // three. The standard rails never saturate int16; kFull16 / kWide16
      // do.
      for (const auto& bounds :
           {standard_bounds(0, 0), standard_bounds(2, 0),
            standard_bounds(0, 1), kFull16, kWide16}) {
        for (const int deg : {2, 7, 19}) {
          for (const bool alias : {false, true}) {
            std::uint32_t seed = 1;
            for (const int lanes : {8, 16})
              check_row_against_scalar_ref<std::int32_t>(
                  tier, lanes, deg, bounds, alias, keep, seed++);
            for (const int lanes : {16, 32})
              check_row_against_scalar_ref<std::int16_t>(
                  tier, lanes, deg, bounds, alias, keep, seed++);
          }
        }
      }
      // int8 lanes require the strict rails (everything within +/-127).
      for (const auto& bounds : {strict_bounds(0, 0), strict_bounds(2, 0),
                                 strict_bounds(0, 1), kNarrowQ8}) {
        for (const int deg : {2, 7, 19}) {
          for (const bool alias : {false, true}) {
            std::uint32_t seed = 101;
            for (const int lanes : {32, 64})
              check_row_against_scalar_ref<std::int8_t>(
                  tier, lanes, deg, bounds, alias, keep, seed++);
          }
        }
      }
    }
  }
}

/// The layer degrees the matrix below walks: the 14 degrees of the
/// registered modes (each with a degree-specialised body on every vector
/// tier at that tier's preferred lane width; the other width walks the
/// runtime-degree body) and two outside that set, 12 and 27, which take
/// the runtime-degree body at every width.
constexpr int kLayerDegrees[] = {3,  4,  5,  6,  7,  8,  9,  10,
                                 11, 13, 14, 15, 20, 22, 12, 27};

/// A two-layer code whose layer 0 has `deg` blocks over the block columns
/// 0, 2, 3, ..., deg (column 1 belongs to layer 1 alone), with random
/// shifts in [0, z) — the first two pinned to 0 and z - 1, so one window
/// wraps on the first row and one never does.
codes::QCCode layer_test_code(int deg, int z, std::mt19937& rng) {
  const int cols = deg + 1;
  std::vector<int> entries(static_cast<std::size_t>(2 * cols),
                           codes::kZeroBlock);
  std::uniform_int_distribution<int> shift(0, z - 1);
  int e = 0;
  for (int c = 0; c < cols; ++c) {
    if (c == 1) continue;
    entries[static_cast<std::size_t>(c)] =
        e == 0 ? 0 : e == 1 ? z - 1 : shift(rng);
    ++e;
  }
  entries[static_cast<std::size_t>(cols)] = shift(rng);
  entries[static_cast<std::size_t>(cols + 1)] = shift(rng);
  return codes::QCCode(codes::BaseMatrix(2, cols, std::move(entries)), z);
}

/// One layer-kernel cell: layer 0 of layer_test_code(deg, z) over `lanes`
/// lanes of T, random in-rail L and Lambda, a keep mask per `keep`. The
/// reference walks the layer's rows with pointers built from
/// QCCode::check_vars and Lambda rows at QCCode::edge_index, calling the
/// scalar reference row on each, so the kernel's rotated-window cursors
/// are checked against the code's own index arithmetic, not assumed. The
/// whole L memory (including layer 1's private column) and the layer's
/// Lambda slice must match word for word.
template <class T>
void check_layer_against_reference(kernels::Tier tier, int lanes, int deg,
                                   int z, const kernels::RowBounds& bounds,
                                   Keep keep, std::uint32_t seed) {
  SCOPED_TRACE("tier=" + kernels::to_string(tier) + " type=" +
               kernels::to_string(kernels::lane_type_of<T>) + " lanes=" +
               std::to_string(lanes) + " deg=" + std::to_string(deg) +
               " z=" + std::to_string(z) + " keep=" +
               std::to_string(static_cast<int>(keep)) + " offset=" +
               std::to_string(bounds.offset) + " norm=" +
               std::to_string(bounds.norm));
  std::mt19937 rng(seed);
  const codes::QCCode code = layer_test_code(deg, z, rng);
  ASSERT_EQ(static_cast<int>(code.layers()[0].size()), deg);
  const auto w = static_cast<std::size_t>(lanes);
  const auto n = static_cast<std::size_t>(code.n());
  const auto layer_edges = static_cast<std::size_t>(deg) *
                           static_cast<std::size_t>(z);
  std::uniform_int_distribution<std::int32_t> app_dist(bounds.app_lo,
                                                       bounds.app_hi);
  std::uniform_int_distribution<std::int32_t> msg_dist(bounds.msg_lo,
                                                       bounds.msg_hi);
  std::vector<T> l0(n * w), lam0(layer_edges * w), mask(w);
  for (auto& v : l0) v = static_cast<T>(app_dist(rng));
  for (auto& v : lam0) v = static_cast<T>(msg_dist(rng));
  for (auto& m : mask)
    m = keep == Keep::kNone ? T{0}
        : keep == Keep::kAll ? T{-1}
                             : (rng() & 1 ? T{-1} : T{0});

  std::vector<T> l_ref = l0, lam_ref = lam0;
  std::vector<T> full(static_cast<std::size_t>(deg) * w),
      clip(static_cast<std::size_t>(deg) * w);
  std::vector<T*> rows(static_cast<std::size_t>(deg));
  const auto ref_row = kernels::reference_row<T>(lanes);
  for (int t = 0; t < z; ++t) {
    const auto vars = code.check_vars(t);
    for (int e = 0; e < deg; ++e)
      rows[static_cast<std::size_t>(e)] =
          &l_ref[static_cast<std::size_t>(vars[static_cast<std::size_t>(e)]) *
                 w];
    ref_row(rows.data(),
            &lam_ref[static_cast<std::size_t>(code.edge_index(t, 0)) * w],
            full.data(), clip.data(), mask.data(), deg, bounds);
  }

  std::vector<T> l_got = l0, lam_got = lam0;
  kernels::layer_kernel<T>(tier, lanes)(l_got.data(), lam_got.data(),
                                        code.layers()[0].data(), deg, z,
                                        mask.data(), bounds);
  for (std::size_t i = 0; i < l_ref.size(); ++i)
    ASSERT_EQ(static_cast<int>(l_ref[i]), static_cast<int>(l_got[i]))
        << "L variable " << i / w << " lane " << i % w;
  for (std::size_t i = 0; i < lam_ref.size(); ++i)
    ASSERT_EQ(static_cast<int>(lam_ref[i]), static_cast<int>(lam_got[i]))
        << "Lambda edge " << i / w << " lane " << i % w;
}

TEST(Kernels, LayerKernelMatrixMatchesCheckVarsReference) {
  constexpr int kZ = 7;
  for (const kernels::Tier tier : available_tiers()) {
    for (const Keep keep : {Keep::kAll, Keep::kNone, Keep::kRandom}) {
      for (const int deg : kLayerDegrees) {
        std::uint32_t seed = 501 + static_cast<std::uint32_t>(deg);
        // Plain, offset and normalized min-sum on the standard rails for
        // int32/int16, on the strict rails for int8.
        for (const auto& bounds : {standard_bounds(0, 0),
                                   standard_bounds(2, 0),
                                   standard_bounds(0, 1)}) {
          for (const int lanes : {8, 16})
            check_layer_against_reference<std::int32_t>(
                tier, lanes, deg, kZ, bounds, keep, seed++);
          for (const int lanes : {16, 32})
            check_layer_against_reference<std::int16_t>(
                tier, lanes, deg, kZ, bounds, keep, seed++);
        }
        for (const auto& bounds : {strict_bounds(0, 0), strict_bounds(2, 0),
                                   strict_bounds(0, 1)})
          for (const int lanes : {32, 64})
            check_layer_against_reference<std::int8_t>(
                tier, lanes, deg, kZ, bounds, keep, seed++);
      }
    }
  }
}

/// One fresh-lane merge case: `nfresh` distinct lanes (random order) of a
/// `lanes`-wide L memory with `n` variables receive staged frames; every
/// other `staged` slot is nullptr. The kernel under test must write
/// exactly the fresh columns, matching both a direct column loop and the
/// scalar tier's kernel (the blocked merge_fresh_body reference).
template <class T>
void check_merge_against_reference(kernels::Tier tier, int lanes, int nfresh,
                                   std::size_t n, std::uint32_t seed) {
  SCOPED_TRACE("tier=" + kernels::to_string(tier) + " type=" +
               kernels::to_string(kernels::lane_type_of<T>) + " lanes=" +
               std::to_string(lanes) + " nfresh=" + std::to_string(nfresh) +
               " n=" + std::to_string(n));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> val(-100, 100);
  const auto w = static_cast<std::size_t>(lanes);
  std::vector<T> l0(n * w);
  for (auto& v : l0) v = static_cast<T>(val(rng));

  std::vector<int> order(w);
  for (std::size_t k = 0; k < w; ++k) order[k] = static_cast<int>(k);
  std::shuffle(order.begin(), order.end(), rng);
  const std::vector<int> fresh(order.begin(), order.begin() + nfresh);
  std::vector<std::vector<T>> frames(w);
  std::vector<const T*> staged(w, nullptr);
  std::vector<T> expect = l0;
  for (const int lane : fresh) {
    auto& frame = frames[static_cast<std::size_t>(lane)];
    frame.resize(n);
    for (auto& v : frame) v = static_cast<T>(val(rng));
    staged[static_cast<std::size_t>(lane)] = frame.data();
    for (std::size_t v = 0; v < n; ++v)
      expect[v * w + static_cast<std::size_t>(lane)] = frame[v];
  }

  std::vector<T> body = l0;
  kernels::merge_kernel<T>(kernels::Tier::kScalar, lanes)(
      staged.data(), fresh.data(), nfresh, body.data(), n);
  ASSERT_EQ(body, expect);
  std::vector<T> got = l0;
  kernels::merge_kernel<T>(tier, lanes)(staged.data(), fresh.data(), nfresh,
                                        got.data(), n);
  ASSERT_EQ(got, expect);
}

template <class T>
void check_merge_widths(kernels::Tier tier, std::uint32_t& seed) {
  const int s = kernels::lane_scale(kernels::lane_type_of<T>);
  for (const int lanes : {8 * s, 16 * s})
    // {1, 5, 6, W} straddles the AVX-512 int16 transpose's fresh-count
    // threshold; n = 103 leaves a 7-row tail after three 32-row blocks.
    for (const int nfresh : {1, 5, 6, lanes})
      for (const std::size_t n : {std::size_t{20}, std::size_t{103}})
        check_merge_against_reference<T>(tier, lanes, nfresh, n, seed++);
}

TEST(Kernels, MergeKernelMatrixMatchesReferenceBody) {
  for (const kernels::Tier tier : available_tiers()) {
    std::uint32_t seed = 301;
    check_merge_widths<std::int32_t>(tier, seed);
    check_merge_widths<std::int16_t>(tier, seed);
    check_merge_widths<std::int8_t>(tier, seed);
  }
}

TEST(Kernels, PreferredLanesFollowsTierAndType) {
  for (const kernels::Tier tier : available_tiers()) {
    ASSERT_EQ(kernels::force_tier(tier), tier);
    // kAvx512 implies AVX-512BW, so every lane type fills 512 bits there.
    const bool full512 = tier == kernels::Tier::kAvx512;
    EXPECT_EQ(kernels::preferred_lanes(kernels::LaneType::kInt32),
              full512 ? 16 : 8);
    EXPECT_EQ(kernels::preferred_lanes(kernels::LaneType::kInt16),
              full512 ? 32 : 16);
    EXPECT_EQ(kernels::preferred_lanes(kernels::LaneType::kInt8),
              full512 ? 64 : 32);
  }
  kernels::clear_forced_tier();
}

TEST(Kernels, ForceLaneTypePinsThePreference) {
  kernels::force_lane_type(kernels::LaneType::kInt32);
  ASSERT_TRUE(kernels::requested_lane_type().has_value());
  EXPECT_EQ(*kernels::requested_lane_type(), kernels::LaneType::kInt32);
  kernels::clear_forced_lane_type();
  // Back to the env var (absent in this test binary unless CI set it).
  const char* env = std::getenv("LDPC_LANE_TYPE");
  if (!env || kernels::try_parse_lane_type(env) == std::nullopt) {
    EXPECT_EQ(kernels::requested_lane_type(), std::nullopt);
  }
}

}  // namespace
