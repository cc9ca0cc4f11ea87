#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ldpc/codes/base_matrix.hpp"
#include "ldpc/codes/qc_code.hpp"
#include "ldpc/codes/registry.hpp"

namespace {

using namespace ldpc::codes;

TEST(BaseMatrix, ConstructionAndAccess) {
  BaseMatrix b(2, 3, {0, -1, 5, 2, 3, -1});
  EXPECT_EQ(b.rows(), 2);
  EXPECT_EQ(b.cols(), 3);
  EXPECT_EQ(b.at(0, 2), 5);
  EXPECT_TRUE(b.is_zero(0, 1));
  EXPECT_EQ(b.row_degree(0), 2);
  EXPECT_EQ(b.col_degree(0), 2);
  EXPECT_EQ(b.nonzero_blocks(), 4);
  EXPECT_EQ(b.max_shift(), 5);
}

TEST(BaseMatrix, ShapeMismatchThrows) {
  EXPECT_THROW(BaseMatrix(2, 2, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(BaseMatrix(1, 1, {-2}), std::invalid_argument);
}

TEST(BaseMatrix, OutOfRangeThrows) {
  BaseMatrix b(1, 1, {0});
  EXPECT_THROW(b.at(1, 0), std::out_of_range);
  EXPECT_THROW(b.set(0, 2, 0), std::out_of_range);
}

TEST(BaseMatrix, FloorScalingMapsShifts) {
  BaseMatrix b(1, 2, {95, -1});
  const BaseMatrix s = scale_base_matrix(b, 96, 24, ShiftScaling::kFloor);
  EXPECT_EQ(s.at(0, 0), 95 * 24 / 96);
  EXPECT_TRUE(s.is_zero(0, 1));
}

TEST(BaseMatrix, ModuloScalingMapsShifts) {
  BaseMatrix b(1, 1, {50});
  const BaseMatrix s = scale_base_matrix(b, 96, 24, ShiftScaling::kModulo);
  EXPECT_EQ(s.at(0, 0), 50 % 24);
}

TEST(BaseMatrix, ScalingPreservesZeroShift) {
  BaseMatrix b(1, 1, {0});
  for (auto rule : {ShiftScaling::kFloor, ShiftScaling::kModulo})
    EXPECT_EQ(scale_base_matrix(b, 96, 28, rule).at(0, 0), 0);
}

TEST(QCCode, ExpansionDimensions) {
  // 2x4 base, z=3.
  BaseMatrix b(2, 4, {0, 1, -1, 0, 2, -1, 0, 0});
  QCCode code(b, 3, "toy");
  EXPECT_EQ(code.n(), 12);
  EXPECT_EQ(code.m(), 6);
  EXPECT_EQ(code.k_info(), 6);
  EXPECT_EQ(code.z(), 3);
  EXPECT_EQ(code.nonzero_blocks(), 6);
  EXPECT_EQ(code.edges(), 18);
  EXPECT_DOUBLE_EQ(code.rate(), 0.5);
  EXPECT_EQ(code.layers().size(), 2u);
  EXPECT_EQ(code.layers()[0].size(), 3u);
}

TEST(QCCode, ShiftedIdentityAdjacency) {
  // Single block with shift 1 and z=4: check t connects var (t+1) mod 4.
  // A one-block code has empty-column issues only if shift were invalid;
  // here every column has degree 1.
  BaseMatrix b(1, 1, {1});
  QCCode code(b, 4);
  for (int t = 0; t < 4; ++t) {
    const auto vars = code.check_vars(t);
    ASSERT_EQ(vars.size(), 1u);
    EXPECT_EQ(vars[0], (t + 1) % 4);
  }
}

TEST(QCCode, ShiftTooLargeThrows) {
  BaseMatrix b(1, 1, {4});
  EXPECT_THROW(QCCode(b, 4), std::invalid_argument);
}

TEST(QCCode, EmptyRowOrColumnThrows) {
  BaseMatrix empty_row(2, 2, {0, 0, -1, -1});
  EXPECT_THROW(QCCode(empty_row, 3), std::invalid_argument);
  BaseMatrix empty_col(2, 2, {0, -1, 0, -1});
  EXPECT_THROW(QCCode(empty_col, 3), std::invalid_argument);
}

TEST(QCCode, VarAdjacencyIsTransposeOfCheckAdjacency) {
  QCCode code = make_code({Standard::kWimax80216e, Rate::kR12, 24});
  for (int r = 0; r < code.m(); r += 37) {
    for (std::int32_t v : code.check_vars(r)) {
      const auto checks = code.var_checks(v);
      EXPECT_NE(std::find(checks.begin(), checks.end(), r), checks.end());
    }
  }
  // Total degree equality.
  long deg_sum = 0;
  for (int v = 0; v < code.n(); ++v) deg_sum += code.var_degree(v);
  EXPECT_EQ(deg_sum, code.edges());
}

TEST(QCCode, SyndromeOfAllZeroIsZero) {
  QCCode code = make_code({Standard::kWlan80211n, Rate::kR12, 27});
  std::vector<std::uint8_t> zero(static_cast<std::size_t>(code.n()), 0);
  EXPECT_TRUE(code.is_codeword(zero));
  zero[5] = 1;  // single bit flip breaks var_degree(5) checks
  EXPECT_EQ(code.syndrome_weight(zero), code.var_degree(5));
}

TEST(Registry, SupportedZCounts) {
  EXPECT_EQ(supported_z(Standard::kWimax80216e).size(), 19u);  // paper: 19 modes
  EXPECT_EQ(supported_z(Standard::kWlan80211n),
            (std::vector<int>{27, 54, 81}));
  EXPECT_EQ(supported_z(Standard::kDmbT), std::vector<int>{127});
}

TEST(Registry, WimaxBlockLengths) {
  // 802.16e frame lengths 576..2304 in steps of 96 bits.
  for (int z : supported_z(Standard::kWimax80216e)) {
    QCCode code = make_code({Standard::kWimax80216e, Rate::kR12, z});
    EXPECT_EQ(code.n(), 24 * z);
  }
  EXPECT_EQ(make_code_by_length(Standard::kWimax80216e, Rate::kR12, 2304).z(),
            96);
  EXPECT_EQ(make_code_by_length(Standard::kWlan80211n, Rate::kR56, 648).z(),
            27);
}

TEST(Registry, UnsupportedCombinationsThrow) {
  EXPECT_THROW(make_code({Standard::kWlan80211n, Rate::kR12, 30}),
               std::invalid_argument);
  EXPECT_THROW(make_code({Standard::kWlan80211n, Rate::kR23A, 27}),
               std::invalid_argument);
  EXPECT_THROW(make_code_by_length(Standard::kWimax80216e, Rate::kR12, 1000),
               std::invalid_argument);
}

TEST(Registry, AllModesEnumeration) {
  const auto modes = all_modes();
  // 4*3 (WLAN) + 6*19 (WiMax) + 4*1 (DMB-T) + 2*10 (NR BG1/BG2).
  EXPECT_EQ(modes.size(), 12u + 114u + 4u + 20u);
  std::set<std::string> names;
  for (const auto& id : modes) names.insert(to_string(id));
  EXPECT_EQ(names.size(), modes.size());  // all distinct
}

TEST(Registry, ToStringRoundtrips) {
  EXPECT_EQ(to_string(Standard::kWimax80216e), "802.16e");
  EXPECT_EQ(to_string(Rate::kR23A), "2/3A");
  EXPECT_EQ(to_string(CodeId{Standard::kWlan80211n, Rate::kR34, 54}),
            "802.11n R3/4 z=54");
  EXPECT_NEAR(rate_value(Rate::kR56), 5.0 / 6.0, 1e-12);
}

TEST(Registry, Table1ParametersMatchPaper) {
  // Paper Table 1: WLAN j 4-12 k 24 z 27-81; WiMax j 4-12 k 24 z 24-96;
  // DMB-T j 24-48 k 60 z 127.
  for (Rate r : supported_rates(Standard::kWlan80211n)) {
    const BaseMatrix b = wlan_base_matrix(r);
    EXPECT_EQ(b.cols(), 24);
    EXPECT_GE(b.rows(), 4);
    EXPECT_LE(b.rows(), 12);
  }
  for (Rate r : supported_rates(Standard::kWimax80216e)) {
    const BaseMatrix b = wimax_base_matrix(r);
    EXPECT_EQ(b.cols(), 24);
    EXPECT_GE(b.rows(), 4);
    EXPECT_LE(b.rows(), 12);
  }
  for (Rate r : supported_rates(Standard::kDmbT)) {
    const BaseMatrix b = dmbt_base_matrix(r);
    EXPECT_EQ(b.cols(), 60);
    EXPECT_GE(b.rows(), 12);
    EXPECT_LE(b.rows(), 48);
  }
}

TEST(Registry, DmbtIsDeterministic) {
  EXPECT_EQ(dmbt_base_matrix(Rate::kR35), dmbt_base_matrix(Rate::kR35));
}

// ---- 5G NR: lifting sets, mod-z scaling, transmission scheme --------------

TEST(NrRegistry, LiftingSizesAreTheEightSets) {
  const auto zs = nr_lifting_sizes();
  EXPECT_EQ(zs.size(), 51u);  // TS 38.212 Table 5.3.2-1
  EXPECT_EQ(zs.front(), 2);
  EXPECT_EQ(zs.back(), 384);
  for (const int z : zs) {
    int a = z;
    while (a % 2 == 0) a /= 2;
    // a * 2^s with a odd in {1(->2), 3, 5, 7, 9, 11, 13, 15}.
    EXPECT_TRUE(a == 1 || (a >= 3 && a <= 15)) << z;
  }
  // Every registered z is a lifting size.
  for (const int z : supported_z(Standard::kNr5g))
    EXPECT_NE(std::find(zs.begin(), zs.end(), z), zs.end()) << z;
  EXPECT_THROW(make_nr_code(Rate::kR13, 17), std::invalid_argument);
  EXPECT_THROW(make_nr_code(Rate::kR12, 96), std::invalid_argument);
}

TEST(NrRegistry, BaseGraphShapesMatchTheStandard) {
  const BaseMatrix bg1 = nr_base_matrix(Rate::kR13);
  EXPECT_EQ(bg1.rows(), 46);
  EXPECT_EQ(bg1.cols(), 68);
  const BaseMatrix bg2 = nr_base_matrix(Rate::kR15);
  EXPECT_EQ(bg2.rows(), 42);
  EXPECT_EQ(bg2.cols(), 52);
  // Deterministic generation (golden vectors depend on it).
  EXPECT_EQ(nr_base_matrix(Rate::kR13), nr_base_matrix(Rate::kR13));
  // Dense always-punctured columns: 0 and 1 connect to all four core rows
  // and dominate the column-degree profile.
  for (int c = 0; c < 2; ++c) {
    EXPECT_GE(bg1.col_degree(c), 20) << c;
    for (int r = 0; r < 4; ++r) EXPECT_FALSE(bg1.is_zero(r, c));
  }
}

TEST(NrRegistry, ShiftsScaleByVModZ) {
  const BaseMatrix base = nr_base_matrix(Rate::kR15);
  for (const int z : {2, 36, 96}) {
    const QCCode code = make_code({Standard::kNr5g, Rate::kR15, z});
    for (int r = 0; r < base.rows(); ++r)
      for (int c = 0; c < base.cols(); ++c) {
        ASSERT_EQ(base.is_zero(r, c), code.base().is_zero(r, c));
        if (!base.is_zero(r, c)) {
          ASSERT_EQ(code.base().at(r, c), base.at(r, c) % z)
              << r << "," << c << " z=" << z;
        }
      }
  }
}

TEST(TransmissionScheme, DegenerateForClassicStandards) {
  const QCCode wimax = make_code({Standard::kWimax80216e, Rate::kR12, 96});
  EXPECT_TRUE(wimax.scheme().is_degenerate());
  EXPECT_EQ(wimax.transmitted_bits(), wimax.n());
  EXPECT_EQ(wimax.payload_bits(), wimax.k_info());
  EXPECT_EQ(wimax.sendable_bits(), wimax.n());
  EXPECT_DOUBLE_EQ(wimax.effective_rate(), wimax.rate());
  for (int i : {0, 17, wimax.n() - 1}) EXPECT_EQ(wimax.tx_bit_index(i), i);
}

TEST(TransmissionScheme, TxBitIndexSkipsPuncturedAndFillers) {
  // BG2 z=2: k_info = 20, punctured prefix = 4 bits, F = 4 fillers at
  // [16, 20), sendable = 104 - 4 - 4 = 96.
  const QCCode code = make_nr_code(Rate::kR15, 2, 0, 4);
  EXPECT_EQ(code.payload_bits(), 16);
  EXPECT_EQ(code.sendable_bits(), 96);
  EXPECT_EQ(code.transmitted_bits(), 96);
  EXPECT_EQ(code.tx_bit_index(0), 4);     // first bit after the punctured prefix
  EXPECT_EQ(code.tx_bit_index(11), 15);   // last payload bit
  EXPECT_EQ(code.tx_bit_index(12), 20);   // filler range [16, 20) skipped
  EXPECT_EQ(code.tx_bit_index(95), 103);  // last parity bit
}

TEST(TransmissionScheme, ExtractTransmittedWrapsAround) {
  // E > sendable: the circular buffer repeats from the start.
  const QCCode code = make_nr_code(Rate::kR15, 2, 150);
  EXPECT_EQ(code.sendable_bits(), 100);
  EXPECT_EQ(code.transmitted_bits(), 150);
  std::vector<std::uint8_t> cw(static_cast<std::size_t>(code.n()));
  for (std::size_t i = 0; i < cw.size(); ++i)
    cw[i] = static_cast<std::uint8_t>(i % 2);
  std::vector<std::uint8_t> tx(150);
  code.extract_transmitted(cw, tx);
  for (int i = 0; i < 150; ++i)
    ASSERT_EQ(tx[static_cast<std::size_t>(i)],
              cw[static_cast<std::size_t>(code.tx_bit_index(i % 100))]) << i;
}

TEST(TransmissionScheme, SetSchemeValidates) {
  QCCode code = make_code({Standard::kWimax80216e, Rate::kR12, 24});
  // Punctured columns beyond the information part (rate 1/2: 12 of 24).
  EXPECT_THROW(code.set_scheme({.punctured_block_cols = 13}),
               std::invalid_argument);
  // Fillers overlapping the punctured prefix.
  EXPECT_THROW(code.set_scheme({.punctured_block_cols = 12,
                                .filler_bits = 1}),
               std::invalid_argument);
  EXPECT_THROW(code.set_scheme({.transmitted_bits = -1}),
               std::invalid_argument);
  // A valid scheme sticks.
  code.set_scheme({.punctured_block_cols = 1, .transmitted_bits = 400});
  EXPECT_EQ(code.transmitted_bits(), 400);
  EXPECT_FALSE(code.scheme().is_degenerate());
}

// ---- property sweep over every registered mode ---------------------------

class AllModesTest : public ::testing::TestWithParam<CodeId> {};

TEST_P(AllModesTest, ExpandsToConsistentCode) {
  const QCCode code = make_code(GetParam());
  EXPECT_GT(code.n(), 0);
  EXPECT_GT(code.k_info(), 0);
  EXPECT_EQ(code.n(), code.block_cols() * code.z());
  EXPECT_EQ(code.m(), code.block_rows() * code.z());
  // Every layer is non-empty and references valid columns/shifts.
  for (const auto& layer : code.layers()) {
    EXPECT_FALSE(layer.empty());
    for (const auto& e : layer) {
      EXPECT_GE(e.block_col, 0);
      EXPECT_LT(e.block_col, code.block_cols());
      EXPECT_GE(e.shift, 0);
      EXPECT_LT(e.shift, code.z());
    }
  }
  // Effective (channel-facing) rate matches the nominal rate: identical
  // to k/n for the full-codeword standards, the post-puncturing mother
  // rate for NR.
  EXPECT_NEAR(code.effective_rate(), rate_value(GetParam().rate), 1e-9);
}

TEST_P(AllModesTest, CheckRowsWithinLayerShareDegree) {
  const QCCode code = make_code(GetParam());
  const int z = code.z();
  for (int l = 0; l < code.block_rows(); ++l) {
    const int d0 = code.check_degree(l * z);
    for (int t = 1; t < z; t += std::max(1, z / 7))
      EXPECT_EQ(code.check_degree(l * z + t), d0);
    EXPECT_EQ(d0, static_cast<int>(code.layers()[l].size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, AllModesTest,
                         ::testing::ValuesIn(all_modes()),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

}  // namespace
