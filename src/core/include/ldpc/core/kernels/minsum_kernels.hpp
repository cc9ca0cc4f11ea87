// Runtime-dispatched SIMD kernels for the SoA batched min-sum datapath.
//
// The batched engine (core::StreamBatchEngine) stores every
// architectural word lane-major: the value of lane w for variable v
// lives at soa[v * W + w]. One check row's work — read L, subtract Lambda,
// saturate to the APP word, clip to the message bus, run the two-minima /
// sign-product min-sum scan, emit and write back — is a dense pass over W
// contiguous lanes. Until PR 5 that pass relied on `#pragma omp simd`
// autovectorisation; the explicit kernel variants are
//
//   kScalar   portable C++ (the reference; also the autovectorised path)
//   kSse42    SSE4.1/4.2 intrinsics, 128-bit vectors
//   kAvx2     AVX2 intrinsics, 256-bit vectors
//   kAvx512   AVX-512F (+BW for narrow lanes) intrinsics, 512-bit vectors
//
// selected ONCE at startup via CPUID (__builtin_cpu_supports) and exposed
// as plain function pointers.
//
// Every kernel is additionally generalised over the LANE ELEMENT TYPE
// (int32 / int16 / int8): the decoded values are Qm.f raw codes whose APP
// rails span at most total_bits + app_extra_bits <= 12 bits, so a narrower
// lane multiplies the lanes per vector op by 2x (int16) or 4x (int8). The
// narrow kernels use saturating vector arithmetic (subs/adds) followed by
// the same rail clamps; because the clamp interval is contained in the
// type's saturation interval, saturate-then-clamp equals the int32 path's
// wide-then-clamp for every input, making the narrow lanes BIT-IDENTICAL
// to int32 (the refill-equivalence suite locks all three types against the
// scalar engine at every tier). Valid lane widths scale with the type:
// {8, 16} for int32, {16, 32} for int16, {32, 64} for int8.
//
// All variants compute IDENTICAL arithmetic — same saturation points, same
// strict `<` two-minima tie-breaking (first minimum wins argmin), same
// sign bookkeeping — so hard decisions and iteration counts are
// bit-identical across tiers and lane types.
//
// Dispatch overrides, in precedence order:
//   1. force_tier(t)        test hook; clamped to what the CPU supports
//   2. LDPC_SIMD env var    "scalar" | "sse42" | "avx2" | "avx512"
//                           (clamped likewise; read once, see reload_env())
//   3. CPUID detection      highest tier both compiled in and supported
// The lane element type has the parallel knob LDPC_LANE_TYPE
// ("int32" | "int16" | "int8") and force_lane_type(); the engines treat it
// as a PREFERENCE clamped to what the config's rails admit (see
// core::select_lane_type), so forcing int8 on a config whose APP words
// need more than 8 bits widens back to the narrowest eligible type.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ldpc::core::kernels {

/// Saturation bounds of one row pass: APP-word saturation for the
/// L - Lambda subtraction and the write-back add, message-bus clip for the
/// SISO input, plus the min-sum variant correction applied to the two row
/// minima after the scan (every emitted magnitude is one of them):
/// `offset` > 0 subtracts that many raw LSBs floored at zero (offset
/// min-sum); `norm` != 0 scales by 3/4 via mag -= mag >> 2 (normalized
/// min-sum). Both zero = plain min-sum.
struct RowBounds {
  std::int32_t app_lo = 0;
  std::int32_t app_hi = 0;
  std::int32_t msg_lo = 0;
  std::int32_t msg_hi = 0;
  std::int32_t offset = 0;
  std::int32_t norm = 0;
};

/// One check row over W SoA lanes of element type T. For each edge e in
/// [0, deg):
///   lam_full[e*W + w] = sat_app(l_rows[e][w] - lambda_row[e*W + w])
///   lam[e*W + w]      = clip_msg(lam_full[e*W + w])
/// then the per-lane two-minima + sign-product scan (with the optional
/// offset / normalization correction of the minima), and write-back
///   lambda_row[e*W + w] = minsum output
///   l_rows[e][w]        = sat_app(lam_full[e*W + w] + output).
/// `l_rows[e]` points at the W-lane row of the edge's variable in the L
/// SoA memory (rows may repeat when a variable appears twice); lambda_row
/// is the row's contiguous deg*W slice of the Lambda SoA memory; lam_full
/// and lam are caller-provided deg*W scratch. The caller guarantees every
/// bound fits in T (core engines enforce this via lane-type eligibility).
template <class T>
using MinSumRowFnT = void (*)(T* const* l_rows, T* lambda_row, T* lam_full,
                              T* lam, int deg, const RowBounds& bounds);
using MinSumRowFn = MinSumRowFnT<std::int32_t>;

enum class Tier { kScalar = 0, kSse42 = 1, kAvx2 = 2, kAvx512 = 3 };

/// SoA lane element type. Ordered widest first so that a larger enum value
/// means a narrower lane (more lanes per vector op).
enum class LaneType { kInt32 = 0, kInt16 = 1, kInt8 = 2 };

template <class T>
struct LaneTypeOfT;
template <>
struct LaneTypeOfT<std::int32_t> {
  static constexpr LaneType value = LaneType::kInt32;
};
template <>
struct LaneTypeOfT<std::int16_t> {
  static constexpr LaneType value = LaneType::kInt16;
};
template <>
struct LaneTypeOfT<std::int8_t> {
  static constexpr LaneType value = LaneType::kInt8;
};
/// LaneType tag of a lane element type (int32_t / int16_t / int8_t only).
template <class T>
inline constexpr LaneType lane_type_of = LaneTypeOfT<T>::value;

/// How many lanes of `type` fit where one int32 lane does (1 / 2 / 4).
constexpr int lane_scale(LaneType type) noexcept {
  return type == LaneType::kInt32 ? 1 : type == LaneType::kInt16 ? 2 : 4;
}

/// Largest raw code a lane of `type` can hold (symmetric saturation).
constexpr std::int32_t lane_raw_max(LaneType type) noexcept {
  return type == LaneType::kInt32 ? std::int32_t{0x7fffffff}
         : type == LaneType::kInt16 ? std::int32_t{32767}
                                    : std::int32_t{127};
}

/// Valid engine lane widths per element type: 8 or 16 int32-equivalents,
/// i.e. {8,16} int32, {16,32} int16, {32,64} int8.
constexpr bool valid_lane_width(LaneType type, int lanes) noexcept {
  return lanes == 8 * lane_scale(type) || lanes == 16 * lane_scale(type);
}

std::string to_string(Tier tier);
std::string to_string(LaneType type);

/// Parses "scalar" / "sse42" / "avx2" / "avx512", case-insensitively;
/// throws std::invalid_argument on anything else. (An LDPC_SIMD typo used
/// to silently forfeit the whole SIMD win by mapping to kScalar.)
Tier parse_tier(const std::string& name);
/// Lenient form: std::nullopt instead of throwing (the env-var reader
/// warns and ignores rather than aborting static initialisation).
std::optional<Tier> try_parse_tier(const std::string& name);

/// Parses "int32" / "int16" / "int8", case-insensitively; throws
/// std::invalid_argument on anything else.
LaneType parse_lane_type(const std::string& name);
/// Lenient form: std::nullopt instead of throwing.
std::optional<LaneType> try_parse_lane_type(const std::string& name);

/// Highest tier this binary can run here: compiled-in variants clamped by
/// CPUID. Evaluated once (the result is cached).
Tier detected_tier();

/// True when the host executes AVX-512BW (and the binary compiled it in):
/// the 512-bit epi16/epi8 min/max/saturating ops the narrow-lane AVX-512
/// kernels need beyond AVX-512F. Without it the kAvx512 tier serves narrow
/// lanes with the AVX2 bodies.
bool detected_avx512bw();

/// The tier dispatch actually uses: detected_tier() unless the LDPC_SIMD
/// environment variable or force_tier() lowers it. Never exceeds
/// detected_tier() — requesting an unsupported tier clamps down.
Tier active_tier();

/// Test hook: pins the active tier (clamped to detected_tier()); returns
/// the tier actually selected. Not thread-safe — call before spawning
/// decode threads (the equivalence tests do).
Tier force_tier(Tier tier);
/// Clears a force_tier() pin; dispatch returns to env/CPUID selection.
void clear_forced_tier();
/// Re-reads LDPC_SIMD and LDPC_LANE_TYPE (the env vars are otherwise
/// sampled once, at the first dispatch). Test hook for the env knobs.
void reload_env();

/// The requested lane-type preference, if any: force_lane_type() wins,
/// then the LDPC_LANE_TYPE env var ("int32"/"int16"/"int8"; "auto" or
/// unset = no preference). The engines clamp the preference to what the
/// config's rails admit — see core::select_lane_type.
std::optional<LaneType> requested_lane_type();
/// Test hook: pins the lane-type preference. Not thread-safe.
void force_lane_type(LaneType type);
/// Clears a force_lane_type() pin; back to the env var.
void clear_forced_lane_type();

/// Lane width the active tier fills exactly with element type `type`:
/// one 512-bit register on AVX-512 hosts (16/32/64 lanes; narrow types
/// need AVX-512BW), one 256-bit register otherwise (8/16/32 — also the
/// narrower drain on scalar/SSE hosts).
int preferred_lanes(LaneType type);

/// Row kernel of a specific tier (clamped to detected_tier()) for lane
/// element type T at lane width `lanes` (see valid_lane_width; throws
/// std::invalid_argument otherwise) — the equivalence tests compare tiers
/// pairwise.
template <class T>
MinSumRowFnT<T> row_kernel(Tier tier, int lanes);

/// Row kernel of the active tier.
template <class T>
MinSumRowFnT<T> row_kernel(int lanes) {
  return row_kernel<T>(active_tier(), lanes);
}

extern template MinSumRowFnT<std::int32_t> row_kernel<std::int32_t>(Tier,
                                                                    int);
extern template MinSumRowFnT<std::int16_t> row_kernel<std::int16_t>(Tier,
                                                                    int);
extern template MinSumRowFnT<std::int8_t> row_kernel<std::int8_t>(Tier, int);

/// Batched channel-LLR quantiser: double LLRs to Qm.f raw codes, the
/// per-element arithmetic of fixed::QFormat::quantize + the zero-excluding
/// input rule, in one dense dispatched pass. The scalar deposit loop was
/// the single largest cost of the batched engines (47% of the stream
/// engine's runtime on the mixed-iteration workload) and, being
/// lane-type-independent per frame, the Amdahl wall in front of the
/// narrow-lane win.
struct QuantSpec {
  double scale = 4.0;          // 2^frac_bits
  std::int32_t raw_max = 127;  // symmetric saturation rail (raw_min = -max)
  bool exclude_zero = true;    // quantised 0 becomes ±1 by channel sign
};

/// Quantises `count` LLRs into raw codes of lane element type T.
/// Element-for-element identical to
///   raw[i] = fmt.quantize(llr[i]);
///   if (raw[i] == 0 && exclude_zero) raw[i] = llr[i] < 0 ? -1 : 1;
/// including NaN (-> 0, then the exclude-zero rule sees a non-negative
/// channel value) and round-half-away-from-zero. The narrow instantiations
/// emit the int32 codes narrowed on store — the caller guarantees
/// spec.raw_max fits T (lane-type eligibility), so the cast is
/// value-preserving and the fused quantise-into-stage deposit is
/// bit-identical to quantise-to-int32-then-narrow.
template <class T>
using QuantFnT = void (*)(const double* llr, T* raw, std::size_t count,
                          const QuantSpec& spec);
using QuantFn = QuantFnT<std::int32_t>;

/// Quantiser of a specific tier (clamped to detected_tier()) emitting lane
/// type T. Narrow outputs under kAvx512 require the HOST to execute
/// AVX-512BW (the autovectorised narrow stores may use BW instructions);
/// without it the AVX2 body serves.
template <class T>
QuantFnT<T> quant_kernel(Tier tier);
/// Quantiser of the active tier emitting lane type T.
template <class T>
QuantFnT<T> quant_kernel() {
  return quant_kernel<T>(active_tier());
}

extern template QuantFnT<std::int32_t> quant_kernel<std::int32_t>(Tier);
extern template QuantFnT<std::int16_t> quant_kernel<std::int16_t>(Tier);
extern template QuantFnT<std::int8_t> quant_kernel<std::int8_t>(Tier);

/// The int32 quantiser of a specific tier (legacy spelling).
inline QuantFn quant_kernel(Tier tier) {
  return quant_kernel<std::int32_t>(tier);
}
/// The int32 quantiser of the active tier.
inline QuantFn quant_kernel() { return quant_kernel<std::int32_t>(); }

/// Hard ceiling on the SoA lane count of any engine instantiation (one
/// AVX-512 register of int8). core::kMaxSoaLanes aliases this.
inline constexpr int kMaxScanLanes = 64;

/// Per-lane parity scan over lane-major APP state: ok[w] = 1 iff the hard
/// decisions (sign bits) of lane w satisfy every check of the CSR matrix
/// (`row_ptr` size m+1, `col_idx` the flat variable indices). The lane
/// width is baked into the returned function (see cw_scan_kernel), so the
/// hot loops run with compile-time trip counts at the tier's full vector
/// width — the engines' stop scans run every iteration and were the
/// dominant per-iteration cost when instantiated in the engine TU at the
/// default (SSE2) architecture.
///
/// The scan also emits the hard decisions it walks: hard_mask (size n, the
/// variable count) receives one packed lane mask per variable — bit w of
/// hard_mask[v] is the sign of lane w's APP value for variable v. Retiring
/// lanes read their decisions from these masks instead of re-gathering the
/// strided L columns (the retire-fold), and the parity reduction itself
/// runs over the packed masks: 8 bytes per edge instead of a full lane
/// row, with the per-variable pack done once in a dense movemask pass.
template <class T>
using CwScanFnT = void (*)(const std::int32_t* row_ptr,
                           const std::int32_t* col_idx, int m, int n,
                           const T* l_soa, std::uint64_t* hard_mask,
                           std::uint8_t* ok);

/// Per-lane early-termination rule over lane-major APP state: fire[w] =
/// had a previous iteration AND the info-bit hard decisions are unchanged
/// since it AND min |L| over the info bits exceeds `threshold` —
/// EarlyTermination::update vectorised across lanes. `prev_hard`
/// (k_info * lanes, lane-major) and `has_prev` (lanes) are the monitor
/// state; clear has_prev[w] when lane w is (re)filled. The prev_hard
/// contents are an opaque per-kernel representation (sign masks) — callers
/// allocate and reset it, never interpret it. A threshold beyond the lane
/// rail clamps to the rail (mag > rail is false either way, matching the
/// int32 compare).
template <class T>
using EtScanFnT = void (*)(int k_info, std::int32_t threshold, const T* l_soa,
                           T* prev_hard, std::uint8_t* has_prev,
                           std::uint8_t* fire);

/// Stop-scan kernels of a specific tier (clamped to detected_tier()) at
/// lane width `lanes` (see valid_lane_width; throws std::invalid_argument
/// otherwise). The bodies are the autovectorisable reference loops
/// compiled per tier TU; the scalar tier is the reference.
template <class T>
CwScanFnT<T> cw_scan_kernel(Tier tier, int lanes);
template <class T>
EtScanFnT<T> et_scan_kernel(Tier tier, int lanes);

/// Stop-scan kernels of the active tier.
template <class T>
CwScanFnT<T> cw_scan_kernel(int lanes) {
  return cw_scan_kernel<T>(active_tier(), lanes);
}
template <class T>
EtScanFnT<T> et_scan_kernel(int lanes) {
  return et_scan_kernel<T>(active_tier(), lanes);
}

extern template CwScanFnT<std::int32_t> cw_scan_kernel<std::int32_t>(Tier,
                                                                     int);
extern template CwScanFnT<std::int16_t> cw_scan_kernel<std::int16_t>(Tier,
                                                                     int);
extern template CwScanFnT<std::int8_t> cw_scan_kernel<std::int8_t>(Tier, int);
extern template EtScanFnT<std::int32_t> et_scan_kernel<std::int32_t>(Tier,
                                                                     int);
extern template EtScanFnT<std::int16_t> et_scan_kernel<std::int16_t>(Tier,
                                                                     int);
extern template EtScanFnT<std::int8_t> et_scan_kernel<std::int8_t>(Tier, int);

/// Fresh-lane column merge for the continuous-refill engine: for each lane
/// w in fresh[0..nfresh), write that lane's staged frame into its L column,
///   l_soa[v * W + w] = staged[w][v]   for v in [0, n).
/// This is the per-refill L = channel initialisation, batched — and a
/// lane-count-INDEPENDENT (per-frame) cost, so on the narrow engines it
/// dilutes the lane-parallel win; the wide-lane bodies turn the column
/// scatter into a register block transpose with per-row masked stores.
/// Entries of `staged` outside the fresh list are never read (they may
/// dangle from an earlier refill). nfresh >= 1.
template <class T>
using MergeFreshFnT = void (*)(const T* const* staged, const int* fresh,
                               int nfresh, T* l_soa, std::size_t n);

/// Merge kernel of a specific tier (clamped to detected_tier()) at lane
/// width `lanes` (see valid_lane_width; throws std::invalid_argument
/// otherwise). Like the stop scans, the kAvx512 bodies need the host to
/// execute AVX-512BW (masked epi16 stores) — the AVX2-tier body serves
/// otherwise.
template <class T>
MergeFreshFnT<T> merge_kernel(Tier tier, int lanes);

/// Merge kernel of the active tier.
template <class T>
MergeFreshFnT<T> merge_kernel(int lanes) {
  return merge_kernel<T>(active_tier(), lanes);
}

extern template MergeFreshFnT<std::int32_t> merge_kernel<std::int32_t>(Tier,
                                                                       int);
extern template MergeFreshFnT<std::int16_t> merge_kernel<std::int16_t>(Tier,
                                                                       int);
extern template MergeFreshFnT<std::int8_t> merge_kernel<std::int8_t>(Tier,
                                                                     int);

}  // namespace ldpc::core::kernels
