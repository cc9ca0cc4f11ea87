// Kernel dispatch: pick the tier once, hand out plain function pointers
// from that tier's KernelSet. Selection = CPUID ceiling, optionally
// lowered by the LDPC_SIMD environment variable, optionally pinned by the
// force_tier() test hook.
// The lane element type has the parallel LDPC_LANE_TYPE / force_lane_type
// preference, consumed by the engines (core::select_lane_type).
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "kernels_internal.hpp"

namespace ldpc::core::kernels {

std::string to_string(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kSse42: return "sse42";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "scalar";
}

std::string to_string(LaneType type) {
  switch (type) {
    case LaneType::kInt32: return "int32";
    case LaneType::kInt16: return "int16";
    case LaneType::kInt8: return "int8";
  }
  return "int32";
}

namespace {

std::string lowered(const std::string& name) {
  std::string s = name;
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

std::optional<Tier> try_parse_tier(const std::string& name) {
  const std::string s = lowered(name);
  if (s == "avx512") return Tier::kAvx512;
  if (s == "avx2") return Tier::kAvx2;
  if (s == "sse42") return Tier::kSse42;
  if (s == "scalar") return Tier::kScalar;
  return std::nullopt;
}

Tier parse_tier(const std::string& name) {
  if (const auto tier = try_parse_tier(name)) return *tier;
  throw std::invalid_argument(
      "kernels::parse_tier: unknown SIMD tier '" + name +
      "' (expected scalar, sse42, avx2 or avx512)");
}

std::optional<LaneType> try_parse_lane_type(const std::string& name) {
  const std::string s = lowered(name);
  if (s == "int32") return LaneType::kInt32;
  if (s == "int16") return LaneType::kInt16;
  if (s == "int8") return LaneType::kInt8;
  return std::nullopt;
}

LaneType parse_lane_type(const std::string& name) {
  if (const auto type = try_parse_lane_type(name)) return *type;
  throw std::invalid_argument(
      "kernels::parse_lane_type: unknown lane type '" + name +
      "' (expected int32, int16 or int8)");
}

namespace {

Tier detect() {
#if defined(__x86_64__) || defined(__i386__)
#ifdef LDPC_KERNELS_HAVE_AVX512
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw"))
    return Tier::kAvx512;
#endif
#ifdef LDPC_KERNELS_HAVE_AVX2
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
#ifdef LDPC_KERNELS_HAVE_SSE42
  if (__builtin_cpu_supports("sse4.2")) return Tier::kSse42;
#endif
#endif
  return Tier::kScalar;
}

struct DispatchState {
  Tier detected = detect();
  bool forced = false;
  Tier forced_tier = Tier::kScalar;
  bool env_present = false;
  Tier env_tier = Tier::kScalar;
  bool lane_forced = false;
  LaneType forced_lane = LaneType::kInt32;
  bool lane_env_present = false;
  LaneType env_lane = LaneType::kInt32;

  DispatchState() { read_env(); }
  void read_env() {
    // Lenient on the env path (a throw here would abort static init):
    // unknown names warn once on stderr and fall back to detection
    // instead of the old silent map-to-scalar.
    env_present = false;
    if (const char* v = std::getenv("LDPC_SIMD")) {
      if (const auto tier = try_parse_tier(v)) {
        env_present = true;
        env_tier = *tier;
      } else {
        std::fprintf(stderr,
                     "ldpc: ignoring unknown LDPC_SIMD value '%s' "
                     "(expected scalar, sse42, avx2 or avx512)\n",
                     v);
      }
    }
    lane_env_present = false;
    if (const char* v = std::getenv("LDPC_LANE_TYPE")) {
      const std::string s = lowered(v);
      if (s.empty() || s == "auto") return;
      if (const auto type = try_parse_lane_type(s)) {
        lane_env_present = true;
        env_lane = *type;
      } else {
        std::fprintf(stderr,
                     "ldpc: ignoring unknown LDPC_LANE_TYPE value '%s' "
                     "(expected int32, int16, int8 or auto)\n",
                     v);
      }
    }
  }
};

DispatchState& state() {
  static DispatchState s;
  return s;
}

Tier clamp(Tier tier, Tier ceiling) {
  return static_cast<int>(tier) > static_cast<int>(ceiling) ? ceiling : tier;
}

}  // namespace

Tier detected_tier() { return state().detected; }

Tier active_tier() {
  const DispatchState& s = state();
  if (s.forced) return clamp(s.forced_tier, s.detected);
  if (s.env_present) return clamp(s.env_tier, s.detected);
  return s.detected;
}

Tier force_tier(Tier tier) {
  DispatchState& s = state();
  s.forced = true;
  s.forced_tier = tier;
  return clamp(tier, s.detected);
}

void clear_forced_tier() { state().forced = false; }

void reload_env() { state().read_env(); }

std::optional<LaneType> requested_lane_type() {
  const DispatchState& s = state();
  if (s.lane_forced) return s.forced_lane;
  if (s.lane_env_present) return s.env_lane;
  return std::nullopt;
}

void force_lane_type(LaneType type) {
  DispatchState& s = state();
  s.lane_forced = true;
  s.forced_lane = type;
}

void clear_forced_lane_type() { state().lane_forced = false; }

int preferred_lanes(LaneType type) {
  return (active_tier() == Tier::kAvx512 ? 16 : 8) * lane_scale(type);
}

namespace {

// The one tier ladder: every kernel getter below reads its pointer from
// the KernelSet of the requested tier, clamped to detected_tier().
template <class T>
KernelSet<T> kernel_set(Tier tier, int lanes, const char* who) {
  constexpr LaneType type = lane_type_of<T>;
  if (!valid_lane_width(type, lanes))
    throw std::invalid_argument(
        std::string("kernels::") + who + ": lane width must be " +
        std::to_string(8 * lane_scale(type)) + " or " +
        std::to_string(16 * lane_scale(type)) + " for " + to_string(type));
  switch (clamp(tier, state().detected)) {
#ifdef LDPC_KERNELS_HAVE_AVX512
    case Tier::kAvx512: return avx512_kernels<T>(lanes);
#endif
#ifdef LDPC_KERNELS_HAVE_AVX2
    case Tier::kAvx2: return avx2_kernels<T>(lanes);
#endif
#ifdef LDPC_KERNELS_HAVE_SSE42
    case Tier::kSse42: return sse42_kernels<T>(lanes);
#endif
    default: return scalar_kernels<T>(lanes);
  }
}

}  // namespace

template <class T>
MinSumLayerFnT<T> layer_kernel(Tier tier, int lanes) {
  return kernel_set<T>(tier, lanes, "layer_kernel").layer;
}

template <class T>
MinSumRowFnT<T> reference_row(int lanes) {
  // Validates the width like every getter; the row itself is the scalar
  // TU's, whatever the tier.
  kernel_set<T>(Tier::kScalar, lanes, "reference_row");
  return scalar_reference_row<T>(lanes);
}

template <class T>
QuantFnT<T> quant_kernel(Tier tier) {
  // The quantiser is lane-count independent: any valid width selects it.
  constexpr int lanes = 8 * lane_scale(lane_type_of<T>);
  return kernel_set<T>(tier, lanes, "quant_kernel").quant;
}

template <class T>
CwScanFnT<T> cw_scan_kernel(Tier tier, int lanes) {
  return kernel_set<T>(tier, lanes, "cw_scan_kernel").cw;
}

template <class T>
EtScanFnT<T> et_scan_kernel(Tier tier, int lanes) {
  return kernel_set<T>(tier, lanes, "et_scan_kernel").et;
}

template <class T>
MergeFreshFnT<T> merge_kernel(Tier tier, int lanes) {
  return kernel_set<T>(tier, lanes, "merge_kernel").merge;
}

template MinSumLayerFnT<std::int32_t> layer_kernel<std::int32_t>(Tier, int);
template MinSumLayerFnT<std::int16_t> layer_kernel<std::int16_t>(Tier, int);
template MinSumLayerFnT<std::int8_t> layer_kernel<std::int8_t>(Tier, int);
template MinSumRowFnT<std::int32_t> reference_row<std::int32_t>(int);
template MinSumRowFnT<std::int16_t> reference_row<std::int16_t>(int);
template MinSumRowFnT<std::int8_t> reference_row<std::int8_t>(int);
template QuantFnT<std::int32_t> quant_kernel<std::int32_t>(Tier);
template QuantFnT<std::int16_t> quant_kernel<std::int16_t>(Tier);
template QuantFnT<std::int8_t> quant_kernel<std::int8_t>(Tier);
template CwScanFnT<std::int32_t> cw_scan_kernel<std::int32_t>(Tier, int);
template CwScanFnT<std::int16_t> cw_scan_kernel<std::int16_t>(Tier, int);
template CwScanFnT<std::int8_t> cw_scan_kernel<std::int8_t>(Tier, int);
template EtScanFnT<std::int32_t> et_scan_kernel<std::int32_t>(Tier, int);
template EtScanFnT<std::int16_t> et_scan_kernel<std::int16_t>(Tier, int);
template EtScanFnT<std::int8_t> et_scan_kernel<std::int8_t>(Tier, int);
template MergeFreshFnT<std::int32_t> merge_kernel<std::int32_t>(Tier, int);
template MergeFreshFnT<std::int16_t> merge_kernel<std::int16_t>(Tier, int);
template MergeFreshFnT<std::int8_t> merge_kernel<std::int8_t>(Tier, int);

}  // namespace ldpc::core::kernels
