// Internal cross-TU interface of the kernel layer: the shared kernel bodies
// and, per tier translation unit (compiled with that tier's -m flags), one
// KernelSet getter explicitly instantiated for the three lane element
// types; dispatch.cpp selects among them. Not installed — include only
// from src/core/src/kernels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "ldpc/core/kernels/minsum_kernels.hpp"

// The x86-64 baseline includes SSE2, so even the scalar TU can use the
// movemask sign-pack helpers below; each tier TU's own -m flags unlock the
// wider variants.
#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace ldpc::core::kernels {

// One branchless quantiser body shared by every tier: each tier TU hands
// out its own instantiation, so the SAME source autovectorises at that
// TU's -m width (2 doubles/vector at baseline, 4 at AVX2, 8 at AVX-512).
// `static` is load-bearing: with ordinary `inline` linkage the linker
// would keep ONE copy — possibly the AVX-512-compiled one — and hand it
// to every tier, crashing hosts that cannot execute it.
// Equivalence with the scalar QFormat::quantize path, term by term:
//   - round-half-away-from-zero == trunc(scaled + copysign(0.5, scaled)),
//     and the C cast to int32 IS truncation toward zero (cvttpd2dq);
//   - clamping the adjusted value BEFORE truncation equals clamping the
//     rounded value (the rails are integers, truncation is monotone);
//   - NaN fails v == v and maps to 0 before the cast (the cast of NaN
//     would be UB); the exclude-zero rule then sees a non-negative value.
// The body is additionally templated over the OUTPUT lane element type:
// the narrow instantiations clamp to spec.raw_max exactly like the int32
// one (the caller guarantees raw_max fits T — lane-type eligibility), so
// the final cast only narrows the store and the fused quantise-into-stage
// deposit is bit-identical to quantise-to-int32-then-narrow.
template <class T>
static inline void quantize_llrs_body(const double* __restrict llr,
                                      T* __restrict raw, std::size_t count,
                                      const QuantSpec& spec) {
  const double scale = spec.scale;
  const double hi = static_cast<double>(spec.raw_max);
  const double lo = -hi;
  if (spec.exclude_zero) {
#pragma omp simd
    for (std::size_t i = 0; i < count; ++i) {
      const double v = llr[i];
      double a = v * scale;
      a += a >= 0.0 ? 0.5 : -0.5;
      a = a > hi ? hi : a;
      a = a < lo ? lo : a;
      a = v == v ? a : 0.0;
      const std::int32_t q = static_cast<std::int32_t>(a);
      raw[i] = static_cast<T>(q != 0 ? q : (v < 0.0 ? -1 : 1));
    }
  } else {
#pragma omp simd
    for (std::size_t i = 0; i < count; ++i) {
      const double v = llr[i];
      double a = v * scale;
      a += a >= 0.0 ? 0.5 : -0.5;
      a = a > hi ? hi : a;
      a = a < lo ? lo : a;
      a = v == v ? a : 0.0;
      raw[i] = static_cast<T>(static_cast<std::int32_t>(a));
    }
  }
}

// The stop-rule scan bodies (CwScanFnT / EtScanFnT), shared by every tier
// TU like quantize_llrs_body. `static` on a function template gives every
// instantiation internal linkage — without it the linker would COMDAT-fold
// the per-TU instantiations into one copy (possibly the AVX-512-compiled
// one) handed to every tier.
//
// The ET body uses GCC/Clang vector extensions rather than
// autovectorisable loops: the per-variable row base `l_soa + i * W` defeats
// GCC 12's vectoriser when mixed with the mask state updates, which would
// emit a SCALAR per-lane loop costing as much per batch iteration as the
// entire min-sum row pass. A 64-byte vector op per variable (one register
// at AVX-512, split by the compiler into two at AVX2, four at SSE) is the
// whole inner loop. The codeword body instead packs each variable's lane
// signs into a uint64 with one movemask (dense pass, affine addressing)
// and reduces parity over the packed masks — the gather-addressed
// `col_idx[j] * W` rows are never re-read vector-wide.
//
// All ET scan state stays in T, not int32: a widening accumulator would
// pin the per-element vector cost at the int32 rate and erase the
// narrow-lane engines' scaling on these scans (which run every iteration).
// Truth values are all-ones masks (vector compare results), not 0/1 — the
// &= reductions work identically; prev_hard therefore holds sign MASKS
// (0 / -1), an engine-private representation only these bodies touch.
template <class T, int W>
struct ScanVecT {
  // aligned(alignof(T)): the engines 64-byte-align their SoA bases (see
  // core::SoaVector), but at the half-width lane counts rows sit at 32-byte
  // strides, so loads must still be emitted as unaligned moves (same speed
  // as aligned moves on aligned addresses).
  typedef T type
      __attribute__((vector_size(W * sizeof(T)), aligned(alignof(T))));
};

// Packs the sign bits of one W-lane SoA row into a uint64: bit w is set
// iff lane w's value is negative. The movemask family does a full row per
// instruction; the `#if` ladder keys on the TU's own -m flags, so each
// tier's compiled copy only uses instructions dispatch has already
// verified the host executes (the TU flags are a subset of the runtime
// tier check). `static` linkage per the COMDAT note above.
template <class T, int W>
static inline std::uint64_t pack_sign_mask(const T* __restrict row) {
  if constexpr (std::is_same_v<T, std::int8_t>) {
#if defined(__AVX512F__) && defined(__AVX512BW__)
    if constexpr (W == 64)
      return static_cast<std::uint64_t>(_mm512_movepi8_mask(
          _mm512_loadu_si512(reinterpret_cast<const void*>(row))));
#endif
#if defined(__AVX2__)
    std::uint64_t m = 0;
    for (int c = 0; c < W; c += 32)
      m |= static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(_mm256_movemask_epi8(
                   _mm256_loadu_si256(
                       reinterpret_cast<const __m256i*>(row + c)))))
           << c;
    return m;
#elif defined(__SSE2__)
    std::uint64_t m = 0;
    for (int c = 0; c < W; c += 16)
      m |= static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(row + c)))))
           << c;
    return m;
#endif
  } else if constexpr (std::is_same_v<T, std::int16_t>) {
#if defined(__AVX512F__) && defined(__AVX512BW__)
    if constexpr (W == 32)
      return static_cast<std::uint64_t>(_mm512_movepi16_mask(
          _mm512_loadu_si512(reinterpret_cast<const void*>(row))));
#endif
#if defined(__AVX2__)
    // packs saturates int16 to int8 (sign-preserving); the pack interleaves
    // 128-bit halves, so un-shuffle the qwords before the byte movemask.
    std::uint64_t m = 0;
    for (int c = 0; c < W; c += 16) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + c));
      const __m256i p = _mm256_permute4x64_epi64(
          _mm256_packs_epi16(a, _mm256_setzero_si256()), 0xd8);
      m |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               _mm256_movemask_epi8(p)) &
                                      0xffffu)
           << c;
    }
    return m;
#elif defined(__SSE2__)
    std::uint64_t m = 0;
    for (int c = 0; c < W; c += 16) {
      const __m128i a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + c));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + c + 8));
      m |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               _mm_movemask_epi8(_mm_packs_epi16(a, b))))
           << c;
    }
    return m;
#endif
  } else {
#if defined(__AVX512F__)
    if constexpr (W == 16)
      return static_cast<std::uint64_t>(_mm512_cmplt_epi32_mask(
          _mm512_loadu_si512(reinterpret_cast<const void*>(row)),
          _mm512_setzero_si512()));
#endif
#if defined(__AVX2__)
    std::uint64_t m = 0;
    for (int c = 0; c < W; c += 8)
      m |= static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
                   _mm256_loadu_si256(
                       reinterpret_cast<const __m256i*>(row + c))))))
           << c;
    return m;
#elif defined(__SSE2__)
    std::uint64_t m = 0;
    for (int c = 0; c < W; c += 4)
      m |= static_cast<std::uint64_t>(
               static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(
                   _mm_loadu_si128(
                       reinterpret_cast<const __m128i*>(row + c))))))
           << c;
    return m;
#endif
  }
  std::uint64_t m = 0;
  for (int w = 0; w < W; ++w)
    m |= static_cast<std::uint64_t>(row[w] < 0) << w;
  return m;
}

// Codeword scan = one dense sign-pack pass over the n variables (filling
// the caller's hard_mask), then a scalar uint64 parity reduction over the
// CSR edges. Compared with the previous full-lane-row xor per edge this
// reads 8 bytes per edge instead of W*sizeof(T), and the packed masks
// double as the retiring lanes' hard decisions (the retire-fold) — the
// engines stop re-gathering strided L columns at retirement.
template <class T, int W>
static void cw_scan_body(const std::int32_t* __restrict row_ptr,
                         const std::int32_t* __restrict col_idx, int m, int n,
                         const T* __restrict l_soa,
                         std::uint64_t* __restrict hard_mask,
                         std::uint8_t* __restrict ok) {
  for (int v = 0; v < n; ++v)
    hard_mask[v] = pack_sign_mask<T, W>(l_soa + static_cast<std::size_t>(v) * W);
  std::uint64_t fail = 0;
  for (int r = 0; r < m; ++r) {
    std::uint64_t acc = 0;
    const std::int32_t end = row_ptr[r + 1];
    for (std::int32_t j = row_ptr[r]; j < end; ++j)
      acc ^= hard_mask[col_idx[j]];
    fail |= acc;
  }
  for (int w = 0; w < W; ++w)
    ok[w] = (fail >> w) & 1 ? std::uint8_t{0} : std::uint8_t{1};
}

template <class T, int W>
static void et_scan_body(int k_info, std::int32_t threshold,
                         const T* __restrict l_soa, T* __restrict prev_hard,
                         std::uint8_t* __restrict has_prev,
                         std::uint8_t* __restrict fire) {
  using vec = typename ScanVecT<T, W>::type;
  // |v| never overflows under symmetric saturation, and a threshold beyond
  // the lane rail clamps to the rail — mag > rail is false either way,
  // matching the int32 compare.
  const T thr = static_cast<T>(
      std::min<std::int32_t>(threshold, std::numeric_limits<T>::max()));
  vec stable = ~vec{};
  vec above = ~vec{};
  for (int i = 0; i < k_info; ++i) {
    const vec v = *reinterpret_cast<const vec*>(
        l_soa + static_cast<std::size_t>(i) * W);
    vec* const prev =
        reinterpret_cast<vec*>(prev_hard + static_cast<std::size_t>(i) * W);
    const vec hard = v < vec{};
    const vec mag = (v ^ hard) - hard;  // two's-complement |v| via the mask
    above &= (mag > thr);
    stable &= (hard == *prev);
    *prev = hard;
  }
  for (int w = 0; w < W; ++w) {
    fire[w] = has_prev[w] && stable[w] && above[w] ? std::uint8_t{1}
                                                   : std::uint8_t{0};
    has_prev[w] = 1;
  }
}

// Fresh-lane column merge, reference body: blocked lane-outer /
// variable-inner traversal. Each staged frame streams sequentially; the
// row-block cap keeps the strided column stores inside an L1-resident
// window (a W-lane row is one cache line at every lane type), so
// revisiting a block once per fresh lane costs L1 hits, not a re-fetch of
// the whole L memory. The wide-lane AVX-512BW body replaces the scatter
// with a register block transpose (see minsum_avx512.cpp).
template <class T, int W>
static void merge_fresh_body(const T* const* staged, const int* fresh,
                             int nfresh, T* __restrict l_soa, std::size_t n) {
  constexpr std::size_t kBlockBytes = 16 * 1024;
  constexpr std::size_t block = kBlockBytes / (W * sizeof(T));
  for (std::size_t v0 = 0; v0 < n; v0 += block) {
    const std::size_t v1 = n < v0 + block ? n : v0 + block;
    for (int i = 0; i < nfresh; ++i) {
      const int w = fresh[i];
      const T* __restrict src = staged[w];
      T* __restrict col = l_soa + w;
      for (std::size_t v = v0; v < v1; ++v) col[v * W] = src[v];
    }
  }
}

// Native register width of this TU in bytes, from its -m flags (the same
// key the pack_sign_mask ladder uses). Namespace-scope constexpr has
// internal linkage, so each tier TU sees its own value.
#if defined(__AVX512F__) && defined(__AVX512BW__)
constexpr int kNativeBytes = 64;
#elif defined(__AVX2__)
constexpr int kNativeBytes = 32;
#else
constexpr int kNativeBytes = 16;
#endif

// One row chunk of C lanes. The row body loads and stores it through
// memcpy (single unaligned vector moves): its scratch and L rows are only
// element-aligned in general.
template <class T, int C>
using RowVec = typename ScanVecT<T, C>::type;

// Saturating a - b (kSub) or a + b of one row chunk: the native subs/adds
// epi16/epi8 ops for the narrow lanes, plain arithmetic for int32 (the
// rails span <= 12 bits, so int32 never overflows). Vector extensions
// have no saturating add, and the portable overflow idiom takes several
// ops where the native one takes one, so this `#if` ladder is the row
// body's only per-tier code. Like pack_sign_mask it keys on the TU's own
// -m flags, which dispatch has verified the host executes.
template <bool kSub, class T, int C>
static inline RowVec<T, C> sat_op(RowVec<T, C> a, RowVec<T, C> b) {
  using vec = RowVec<T, C>;
  constexpr bool k16 = sizeof(T) == 2;
  if constexpr (sizeof(T) == 4) {
    return kSub ? a - b : a + b;
  }
#if defined(__AVX512F__) && defined(__AVX512BW__)
  else if constexpr (sizeof(vec) == 64) {
    const __m512i x = (__m512i)a, y = (__m512i)b;
    return (vec)(kSub ? (k16 ? _mm512_subs_epi16(x, y)
                             : _mm512_subs_epi8(x, y))
                      : (k16 ? _mm512_adds_epi16(x, y)
                             : _mm512_adds_epi8(x, y)));
  }
#endif
#if defined(__AVX2__)
  else if constexpr (sizeof(vec) == 32) {
    const __m256i x = (__m256i)a, y = (__m256i)b;
    return (vec)(kSub ? (k16 ? _mm256_subs_epi16(x, y)
                             : _mm256_subs_epi8(x, y))
                      : (k16 ? _mm256_adds_epi16(x, y)
                             : _mm256_adds_epi8(x, y)));
  }
#endif
#if defined(__SSE2__)
  else if constexpr (sizeof(vec) == 16) {
    const __m128i x = (__m128i)a, y = (__m128i)b;
    return (vec)(kSub ? (k16 ? _mm_subs_epi16(x, y) : _mm_subs_epi8(x, y))
                      : (k16 ? _mm_adds_epi16(x, y) : _mm_adds_epi8(x, y)));
  }
#endif
  else {
    static_assert(sizeof(T) == 4, "no native saturating op at this width");
    return a;
  }
}

// The runtime-degree min-sum row body of every SIMD tier: one source in
// GCC vector extensions, compiled per tier TU and walking the W lanes in
// chunks of the TU's native register width (one register per op). It
// serves the layer degrees outside the registered set (see layer_body
// below), through caller scratch.
// Output is bit-identical to the independent row_scalar reference:
// saturate, clip, two-minima scan, sign product, minima correction,
// saturating write-back. Two steps are cheaper forms of the reference's:
// the sign product is the sign bit of the XOR of all clipped messages, and
// the argmin index is not tracked (see the emit loop). The narrow lanes
// rely on the engine-enforced eligibility rule (every rail fits T): the
// saturating ops' interval then contains the clamp interval, so
// saturate-then-clamp equals the int32 wide-then-clamp. The keep mask is
// loaded once per chunk and ANDed into every Lambda load of that chunk.
// `static` linkage per the COMDAT note above.
template <class T, int W>
static void row_body(T* const* l_rows, T* lambda_row, T* lam_full, T* lam,
                     const T* keep, int deg, const RowBounds& b) {
  constexpr int kChunk = std::min<int>(W, kNativeBytes / int{sizeof(T)});
  using vec = RowVec<T, kChunk>;
  const auto splat = [](std::int32_t x) { return vec{} + static_cast<T>(x); };
  const auto load = [](const T* p) {
    vec v;
    __builtin_memcpy(&v, p, sizeof(vec));
    return v;
  };
  const auto store = [](T* p, vec v) { __builtin_memcpy(p, &v, sizeof(vec)); };
  const vec app_lo = splat(b.app_lo), app_hi = splat(b.app_hi);
  const vec msg_lo = splat(b.msg_lo), msg_hi = splat(b.msg_hi);
  const vec zero{};

  for (int c = 0; c < W; c += kChunk) {
    const vec kept = load(keep + c);
    vec min1 = msg_hi, min2 = msg_hi, signs = zero;
    for (int e = 0; e < deg; ++e) {
      vec d = sat_op<true, T, kChunk>(load(l_rows[e] + c),
                                      load(lambda_row + e * W + c) & kept);
      d = d > app_hi ? app_hi : d;
      d = d < app_lo ? app_lo : d;
      store(lam_full + e * W + c, d);
      vec m = d > msg_hi ? msg_hi : d;
      m = m < msg_lo ? msg_lo : m;
      store(lam + e * W + c, m);

      signs ^= m;  // the sign bit accumulates the sign product
      const vec mag = m < zero ? -m : m;  // GCC emits the native abs
      // Two-minima update without a compare: min2 = max(min1, min(min2,
      // mag)) is min1 when mag < min1 and min(min2, mag) otherwise.
      min2 = min2 < mag ? min2 : mag;
      min2 = min2 > min1 ? min2 : min1;
      min1 = min1 < mag ? min1 : mag;
    }

    // Min-sum variant correction of the two minima (see RowBounds).
    vec out1 = min1, out2 = min2;
    if (b.offset) {
      const vec off = splat(b.offset);
      out1 -= off;
      out2 -= off;
      out1 = out1 < zero ? zero : out1;
      out2 = out2 < zero ? zero : out2;
    }
    if (b.norm) {
      out1 -= out1 >> 2;
      out2 -= out2 >> 2;
    }

    // An edge whose magnitude equals min1 gets min2. The reference gives
    // min2 to the argmin edge only, but any other edge at min1 means the
    // minimum is tied and min2 == min1, so both rules emit the same word.
    for (int e = 0; e < deg; ++e) {
      const vec m = load(lam + e * W + c);
      const vec mag = (m < zero ? -m : m) == min1 ? out2 : out1;
      const vec out = (signs ^ m) < zero ? -mag : mag;
      vec app = sat_op<false, T, kChunk>(load(lam_full + e * W + c), out);
      app = app > app_hi ? app_hi : app;
      app = app < app_lo ? app_lo : app;
      store(lambda_row + e * W + c, out);
      store(l_rows[e] + c, app);
    }
  }
}

// The walk of one layer (MinSumLayerFnT): one L-row cursor per edge, set
// to row (shift mod z) of the edge's block-column window and advanced one
// W-lane row per check row, wrapping once at the window's end. `N` bounds
// the degree (the layer body's D, or kMaxLayerDegree); the cursors ARE the
// row-pointer array a row body reads.
template <class T, int W, int N>
struct LayerWalk {
  T* row[N];
  T* end[N];
  std::size_t window;  // z * W: one block column's words

  LayerWalk(T* l_soa, const codes::BlockEntry* blocks, int deg, int z)
      : window(static_cast<std::size_t>(z) * W) {
    for (int e = 0; e < deg; ++e) {
      T* const base = l_soa + static_cast<std::size_t>(blocks[e].block_col) *
                                  window;
      row[e] = base + static_cast<std::size_t>(blocks[e].shift) * W;
      end[e] = base + window;
    }
  }
  void advance(int deg) {
    for (int e = 0; e < deg; ++e) {
      row[e] += W;
      if (row[e] == end[e]) row[e] -= window;
    }
  }
};

// A layer walked through a row body that needs deg*W scratch (row_scalar
// on the scalar tier, row_body on the vector tiers for degrees without a
// layer_body): the scratch lives on the stack, sized by kMaxLayerDegree.
template <class T, int W, void (*Row)(T* const*, T*, T*, T*, const T*, int,
                                      const RowBounds&)>
static void layer_via_row(T* l_soa, T* lambda, const codes::BlockEntry* blocks,
                          int deg, int z, const T* keep, const RowBounds& b) {
  alignas(64) T lam_full[kMaxLayerDegree * W];
  alignas(64) T lam[kMaxLayerDegree * W];
  LayerWalk<T, W, kMaxLayerDegree> walk(l_soa, blocks, deg, z);
  const std::size_t stride = static_cast<std::size_t>(deg) * W;
  for (int t = 0; t < z; ++t, lambda += stride) {
    Row(walk.row, lambda, lam_full, lam, keep, deg, b);
    walk.advance(deg);
  }
}

// The register-resident layer body for degree D: row_body's arithmetic
// with the D clipped-APP vectors of a chunk held in registers across the
// scan and the emit (the edge loops fully unroll on the compile-time
// degree), and no scratch written at all — per edge-vector one L load, one
// Lambda load, one L store and one Lambda store. The chunk loop is
// outermost within a row, so only one chunk's D vectors are live at once.
// Symmetric message rails (msg_lo == -msg_hi with msg_hi >= 1, as every
// QFormat saturates) let the message clip fold into the magnitude: |clip(x)| =
// min(|x|, msg_hi), and clip(x) has x's sign, so the clipped message is
// never formed. Bit-identical to row_body otherwise: the same ops on the
// same values.
template <class T, int W, int D>
static void layer_body(T* l_soa, T* lambda, const codes::BlockEntry* blocks,
                       int z, const T* keep, const RowBounds& b) {
  constexpr int kChunk = std::min<int>(W, kNativeBytes / int{sizeof(T)});
  constexpr int kChunks = W / kChunk;
  using vec = RowVec<T, kChunk>;
  const auto splat = [](std::int32_t x) { return vec{} + static_cast<T>(x); };
  const auto load = [](const T* p) {
    vec v;
    __builtin_memcpy(&v, p, sizeof(vec));
    return v;
  };
  const auto store = [](T* p, vec v) { __builtin_memcpy(p, &v, sizeof(vec)); };
  const vec app_lo = splat(b.app_lo), app_hi = splat(b.app_hi);
  const vec msg_hi = splat(b.msg_hi);
  const vec zero{};
  const bool offset = b.offset != 0, norm = b.norm != 0;
  const vec off = splat(b.offset);
  // alignas: GCC may raise a local vector array's alignment to the
  // register width on its own, which ASan's use-after-return fake stack
  // does not honour; stating it makes the frame keep it.
  alignas(sizeof(vec)) vec kept[kChunks];
  for (int c = 0; c < kChunks; ++c) kept[c] = load(keep + c * kChunk);

  LayerWalk<T, W, D> walk(l_soa, blocks, D, z);
  for (int t = 0; t < z; ++t, lambda += D * W) {
    for (int c = 0; c < kChunks; ++c) {
      const int lane0 = c * kChunk;
      alignas(sizeof(vec)) vec d[D];
      vec min1 = msg_hi, min2 = msg_hi, signs = zero;
#pragma GCC unroll 32
      for (int e = 0; e < D; ++e) {
        vec x = sat_op<true, T, kChunk>(
            load(walk.row[e] + lane0), load(lambda + e * W + lane0) & kept[c]);
        x = x > app_hi ? app_hi : x;
        x = x < app_lo ? app_lo : x;
        d[e] = x;
        signs ^= x;
        vec mag = x < zero ? -x : x;
        mag = mag < msg_hi ? mag : msg_hi;
        min2 = min2 < mag ? min2 : mag;
        min2 = min2 > min1 ? min2 : min1;
        min1 = min1 < mag ? min1 : mag;
      }
      vec out1 = min1, out2 = min2;
      if (offset) {
        out1 -= off;
        out2 -= off;
        out1 = out1 < zero ? zero : out1;
        out2 = out2 < zero ? zero : out2;
      }
      if (norm) {
        out1 -= out1 >> 2;
        out2 -= out2 >> 2;
      }
#pragma GCC unroll 32
      for (int e = 0; e < D; ++e) {
        vec mag = d[e] < zero ? -d[e] : d[e];
        mag = mag < msg_hi ? mag : msg_hi;
        mag = mag == min1 ? out2 : out1;
        const vec out = (signs ^ d[e]) < zero ? -mag : mag;
        vec app = sat_op<false, T, kChunk>(d[e], out);
        app = app > app_hi ? app_hi : app;
        app = app < app_lo ? app_lo : app;
        store(lambda + e * W + lane0, out);
        store(walk.row[e] + lane0, app);
      }
    }
    walk.advance(D);
  }
}

// The layer degrees of the registered modes (3-11, 13-15, 20 and 22 over
// codes::all_modes()), each with its own layer_body on every vector tier.
// Register files of 16 vectors (SSE4.2, AVX2) spill part of a wide
// degree's row, but those spills cost less than row_body's scratch
// traffic (BM_MinSumLayerTier*_d20), so no tier caps the degree.
template <int... Ds>
struct DegreeList {};
using RegisteredDegrees =
    DegreeList<3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 20, 22>;

// The vector tiers' layer kernel: one compare chain on the layer degree
// selects layer_body<D>; any other degree, or asymmetric message rails,
// walks row_body.
template <class T, int W, int... Ds>
static void layer_dispatch(T* l_soa, T* lambda,
                           const codes::BlockEntry* blocks, int deg, int z,
                           const T* keep, const RowBounds& b,
                           DegreeList<Ds...>) {
  const bool done =
      b.msg_hi > 0 && b.msg_lo == -b.msg_hi &&
      ((deg == Ds
            ? (layer_body<T, W, Ds>(l_soa, lambda, blocks, z, keep, b), true)
            : false) ||
       ...);
  if (!done)
    layer_via_row<T, W, &row_body<T, W>>(l_soa, lambda, blocks, deg, z, keep,
                                         b);
}

template <class T, int W>
static void layer_vector(T* l_soa, T* lambda, const codes::BlockEntry* blocks,
                         int deg, int z, const T* keep, const RowBounds& b) {
  layer_dispatch<T, W>(l_soa, lambda, blocks, deg, z, keep, b,
                       RegisteredDegrees{});
}

// The five kernels one tier TU serves for lane type T at one lane width.
template <class T>
struct KernelSet {
  MinSumLayerFnT<T> layer;
  QuantFnT<T> quant;
  CwScanFnT<T> cw;
  EtScanFnT<T> et;
  MergeFreshFnT<T> merge;
};

// Every shared body at lane width W, with `layer` as the layer kernel.
template <class T, int W>
static KernelSet<T> body_set(MinSumLayerFnT<T> layer) {
  return {layer, &quantize_llrs_body<T>, &cw_scan_body<T, W>,
          &et_scan_body<T, W>, &merge_fresh_body<T, W>};
}

// The set of a vector tier TU (sse42 / avx2 / avx512): every body at this
// TU's -m flags. `lanes` is valid (dispatch checked valid_lane_width). The
// degree-specialised layer bodies are compiled only at the width the
// engines run at on this tier (kernels::preferred_lanes); the other valid
// width, used only by callers that pin it, walks row_body. That halves the
// tier's code, most of which is the 14 unrolled layer bodies.
template <class T>
static KernelSet<T> vector_kernels(int lanes) {
  constexpr int s = lane_scale(lane_type_of<T>);
  constexpr int kPreferred = (kNativeBytes == 64 ? 16 : 8) * s;
  constexpr int kOther = (kNativeBytes == 64 ? 8 : 16) * s;
  return lanes == kPreferred
             ? body_set<T, kPreferred>(&layer_vector<T, kPreferred>)
             : body_set<T, kOther>(
                   &layer_via_row<T, kOther, &row_body<T, kOther>>);
}

// Per-tier getters, one per TU, explicitly instantiated for the three lane
// types; dispatch.cpp only calls a tier's getter after CPUID confirmed the
// host executes it.
template <class T>
KernelSet<T> scalar_kernels(int lanes);
// The scalar TU's reference row (row_scalar) at a valid lane width.
template <class T>
MinSumRowFnT<T> scalar_reference_row(int lanes);
#ifdef LDPC_KERNELS_HAVE_SSE42
template <class T>
KernelSet<T> sse42_kernels(int lanes);
#endif
#ifdef LDPC_KERNELS_HAVE_AVX2
template <class T>
KernelSet<T> avx2_kernels(int lanes);
#endif
#ifdef LDPC_KERNELS_HAVE_AVX512
// AVX-512F+BW: the TU is compiled with -mavx512f -mavx512bw, and the
// kAvx512 tier is only detected on hosts executing both.
template <class T>
KernelSet<T> avx512_kernels(int lanes);
#endif

}  // namespace ldpc::core::kernels
