// AVX-512 tier (AVX-512F+BW): the tier's lane width fills one register per
// operation — 16 int32, 32 int16 or 64 int8 lanes — with compare results
// living in mask registers. Every kernel is a shared body from
// kernels_internal.hpp compiled with -mavx512f -mavx512bw, except the
// int16 fresh-lane merge below. Dispatch only detects this tier on
// hosts executing both avx512f and avx512bw.
#include <immintrin.h>

#include <type_traits>

#include "kernels_internal.hpp"

namespace ldpc::core::kernels {

namespace {

// Fresh-lane merge, int16 @ 32 lanes: a 32x32 register block transpose.
// The reference merge walks each staged frame sequentially and scatters it
// into its strided L column — one 2-byte store per cache line, and a
// PER-FRAME cost that dilutes the narrow engines' lane-parallel win (at
// the mixed workload's churn a refill burst covers a third of the lanes).
// Here 32 rows of 32 staged frames are transposed in registers — the
// in-lane 8x8 epi16/epi32/epi64 unpack ladder per 8-row group, then two
// i32x4 stages gathering the 128-bit lanes across groups — and each
// variable's full 32-lane row is written with ONE k-masked store that
// touches only the fresh columns. ~160 shuffles per 1024 elements versus
// 32xnfresh scattered stores; below kTransposeMinFresh the blocked
// reference body wins and serves.
//
// Non-fresh slots of `staged` may dangle (a lane refilled many calls ago);
// the transpose loads unconditionally, so the local source table aliases
// every non-fresh slot to a fresh frame — harmless reads whose columns the
// store mask discards.
constexpr int kTransposeMinFresh = 6;

void merge_avx512_w32_epi16(const std::int16_t* const* staged,
                            const int* fresh, int nfresh,
                            std::int16_t* l_soa, std::size_t n) {
  constexpr int W = 32;
  if (nfresh < kTransposeMinFresh) {
    merge_fresh_body<std::int16_t, W>(staged, fresh, nfresh, l_soa, n);
    return;
  }
  const std::int16_t* src[W];
  const std::int16_t* const safe = staged[fresh[0]];
  for (int w = 0; w < W; ++w) src[w] = safe;
  __mmask32 fmask = 0;
  for (int i = 0; i < nfresh; ++i) {
    const int w = fresh[i];
    src[w] = staged[w];
    fmask |= __mmask32{1} << w;
  }
  std::size_t v = 0;
  for (; v + W <= n; v += W) {
    // V[8g + c], 128-bit lane l = variables v + 8l + c of lanes 8g..8g+7.
    __m512i V[W];
    for (int g = 0; g < 4; ++g) {
      __m512i r[8], t[8], u[8];
      for (int k = 0; k < 8; ++k)
        r[k] = _mm512_loadu_si512(src[8 * g + k] + v);
      for (int k = 0; k < 4; ++k) {
        t[2 * k] = _mm512_unpacklo_epi16(r[2 * k], r[2 * k + 1]);
        t[2 * k + 1] = _mm512_unpackhi_epi16(r[2 * k], r[2 * k + 1]);
      }
      u[0] = _mm512_unpacklo_epi32(t[0], t[2]);
      u[1] = _mm512_unpackhi_epi32(t[0], t[2]);
      u[2] = _mm512_unpacklo_epi32(t[1], t[3]);
      u[3] = _mm512_unpackhi_epi32(t[1], t[3]);
      u[4] = _mm512_unpacklo_epi32(t[4], t[6]);
      u[5] = _mm512_unpackhi_epi32(t[4], t[6]);
      u[6] = _mm512_unpacklo_epi32(t[5], t[7]);
      u[7] = _mm512_unpackhi_epi32(t[5], t[7]);
      V[8 * g + 0] = _mm512_unpacklo_epi64(u[0], u[4]);
      V[8 * g + 1] = _mm512_unpackhi_epi64(u[0], u[4]);
      V[8 * g + 2] = _mm512_unpacklo_epi64(u[1], u[5]);
      V[8 * g + 3] = _mm512_unpackhi_epi64(u[1], u[5]);
      V[8 * g + 4] = _mm512_unpacklo_epi64(u[2], u[6]);
      V[8 * g + 5] = _mm512_unpackhi_epi64(u[2], u[6]);
      V[8 * g + 6] = _mm512_unpacklo_epi64(u[3], u[7]);
      V[8 * g + 7] = _mm512_unpackhi_epi64(u[3], u[7]);
    }
    std::int16_t* const out = l_soa + v * W;
    for (int c = 0; c < 8; ++c) {
      // Gather 128-bit lane l of the four groups -> the full 32-lane row
      // of variable v + 8l + c.
      const __m512i w0 = _mm512_shuffle_i32x4(V[c], V[8 + c], 0x88);
      const __m512i w1 = _mm512_shuffle_i32x4(V[c], V[8 + c], 0xdd);
      const __m512i w2 = _mm512_shuffle_i32x4(V[16 + c], V[24 + c], 0x88);
      const __m512i w3 = _mm512_shuffle_i32x4(V[16 + c], V[24 + c], 0xdd);
      _mm512_mask_storeu_epi16(out + c * W, fmask,
                               _mm512_shuffle_i32x4(w0, w2, 0x88));
      _mm512_mask_storeu_epi16(out + (c + 8) * W, fmask,
                               _mm512_shuffle_i32x4(w1, w3, 0x88));
      _mm512_mask_storeu_epi16(out + (c + 16) * W, fmask,
                               _mm512_shuffle_i32x4(w0, w2, 0xdd));
      _mm512_mask_storeu_epi16(out + (c + 24) * W, fmask,
                               _mm512_shuffle_i32x4(w1, w3, 0xdd));
    }
  }
  // Tail rows (n % 32): plain column scatter of the fresh lanes.
  for (; v < n; ++v)
    for (int i = 0; i < nfresh; ++i) {
      const int w = fresh[i];
      l_soa[v * W + w] = staged[w][v];
    }
}

}  // namespace

template <class T>
KernelSet<T> avx512_kernels() {
  KernelSet<T> set = vector_kernels<T>();
  if constexpr (std::is_same_v<T, std::int16_t>) {
    static_assert(kTierLanes<T> == 32, "the transpose merge is 32 lanes");
    set.merge = &merge_avx512_w32_epi16;
  }
  return set;
}

template KernelSet<std::int32_t> avx512_kernels<std::int32_t>();
template KernelSet<std::int16_t> avx512_kernels<std::int16_t>();
template KernelSet<std::int8_t> avx512_kernels<std::int8_t>();

}  // namespace ldpc::core::kernels
