// Portable scalar row kernel: the reference arithmetic every SIMD tier
// must match bit for bit, and (walked over each layer by layer_via_row)
// the fallback on hosts (or builds) without SSE4.2. The inner loops are
// written in autovectorisable form (`#pragma
// omp simd` + __restrict, branch-free selects), so "scalar" still vectorises
// when the compiler feels like it — the tier ladder is about *guaranteed*
// SIMD, not about pessimising the baseline.
//
// The narrow lane types (int16/int8) compute in int32 internally and cast
// on store: plain C++ arithmetic on narrow integers would promote and
// silently truncate, whereas every intermediate here stays clamped inside
// the rails — which by the lane-type eligibility rule fit the lane type —
// so the cast is value-preserving and the result matches both the int32
// scalar kernel and the saturating narrow SIMD kernels exactly. The SIMD
// tiers share one vector-extension source (layer_body / row_body in
// kernels_internal.hpp); this loop stays a separate implementation so the
// tier matrix has an independent reference.
#include "kernels_internal.hpp"

namespace ldpc::core::kernels {

namespace {

template <class T, int W>
void row_scalar(T* const* l_rows, T* lambda_row, T* lam_full, T* lam,
                const T* keep, int deg, const RowBounds& b) {
  const std::int32_t app_lo = b.app_lo, app_hi = b.app_hi;
  const std::int32_t msg_lo = b.msg_lo, msg_hi = b.msg_hi;

  // Read + subtract + clip: lam_full = sat_app(L - (Lambda & keep)), lam =
  // the message-bus clipped copy for the min scan.
  for (int e = 0; e < deg; ++e) {
    const T* __restrict lrow = l_rows[e];
    const T* __restrict lamb = &lambda_row[e * W];
    T* __restrict lf = &lam_full[e * W];
    T* __restrict lm = &lam[e * W];
#pragma omp simd
    for (int w = 0; w < W; ++w) {
      const std::int32_t lambda = keep[w] ? std::int32_t{lamb[w]} : 0;
      std::int32_t d = std::int32_t{lrow[w]} - lambda;
      d = d > app_hi ? app_hi : d;
      d = d < app_lo ? app_lo : d;
      lf[w] = static_cast<T>(d);
      std::int32_t m = d > msg_hi ? msg_hi : d;
      m = m < msg_lo ? msg_lo : m;
      lm[w] = static_cast<T>(m);
    }
  }

  // Two-minima scan with sign product — one running state per lane.
  // Strict `<` so the FIRST minimum wins argmin (the scalar engine's tie
  // rule; every tier reproduces it).
  alignas(64) std::int32_t min1[W], min2[W], argmin[W], signs[W];
#pragma omp simd
  for (int w = 0; w < W; ++w) {
    min1[w] = msg_hi;
    min2[w] = msg_hi;
    argmin[w] = -1;
    signs[w] = 0;
  }
  for (int e = 0; e < deg; ++e) {
    const T* __restrict lm = &lam[e * W];
#pragma omp simd
    for (int w = 0; w < W; ++w) {
      const std::int32_t v = lm[w];
      const std::int32_t neg = v < 0;
      const std::int32_t mag = neg ? -v : v;
      signs[w] ^= neg;
      const bool lt1 = mag < min1[w];
      min2[w] = lt1 ? min1[w] : (mag < min2[w] ? mag : min2[w]);
      min1[w] = lt1 ? mag : min1[w];
      argmin[w] = lt1 ? e : argmin[w];
    }
  }

  // Min-sum variant correction, applied once to the two minima (every
  // emitted magnitude is one of them, so this equals per-edge correction).
  if (b.offset) {
    const std::int32_t off = b.offset;
#pragma omp simd
    for (int w = 0; w < W; ++w) {
      const std::int32_t m1 = min1[w] - off;
      const std::int32_t m2 = min2[w] - off;
      min1[w] = m1 < 0 ? 0 : m1;
      min2[w] = m2 < 0 ? 0 : m2;
    }
  }
  if (b.norm) {
#pragma omp simd
    for (int w = 0; w < W; ++w) {
      min1[w] -= min1[w] >> 2;
      min2[w] -= min2[w] >> 2;
    }
  }

  // Emit + write back: Lambda gets the min-sum output, L gets the
  // APP-width saturated lam_full + output.
  for (int e = 0; e < deg; ++e) {
    const T* __restrict lm = &lam[e * W];
    const T* __restrict lf = &lam_full[e * W];
    T* __restrict lamb = &lambda_row[e * W];
    T* __restrict lrow = l_rows[e];
#pragma omp simd
    for (int w = 0; w < W; ++w) {
      const std::int32_t mag = e == argmin[w] ? min2[w] : min1[w];
      const std::int32_t out_neg = signs[w] ^ (lm[w] < 0);
      const std::int32_t out = out_neg ? -mag : mag;
      std::int32_t app = std::int32_t{lf[w]} + out;
      app = app > app_hi ? app_hi : app;
      app = app < app_lo ? app_lo : app;
      lamb[w] = static_cast<T>(out);
      lrow[w] = static_cast<T>(app);
    }
  }
}

}  // namespace

// The scalar tier walks every layer through row_scalar; every other kernel
// is the shared body at the baseline architecture.
template <class T>
KernelSet<T> scalar_kernels(int lanes) {
  constexpr int s = lane_scale(lane_type_of<T>);
  return lanes == 16 * s
             ? body_set<T, 16 * s>(
                   &layer_via_row<T, 16 * s, &row_scalar<T, 16 * s>>)
             : body_set<T, 8 * s>(
                   &layer_via_row<T, 8 * s, &row_scalar<T, 8 * s>>);
}

template <class T>
MinSumRowFnT<T> scalar_reference_row(int lanes) {
  constexpr int s = lane_scale(lane_type_of<T>);
  return lanes == 16 * s ? &row_scalar<T, 16 * s> : &row_scalar<T, 8 * s>;
}

template KernelSet<std::int32_t> scalar_kernels<std::int32_t>(int);
template KernelSet<std::int16_t> scalar_kernels<std::int16_t>(int);
template KernelSet<std::int8_t> scalar_kernels<std::int8_t>(int);
template MinSumRowFnT<std::int32_t> scalar_reference_row<std::int32_t>(int);
template MinSumRowFnT<std::int16_t> scalar_reference_row<std::int16_t>(int);
template MinSumRowFnT<std::int8_t> scalar_reference_row<std::int8_t>(int);

}  // namespace ldpc::core::kernels
