// SSE4.2 tier: one 128-bit vector holds 4 int32, 8 int16 or 16 int8 lanes
// (the row body's instruction needs are SSSE3 abs + SSE4.1 min/max/blendv;
// gating the tier on SSE4.2 keeps the ladder conventional). Every kernel
// is a shared body from kernels_internal.hpp compiled with -msse4.2;
// dispatch guards execution with __builtin_cpu_supports("sse4.2").
#include "kernels_internal.hpp"

namespace ldpc::core::kernels {

template <class T>
KernelSet<T> sse42_kernels(int lanes) {
  return vector_kernels<T>(lanes);
}

template KernelSet<std::int32_t> sse42_kernels<std::int32_t>(int);
template KernelSet<std::int16_t> sse42_kernels<std::int16_t>(int);
template KernelSet<std::int8_t> sse42_kernels<std::int8_t>(int);

}  // namespace ldpc::core::kernels
