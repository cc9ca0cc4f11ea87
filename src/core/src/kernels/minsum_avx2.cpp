// AVX2 tier: one 256-bit vector holds 8 int32, 16 int16 or 32 int8 lanes.
// The narrower widths run one vector per operation, the wider ones two.
// Every kernel is a shared body from kernels_internal.hpp compiled with
// -mavx2 — dispatch.cpp only hands these pointers out after
// __builtin_cpu_supports("avx2") says the host can execute them.
#include "kernels_internal.hpp"

namespace ldpc::core::kernels {

template <class T>
KernelSet<T> avx2_kernels(int lanes) {
  return vector_kernels<T>(lanes);
}

template KernelSet<std::int32_t> avx2_kernels<std::int32_t>(int);
template KernelSet<std::int16_t> avx2_kernels<std::int16_t>(int);
template KernelSet<std::int8_t> avx2_kernels<std::int8_t>(int);

}  // namespace ldpc::core::kernels
