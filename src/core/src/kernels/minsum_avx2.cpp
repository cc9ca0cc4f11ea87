// AVX2 tier: one 256-bit vector holds 8 int32, 16 int16 or 32 int8 lanes,
// the tier's lane width, so every operation is one vector.
// Every kernel is a shared body from kernels_internal.hpp compiled with
// -mavx2 — dispatch.cpp only hands these pointers out after
// __builtin_cpu_supports("avx2") says the host can execute them.
#include "kernels_internal.hpp"

namespace ldpc::core::kernels {

template <class T>
KernelSet<T> avx2_kernels() {
  return vector_kernels<T>();
}

template KernelSet<std::int32_t> avx2_kernels<std::int32_t>();
template KernelSet<std::int16_t> avx2_kernels<std::int16_t>();
template KernelSet<std::int8_t> avx2_kernels<std::int8_t>();

}  // namespace ldpc::core::kernels
