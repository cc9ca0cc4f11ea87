// Pre-quantised channel frame: the quantised-domain ingest payload.
//
// A frame of channel LLRs enters the batched engines as n raw codes at the
// narrowest lane type the decoder config admits — int8 or int16 for every
// registered config — instead of transmitted_bits() doubles. Producing the
// frame once at the front end (sim::quantise_llrs runs the same
// scheme-aware core::deposit_transmitted_quant the engines run) means the
// serving path never touches the double domain: the MPMC queue carries
// 1-2 bytes per variable instead of 8 per transmitted bit (4-8x less
// payload bandwidth), and engine-side staging is a plain widen-or-alias of
// the stored codes. Bit-identity with double-LLR submission holds by
// construction — both paths run the identical deposit arithmetic — and is
// locked by the golden-mode ingest suite.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "ldpc/core/kernels/minsum_kernels.hpp"

namespace ldpc::core {

/// One frame of already-deposited, already-quantised raw codes covering
/// the FULL codeword memory (size n: punctured erasures, filler rails and
/// wraparound combining are already applied — see
/// core::deposit_transmitted_quant). `type` is the lane element type of
/// the stored codes; an engine running a wider lane type widens them on
/// staging, and one running the same type aliases the storage directly.
struct QuantisedFrame {
  kernels::LaneType type = kernels::LaneType::kInt32;
  std::int32_t n = 0;             // codeword length (variables)
  std::vector<std::int8_t> bytes; // n * element-size raw codes

  bool empty() const noexcept { return n == 0; }

  std::size_t expected_bytes() const noexcept {
    return static_cast<std::size_t>(n) *
           (4u / static_cast<unsigned>(kernels::lane_scale(type)));
  }

  /// The one ingest check every consumer runs before staging a frame: a
  /// known lane tag, `code_n` codes, and exactly that many stored
  /// elements. A frame failing it is rejected at the door (submit, engine,
  /// chip) instead of throwing from as<T>() mid-decode.
  bool valid_for(std::int32_t code_n) const noexcept {
    switch (type) {
      case kernels::LaneType::kInt32:
      case kernels::LaneType::kInt16:
      case kernels::LaneType::kInt8:
        return n == code_n && bytes.size() == expected_bytes();
    }
    return false;
  }

  /// Typed view of the stored codes; T must match `type`.
  template <class T>
  std::span<const T> as() const {
    if (kernels::lane_type_of<T> != type)
      throw std::invalid_argument("QuantisedFrame::as: lane type mismatch");
    if (bytes.size() != static_cast<std::size_t>(n) * sizeof(T))
      throw std::invalid_argument("QuantisedFrame::as: payload size");
    return {reinterpret_cast<const T*>(bytes.data()),
            static_cast<std::size_t>(n)};
  }

  /// Typed mutable view for producers; resizes storage to n codes of T.
  template <class T>
  std::span<T> emplace(kernels::LaneType t, std::int32_t count) {
    if (kernels::lane_type_of<T> != t)
      throw std::invalid_argument(
          "QuantisedFrame::emplace: lane type mismatch");
    type = t;
    n = count;
    bytes.resize(static_cast<std::size_t>(count) * sizeof(T));
    return {reinterpret_cast<T*>(bytes.data()),
            static_cast<std::size_t>(count)};
  }
};

}  // namespace ldpc::core
