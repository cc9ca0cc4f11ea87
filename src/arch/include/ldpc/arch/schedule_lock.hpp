// The chip-schedule lock: generator/checker contract.
//
// tests/data/chip_schedules.txt holds one digest line per (mode, pipeline
// config), written by `alist_tool schedules`; tests/test_arch.cpp
// recompiles every schedule and asserts the file is reproduced line for
// line. Layered min-sum's arithmetic depends on the layer order, so the
// schedule is the first link of the chain schedule -> layered arithmetic
// -> chip goldens -> modeled == live: any change to the schedule compiler
// must leave this file untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ldpc/arch/pipeline.hpp"
#include "ldpc/codes/registry.hpp"

namespace ldpc::arch::schedule_lock {

/// Every registered mode, plus NR BG1/BG2 at z = 96 and z = 384 (part of
/// the registered NR ladder today; appended if the ladder ever drops them).
inline std::vector<codes::CodeId> modes() {
  auto ids = codes::all_modes();
  for (const codes::Rate rate : {codes::Rate::kR13, codes::Rate::kR15})
    for (const int z : {96, 384}) {
      const codes::CodeId id{codes::Standard::kNr5g, rate, z};
      if (std::find(ids.begin(), ids.end(), id) == ids.end())
        ids.push_back(id);
    }
  return ids;
}

/// {R2, R4} x reorder_reads x include_shifter_latency, default margin and
/// shifter depth (the chip's configuration is R4 / reorder / shifter).
inline std::vector<PipelineConfig> configs() {
  std::vector<PipelineConfig> out;
  for (const core::Radix radix : {core::Radix::kR2, core::Radix::kR4})
    for (const bool reorder : {false, true})
      for (const bool shifter : {false, true})
        out.push_back({.radix = radix,
                       .include_shifter_latency = shifter,
                       .reorder_reads = reorder});
  return out;
}

/// Compiles the schedule of `code` under `config` (optimize_order, its
/// entry orders, analyze) and formats one lock line. The FNV-1a digest
/// covers the layer order, every layer's entry order, the per-layer
/// stage cycles and stalls, cycles_per_iteration and drain_cycles; the
/// last three also appear in clear text.
inline std::string digest_line(const codes::QCCode& code,
                               const PipelineConfig& config) {
  const PipelineModel model(code, config);
  const auto order = model.optimize_order();
  const auto entries = model.optimize_entry_orders(order);
  const auto timing = model.analyze(order);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](long long v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const int l : order) mix(l);
  for (const auto& layer : entries) {
    mix(static_cast<long long>(layer.size()));
    for (const int e : layer) mix(e);
  }
  for (const auto& lt : timing.schedule) {
    mix(lt.layer);
    mix(lt.stage_cycles);
    mix(lt.stall);
  }
  mix(timing.cycles_per_iteration);
  mix(timing.drain_cycles);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(config.radix == core::Radix::kR2 ? "R2" : "R4") +
         " reorder=" + (config.reorder_reads ? "1" : "0") +
         " shifter=" + (config.include_shifter_latency ? "1" : "0") +
         " cpi=" + std::to_string(timing.cycles_per_iteration) +
         " drain=" + std::to_string(timing.drain_cycles) +
         " stalls=" + std::to_string(timing.total_stalls) + " digest=" +
         digest + " mode=" + code.name();
}

}  // namespace ldpc::arch::schedule_lock
