// Cycle-level model of the block-serial pipelined schedule (Fig. 2/4).
//
// Each layer runs two stages on the z parallel SISO decoders: stage 1
// absorbs the row (read + f recursion), stage 2 emits messages (write
// back). Stage 1 of layer l+1 overlaps stage 2 of layer l using dual-port
// memories; a data dependency (a block column written late by layer l but
// read early by layer l+1) stalls the pipeline (section III-C). Stalls can
// be reduced by reordering layers (Gunnam et al. [10]) — implemented here
// as an optimiser over the layer permutation.
#pragma once

#include <span>
#include <vector>

#include "ldpc/codes/qc_code.hpp"
#include "ldpc/core/decoder.hpp"

namespace ldpc::arch {

struct PipelineConfig {
  core::Radix radix = core::Radix::kR4;
  /// Overlap adjacent layers (Fig. 4). Without overlap each layer takes
  /// both its stages serially and no stalls occur.
  bool overlap = true;
  /// Extra cycles a read must trail the corresponding write (register
  /// margin through the memory and subtract path).
  int read_after_write_margin = 1;
  /// Account for the circular shifter's pipeline latency. The shifter is
  /// itself pipelined, so it does not slow the steady-state flow directly;
  /// it widens the read-after-write window between overlapped layers (a
  /// freshly written L word needs shifter_stages extra cycles before the
  /// next layer can consume it), which manifests as extra stalls — the
  /// "about 5-15%" degradation of section III-E.
  bool include_shifter_latency = false;
  /// Shifter pipeline latency in cycles (CircularShifter::latency_cycles:
  /// registered input/output around a combinational mux tree). Only used
  /// when include_shifter_latency is set.
  int shifter_stages = 2;
  /// Also permute the processing order of blocks *within* each layer so
  /// that columns written late by the previous layer are read late by the
  /// next one (the FIFO order is a free design choice; boxplus is
  /// commutative). Together with layer reordering this is how real
  /// implementations reach the paper's "stalls can be avoided" claim for
  /// dense base matrices like 802.11n's.
  bool reorder_reads = false;
};

struct LayerTiming {
  int layer = 0;        // base-matrix block row index
  int stage_cycles = 0; // cycles per stage (d or ceil(d/2))
  int stall = 0;        // stall cycles inserted before this layer
};

struct IterationTiming {
  std::vector<LayerTiming> schedule;  // in execution order
  long long cycles_per_iteration = 0; // steady-state cycles per iteration
  int total_stalls = 0;
  int drain_cycles = 0;               // final stage-2 drain per frame
};

class PipelineModel {
 public:
  PipelineModel(const codes::QCCode& code, PipelineConfig config = {});

  const codes::QCCode& code() const noexcept { return *code_; }
  const PipelineConfig& config() const noexcept { return config_; }

  /// Cycles per stage for layer l (d_l for R2, ceil(d_l/2) for R4).
  int stage_cycles(int layer) const;

  /// Analyses the schedule for a given layer order (a permutation of
  /// 0..j-1). The wrap-around dependency (last layer -> first layer of the
  /// next iteration) is included in the steady-state count.
  IterationTiming analyze(std::span<const int> order) const;

  /// Natural order 0, 1, ..., j-1.
  IterationTiming analyze_natural() const;

  /// Searches for a layer order minimising total stalls: exhaustive for
  /// j <= 8, greedy insertion + pairwise improvement beyond. Every phase
  /// reads one j x j matrix of canonical-order stalls (each layer
  /// processing its entries in ascending column order), computed once per
  /// call. Returns the best order found.
  std::vector<int> optimize_order() const;

  /// Stall cycles required between consecutive layers `prev` -> `next`.
  /// `prev_slots[e]` / `next_slots[e]` are the processing slots of entry e
  /// of each layer (a permutation of the layer's entry indices; the
  /// identity is canonical ascending-column order). O(d), no allocation.
  int stall_between(int prev, int next, std::span<const int> prev_slots,
                    std::span<const int> next_slots) const;

  /// Per-layer entry processing orders chosen to minimise stalls for the
  /// given layer schedule (only meaningful with config.reorder_reads;
  /// returns canonical orders otherwise). Indexed by layer id;
  /// orders[l][s] is the entry layer l processes in slot s.
  std::vector<std::vector<int>> optimize_entry_orders(
      std::span<const int> layer_order) const;

 private:
  /// stall_between without the size checks.
  int stall(int prev, int next, const int* prev_slots,
            const int* next_slots) const;

  const codes::QCCode* code_;
  PipelineConfig config_;
  int margin_ = 0;  // read-after-write margin incl. shifter latency
  /// entry_at_[l * k + c]: index of the entry of layer l in block column
  /// c, or -1 when the layer does not touch c.
  std::vector<int> entry_at_;
};

}  // namespace ldpc::arch
