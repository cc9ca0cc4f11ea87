#include "ldpc/arch/pipeline.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ldpc::arch {

namespace {

/// Cycle offset (within a stage) at which the e-th entry of a layer is
/// processed: one entry per cycle for R2, two per cycle for R4.
int entry_cycle(int e, core::Radix radix) {
  return radix == core::Radix::kR2 ? e : e / 2;
}

}  // namespace

PipelineModel::PipelineModel(const codes::QCCode& code, PipelineConfig config)
    : code_(&code), config_(config) {
  if (config_.read_after_write_margin < 0)
    throw std::invalid_argument("PipelineModel: margin");
  if (config_.shifter_stages < 0)
    throw std::invalid_argument("PipelineModel: shifter_stages");
  margin_ = config_.read_after_write_margin +
            (config_.include_shifter_latency ? config_.shifter_stages : 0);
  // A block row holds at most one block per block column, so each
  // (layer, column) pair names at most one entry.
  const auto k = static_cast<std::size_t>(code.block_cols());
  entry_at_.assign(code.layers().size() * k, -1);
  for (std::size_t l = 0; l < code.layers().size(); ++l) {
    const auto& layer = code.layers()[l];
    for (std::size_t e = 0; e < layer.size(); ++e)
      entry_at_[l * k + static_cast<std::size_t>(layer[e].block_col)] =
          static_cast<int>(e);
  }
}

int PipelineModel::stage_cycles(int layer) const {
  const int d = static_cast<int>(code_->layers().at(layer).size());
  return config_.radix == core::Radix::kR2 ? d : (d + 1) / 2;
}

namespace {

std::vector<int> canonical_order(std::size_t n) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// Inverse permutation: slots[order[s]] = s.
void invert(std::span<const int> order, std::vector<int>& slots) {
  slots.resize(order.size());
  for (std::size_t s = 0; s < order.size(); ++s)
    slots[static_cast<std::size_t>(order[s])] = static_cast<int>(s);
}

}  // namespace

int PipelineModel::stall(int prev, int next, const int* prev_slots,
                         const int* next_slots) const {
  if (!config_.overlap) return 0;
  const auto& ln = code_->layers()[static_cast<std::size_t>(next)];
  const int* prev_entry =
      entry_at_.data() +
      static_cast<std::size_t>(prev) *
          static_cast<std::size_t>(code_->block_cols());
  int stall = 0;
  // For every block column both layers touch: `next` reads it at cycle
  // rt of its stage 1, `prev` writes it at cycle wt of its stage 2. The
  // two stages start together when the stall is zero.
  for (std::size_t e = 0; e < ln.size(); ++e) {
    const int pe = prev_entry[ln[e].block_col];
    if (pe < 0) continue;
    const int wt = entry_cycle(prev_slots[pe], config_.radix);
    const int rt = entry_cycle(next_slots[e], config_.radix);
    stall = std::max(stall, wt - rt + margin_);
  }
  return stall;
}

int PipelineModel::stall_between(int prev, int next,
                                 std::span<const int> prev_slots,
                                 std::span<const int> next_slots) const {
  if (prev_slots.size() != code_->layers().at(prev).size() ||
      next_slots.size() != code_->layers().at(next).size())
    throw std::invalid_argument("stall_between: entry slots size");
  return stall(prev, next, prev_slots.data(), next_slots.data());
}

std::vector<std::vector<int>> PipelineModel::optimize_entry_orders(
    std::span<const int> layer_order) const {
  const int j = code_->block_rows();
  std::vector<std::vector<int>> orders(static_cast<std::size_t>(j));
  for (int l = 0; l < j; ++l)
    orders[static_cast<std::size_t>(l)] =
        canonical_order(code_->layers()[static_cast<std::size_t>(l)].size());
  if (!config_.reorder_reads || j <= 1) return orders;
  // slots[l] is the inverse of orders[l], kept in step with every change
  // so each stall check is a single pass over one layer's entries.
  std::vector<std::vector<int>> slots = orders;
  const std::size_t n = layer_order.size();
  const auto k = static_cast<std::size_t>(code_->block_cols());

  // Greedy sweeps around the schedule ring: given the predecessor's write
  // order, read each shared column as late after its write as possible by
  // sorting this layer's entries ascending by the predecessor's write
  // cycle (non-shared columns first). Two sweeps let the wrap-around pair
  // settle.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = static_cast<std::size_t>(layer_order[i]);
      const auto a = static_cast<std::size_t>(layer_order[(i + n - 1) % n]);
      const auto& lb = code_->layers()[b];
      const int* a_entry = entry_at_.data() + a * k;
      const auto& as = slots[a];

      // Write cycle of each column in layer a (or -1 if not present).
      auto write_cycle = [&](int col) {
        const int e = a_entry[col];
        return e < 0 ? -1
                     : entry_cycle(as[static_cast<std::size_t>(e)],
                                   config_.radix);
      };
      auto& bo = orders[b];
      std::stable_sort(bo.begin(), bo.end(), [&](int x, int y) {
        return write_cycle(lb[static_cast<std::size_t>(x)].block_col) <
               write_cycle(lb[static_cast<std::size_t>(y)].block_col);
      });
      invert(bo, slots[b]);
    }
  }

  // Local-search refinement: each layer's single order serves as both its
  // read order (vs its predecessor) and its write order (vs its
  // successor), so the greedy pass leaves conflicts. Hill-climb on entry
  // swaps, scoring the two schedule edges each layer participates in.
  bool improved = true;
  for (int round = 0; round < 6 && improved; ++round) {
    improved = false;
    for (std::size_t i = 0; i < n; ++i) {
      const int b = layer_order[i];
      const int a = layer_order[(i + n - 1) % n];
      const int c = layer_order[(i + 1) % n];
      auto& bo = orders[static_cast<std::size_t>(b)];
      auto& bs = slots[static_cast<std::size_t>(b)];
      const int* as = slots[static_cast<std::size_t>(a)].data();
      const int* cs = slots[static_cast<std::size_t>(c)].data();
      auto edges = [&] {
        return stall(a, b, as, bs.data()) + stall(b, c, bs.data(), cs);
      };
      auto swap_entries = [&](std::size_t x, std::size_t y) {
        std::swap(bo[x], bo[y]);
        bs[static_cast<std::size_t>(bo[x])] = static_cast<int>(x);
        bs[static_cast<std::size_t>(bo[y])] = static_cast<int>(y);
      };
      int current = edges();
      for (std::size_t x = 0; x < bo.size(); ++x)
        for (std::size_t y = x + 1; y < bo.size(); ++y) {
          swap_entries(x, y);
          const int after = edges();
          if (after < current) {
            current = after;
            improved = true;
          } else {
            swap_entries(x, y);
          }
        }
    }
  }
  return orders;
}

IterationTiming PipelineModel::analyze(std::span<const int> order) const {
  const int j = code_->block_rows();
  if (static_cast<int>(order.size()) != j)
    throw std::invalid_argument("PipelineModel::analyze: order size");
  std::vector<bool> seen(static_cast<std::size_t>(j), false);
  for (int l : order) {
    if (l < 0 || l >= j || seen[static_cast<std::size_t>(l)])
      throw std::invalid_argument(
          "PipelineModel::analyze: not a permutation");
    seen[static_cast<std::size_t>(l)] = true;
  }

  const auto entry_orders = optimize_entry_orders(order);
  std::vector<std::vector<int>> slots(entry_orders.size());
  for (std::size_t l = 0; l < slots.size(); ++l)
    invert(entry_orders[l], slots[l]);
  IterationTiming timing;
  timing.schedule.reserve(static_cast<std::size_t>(j));
  for (int i = 0; i < j; ++i) {
    const int layer = order[static_cast<std::size_t>(i)];
    const int prev = order[static_cast<std::size_t>((i + j - 1) % j)];
    LayerTiming lt;
    lt.layer = layer;
    lt.stage_cycles = stage_cycles(layer);
    lt.stall = stall(  // wrap-around dependency for i == 0
        prev, layer, slots[static_cast<std::size_t>(prev)].data(),
        slots[static_cast<std::size_t>(layer)].data());
    timing.schedule.push_back(lt);
    timing.total_stalls += lt.stall;
    timing.cycles_per_iteration += lt.stage_cycles + lt.stall;
    if (!config_.overlap) timing.cycles_per_iteration += lt.stage_cycles;
  }
  timing.drain_cycles =
      config_.overlap ? stage_cycles(order[static_cast<std::size_t>(j - 1)])
                      : 0;
  return timing;
}

IterationTiming PipelineModel::analyze_natural() const {
  std::vector<int> order(static_cast<std::size_t>(code_->block_rows()));
  std::iota(order.begin(), order.end(), 0);
  return analyze(order);
}

std::vector<int> PipelineModel::optimize_order() const {
  const int j = code_->block_rows();
  std::vector<int> order(static_cast<std::size_t>(j));
  std::iota(order.begin(), order.end(), 0);
  if (j <= 1) return order;

  // Canonical-order stall of every ordered layer pair, computed once:
  // stalls[p * j + q] for p -> q. Every phase below only reads it.
  const auto ju = static_cast<std::size_t>(j);
  std::vector<int> identity(
      static_cast<std::size_t>(code_->max_check_degree()));
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<int> stalls(ju * ju, 0);
  auto edge = [&](int p, int q) -> int& {
    return stalls[static_cast<std::size_t>(p) * ju +
                  static_cast<std::size_t>(q)];
  };
  for (int p = 0; p < j; ++p)
    for (int q = 0; q < j; ++q)
      if (p != q) edge(p, q) = stall(p, q, identity.data(), identity.data());
  auto cost = [&](const std::vector<int>& o) {
    long long total = 0;
    for (std::size_t i = 0; i < o.size(); ++i)
      total += edge(o[(i + o.size() - 1) % o.size()], o[i]);
    return total;
  };

  if (j <= 8) {
    // Exhaustive over (j-1)! cyclic orders (fix the first layer).
    std::vector<int> best = order;
    long long best_cost = cost(order);
    std::vector<int> cand = order;
    do {
      const long long c = cost(cand);
      if (c < best_cost) {
        best_cost = c;
        best = cand;
      }
    } while (std::next_permutation(cand.begin() + 1, cand.end()));
    return best;
  }

  // Greedy nearest-neighbour construction, then pairwise (swap) descent.
  std::vector<int> result;
  std::vector<bool> used(ju, false);
  result.push_back(0);
  used[0] = true;
  while (static_cast<int>(result.size()) < j) {
    int best = -1, best_stall = 1 << 30;
    for (int cand = 0; cand < j; ++cand) {
      if (used[static_cast<std::size_t>(cand)]) continue;
      const int s = edge(result.back(), cand);
      if (s < best_stall) {
        best_stall = s;
        best = cand;
      }
    }
    result.push_back(best);
    used[static_cast<std::size_t>(best)] = true;
  }
  // A swap of positions a < b only changes the ring edges into a, a+1, b
  // and b+1 (edge i runs result[i-1] -> result[i]); b == a+1 shares one.
  // Their summed change is exactly the change of the full ring cost.
  const std::size_t n = result.size();
  auto touched = [&](std::size_t a, std::size_t b) {
    auto into = [&](std::size_t i) {
      return edge(result[(i + n - 1) % n], result[i % n]);
    };
    long long sum = into(a) + into(a + 1) + into(b + 1);
    if (b != a + 1) sum += into(b);
    return sum;
  };
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t a = 1; a < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b) {
        const long long before = touched(a, b);
        std::swap(result[a], result[b]);
        if (touched(a, b) < before) {
          improved = true;
        } else {
          std::swap(result[a], result[b]);
        }
      }
  }
  return result;
}

}  // namespace ldpc::arch
