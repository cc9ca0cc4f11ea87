#include "ldpc/core/layer_engine.hpp"

namespace ldpc::core {

// The supported datapath instantiations (see datapath.hpp). Building them
// here keeps every translation unit that includes the engine header from
// re-instantiating the schedule.
template class LayerEngineT<std::int32_t>;
template class LayerEngineT<double>;

}  // namespace ldpc::core
