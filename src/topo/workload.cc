#include "topo/workload.h"

#include "common/logging.h"

namespace drlstream::topo {

void Workload::SetBaseRate(int spout_component, double tuples_per_sec) {
  DRLSTREAM_CHECK_GE(tuples_per_sec, 0.0);
  base_rates_[spout_component] = tuples_per_sec;
}

double Workload::BaseRate(int spout_component) const {
  auto it = base_rates_.find(spout_component);
  return it == base_rates_.end() ? 0.0 : it->second;
}

std::vector<double> Workload::RatesVector(
    const std::vector<int>& spout_components, double /*time_ms*/) const {
  std::vector<double> out;
  out.reserve(spout_components.size());
  for (int c : spout_components) out.push_back(BaseRate(c));
  return out;
}

void Workload::ScaleAllRates(double factor) {
  DRLSTREAM_CHECK_GT(factor, 0.0);
  for (auto& [component, rate] : base_rates_) rate *= factor;
}

}  // namespace drlstream::topo
