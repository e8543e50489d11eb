#ifndef DRLSTREAM_TOPO_WORKLOAD_H_
#define DRLSTREAM_TOPO_WORKLOAD_H_

#include <map>
#include <vector>

namespace drlstream::topo {

/// Per-spout-component base tuple arrival rates. Rates are expressed per
/// *executor* of the spout component in tuples per second; arrivals are
/// Poisson. The rate vector (per component) is the `w` part of the paper's
/// state s = (X, w). Rates change over time only in the simulator, through
/// a tenant's workload generator (workload/generator.h) and spout-shock
/// faults (sim/faults.h).
class Workload {
 public:
  Workload() = default;

  /// Sets the base rate for a spout component (tuples/second per executor).
  void SetBaseRate(int spout_component, double tuples_per_sec);

  /// Base rate of one executor of `spout_component` (0 when unset).
  double BaseRate(int spout_component) const;

  /// Base rates for the given spout components, in order. `time_ms` is
  /// ignored: base rates do not change over time.
  std::vector<double> RatesVector(const std::vector<int>& spout_components,
                                  double time_ms) const;

  /// Scales all base rates by `factor` (used to shrink experiments for fast
  /// training runs while preserving relative load).
  void ScaleAllRates(double factor);

 private:
  std::map<int, double> base_rates_;
};

}  // namespace drlstream::topo

#endif  // DRLSTREAM_TOPO_WORKLOAD_H_
