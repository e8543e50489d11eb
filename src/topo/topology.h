#ifndef DRLSTREAM_TOPO_TOPOLOGY_H_
#define DRLSTREAM_TOPO_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "topo/udf.h"

namespace drlstream::topo {

/// How tuples are distributed among the tasks of a downstream component
/// (Storm grouping policies, Section 2.1 of the paper).
enum class Grouping {
  kShuffle = 0,  // random
  kFields = 1,   // by key hash
  kAll = 2,      // one-to-all (broadcast)
  kGlobal = 3,   // all-to-one (lowest-id task)
};

/// A spout or bolt (the paper's "data source" / "Processing Unit").
struct Component {
  std::string name;
  bool is_spout = false;
  /// Number of executors (parallel tasks) this component runs as.
  int parallelism = 1;
  /// Mean per-tuple processing time at one executor, in ms (uncontended).
  double service_mean_ms = 0.1;
  /// Coefficient of variation of the (log-normal) service time.
  double service_cv = 0.5;
  /// Timing-only mode: expected number of output tuples a *bolt* emits per
  /// input tuple on each outgoing edge (Poisson-distributed). Spouts always
  /// emit exactly one tuple per edge per emission. Functional mode uses the
  /// UDF's real output instead.
  double emit_factor = 1.0;
  /// Average serialized tuple size emitted by this component, in bytes
  /// (timing-only mode; functional mode sizes the real payloads).
  int tuple_bytes = 128;
  /// Optional functional logic.
  UdfFactory udf_factory;          // bolts
  SpoutSourceFactory source_factory;  // spouts
};

/// A directed stream between two components.
struct StreamEdge {
  int from = -1;
  int to = -1;
  Grouping grouping = Grouping::kShuffle;
};

/// The logical application graph (a Storm topology): components, their
/// parallelism, and how streams are grouped between them. Executors are
/// numbered globally and contiguously per component, in insertion order.
class Topology {
 public:
  explicit Topology(std::string name) : name_(std::move(name)) {}

  /// Adds a component; returns its component id.
  int AddSpout(Component component);
  int AddBolt(Component component);

  /// Adds a stream edge between two existing components.
  Status Connect(int from, int to, Grouping grouping);

  /// Checks structural validity: at least one spout, edges in range, spouts
  /// have no inbound edges, every bolt reachable from some spout, acyclic.
  Status Validate() const;

  const std::string& name() const { return name_; }
  int num_components() const { return static_cast<int>(components_.size()); }
  const Component& component(int id) const { return components_[id]; }
  Component& mutable_component(int id) { return components_[id]; }
  const std::vector<StreamEdge>& edges() const { return edges_; }

  /// Total number of executors (the paper's N).
  int num_executors() const { return num_executors_; }
  /// Component owning the given global executor index.
  int ComponentOfExecutor(int executor) const;
  /// Global executor index of the first task of `component`.
  int FirstExecutorOf(int component) const { return first_executor_[component]; }
  /// Global executor indices [first, first + parallelism) of `component`.
  std::vector<int> ExecutorsOf(int component) const;

  /// Outgoing/incoming edges of a component (indices into edges()).
  const std::vector<int>& OutEdges(int component) const {
    return out_edges_[component];
  }
  const std::vector<int>& InEdges(int component) const {
    return in_edges_[component];
  }

  /// Component ids of all spouts, in insertion order.
  std::vector<int> SpoutComponents() const;
  int num_spouts() const;

  /// True if any component carries functional logic.
  bool HasFunctionalComponents() const;

 private:
  int AddComponent(Component component, bool is_spout);

  std::string name_;
  std::vector<Component> components_;
  std::vector<StreamEdge> edges_;
  std::vector<std::vector<int>> out_edges_;
  std::vector<std::vector<int>> in_edges_;
  std::vector<int> first_executor_;
  std::vector<int> executor_component_;  // executor -> component
  int num_executors_ = 0;
};

}  // namespace drlstream::topo

#endif  // DRLSTREAM_TOPO_TOPOLOGY_H_
