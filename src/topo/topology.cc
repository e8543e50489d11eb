#include "topo/topology.h"

#include <queue>

#include "common/logging.h"

namespace drlstream::topo {

int Topology::AddComponent(Component component, bool is_spout) {
  DRLSTREAM_CHECK_GT(component.parallelism, 0);
  DRLSTREAM_CHECK_GT(component.service_mean_ms, 0.0);
  component.is_spout = is_spout;
  const int id = static_cast<int>(components_.size());
  first_executor_.push_back(num_executors_);
  for (int i = 0; i < component.parallelism; ++i) {
    executor_component_.push_back(id);
  }
  num_executors_ += component.parallelism;
  components_.push_back(std::move(component));
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return id;
}

int Topology::AddSpout(Component component) {
  return AddComponent(std::move(component), /*is_spout=*/true);
}

int Topology::AddBolt(Component component) {
  return AddComponent(std::move(component), /*is_spout=*/false);
}

Status Topology::Connect(int from, int to, Grouping grouping) {
  if (from < 0 || from >= num_components() || to < 0 ||
      to >= num_components()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (from == to) {
    return Status::InvalidArgument("self-loop edges are not allowed");
  }
  if (components_[to].is_spout) {
    return Status::InvalidArgument("spouts cannot receive streams");
  }
  const int edge_id = static_cast<int>(edges_.size());
  edges_.push_back(StreamEdge{from, to, grouping});
  out_edges_[from].push_back(edge_id);
  in_edges_[to].push_back(edge_id);
  return Status::OK();
}

Status Topology::Validate() const {
  if (components_.empty()) {
    return Status::FailedPrecondition("topology has no components");
  }
  bool has_spout = false;
  for (const Component& c : components_) {
    if (c.is_spout) has_spout = true;
  }
  if (!has_spout) return Status::FailedPrecondition("topology has no spout");

  // Reachability from spouts.
  std::vector<bool> reachable(components_.size(), false);
  std::queue<int> frontier;
  for (int c = 0; c < num_components(); ++c) {
    if (components_[c].is_spout) {
      reachable[c] = true;
      frontier.push(c);
    }
  }
  while (!frontier.empty()) {
    const int c = frontier.front();
    frontier.pop();
    for (int e : out_edges_[c]) {
      const int to = edges_[e].to;
      if (!reachable[to]) {
        reachable[to] = true;
        frontier.push(to);
      }
    }
  }
  for (int c = 0; c < num_components(); ++c) {
    if (!reachable[c]) {
      return Status::FailedPrecondition("component '" + components_[c].name +
                                        "' unreachable from any spout");
    }
  }

  // Acyclicity via Kahn's algorithm.
  std::vector<int> in_degree(components_.size(), 0);
  for (const StreamEdge& e : edges_) ++in_degree[e.to];
  std::queue<int> ready;
  for (int c = 0; c < num_components(); ++c) {
    if (in_degree[c] == 0) ready.push(c);
  }
  int visited = 0;
  while (!ready.empty()) {
    const int c = ready.front();
    ready.pop();
    ++visited;
    for (int e : out_edges_[c]) {
      if (--in_degree[edges_[e].to] == 0) ready.push(edges_[e].to);
    }
  }
  if (visited != num_components()) {
    return Status::FailedPrecondition("topology graph contains a cycle");
  }
  return Status::OK();
}

int Topology::ComponentOfExecutor(int executor) const {
  DRLSTREAM_CHECK(executor >= 0 && executor < num_executors_);
  return executor_component_[executor];
}

std::vector<int> Topology::ExecutorsOf(int component) const {
  DRLSTREAM_CHECK(component >= 0 && component < num_components());
  std::vector<int> out;
  const int first = first_executor_[component];
  for (int i = 0; i < components_[component].parallelism; ++i) {
    out.push_back(first + i);
  }
  return out;
}

std::vector<int> Topology::SpoutComponents() const {
  std::vector<int> out;
  for (int c = 0; c < num_components(); ++c) {
    if (components_[c].is_spout) out.push_back(c);
  }
  return out;
}

int Topology::num_spouts() const {
  return static_cast<int>(SpoutComponents().size());
}

bool Topology::HasFunctionalComponents() const {
  for (const Component& c : components_) {
    if (c.udf_factory || c.source_factory) return true;
  }
  return false;
}

}  // namespace drlstream::topo
