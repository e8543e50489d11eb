#include "knn_oracle.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/logging.h"

namespace drlstream::miqp {

double ActionDistanceSquared(const sched::Schedule& action,
                             const std::vector<double>& proto) {
  const int n = action.num_executors();
  const int m = action.num_machines();
  DRLSTREAM_CHECK_EQ(proto.size(), static_cast<size_t>(n) * m);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double* row = proto.data() + static_cast<size_t>(i) * m;
    const int assigned = action.MachineOf(i);
    for (int j = 0; j < m; ++j) {
      const double target = (j == assigned) ? 1.0 : 0.0;
      const double d = target - row[j];
      sum += d * d;
    }
  }
  return sum;
}

KnnResult SolveKnnBranchAndBound(const std::vector<double>& proto,
                                 int num_executors, int num_machines, int k) {
  DRLSTREAM_CHECK_EQ(proto.size(),
                     static_cast<size_t>(num_executors) * num_machines);
  // Assigning executor i to machine j costs ||a_hat_i||^2 + 1 - 2 a_hat_ij
  // (row_cost[i][j]); an action's distance is the sum over its rows.
  std::vector<std::vector<double>> row_cost(num_executors);
  for (int i = 0; i < num_executors; ++i) {
    const double* row = proto.data() + static_cast<size_t>(i) * num_machines;
    double norm_sq = 0.0;
    for (int j = 0; j < num_machines; ++j) norm_sq += row[j] * row[j];
    for (int j = 0; j < num_machines; ++j) {
      row_cost[i].push_back(norm_sq + 1.0 - 2.0 * row[j]);
    }
  }
  // Suffix lower bounds: sum of row minima for rows >= i.
  std::vector<double> suffix_min(num_executors + 1, 0.0);
  for (int i = num_executors - 1; i >= 0; --i) {
    suffix_min[i] = suffix_min[i + 1] +
                    *std::min_element(row_cost[i].begin(), row_cost[i].end());
  }

  // Best-first search over partial assignments.
  struct Node {
    double bound;  // partial cost + suffix lower bound
    double cost;   // partial cost
    std::vector<int> machines;
  };
  auto later = [](const Node& a, const Node& b) { return a.bound > b.bound; };
  std::priority_queue<Node, std::vector<Node>, decltype(later)> open(later);
  open.push(Node{suffix_min[0], 0.0, {}});

  KnnResult result;
  while (!open.empty() && static_cast<int>(result.actions.size()) < k) {
    Node node = open.top();
    open.pop();
    const int depth = static_cast<int>(node.machines.size());
    if (depth == num_executors) {
      auto action_or =
          sched::Schedule::FromAssignments(node.machines, num_machines);
      DRLSTREAM_CHECK(action_or.ok());
      result.actions.push_back(std::move(*action_or));
      continue;
    }
    for (int j = 0; j < num_machines; ++j) {
      Node child;
      child.cost = node.cost + row_cost[depth][j];
      child.bound = child.cost + suffix_min[depth + 1];
      child.machines = node.machines;
      child.machines.push_back(j);
      open.push(std::move(child));
    }
  }
  return result;
}

}  // namespace drlstream::miqp
