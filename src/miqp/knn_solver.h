#ifndef DRLSTREAM_MIQP_KNN_SOLVER_H_
#define DRLSTREAM_MIQP_KNN_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sched/schedule.h"

namespace drlstream::miqp {

/// K nearest feasible actions to a proto-action, ascending by squared
/// euclidean distance ||a - a_hat||^2, each also given as the rows where it
/// differs from actions[0], the 1-NN: actions[c] reassigns exactly the
/// executors deviation_rows[deviation_begin[c], deviation_begin[c + 1]),
/// ascending (none for c = 0). SolveInto fills both; ComputeDeviations
/// derives them for any other action list.
struct KnnResult {
  std::vector<sched::Schedule> actions;
  std::vector<int> deviation_rows;
  std::vector<int> deviation_begin;  // actions.size() + 1 offsets
};

/// Sets result->deviation_rows / deviation_begin from result->actions (all
/// of one shape, at least one) by comparing each action with actions[0].
void ComputeDeviations(KnnResult* result);

/// Reusable scratch for SolveInto: every intermediate of the fold lives in
/// flat arrays that keep their capacity across solves, so steady-state
/// solves of the same problem shape perform zero heap allocations. One
/// workspace per concurrent solve (e.g. one per thread-pool worker).
struct KnnWorkspace {
  /// Assigning a row's executor to `machine` costs `cost`. The mask is
  /// column-wise, so every row admits the same machines and the per-row
  /// option lists flatten to one n x allowed_count array.
  struct RowOption {
    double cost;
    int machine;
  };
  /// A partial solution: total excess cost above the per-row minima, plus
  /// its deviations as a parent-linked chain into `dev_arena` (-1 = none).
  /// Rows are distinct within a chain, so application order is irrelevant.
  struct Partial {
    double excess;
    int dev_head;
  };
  struct DevNode {
    int row;
    int option;  // index > 0 into the row's sorted options
    int parent;
  };
  /// A frontier entry of the fold's merge: kept partial `partial` moved to
  /// option `option` (> 0) of the row being folded.
  struct Deviation {
    double excess;
    int partial;
    int option;
  };

  /// Flattened, row-major. A row's first two entries are its two cheapest
  /// options; the rest are sorted only once the fold reaches the row.
  std::vector<RowOption> options;
  std::vector<int> row_order;
  std::vector<Partial> best;
  std::vector<Partial> merged;
  std::vector<Deviation> frontier;  // min-heap of each partial's next option
  std::vector<DevNode> dev_arena;
};

/// Solves the paper's MIQP-NN problem (Section 3.2.1):
///
///   min_a ||a - a_hat||^2   s.t.  sum_j a_ij = 1,  a_ij in {0,1}
///
/// iterated K times to produce the K nearest feasible actions. The paper
/// uses Gurobi; this solver is exact and typically much faster because the
/// objective is row-separable: with per-row option costs
/// c_ij = ||a_hat_i||^2 + 1 - 2 a_hat_ij, the k best assignment matrices are
/// the k smallest sums of one option per row, enumerated by folding rows
/// while keeping the K best partial prefixes (each fold is exact because row
/// options are processed in ascending cost order).
class KnnActionSolver {
 public:
  KnnActionSolver(int num_executors, int num_machines);

  /// `proto` is the flattened N x M proto-action (row i = executor i).
  /// Returns min(k, M'^N) actions in ascending distance order; ties are
  /// broken deterministically (lower machine indices first).
  ///
  /// `machine_allowed` (optional, size M, 1 = allowed) restricts the
  /// feasible set column-wise *before* the solve: machines that are down
  /// never appear in any returned action, so every candidate handed to the
  /// critic is deployable. M' is the number of allowed machines; an
  /// all-zero mask is an error (nowhere to schedule).
  StatusOr<KnnResult> Solve(
      const std::vector<double>& proto, int k,
      const std::vector<uint8_t>* machine_allowed = nullptr) const;

  /// Allocation-free variant of Solve: scratch comes from `ws` and the
  /// result is written into `*result`, reusing both objects' storage (the
  /// result's Schedules are overwritten in place). After warmup at a fixed
  /// problem shape, steady-state calls perform zero heap allocations.
  /// Results are bit-identical to Solve(). Not thread-safe per
  /// (ws, result) pair; concurrent callers use distinct pairs.
  Status SolveInto(const std::vector<double>& proto, int k,
                   const std::vector<uint8_t>* machine_allowed,
                   KnnWorkspace* ws, KnnResult* result) const;

  int num_executors() const { return num_executors_; }
  int num_machines() const { return num_machines_; }

 private:
  int num_executors_;
  int num_machines_;
};

}  // namespace drlstream::miqp

#endif  // DRLSTREAM_MIQP_KNN_SOLVER_H_
