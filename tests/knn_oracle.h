#ifndef DRLSTREAM_TESTS_KNN_ORACLE_H_
#define DRLSTREAM_TESTS_KNN_ORACLE_H_

#include <vector>

#include "miqp/knn_solver.h"
#include "sched/schedule.h"

namespace drlstream::miqp {

/// Squared euclidean distance between a feasible action and a proto-action.
double ActionDistanceSquared(const sched::Schedule& action,
                             const std::vector<double>& proto);

/// Reference oracle for KnnActionSolver: exact best-first branch-and-bound
/// over the same constraint set (one machine per executor row, every
/// machine allowed). Returns min(k, M^N) actions in ascending distance
/// order. Exponential worst case; for small test problems only.
KnnResult SolveKnnBranchAndBound(const std::vector<double>& proto,
                                 int num_executors, int num_machines, int k);

}  // namespace drlstream::miqp

#endif  // DRLSTREAM_TESTS_KNN_ORACLE_H_
