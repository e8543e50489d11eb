#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "knn_oracle.h"
#include "miqp/knn_solver.h"

namespace drlstream::miqp {
namespace {

std::vector<double> RandomProto(int n, int m, Rng* rng) {
  std::vector<double> proto(static_cast<size_t>(n) * m);
  for (double& v : proto) v = rng->Uniform(-1.0, 1.0);
  return proto;
}

/// Brute force: enumerate all M^N feasible actions, sort by distance.
std::vector<double> BruteForceDistances(const std::vector<double>& proto,
                                        int n, int m, int k) {
  std::vector<double> distances;
  std::vector<int> assignment(n, 0);
  while (true) {
    auto action = sched::Schedule::FromAssignments(assignment, m);
    distances.push_back(ActionDistanceSquared(*action, proto));
    int i = 0;
    while (i < n && ++assignment[i] == m) {
      assignment[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  std::sort(distances.begin(), distances.end());
  distances.resize(std::min<size_t>(k, distances.size()));
  return distances;
}

/// Squared distance from `proto` of each returned action, in rank order.
std::vector<double> Distances(const KnnResult& result,
                              const std::vector<double>& proto) {
  std::vector<double> distances;
  for (const sched::Schedule& action : result.actions) {
    distances.push_back(ActionDistanceSquared(action, proto));
  }
  return distances;
}

// ---------------------------------------------------------------------------
// 1-NN: per-row argmax property
// ---------------------------------------------------------------------------

TEST(KnnSolverTest, NearestNeighborIsRowwiseArgmax) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.UniformInt(1, 12);
    const int m = rng.UniformInt(2, 8);
    const std::vector<double> proto = RandomProto(n, m, &rng);
    KnnActionSolver solver(n, m);
    auto result = solver.Solve(proto, 1);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->actions.size(), 1u);
    for (int i = 0; i < n; ++i) {
      const double* row = proto.data() + static_cast<size_t>(i) * m;
      const int argmax =
          static_cast<int>(std::max_element(row, row + m) - row);
      EXPECT_EQ(result->actions[0].MachineOf(i), argmax);
    }
  }
}

// ---------------------------------------------------------------------------
// K-NN: exactness vs brute force and vs branch-and-bound
// ---------------------------------------------------------------------------

struct KnnCase {
  int n;
  int m;
  int k;
};

class KnnExactnessTest : public testing::TestWithParam<KnnCase> {};

TEST_P(KnnExactnessTest, MatchesBruteForceDistances) {
  const KnnCase& param = GetParam();
  Rng rng(100 + param.n * 13 + param.m * 7 + param.k);
  const std::vector<double> proto = RandomProto(param.n, param.m, &rng);
  KnnActionSolver solver(param.n, param.m);
  auto result = solver.Solve(proto, param.k);
  ASSERT_TRUE(result.ok());
  const std::vector<double> expected =
      BruteForceDistances(proto, param.n, param.m, param.k);
  const std::vector<double> distances = Distances(*result, proto);
  ASSERT_EQ(distances.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(distances[i], expected[i], 1e-9) << "rank " << i;
  }
}

TEST_P(KnnExactnessTest, MatchesBranchAndBound) {
  const KnnCase& param = GetParam();
  Rng rng(200 + param.n * 13 + param.m * 7 + param.k);
  const std::vector<double> proto = RandomProto(param.n, param.m, &rng);
  KnnActionSolver solver(param.n, param.m);
  auto fast = solver.Solve(proto, param.k);
  const KnnResult oracle =
      SolveKnnBranchAndBound(proto, param.n, param.m, param.k);
  ASSERT_TRUE(fast.ok());
  const std::vector<double> fast_distances = Distances(*fast, proto);
  const std::vector<double> oracle_distances = Distances(oracle, proto);
  ASSERT_EQ(fast_distances.size(), oracle_distances.size());
  for (size_t i = 0; i < fast_distances.size(); ++i) {
    EXPECT_NEAR(fast_distances[i], oracle_distances[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, KnnExactnessTest,
    testing::Values(KnnCase{1, 4, 4}, KnnCase{2, 3, 5}, KnnCase{3, 3, 8},
                    KnnCase{4, 3, 16}, KnnCase{5, 2, 10}, KnnCase{6, 3, 20},
                    KnnCase{7, 2, 32}, KnnCase{8, 2, 64}));

// ---------------------------------------------------------------------------
// Structural properties at realistic sizes
// ---------------------------------------------------------------------------

TEST(KnnSolverTest, ResultsSortedDistinctAndFeasible) {
  Rng rng(7);
  KnnActionSolver solver(100, 10);
  const std::vector<double> proto = RandomProto(100, 10, &rng);
  auto result = solver.Solve(proto, 32);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->actions.size(), 32u);
  const std::vector<double> distances = Distances(*result, proto);
  std::set<std::string> seen;
  for (size_t i = 0; i < result->actions.size(); ++i) {
    // Sorted ascending.
    if (i > 0) {
      EXPECT_GE(distances[i], distances[i - 1] - 1e-12);
    }
    // All actions distinct.
    EXPECT_TRUE(seen.insert(result->actions[i].ToString()).second);
  }
}

TEST(KnnSolverTest, KLargerThanActionSpaceIsCapped) {
  Rng rng(8);
  KnnActionSolver solver(2, 2);  // |A| = 4.
  auto result = solver.Solve(RandomProto(2, 2, &rng), 100);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->actions.size(), 4u);
}

TEST(KnnSolverTest, FeasibleProtoReturnsItselfFirst) {
  // A proto-action that is already feasible (a one-hot matrix) has itself
  // as its nearest neighbor at distance 0.
  Rng rng(9);
  auto schedule = sched::Schedule::FromAssignments({1, 0, 2, 1}, 3);
  KnnActionSolver solver(4, 3);
  const std::vector<double> proto = schedule->ToOneHot();
  auto result = solver.Solve(proto, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->actions[0].assignments(), schedule->assignments());
  const std::vector<double> distances = Distances(*result, proto);
  EXPECT_NEAR(distances[0], 0.0, 1e-12);
  // The 2nd/3rd neighbors differ in exactly one row: distance 2.
  EXPECT_NEAR(distances[1], 2.0, 1e-12);
  EXPECT_NEAR(distances[2], 2.0, 1e-12);
}

TEST(KnnSolverTest, RejectsBadInput) {
  KnnActionSolver solver(3, 3);
  EXPECT_FALSE(solver.Solve({1.0, 2.0}, 1).ok());          // wrong size
  EXPECT_FALSE(solver.Solve(std::vector<double>(9, 0.0), 0).ok());  // k = 0
  std::vector<double> nan_proto(9, 0.0);
  nan_proto[4] = std::nan("");
  EXPECT_FALSE(solver.Solve(nan_proto, 1).ok());
}

TEST(KnnSolverTest, LargeInstanceSolvesQuickly) {
  // The paper reports ~10ms per Gurobi solve; the separable solver should
  // handle N=100, M=10, K=32 effectively instantly. This is a smoke check
  // (micro_knn benchmarks the actual numbers).
  Rng rng(10);
  KnnActionSolver solver(100, 10);
  for (int i = 0; i < 50; ++i) {
    auto result = solver.Solve(RandomProto(100, 10, &rng), 32);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->actions.size(), 32u);
  }
}

TEST(BranchAndBoundTest, HandlesTiesConsistently) {
  // All-zero proto: every action has the same distance N.
  const int n = 3, m = 2;
  const std::vector<double> proto(n * m, 0.0);
  const KnnResult result = SolveKnnBranchAndBound(proto, n, m, 4);
  ASSERT_EQ(result.actions.size(), 4u);
  for (double d : Distances(result, proto)) {
    EXPECT_NEAR(d, static_cast<double>(n), 1e-12);
  }
  KnnActionSolver solver(n, m);
  auto fast = solver.Solve(proto, 4);
  ASSERT_TRUE(fast.ok());
  for (double d : Distances(*fast, proto)) {
    EXPECT_NEAR(d, static_cast<double>(n), 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Machine masking: dead machines are excluded from the feasible set BEFORE
// the solve, so every returned action is deployable as-is.
// ---------------------------------------------------------------------------

TEST(KnnSolverTest, MaskExcludesMachinesFromFeasibleSet) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.UniformInt(1, 8);
    const int m = rng.UniformInt(2, 6);
    std::vector<uint8_t> mask(m, 1);
    mask[rng.UniformInt(0, m - 1)] = 0;
    if (m > 2) mask[rng.UniformInt(0, m - 1)] = 0;
    int allowed = 0;
    for (uint8_t bit : mask) allowed += bit;
    if (allowed == 0) mask[0] = 1;

    const std::vector<double> proto = RandomProto(n, m, &rng);
    KnnActionSolver solver(n, m);
    auto result = solver.Solve(proto, 8, &mask);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->actions.size(), 0u);
    for (const sched::Schedule& action : result->actions) {
      for (int i = 0; i < n; ++i) {
        EXPECT_TRUE(mask[action.MachineOf(i)])
            << "executor " << i << " on masked machine "
            << action.MachineOf(i);
      }
    }
  }
}

TEST(KnnSolverTest, MaskedSolveMatchesSolveOnReducedProblem) {
  // Masking machine j must yield exactly the k-NN of the problem with that
  // column removed: same distances, same assignments (modulo renumbering).
  Rng rng(12);
  const int n = 4, m = 4;
  const std::vector<double> proto = RandomProto(n, m, &rng);
  const std::vector<uint8_t> mask = {1, 0, 1, 1};

  KnnActionSolver solver(n, m);
  auto masked = solver.Solve(proto, 6, &mask);
  ASSERT_TRUE(masked.ok());

  // Reduced problem: copy proto without column 1.
  std::vector<double> reduced;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (j != 1) reduced.push_back(proto[static_cast<size_t>(i) * m + j]);
    }
  }
  KnnActionSolver reduced_solver(n, m - 1);
  auto expected = reduced_solver.Solve(reduced, 6);
  ASSERT_TRUE(expected.ok());

  ASSERT_EQ(masked->actions.size(), expected->actions.size());
  for (size_t a = 0; a < masked->actions.size(); ++a) {
    // Distances differ by a constant per row: the masked solve keeps the
    // dead column's proto weight in ||a - proto||^2 for machines not
    // chosen. Compare assignments, which must agree exactly.
    for (int i = 0; i < n; ++i) {
      const int machine = masked->actions[a].MachineOf(i);
      const int renumbered = machine > 1 ? machine - 1 : machine;
      EXPECT_EQ(renumbered, expected->actions[a].MachineOf(i));
    }
  }
}

TEST(KnnSolverTest, MaskCapsKToAllowedSpace) {
  KnnActionSolver solver(2, 3);
  const std::vector<double> proto = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const std::vector<uint8_t> mask = {0, 1, 1};
  // Only 2^2 = 4 feasible actions remain; k=32 must cap, not fail.
  auto result = solver.Solve(proto, 32, &mask);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->actions.size(), 4u);
}

TEST(KnnSolverTest, RejectsAllMachinesMasked) {
  KnnActionSolver solver(2, 2);
  const std::vector<double> proto = {0.1, 0.2, 0.3, 0.4};
  const std::vector<uint8_t> none = {0, 0};
  EXPECT_EQ(solver.Solve(proto, 2, &none).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint8_t> wrong_size = {1};
  EXPECT_FALSE(solver.Solve(proto, 2, &wrong_size).ok());
}

TEST(KnnSolverTest, NullMaskIsAllMachines) {
  Rng rng(13);
  const std::vector<double> proto = RandomProto(3, 3, &rng);
  KnnActionSolver solver(3, 3);
  auto plain = solver.Solve(proto, 9);
  const std::vector<uint8_t> all = {1, 1, 1};
  auto masked = solver.Solve(proto, 9, &all);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(masked.ok());
  ASSERT_EQ(plain->actions.size(), masked->actions.size());
  const std::vector<double> plain_distances = Distances(*plain, proto);
  const std::vector<double> masked_distances = Distances(*masked, proto);
  for (size_t a = 0; a < plain->actions.size(); ++a) {
    EXPECT_EQ(plain->actions[a].assignments(),
              masked->actions[a].assignments());
    EXPECT_DOUBLE_EQ(plain_distances[a], masked_distances[a]);
  }
}

// ---------------------------------------------------------------------------
// Exact-sequence goldens: every returned assignment in rank order, not only
// the distances, on tie-heavy protos. With entries in {0, 0.5, 1} many
// options cost the same, so the (cost, machine) tie-break decides the ranks
// and these pin it. One workspace and one result serve every case in turn,
// so shape changes between solves are covered too. Recorded from the solver
// that fully sorted every row's options before folding; re-recorded once,
// with the same solver, when Rng (which draws the protos) became a
// splitmix64 stream.
// ---------------------------------------------------------------------------

std::vector<double> TieProto(int n, int m, Rng* rng) {
  std::vector<double> proto(static_cast<size_t>(n) * m);
  for (double& v : proto) v = 0.5 * rng->UniformInt(0, 2);
  return proto;
}

/// One string per action, one digit per executor: "0312" puts executor 0
/// on machine 0, executor 1 on machine 3, and so on.
std::vector<std::string> Sequence(const KnnResult& result) {
  std::vector<std::string> sequence;
  for (const sched::Schedule& action : result.actions) {
    std::string digits;
    for (int machine : action.assignments()) {
      digits.push_back(static_cast<char>('0' + machine));
    }
    sequence.push_back(digits);
  }
  return sequence;
}

/// FNV-1a over every assignment of every action, in rank order.
uint64_t SequenceHash(const KnnResult& result) {
  uint64_t hash = 14695981039346656037ull;
  for (const sched::Schedule& action : result.actions) {
    for (int machine : action.assignments()) {
      hash ^= static_cast<uint64_t>(machine);
      hash *= 1099511628211ull;
    }
    hash ^= 0xffu;  // action separator
    hash *= 1099511628211ull;
  }
  return hash;
}

struct SequenceCase {
  int n;
  int m;
  std::vector<uint8_t> mask;  // empty = every machine allowed
  int k;
  uint64_t seed;
};

Status SolveCase(const SequenceCase& c, KnnWorkspace* ws, KnnResult* result) {
  Rng rng(c.seed);
  const std::vector<double> proto = TieProto(c.n, c.m, &rng);
  KnnActionSolver solver(c.n, c.m);
  return solver.SolveInto(proto, c.k, c.mask.empty() ? nullptr : &c.mask, ws,
                          result);
}

TEST(KnnSequenceGoldenTest, SmallTieHeavyInstancesGiveExactSequences) {
  struct Golden {
    SequenceCase c;
    std::vector<std::string> want;
  };
  const std::vector<Golden> goldens = {
      // No mask, k below M^N = 256.
      {{4, 4, {}, 10, 1},
       {"1131", "3131", "1132", "3132", "0131", "1133", "3133", "0132",
        "1231", "3231"}},
      // One machine left: k above M'^N = 1.
      {{4, 4, {0, 1, 0, 0}, 5, 2}, {"1111"}},
      // Two machines left: k below and above M'^N = 16.
      {{4, 4, {1, 0, 0, 1}, 6, 3},
       {"0000", "3000", "0300", "3300", "0003", "3003"}},
      {{4, 4, {1, 0, 0, 1}, 20, 4},
       {"3000", "3030", "0000", "0030", "3300", "3330", "3003", "3033",
        "0300", "0330", "0003", "0033", "3303", "3333", "0303", "0333"}},
      // M - 1 machines left: k below and above M'^N = 27.
      {{3, 4, {1, 1, 0, 1}, 10, 5},
       {"011", "311", "031", "331", "010", "310", "030", "330", "111",
        "001"}},
      {{3, 4, {1, 1, 0, 1}, 40, 6},
       {"033", "133", "333", "003", "013", "103", "113", "303", "313",
        "030", "031", "130", "131", "330", "331", "000", "001", "010",
        "011", "100", "101", "110", "111", "300", "301", "310", "311"}},
      // k equal to M^N: the whole action space, in rank order.
      {{2, 3, {}, 9, 7},
       {"00", "01", "02", "10", "20", "11", "21", "12", "22"}},
  };
  KnnWorkspace ws;
  KnnResult result;
  for (const Golden& golden : goldens) {
    const SequenceCase& c = golden.c;
    ASSERT_TRUE(SolveCase(c, &ws, &result).ok());
    EXPECT_EQ(Sequence(result), golden.want)
        << "n=" << c.n << " m=" << c.m << " k=" << c.k << " seed=" << c.seed;
  }
}

TEST(KnnSequenceGoldenTest, CqLargeShapeTieHeavySequencesMatchHashes) {
  // N = 100, M = 10 (the CQ-large agent's action shape), K = 32 and K above
  // M'^N for the one- and two-machine masks.
  struct Golden {
    SequenceCase c;
    size_t count;
    uint64_t hash;
  };
  const std::vector<uint8_t> all_but_one = {1, 1, 1, 1, 0, 1, 1, 1, 1, 1};
  const std::vector<uint8_t> two = {0, 0, 1, 0, 0, 0, 0, 1, 0, 0};
  const std::vector<uint8_t> one = {0, 0, 0, 0, 0, 0, 0, 0, 1, 0};
  const std::vector<Golden> goldens = {
      {{100, 10, {}, 32, 11}, 32, 0xfed13d9a3a376a51ull},
      {{100, 10, {}, 1, 12}, 1, 0x6cacd13be1a79593ull},
      {{100, 10, all_but_one, 32, 13}, 32, 0x25b1009d8a3f9311ull},
      {{100, 10, two, 32, 14}, 32, 0x8ec79721df787885ull},
      {{5, 10, two, 40, 15}, 32, 0x3d14d19072a1e755ull},
      {{100, 10, one, 32, 16}, 1, 0x4c45c67ee577447eull},
      {{100, 10, {}, 200, 17}, 200, 0xb2cf588d5e6183b7ull},
  };
  KnnWorkspace ws;
  KnnResult result;
  for (const Golden& golden : goldens) {
    const SequenceCase& c = golden.c;
    ASSERT_TRUE(SolveCase(c, &ws, &result).ok());
    EXPECT_EQ(result.actions.size(), golden.count) << "seed=" << c.seed;
    EXPECT_EQ(SequenceHash(result), golden.hash)
        << "seed=" << c.seed << " got 0x" << std::hex << SequenceHash(result);
  }
}

TEST(KnnSolverTest, DeviationRowsAreWhereEachActionLeavesTheNearest) {
  // SolveInto lists each action's deviation rows from its chain; a scan of
  // the actions (ComputeDeviations) must find exactly those rows, on random
  // and tie-heavy protos, masked or not, with the workspace reused.
  KnnWorkspace ws;
  KnnResult result;
  Rng rng(31);
  const std::vector<uint8_t> mask = {1, 0, 1, 1, 0, 1, 1, 1, 1, 1};
  for (int trial = 0; trial < 40; ++trial) {
    const bool ties = trial % 2 == 0;
    const int n = trial % 4 < 2 ? 100 : rng.UniformInt(1, 12);
    const int m = 10;
    const std::vector<double> proto =
        ties ? TieProto(n, m, &rng) : RandomProto(n, m, &rng);
    KnnActionSolver solver(n, m);
    ASSERT_TRUE(solver
                    .SolveInto(proto, 1 + trial % 40,
                               trial % 3 == 0 ? &mask : nullptr, &ws, &result)
                    .ok());
    KnnResult scanned;
    scanned.actions = result.actions;
    ComputeDeviations(&scanned);
    EXPECT_EQ(result.deviation_begin, scanned.deviation_begin)
        << "trial " << trial;
    EXPECT_EQ(result.deviation_rows, scanned.deviation_rows)
        << "trial " << trial;
  }
}

TEST(ActionDistanceTest, ManualValue) {
  auto action = sched::Schedule::FromAssignments({0, 1}, 2);
  // proto = identity rows: distance 0.
  EXPECT_NEAR(ActionDistanceSquared(*action, {1, 0, 0, 1}), 0.0, 1e-12);
  // Flipped rows: 2 per row.
  EXPECT_NEAR(ActionDistanceSquared(*action, {0, 1, 1, 0}), 4.0, 1e-12);
  EXPECT_NEAR(ActionDistanceSquared(*action, {0.5, 0.5, 0.5, 0.5}), 1.0,
              1e-12);
}

}  // namespace
}  // namespace drlstream::miqp
