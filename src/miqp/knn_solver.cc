#include "miqp/knn_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace drlstream::miqp {
namespace {

/// Registered together so a snapshot always reports solve_failures (as 0)
/// alongside solves, not only after the first failure.
struct MiqpMetrics {
  obs::Counter* solves;
  obs::Counter* solve_failures;
};

const MiqpMetrics& Metrics() {
  static const MiqpMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    return MiqpMetrics{
        reg.counter("miqp.solves"),
        reg.counter("miqp.solve_failures"),
    };
  }();
  return metrics;
}

using RowOption = KnnWorkspace::RowOption;

/// The total order of a row's options: ascending cost, then machine.
constexpr auto kOptionBefore = [](const RowOption& a, const RowOption& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.machine < b.machine;
};

Status CheckArgs(const std::vector<double>& proto, int n, int m, int k,
                 const std::vector<uint8_t>* machine_allowed) {
  if (n <= 0 || m <= 0) {
    return Status::InvalidArgument("dimensions must be positive");
  }
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (proto.size() != static_cast<size_t>(n) * m) {
    return Status::InvalidArgument("proto-action has wrong size");
  }
  for (double v : proto) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("proto-action contains non-finite value");
    }
  }
  if (machine_allowed != nullptr) {
    if (machine_allowed->size() != static_cast<size_t>(m)) {
      return Status::InvalidArgument("machine mask has wrong size");
    }
    bool any = false;
    for (uint8_t allowed : *machine_allowed) any = any || allowed != 0;
    if (!any) {
      return Status::InvalidArgument(
          "machine mask allows no machine (cluster fully down?)");
    }
  }
  return Status::OK();
}

/// Number of machines the mask admits (m when there is no mask).
int AllowedCount(int m, const std::vector<uint8_t>* machine_allowed) {
  if (machine_allowed == nullptr) return m;
  int count = 0;
  for (uint8_t allowed : *machine_allowed) count += allowed ? 1 : 0;
  return count;
}

/// Caps k at M^N without overflowing.
int CapK(int k, int n, int m) {
  double total = 1.0;
  for (int i = 0; i < n; ++i) {
    total *= m;
    if (total >= k) return k;
  }
  return static_cast<int>(total);
}

}  // namespace

KnnActionSolver::KnnActionSolver(int num_executors, int num_machines)
    : num_executors_(num_executors), num_machines_(num_machines) {
  DRLSTREAM_CHECK_GT(num_executors, 0);
  DRLSTREAM_CHECK_GT(num_machines, 0);
}

namespace {

/// The frontier heap's order, as a "comes later" test for the std heap
/// algorithms: ascending excess, then partial, then option. Together with
/// taking an unchanged partial before any deviation of equal excess, this is
/// the order a stable sort by excess gives the list of every unchanged
/// partial followed by every partial's deviations in option order.
constexpr auto kDeviationLater = [](const KnnWorkspace::Deviation& a,
                                    const KnnWorkspace::Deviation& b) {
  if (a.excess != b.excess) return a.excess > b.excess;
  if (a.partial != b.partial) return a.partial > b.partial;
  return a.option > b.option;
};

}  // namespace

StatusOr<KnnResult> KnnActionSolver::Solve(
    const std::vector<double>& proto, int k,
    const std::vector<uint8_t>* machine_allowed) const {
  KnnWorkspace ws;
  KnnResult result;
  DRLSTREAM_RETURN_NOT_OK(SolveInto(proto, k, machine_allowed, &ws, &result));
  return result;
}

Status KnnActionSolver::SolveInto(
    const std::vector<double>& proto, int k,
    const std::vector<uint8_t>* machine_allowed, KnnWorkspace* ws,
    KnnResult* result) const {
  using Partial = KnnWorkspace::Partial;
  Metrics().solves->Add(1);
  const Status args_ok =
      CheckArgs(proto, num_executors_, num_machines_, k, machine_allowed);
  if (!args_ok.ok()) {
    Metrics().solve_failures->Add(1);
    return args_ok;
  }
  const int n = num_executors_;
  const int m = num_machines_;
  const int allowed = AllowedCount(m, machine_allowed);
  k = CapK(k, n, allowed);

  // Per-row options in (ascending cost, then machine) order, with
  // disallowed machines excluded up front so the feasible set itself — not
  // a post-hoc filter — respects the mask. The mask is column-wise, so
  // every row has exactly `allowed` options and the lists flatten to one
  // row-major array. Only a row's two cheapest options are placed here
  // (the 1-NN and the row's cheapest deviation); the rest of a row is
  // sorted when the fold below reaches it, which on a typical solve is a
  // small fraction of the rows. The order is total (machines are distinct
  // and costs finite), so a row reads exactly as a full sort would leave it.
  ws->options.resize(static_cast<size_t>(n) * allowed);
  for (int i = 0; i < n; ++i) {
    const double* row = proto.data() + static_cast<size_t>(i) * m;
    double norm_sq = 0.0;
    for (int j = 0; j < m; ++j) norm_sq += row[j] * row[j];
    RowOption* opts = ws->options.data() + static_cast<size_t>(i) * allowed;
    int count = 0;
    for (int j = 0; j < m; ++j) {
      if (machine_allowed != nullptr && !(*machine_allowed)[j]) continue;
      opts[count++] = RowOption{norm_sq + 1.0 - 2.0 * row[j], j};
    }
    for (int front = 0; front < std::min(2, allowed - 1); ++front) {
      int least = front;
      for (int o = front + 1; o < allowed; ++o) {
        if (kOptionBefore(opts[o], opts[least])) least = o;
      }
      std::swap(opts[front], opts[least]);
    }
  }
  const auto row_opts = [&](int i) {
    return ws->options.data() + static_cast<size_t>(i) * allowed;
  };

  // Work with *excess* costs above the 1-NN: each partial solution is a
  // sparse set of deviations (row -> option index > 0) from the per-row
  // minimum. Folding a row in adds, for every kept partial, the unchanged
  // partial (option 0, zero excess) plus deviated copies — so copies are
  // made only for actual deviations, and rows whose cheapest deviation
  // cannot beat the current k-th best are skipped entirely. Processing rows
  // by ascending cheapest-deviation excess establishes a tight bound early.
  // Deviation sets are parent-linked chains into dev_arena, so extending a
  // partial is O(1) and nothing is copied per deviation.
  ws->row_order.clear();
  for (int i = 0; i < n; ++i) {
    if (allowed > 1) ws->row_order.push_back(i);
  }
  std::sort(ws->row_order.begin(), ws->row_order.end(),
            [&row_opts](int a, int b) {
              return row_opts(a)[1].cost - row_opts(a)[0].cost <
                     row_opts(b)[1].cost - row_opts(b)[0].cost;
            });

  // A fold keeps the k smallest of the kept partials (unchanged, already
  // sorted) and every partial's deviations (each list sorted, since the
  // row's options are). It draws them in order by a k-way merge: the
  // unchanged list is read in place, and a small heap holds each deviation
  // list's next entry. Partial p's first deviation enters only once partial
  // p - 1's has been taken (its excess is no smaller), so the heap holds at
  // most k + 1 entries. Only taken deviations get a dev_arena node; every
  // fold takes at most k - 1 (the zero-excess root is always kept), so the
  // reserves below make steady-state solves allocation-free.
  ws->dev_arena.clear();
  ws->dev_arena.reserve(ws->row_order.size() * static_cast<size_t>(k - 1));
  ws->frontier.reserve(static_cast<size_t>(k) + 1);
  ws->best.clear();
  ws->best.push_back(Partial{0.0, -1});
  for (int i : ws->row_order) {
    std::vector<Partial>& best = ws->best;
    std::vector<Partial>& merged = ws->merged;
    std::vector<KnnWorkspace::Deviation>& frontier = ws->frontier;
    const int kept = static_cast<int>(best.size());
    const bool full = kept >= k;
    const double bound = full ? best.back().excess
                              : std::numeric_limits<double>::infinity();
    RowOption* opts = row_opts(i);
    const double min_dev = opts[1].cost - opts[0].cost;
    if (full && min_dev >= bound) {
      // No deviation in this (or any later, by the sort) row can enter the
      // top k; all remaining rows stay at their best option.
      break;
    }
    std::sort(opts + 2, opts + allowed, kOptionBefore);
    const int max_opt = std::min(allowed - 1, k);
    const auto deviation = [&](int p, int o) {
      return KnnWorkspace::Deviation{
          best[p].excess + opts[o].cost - opts[0].cost, p, o};
    };
    const auto push = [&](const KnnWorkspace::Deviation& d) {
      frontier.push_back(d);
      std::push_heap(frontier.begin(), frontier.end(), kDeviationLater);
    };
    merged.clear();
    frontier.clear();
    push(deviation(0, 1));
    int unchanged = 0;  // next kept partial not yet taken unchanged
    while (static_cast<int>(merged.size()) < k &&
           (unchanged < kept || !frontier.empty())) {
      if (unchanged < kept &&
          (frontier.empty() ||
           best[unchanged].excess <= frontier.front().excess)) {
        merged.push_back(best[unchanged++]);  // Option 0: unchanged.
        continue;
      }
      std::pop_heap(frontier.begin(), frontier.end(), kDeviationLater);
      const KnnWorkspace::Deviation d = frontier.back();
      frontier.pop_back();
      ws->dev_arena.push_back(
          KnnWorkspace::DevNode{i, d.option, best[d.partial].dev_head});
      merged.push_back(
          Partial{d.excess, static_cast<int>(ws->dev_arena.size()) - 1});
      if (d.option < max_opt) push(deviation(d.partial, d.option + 1));
      if (d.option == 1 && d.partial + 1 < kept) {
        push(deviation(d.partial + 1, 1));
      }
    }
    std::swap(best, merged);
  }

  const int count = static_cast<int>(ws->best.size());
  if (static_cast<int>(result->actions.size()) > count) {
    result->actions.erase(result->actions.begin() + count,
                          result->actions.end());
  }
  while (static_cast<int>(result->actions.size()) < count) {
    result->actions.emplace_back(n, m);
  }
  // Every action is the 1-NN (each row's cheapest option) plus its chain
  // of deviations. actions[0] is the 1-NN itself: the zero-excess root
  // leads every merge and no deviation sorts ahead of it, so its chain is
  // empty. Build it once and copy it into each other action.
  sched::Schedule& nearest = result->actions[0];
  nearest.Reset(n, m);
  for (int i = 0; i < n; ++i) nearest.Assign(i, row_opts(i)[0].machine);
  // A deviation moves its row off the row's cheapest machine, so a chain's
  // rows are exactly where the action differs from the 1-NN. A chain has at
  // most one node per row, which bounds the reserve.
  std::vector<int>& rows = result->deviation_rows;
  rows.clear();
  rows.reserve(static_cast<size_t>(count) * n);
  result->deviation_begin.reserve(count + 1);
  result->deviation_begin.assign(2, 0);
  for (int c = 1; c < count; ++c) {
    sched::Schedule& action = result->actions[c];
    action = nearest;
    // Rows are distinct within a chain, so walking it parent-first or
    // child-first assigns the same machines.
    const size_t begin = rows.size();
    for (int node = ws->best[c].dev_head; node >= 0;
         node = ws->dev_arena[node].parent) {
      const KnnWorkspace::DevNode& dev = ws->dev_arena[node];
      action.Assign(dev.row, row_opts(dev.row)[dev.option].machine);
      rows.push_back(dev.row);
    }
    std::sort(rows.begin() + begin, rows.end());
    result->deviation_begin.push_back(static_cast<int>(rows.size()));
  }
  return Status::OK();
}

void ComputeDeviations(KnnResult* result) {
  DRLSTREAM_CHECK(!result->actions.empty());
  const std::vector<int>& nearest = result->actions[0].assignments();
  result->deviation_rows.clear();
  result->deviation_begin.assign(1, 0);
  for (const sched::Schedule& action : result->actions) {
    const std::vector<int>& assignments = action.assignments();
    DRLSTREAM_CHECK_EQ(assignments.size(), nearest.size());
    for (size_t i = 0; i < assignments.size(); ++i) {
      if (assignments[i] != nearest[i]) {
        result->deviation_rows.push_back(static_cast<int>(i));
      }
    }
    result->deviation_begin.push_back(
        static_cast<int>(result->deviation_rows.size()));
  }
}

}  // namespace drlstream::miqp
