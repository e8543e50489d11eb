#include "sched/model_based.h"

#include <algorithm>
#include <fstream>
#include <cmath>
#include <queue>

#include "common/logging.h"

namespace drlstream::sched {
namespace {

/// Per-machine executor counts for one component under a schedule.
std::vector<int> ComponentMachineCounts(const topo::Topology& topology,
                                        int component,
                                        const Schedule& schedule) {
  std::vector<int> counts(schedule.num_machines(), 0);
  const int first = topology.FirstExecutorOf(component);
  const int p = topology.component(component).parallelism;
  for (int i = 0; i < p; ++i) {
    ++counts[schedule.MachineOf(first + i)];
  }
  return counts;
}

/// Probability that a tuple on `edge` crosses machines under `schedule`.
double RemoteFraction(const topo::Topology& topology,
                      const topo::StreamEdge& edge,
                      const Schedule& schedule) {
  const int p_from = topology.component(edge.from).parallelism;
  const int p_to = topology.component(edge.to).parallelism;
  const std::vector<int> from_counts =
      ComponentMachineCounts(topology, edge.from, schedule);
  if (edge.grouping == topo::Grouping::kGlobal) {
    // All tuples go to the lowest-indexed target executor.
    const int target_machine =
        schedule.MachineOf(topology.FirstExecutorOf(edge.to));
    const double local = static_cast<double>(from_counts[target_machine]);
    return 1.0 - local / static_cast<double>(p_from);
  }
  const std::vector<int> to_counts =
      ComponentMachineCounts(topology, edge.to, schedule);
  if (edge.grouping == topo::Grouping::kShuffle) {
    // Local-or-shuffle routing: a tuple goes remote only when the sender's
    // machine hosts no target executor.
    double remote_senders = 0.0;
    for (int m = 0; m < schedule.num_machines(); ++m) {
      if (to_counts[m] == 0) remote_senders += from_counts[m];
    }
    return remote_senders / static_cast<double>(p_from);
  }
  // Fields grouping with uniform keys, and all-grouping per-copy, are
  // uniform over target executors.
  double local_pairs = 0.0;
  for (int m = 0; m < schedule.num_machines(); ++m) {
    local_pairs += static_cast<double>(from_counts[m]) * to_counts[m];
  }
  return 1.0 - local_pairs / (static_cast<double>(p_from) * p_to);
}

}  // namespace

FlowEstimate EstimateFlows(const topo::Topology& topology,
                           const std::vector<double>& spout_rates) {
  FlowEstimate flows;
  flows.component_rate.assign(topology.num_components(), 0.0);
  flows.edge_rate.assign(topology.edges().size(), 0.0);

  const std::vector<int> spouts = topology.SpoutComponents();
  DRLSTREAM_CHECK_EQ(spouts.size(), spout_rates.size());
  for (size_t s = 0; s < spouts.size(); ++s) {
    flows.component_rate[spouts[s]] =
        spout_rates[s] * topology.component(spouts[s]).parallelism;
  }

  // Kahn order propagation (the topology is validated acyclic).
  std::vector<int> in_degree(topology.num_components(), 0);
  for (const topo::StreamEdge& e : topology.edges()) ++in_degree[e.to];
  std::queue<int> ready;
  for (int c = 0; c < topology.num_components(); ++c) {
    if (in_degree[c] == 0) ready.push(c);
  }
  while (!ready.empty()) {
    const int c = ready.front();
    ready.pop();
    for (int e : topology.OutEdges(c)) {
      const topo::StreamEdge& edge = topology.edges()[e];
      double rate = flows.component_rate[c] * topology.component(c).emit_factor;
      if (edge.grouping == topo::Grouping::kAll) {
        rate *= topology.component(edge.to).parallelism;
      }
      flows.edge_rate[e] = rate;
      flows.component_rate[edge.to] += rate;
      if (--in_degree[edge.to] == 0) ready.push(edge.to);
    }
  }
  return flows;
}

DelayModel::DelayModel(const topo::Topology* topology,
                       const topo::ClusterConfig* cluster)
    : topology_(topology), cluster_(cluster) {
  DRLSTREAM_CHECK(topology != nullptr);
  DRLSTREAM_CHECK(cluster != nullptr);
  component_models_.resize(topology->num_components());
  edge_models_.resize(topology->edges().size());
}

std::vector<double> DelayModel::ComponentFeatures(
    int component, const Schedule& schedule, const FlowEstimate& flows) const {
  const topo::Component& comp = topology_->component(component);
  const std::vector<int> loads = schedule.MachineLoads();
  const int first = topology_->FirstExecutorOf(component);
  double contention = 0.0;
  for (int i = 0; i < comp.parallelism; ++i) {
    contention += static_cast<double>(loads[schedule.MachineOf(first + i)]) /
                  cluster_->cores_per_machine;
  }
  contention /= comp.parallelism;

  // Rate per executor in tuples/ms to keep feature magnitudes O(1).
  const double rate_per_exec =
      flows.component_rate[component] / comp.parallelism / 1000.0;

  double remote_in = 0.0;
  double in_flow = 0.0;
  for (int e : topology_->InEdges(component)) {
    const double w = flows.edge_rate[e];
    remote_in += w * RemoteFraction(*topology_, topology_->edges()[e], schedule);
    in_flow += w;
  }
  if (in_flow > 0.0) remote_in /= in_flow;

  // The quadratic terms let the regression capture the convex growth of
  // queueing delay with contention (the paper's [25] uses a nonlinear SVR;
  // a purely linear model under-predicts overload and over-packs).
  return {1.0, rate_per_exec, contention, contention * rate_per_exec,
          contention * contention * rate_per_exec, remote_in};
}

std::vector<double> DelayModel::EdgeFeatures(int edge, const Schedule& schedule,
                                             const FlowEstimate& flows) const {
  const topo::StreamEdge& e = topology_->edges()[edge];
  const double remote = RemoteFraction(*topology_, e, schedule);

  // Expected outbound remote flow (tuples/ms) on the sending executor's
  // machine uplink, aggregated over all edges in the topology.
  std::vector<double> outbound(schedule.num_machines(), 0.0);
  for (size_t k = 0; k < topology_->edges().size(); ++k) {
    const topo::StreamEdge& other = topology_->edges()[k];
    const std::vector<int> from_counts =
        ComponentMachineCounts(*topology_, other.from, schedule);
    const std::vector<int> to_counts =
        ComponentMachineCounts(*topology_, other.to, schedule);
    const int p_from = topology_->component(other.from).parallelism;
    const int p_to = topology_->component(other.to).parallelism;
    for (int m = 0; m < schedule.num_machines(); ++m) {
      const double sender_share =
          static_cast<double>(from_counts[m]) / p_from;
      const double local_share = static_cast<double>(to_counts[m]) / p_to;
      outbound[m] +=
          flows.edge_rate[k] / 1000.0 * sender_share * (1.0 - local_share);
    }
  }
  const std::vector<int> from_counts =
      ComponentMachineCounts(*topology_, e.from, schedule);
  const int p_from = topology_->component(e.from).parallelism;
  double sender_nic = 0.0;
  for (int m = 0; m < schedule.num_machines(); ++m) {
    sender_nic +=
        (static_cast<double>(from_counts[m]) / p_from) * outbound[m];
  }

  return {1.0, remote, sender_nic, remote * sender_nic,
          remote * sender_nic * sender_nic};
}

Status DelayModel::Fit(const std::vector<PerfSample>& samples,
                       double ridge_lambda) {
  if (samples.size() < 8) {
    return Status::FailedPrecondition(
        "need at least 8 samples to fit the delay model");
  }
  const int num_components = topology_->num_components();
  const int num_edges = static_cast<int>(topology_->edges().size());

  std::vector<Schedule> schedules;
  std::vector<FlowEstimate> flow_cache;
  schedules.reserve(samples.size());
  for (const PerfSample& s : samples) {
    if (static_cast<int>(s.component_proc_ms.size()) != num_components ||
        static_cast<int>(s.edge_transfer_ms.size()) != num_edges) {
      return Status::InvalidArgument(
          "sample lacks detailed per-component statistics");
    }
    DRLSTREAM_ASSIGN_OR_RETURN(
        Schedule schedule,
        Schedule::FromAssignments(s.assignments,
                                  cluster_->num_machines));
    flow_cache.push_back(EstimateFlows(*topology_, s.spout_rates));
    schedules.push_back(std::move(schedule));
  }

  for (int c = 0; c < num_components; ++c) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (size_t s = 0; s < samples.size(); ++s) {
      x.push_back(ComponentFeatures(c, schedules[s], flow_cache[s]));
      y.push_back(samples[s].component_proc_ms[c]);
    }
    DRLSTREAM_RETURN_NOT_OK(component_models_[c].Fit(x, y, ridge_lambda));
  }
  for (int e = 0; e < num_edges; ++e) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (size_t s = 0; s < samples.size(); ++s) {
      x.push_back(EdgeFeatures(e, schedules[s], flow_cache[s]));
      y.push_back(samples[s].edge_transfer_ms[e]);
    }
    DRLSTREAM_RETURN_NOT_OK(edge_models_[e].Fit(x, y, ridge_lambda));
  }
  // Uncontended per-component service estimates: the fastest mean
  // processing delay observed for the component across training samples.
  service_estimate_ms_.assign(num_components, 0.0);
  for (int c = 0; c < num_components; ++c) {
    double best = std::numeric_limits<double>::infinity();
    for (const PerfSample& s : samples) {
      if (s.component_proc_ms[c] > 0.0) {
        best = std::min(best, s.component_proc_ms[c]);
      }
    }
    service_estimate_ms_[c] = std::isfinite(best) ? best : 0.0;
  }
  fitted_ = true;

  // End-to-end calibration: measured = scale * raw + bias (least squares).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(samples.size());
  for (size_t s = 0; s < samples.size(); ++s) {
    const double raw = RawEndToEnd(schedules[s], samples[s].spout_rates);
    sx += raw;
    sy += samples[s].avg_latency_ms;
    sxx += raw * raw;
    sxy += raw * samples[s].avg_latency_ms;
  }
  const double denom = n * sxx - sx * sx;
  if (std::abs(denom) > 1e-9) {
    calibration_scale_ = (n * sxy - sx * sy) / denom;
    calibration_bias_ = (sy - calibration_scale_ * sx) / n;
    // A degenerate fit (non-positive slope) would invert the model's
    // ordering; fall back to the uncalibrated composition.
    if (calibration_scale_ <= 0.0) {
      calibration_scale_ = 1.0;
      calibration_bias_ = 0.0;
    }
  }
  return Status::OK();
}

namespace {

void WriteVector(std::ostream& out, const std::vector<double>& v) {
  out << v.size();
  for (double x : v) out << ' ' << x;
  out << '\n';
}

bool ReadVector(std::istream& in, std::vector<double>* v) {
  size_t n = 0;
  if (!(in >> n) || n > 100000) return false;
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> (*v)[i])) return false;
  }
  return true;
}

}  // namespace

Status DelayModel::Save(const std::string& path) const {
  if (!fitted_) return Status::FailedPrecondition("model not fitted");
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out.precision(17);
  out << "drlstream-delay-model v1\n";
  out << component_models_.size() << ' ' << edge_models_.size() << '\n';
  for (const RidgeRegression& m : component_models_) {
    WriteVector(out, m.weights());
  }
  for (const RidgeRegression& m : edge_models_) WriteVector(out, m.weights());
  WriteVector(out, service_estimate_ms_);
  out << calibration_scale_ << ' ' << calibration_bias_ << '\n';
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status DelayModel::LoadFrom(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  std::string magic, version;
  in >> magic >> version;
  if (magic != "drlstream-delay-model" || version != "v1") {
    return Status::InvalidArgument("bad delay model header in " + path);
  }
  size_t comps = 0, edges = 0;
  in >> comps >> edges;
  if (comps != component_models_.size() || edges != edge_models_.size()) {
    return Status::InvalidArgument("delay model shape mismatch in " + path);
  }
  auto load_ridge = [&in](RidgeRegression* r) {
    std::vector<double> w;
    if (!ReadVector(in, &w)) return false;
    return r->SetWeights(std::move(w));
  };
  for (RidgeRegression& m : component_models_) {
    if (!load_ridge(&m)) return Status::IoError("truncated model " + path);
  }
  for (RidgeRegression& m : edge_models_) {
    if (!load_ridge(&m)) return Status::IoError("truncated model " + path);
  }
  if (!ReadVector(in, &service_estimate_ms_)) {
    return Status::IoError("truncated model " + path);
  }
  if (!(in >> calibration_scale_ >> calibration_bias_)) {
    return Status::IoError("truncated model " + path);
  }
  fitted_ = true;
  return Status::OK();
}

double DelayModel::PredictComponent(int component, const Schedule& schedule,
                                    const FlowEstimate& flows) const {
  DRLSTREAM_CHECK(fitted_);
  const double pred =
      component_models_[component].Predict(
          ComponentFeatures(component, schedule, flows));
  return std::max(pred, 0.0);
}

double DelayModel::PredictEdge(int edge, const Schedule& schedule,
                               const FlowEstimate& flows) const {
  DRLSTREAM_CHECK(fitted_);
  const double pred =
      edge_models_[edge].Predict(EdgeFeatures(edge, schedule, flows));
  return std::max(pred, 0.0);
}

double DelayModel::RawEndToEnd(const Schedule& schedule,
                               const std::vector<double>& spout_rates) const {
  const FlowEstimate flows = EstimateFlows(*topology_, spout_rates);
  // Longest (max-delay) root-to-sink path: DP over the DAG in Kahn order.
  std::vector<double> best(topology_->num_components(), -1.0);
  std::vector<int> in_degree(topology_->num_components(), 0);
  for (const topo::StreamEdge& e : topology_->edges()) ++in_degree[e.to];
  std::queue<int> ready;
  for (int c = 0; c < topology_->num_components(); ++c) {
    if (in_degree[c] == 0) {
      best[c] = PredictComponent(c, schedule, flows);
      ready.push(c);
    }
  }
  double overall = 0.0;
  while (!ready.empty()) {
    const int c = ready.front();
    ready.pop();
    overall = std::max(overall, best[c]);
    for (int e : topology_->OutEdges(c)) {
      const int to = topology_->edges()[e].to;
      const double through = best[c] + PredictEdge(e, schedule, flows) +
                             PredictComponent(to, schedule, flows);
      best[to] = std::max(best[to], through);
      if (--in_degree[to] == 0) ready.push(to);
    }
  }
  return overall;
}

namespace {

/// Queueing-delay barrier: negligible below ~70% utilization, grows like
/// 1/(1 - rho) toward saturation, and keeps growing past it (so overloaded
/// assignments are strongly rejected). Models the nonlinear delay growth a
/// kernelized regressor like [25]'s SVR captures implicitly.
double UtilizationBarrierMs(double util, double scale) {
  const double excess = std::max(0.0, util - 0.7);
  return scale * excess * excess / std::max(0.05, 1.0 - util);
}

}  // namespace

double DelayModel::OverloadPenalty(const Schedule& schedule,
                                   const FlowEstimate& flows) const {
  const int num_machines = schedule.num_machines();
  double penalty = 0.0;

  // Per-executor arrival rates under the routing policies: shuffle prefers
  // local targets (Storm's local-or-shuffle), fields/all are uniform over
  // the target's executors, global concentrates on the first executor.
  std::vector<double> machine_work(num_machines, 0.0);
  for (int c = 0; c < topology_->num_components(); ++c) {
    const topo::Component& comp = topology_->component(c);
    const std::vector<int> target_counts =
        ComponentMachineCounts(*topology_, c, schedule);
    // Uniformly spread flow per executor (fields / all / shuffle spill) and
    // locally concentrated flow per machine.
    double uniform_flow = 0.0;
    double global_flow = 0.0;
    std::vector<double> local_flow(num_machines, 0.0);
    for (int e : topology_->InEdges(c)) {
      const topo::StreamEdge& edge = topology_->edges()[e];
      const double rate = flows.edge_rate[e];
      if (edge.grouping == topo::Grouping::kGlobal) {
        global_flow += rate;
        continue;
      }
      if (edge.grouping != topo::Grouping::kShuffle) {
        uniform_flow += rate;
        continue;
      }
      const std::vector<int> sender_counts =
          ComponentMachineCounts(*topology_, edge.from, schedule);
      const int p_from = topology_->component(edge.from).parallelism;
      for (int m = 0; m < num_machines; ++m) {
        const double sender_share =
            static_cast<double>(sender_counts[m]) / p_from;
        if (target_counts[m] > 0) {
          local_flow[m] += rate * sender_share;
        } else {
          uniform_flow += rate * sender_share;  // Spills to all targets.
        }
      }
    }

    if (comp.is_spout) uniform_flow = flows.component_rate[c];
    const double service_s = service_estimate_ms_[c] / 1000.0;
    const int first = topology_->FirstExecutorOf(c);
    for (int m = 0; m < num_machines; ++m) {
      if (target_counts[m] == 0) continue;
      double per_exec_rate = local_flow[m] / target_counts[m] +
                             uniform_flow / comp.parallelism;
      if (schedule.MachineOf(first) == m) {
        // The global-grouping target lives here; attribute conservatively
        // to the machine's executors of this component.
        per_exec_rate += global_flow / target_counts[m];
      }
      const double exec_util = per_exec_rate * service_s;
      penalty += UtilizationBarrierMs(exec_util, 20.0);
      machine_work[m] += per_exec_rate * service_s * target_counts[m];
    }
  }
  for (double work : machine_work) {
    const double util = work / cluster_->cores_per_machine;
    penalty += UtilizationBarrierMs(util, 30.0);
  }
  return penalty;
}

double DelayModel::PredictEndToEnd(
    const Schedule& schedule, const std::vector<double>& spout_rates) const {
  DRLSTREAM_CHECK(fitted_);
  const double raw = RawEndToEnd(schedule, spout_rates);
  const FlowEstimate flows = EstimateFlows(*topology_, spout_rates);
  return std::max(calibration_scale_ * raw + calibration_bias_, 1e-3) +
         OverloadPenalty(schedule, flows);
}

ModelBasedScheduler::ModelBasedScheduler(const DelayModel* model,
                                         ModelBasedOptions options)
    : model_(model), options_(options) {
  DRLSTREAM_CHECK(model != nullptr);
}

std::pair<Schedule, double> ModelBasedScheduler::LocalSearch(
    Schedule start, const std::vector<double>& spout_rates) const {
  Schedule current = std::move(start);
  double current_cost = model_->PredictEndToEnd(current, spout_rates);
  for (int pass = 0; pass < options_.max_passes; ++pass) {
    int best_exec = -1;
    int best_machine = -1;
    double best_cost = current_cost;
    for (int i = 0; i < current.num_executors(); ++i) {
      const int original = current.MachineOf(i);
      for (int m = 0; m < current.num_machines(); ++m) {
        if (m == original) continue;
        current.Assign(i, m);
        const double cost = model_->PredictEndToEnd(current, spout_rates);
        if (cost < best_cost - 1e-9) {
          best_cost = cost;
          best_exec = i;
          best_machine = m;
        }
      }
      current.Assign(i, original);
    }
    if (best_exec < 0) break;  // Local optimum.
    current.Assign(best_exec, best_machine);
    current_cost = best_cost;
  }
  return {std::move(current), current_cost};
}

StatusOr<Schedule> ModelBasedScheduler::ComputeSchedule(
    const SchedulingContext& context) {
  if (context.topology == nullptr || context.cluster == nullptr) {
    return Status::InvalidArgument("missing topology or cluster");
  }
  if (!model_->fitted()) {
    return Status::FailedPrecondition("delay model is not fitted");
  }
  const int n = context.topology->num_executors();
  const int m = context.cluster->num_machines;

  std::vector<Schedule> starts;
  // Start from a single-process round-robin spread: like the paper's
  // schedulers, the model-based method keeps one worker process per machine.
  RoundRobinScheduler round_robin(/*workers_per_machine=*/1);
  DRLSTREAM_ASSIGN_OR_RETURN(Schedule rr,
                             round_robin.ComputeSchedule(context));
  starts.push_back(std::move(rr));
  if (context.current != nullptr) starts.push_back(*context.current);

  Schedule best(n, m);
  double best_cost = std::numeric_limits<double>::infinity();
  for (Schedule& start : starts) {
    auto [candidate, cost] = LocalSearch(std::move(start), context.spout_rates);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace drlstream::sched
