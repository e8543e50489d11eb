#include "rl/ddpg_agent.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace drlstream::rl {
namespace {

/// Registry handles for the decision-pipeline phases (Algorithm 1) and the
/// training step. Resolved once; the registry returns stable pointers.
struct DdpgMetrics {
  obs::Histogram* actor_forward_us;
  obs::Histogram* knn_solve_us;
  obs::Histogram* critic_score_us;
  obs::Histogram* train_step_us;
  obs::Histogram* train_targets_us;
  obs::Histogram* critic_update_us;
  obs::Histogram* actor_update_us;
  obs::Histogram* soft_update_us;
  obs::Histogram* chosen_rank;
  obs::Histogram* q_spread;
  obs::Histogram* td_error;
  obs::Counter* knn_failures;
};

const DdpgMetrics& Metrics() {
  static const DdpgMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Get();
    return DdpgMetrics{
        reg.histogram("phase.actor_forward_us"),
        reg.histogram("phase.knn_solve_us"),
        reg.histogram("phase.critic_score_us"),
        reg.histogram("rl.ddpg.train_step_us"),
        reg.histogram("rl.ddpg.train_targets_us"),
        reg.histogram("rl.ddpg.critic_update_us"),
        reg.histogram("rl.ddpg.actor_update_us"),
        reg.histogram("rl.ddpg.soft_update_us"),
        reg.histogram("rl.ddpg.chosen_rank"),
        reg.histogram("rl.ddpg.q_spread"),
        reg.histogram("rl.ddpg.td_error"),
        reg.counter("rl.ddpg.knn_failures"),
    };
  }();
  return metrics;
}

OffPolicyTrainer::Options TrainerOptions(const DdpgConfig& config) {
  OffPolicyTrainer::Options options;
  options.gamma = config.gamma;
  options.replay_capacity = config.replay_capacity;
  options.minibatch_size = config.minibatch_size;
  options.grad_clip = config.grad_clip;
  options.reward_shift = config.reward_shift;
  options.reward_scale = config.reward_scale;
  options.reward_clip = config.reward_clip;
  options.seed = config.seed;
  return options;
}

/// Machine mask to feed the K-NN solve for a state: dead machines are
/// excluded from the feasible set *before* the solve (an empty mask means
/// every machine is up, i.e. no restriction).
const std::vector<uint8_t>* MachineMaskOf(const State& state) {
  return state.machine_up.empty() ? nullptr : &state.machine_up;
}

}  // namespace

DdpgAgent::DdpgAgent(const StateEncoder& encoder, DdpgConfig config)
    : encoder_(encoder), config_(config),
      trainer_(encoder_, TrainerOptions(config)),
      knn_(encoder.num_executors(), encoder.num_machines()) {
  const std::vector<nn::Activation> acts =
      OffPolicyTrainer::MlpActivations(config_.hidden_sizes.size());

  const std::vector<int> actor_sizes = OffPolicyTrainer::MlpSizes(
      encoder_.state_dim(), config_.hidden_sizes, encoder_.action_dim());
  actor_ = std::make_unique<nn::Mlp>(actor_sizes, acts, trainer_.rng());
  actor_target_ = std::make_unique<nn::Mlp>(actor_sizes, acts, trainer_.rng());
  actor_target_->CopyFrom(*actor_);

  const std::vector<int> critic_sizes =
      OffPolicyTrainer::MlpSizes(encoder_.state_dim() + encoder_.action_dim(),
                                 config_.hidden_sizes, 1);
  critic_ = std::make_unique<nn::Mlp>(critic_sizes, acts, trainer_.rng());
  critic_target_ =
      std::make_unique<nn::Mlp>(critic_sizes, acts, trainer_.rng());
  critic_target_->CopyFrom(*critic_);

  actor_opt_ = std::make_unique<nn::Adam>(config_.actor_learning_rate);
  critic_opt_ = std::make_unique<nn::Adam>(config_.critic_learning_rate);

  TransposeFirstLayers();
}

void DdpgAgent::TransposeFirstLayers() {
  online_cols_stale_ = true;
  RefreshOnlineCols();
  nn::Transpose(actor_target_->layer(0).weights, &actor_target_cols_);
  nn::Transpose(critic_target_->layer(0).weights, &critic_target_cols_);
}

void DdpgAgent::RefreshOnlineCols() const {
  if (!online_cols_stale_) return;
  nn::Transpose(actor_->layer(0).weights, &actor_cols_);
  nn::Transpose(critic_->layer(0).weights, &critic_cols_);
  online_cols_stale_ = false;
}

void DdpgAgent::SoftUpdateTargets() {
  actor_target_->SoftUpdateFrom(*actor_, config_.tau);
  critic_target_->SoftUpdateFrom(*critic_, config_.tau);
  nn::SoftUpdateTransposed(actor_->layer(0).weights, config_.tau,
                           &actor_target_cols_);
  nn::SoftUpdateTransposed(critic_->layer(0).weights, config_.tau,
                           &critic_target_cols_);
  online_cols_stale_ = true;
}

std::vector<double> DdpgAgent::ProtoAction(const State& state) const {
  return actor_->Forward(encoder_.EncodeState(state));
}

double DdpgAgent::QValue(const State& state,
                         const sched::Schedule& action) const {
  return critic_->Forward(encoder_.EncodeStateAction(state, action))[0];
}

std::vector<double> DdpgAgent::CandidateQValues(
    const State& state, const std::vector<sched::Schedule>& actions) const {
  if (actions.empty()) return {};
  RefreshOnlineCols();
  miqp::KnnResult candidates;
  candidates.actions = actions;
  miqp::ComputeDeviations(&candidates);
  return ScoreCandidates(*critic_, critic_cols_, encoder_.EncodeState(state),
                         candidates);
}

void DdpgAgent::StatePreactivation(const nn::Mlp& critic,
                                   const nn::Matrix& cols,
                                   const double* state_encoded,
                                   double* z) const {
  const nn::Linear& first = critic.layer(0);
  const int h = first.out_dim();
  // The leading state_dim rows of W0^T are the state columns; FoldColumns
  // equals MatVec over them bit for bit, so z matches the dense pass's
  // state-part dot products.
  nn::kernels::FoldColumns(cols.data(), state_encoded, encoder_.state_dim(),
                           h, z);
  for (int r = 0; r < h; ++r) z[r] += first.bias[r];
}

void DdpgAgent::CandidateQValuesFromZ(
    const nn::Mlp& critic, const nn::Matrix& cols, const double* z_state,
    const miqp::KnnResult& candidates, ScoreScratch* scratch,
    std::vector<double>* q_out) const {
  const std::vector<sched::Schedule>& actions = candidates.actions;
  const nn::Linear& first = critic.layer(0);
  const int h = first.out_dim();
  const int n = encoder_.num_executors();
  const int m = encoder_.num_machines();
  const int count = static_cast<int>(actions.size());
  if (count == 0) return;
  const nn::kernels::SumRowsFn sum_rows = nn::kernels::ResolveSumRows();
  // One-hot action: each executor contributes the weight column of its
  // machine, a contiguous row of W0^T after the state rows.
  const double* action_cols = cols.row(encoder_.state_dim());
  const auto column = [&](int executor, int machine) {
    return action_cols + (static_cast<size_t>(executor) * m + machine) * h;
  };

  // The first executor where candidates a and b differ, n if they are the
  // same: outside their deviation rows both equal candidate 0, and a K-NN
  // candidate deviates in a few rows only.
  DRLSTREAM_CHECK_EQ(static_cast<int>(actions[0].assignments().size()), n);
  DRLSTREAM_CHECK_EQ(static_cast<int>(candidates.deviation_begin.size()),
                     count + 1);
  const int* deviations = candidates.deviation_rows.data();
  const int* deviation_begin = candidates.deviation_begin.data();
  const auto first_difference = [&](int a, int b) {
    const std::vector<int>& xa = actions[a].assignments();
    const std::vector<int>& xb = actions[b].assignments();
    const int* da = deviations + deviation_begin[a];
    const int* da_end = deviations + deviation_begin[a + 1];
    const int* db = deviations + deviation_begin[b];
    const int* db_end = deviations + deviation_begin[b + 1];
    while (da != da_end || db != db_end) {
      const int row = std::min(da != da_end ? *da : n, db != db_end ? *db : n);
      if (xa[row] != xb[row]) return row;
      if (da != da_end && *da == row) ++da;
      if (db != db_end && *db == row) ++db;
    }
    return n;
  };

  // First layer: row c of batch_x is z_state plus candidate c's N columns,
  // added in executor order, then activated. Candidates that share their
  // first d executors share the sum after d columns, so the scorer walks
  // the trie of the candidates' assignments: in lexicographic order, each
  // candidate shares the longest prefix with its predecessor (`shared`)
  // and resumes from a checkpoint of that prefix's sum. A candidate saves
  // a checkpoint at every depth a later candidate will resume from on its
  // path: the running minima of the later candidates' shared depths, while
  // they stay deeper than its own. Each element still receives z_state and
  // then the same columns in the same order (SumRows continues one chain
  // of adds across checkpoints), so a row's bits depend neither on the
  // batch nor on the sharing; each distinct prefix is summed once.
  std::vector<int>& order = scratch->order;
  order.resize(count);
  for (int c = 0; c < count; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int row = first_difference(a, b);
    if (row == n) return a < b;
    return actions[a].assignments()[row] < actions[b].assignments()[row];
  });
  std::vector<int>& shared = scratch->shared;
  shared.resize(count);
  shared[0] = 0;
  for (int j = 1; j < count; ++j) {
    shared[j] = first_difference(order[j - 1], order[j]);
  }
  scratch->checkpoints.Resize(count, h);
  scratch->checkpoint_depth.resize(count);
  scratch->resume_depths.resize(count);
  scratch->columns.resize(n);
  int* checkpoint_depth = scratch->checkpoint_depth.data();
  int* resume_depths = scratch->resume_depths.data();
  const double** columns = scratch->columns.data();
  nn::Matrix& batch_x = scratch->batch_x;
  batch_x.Resize(count, h);
  int checkpoints = 0;  // live checkpoints, depths strictly increasing
  for (int j = 0; j < count; ++j) {
    const int depth = shared[j];
    while (checkpoints > 0 && checkpoint_depth[checkpoints - 1] > depth) {
      --checkpoints;
    }
    // The prefix sum this candidate resumes from: an earlier candidate
    // saved it at exactly `depth` (z_state itself at depth 0).
    int from = checkpoints > 0 ? checkpoint_depth[checkpoints - 1] : 0;
    DRLSTREAM_CHECK_EQ(from, depth);
    const double* partial =
        checkpoints > 0 ? scratch->checkpoints.row(checkpoints - 1) : z_state;
    int resumes = 0;  // found deepest last
    int lowest = n + 1;
    for (int later = j + 1; later < count && shared[later] > depth; ++later) {
      if (shared[later] < lowest) {
        lowest = shared[later];
        resume_depths[resumes++] = lowest;
      }
    }
    const std::vector<int>& assignments = actions[order[j]].assignments();
    while (resumes > 0) {
      const int to = resume_depths[--resumes];
      for (int i = from; i < to; ++i) {
        columns[i - from] = column(i, assignments[i]);
      }
      double* checkpoint = scratch->checkpoints.row(checkpoints);
      sum_rows(checkpoint, partial, columns, to - from, h);
      checkpoint_depth[checkpoints++] = to;
      partial = checkpoint;
      from = to;
    }
    for (int i = from; i < n; ++i) {
      columns[i - from] = column(i, assignments[i]);
    }
    double* z = batch_x.row(order[j]);
    sum_rows(z, partial, columns, n - from, h);
    nn::ActivateRow(first.activation, z, z, h);
  }
  // Remaining (tiny) layers: one GEMM per layer over the whole candidate
  // set instead of a MatVec per candidate. MatTMul keeps MatVec's per-row
  // accumulation order (the ForwardBatch guarantee), so the batched rows
  // match the per-candidate path bit for bit.
  nn::Matrix* in = &scratch->batch_x;
  nn::Matrix* out = &scratch->batch_y;
  for (int l = 1; l < critic.num_layers(); ++l) {
    const nn::Linear& layer = critic.layer(l);
    nn::MatTMul(*in, layer.weights, out);
    for (int c = 0; c < count; ++c) {
      nn::BiasActivateRow(layer.activation, layer.bias.data(), out->row(c),
                          out->row(c), layer.out_dim());
    }
    std::swap(in, out);
  }
  for (int c = 0; c < count; ++c) q_out->push_back(in->row(c)[0]);
}

std::vector<double> DdpgAgent::ScoreCandidates(
    const nn::Mlp& critic, const nn::Matrix& cols,
    const std::vector<double>& state_encoded,
    const miqp::KnnResult& candidates) const {
  DRLSTREAM_CHECK_EQ(static_cast<int>(state_encoded.size()),
                     encoder_.state_dim());
  std::vector<double> z_state(critic.layer(0).out_dim());
  StatePreactivation(critic, cols, state_encoded.data(), z_state.data());
  std::vector<double> q_values;
  q_values.reserve(candidates.actions.size());
  ScoreScratch scratch;
  CandidateQValuesFromZ(critic, cols, z_state.data(), candidates, &scratch,
                        &q_values);
  return q_values;
}

std::string DdpgAgent::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s (ddpg): K=%d candidates via MIQP-NN, gamma=%g, tau=%g, "
                "H=%d, |B|=%zu",
                name().c_str(), config_.knn_k, config_.gamma, config_.tau,
                config_.minibatch_size, config_.replay_capacity);
  return buf;
}

Status DdpgAgent::SelectActionInto(const State& state, double epsilon,
                                   Rng* rng, PolicyAction* out) const {
  RefreshOnlineCols();
  DecisionWorkspace& ws = decide_ws_;
  const int state_dim = encoder_.state_dim();
  ws.state_enc.resize(state_dim);
  encoder_.EncodeStateInto(state, ws.state_enc.data());
  {
    obs::ScopedPhase phase(Metrics().actor_forward_us, "actor_forward");
    // The first layer adds only the columns the one-hot state selects.
    ws.fwd_z.resize(actor_->layer(0).out_dim());
    nn::kernels::FoldColumns(actor_cols_.data(), ws.state_enc.data(),
                             state_dim, actor_cols_.cols(), ws.fwd_z.data());
    actor_->FinishForward(&ws.fwd_x, &ws.fwd_z);  // proto in fwd_x
  }
  // Exploration policy (line 9): with probability epsilon, perturb the
  // proto-action with uniform noise I in [0,1]^{N*M}.
  if (epsilon > 0.0 && rng->Bernoulli(epsilon)) {
    for (double& v : ws.fwd_x) v += rng->Uniform(0.0, 1.0);
  }
  const Status solved = [&] {
    obs::ScopedPhase phase(Metrics().knn_solve_us, "knn_solve");
    return knn_.SolveInto(ws.fwd_x, config_.knn_k, MachineMaskOf(state),
                          &ws.knn_ws, &ws.candidates);
  }();
  DRLSTREAM_RETURN_NOT_OK(solved);
  obs::ScopedPhase phase(Metrics().critic_score_us, "critic_score");
  // First-layer pre-activation of the state part (shared by candidates),
  // then the trie gather and the tiny upper layers over all candidates.
  ws.z_state.resize(critic_cols_.cols());
  StatePreactivation(*critic_, critic_cols_, ws.state_enc.data(),
                     ws.z_state.data());
  ws.q_values.clear();
  ws.q_values.reserve(ws.candidates.actions.size());
  CandidateQValuesFromZ(*critic_, critic_cols_, ws.z_state.data(),
                        ws.candidates, &ws.score, &ws.q_values);
  int best = 0;
  int worst = 0;
  for (size_t c = 1; c < ws.q_values.size(); ++c) {
    if (ws.q_values[c] > ws.q_values[best]) best = static_cast<int>(c);
    if (ws.q_values[c] < ws.q_values[worst]) worst = static_cast<int>(c);
  }
  // The winner's index in K-NN distance order: a critic that always picks
  // rank 0 makes the K candidates buy nothing over the 1-NN. The spread of
  // the K critic values says how much the argmax had to choose from.
  Metrics().chosen_rank->Record(best);
  Metrics().q_spread->Record(ws.q_values[best] - ws.q_values[worst]);
  out->schedule = ws.candidates.actions[best];
  out->schedule.set_tenant(state.tenant);
  out->move_index = -1;
  return Status::OK();
}

StatusOr<PolicyAction> DdpgAgent::SelectAction(const State& state,
                                               double epsilon,
                                               Rng* rng) const {
  PolicyAction action;
  DRLSTREAM_RETURN_NOT_OK(SelectActionInto(state, epsilon, rng, &action));
  return action;
}

Status DdpgAgent::GreedyActionInto(const State& state,
                                   sched::Schedule* out) const {
  Rng unused(0);
  DRLSTREAM_RETURN_NOT_OK(
      SelectActionInto(state, 0.0, &unused, &decide_ws_.action));
  *out = decide_ws_.action.schedule;
  return Status::OK();
}

StatusOr<sched::Schedule> DdpgAgent::GreedyAction(const State& state) const {
  Rng unused(0);
  DRLSTREAM_ASSIGN_OR_RETURN(PolicyAction action,
                             SelectAction(state, 0.0, &unused));
  return std::move(action.schedule);
}

void DdpgAgent::Observe(Transition transition) {
  trainer_.Observe(std::move(transition));
}

void DdpgAgent::ComputeTargetsParallel(
    const std::vector<const Transition*>& batch) {
  const int h = static_cast<int>(batch.size());
  const int state_dim = encoder_.state_dim();
  const int action_dim = encoder_.action_dim();

  // Target-actor proto-actions for all next states: the first layer folds
  // the columns each one-hot next state selects, the layers above run one
  // GEMM each.
  nn::Matrix* x_next = trainer_.PrepareStateBatch(
      *actor_target_, &target_actor_tape_, batch, /*next_states=*/true);
  const nn::kernels::FoldColumnsFn fold = nn::kernels::ResolveFoldColumns();
  for (int i = 0; i < h; ++i) {
    fold(actor_target_cols_.data(), x_next->row(i), state_dim,
         actor_target_cols_.cols(), target_actor_tape_.pre[0].row(i));
  }
  const nn::Matrix& proto_next =
      actor_target_->FinishForwardBatch(&target_actor_tape_);

  // Target-critic first-layer state-part pre-activations. The
  // per-candidate scoring below only adds action columns on top.
  z_state_next_.Resize(h, critic_target_cols_.cols());
  for (int i = 0; i < h; ++i) {
    StatePreactivation(*critic_target_, critic_target_cols_, x_next->row(i),
                       z_state_next_.row(i));
  }

  // y_i = r_i + gamma * max_{a in A_{i+1,K}} Q'(s_{i+1}, a), where
  // A_{i+1,K} is the K-NN set of the target actor's proto-action. Each
  // transition is independent and writes only its own slot, so the result
  // is identical for every thread count. Intermediates live in the running
  // worker's scratch, which each task overwrites before reading.
  target_values_.assign(h, 0.0);
  target_valid_.assign(h, 1);
  ThreadPool* pool = GlobalThreadPool();
  const size_t workers = static_cast<size_t>(pool->num_threads());
  if (target_knn_ws_.size() < workers) {
    proto_scratch_.resize(workers);
    target_knn_ws_.resize(workers);
    target_candidates_.resize(workers);
    target_score_.resize(workers);
    target_q_.resize(workers);
  }
  pool->ParallelFor(h, [&](int i, int worker) {
    std::vector<double>& proto = proto_scratch_[worker];
    proto.assign(proto_next.row(i), proto_next.row(i) + action_dim);
    miqp::KnnResult& candidates = target_candidates_[worker];
    const Status solved = [&] {
      obs::ScopedPhase phase(Metrics().knn_solve_us, "knn_solve");
      return knn_.SolveInto(proto, config_.knn_k,
                            MachineMaskOf(batch[i]->next_state),
                            &target_knn_ws_[worker], &candidates);
    }();
    if (!solved.ok()) {
      target_valid_[i] = 0;
      return;
    }
    std::vector<double>& q_values = target_q_[worker];
    q_values.clear();
    q_values.reserve(candidates.actions.size());
    CandidateQValuesFromZ(*critic_target_, critic_target_cols_,
                          z_state_next_.row(i), candidates,
                          &target_score_[worker], &q_values);
    double max_q = q_values[0];
    for (size_t c = 1; c < q_values.size(); ++c) {
      if (q_values[c] > max_q) max_q = q_values[c];
    }
    target_values_[i] = batch[i]->reward + config_.gamma * max_q;
  });
  for (int i = 0; i < h; ++i) {
    if (!target_valid_[i]) {
      ++knn_failures_;
      Metrics().knn_failures->Add(1);
      DRLSTREAM_LOG(kWarning)
          << "K-NN solve failed on a target proto-action; skipping "
          << "minibatch sample (" << knn_failures_ << " skipped so far)";
    }
  }
}

double DdpgAgent::TrainStep() {
  if (trainer_.empty()) return 0.0;
  obs::ScopedPhase step_phase(Metrics().train_step_us, "train_step");
  const std::vector<const Transition*> batch = trainer_.SampleBatch();
  const double inv_h = 1.0 / config_.minibatch_size;
  const int state_dim = encoder_.state_dim();
  const int action_dim = encoder_.action_dim();

  {
    obs::ScopedPhase phase(Metrics().train_targets_us, "train_targets");
    ComputeTargetsParallel(batch);
  }
  valid_rows_.clear();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (target_valid_[i]) valid_rows_.push_back(static_cast<int>(i));
  }
  const int v = static_cast<int>(valid_rows_.size());

  // ---- Critic update (lines 15-16): whole minibatch per GEMM ----
  double critic_loss = 0.0;
  if (v > 0) {
    obs::ScopedPhase phase(Metrics().critic_update_us, "critic_update");
    critic_->ZeroGrad();
    nn::Matrix* x_crit = critic_update_tape_.Prepare(*critic_, v);
    for (int row = 0; row < v; ++row) {
      const Transition* t = batch[valid_rows_[row]];
      double* dst = x_crit->row(row);
      encoder_.EncodeStateInto(t->state, dst);
      encoder_.EncodeActionInto(t->action_assignments, dst + state_dim);
    }
    const nn::Matrix& q = critic_->ForwardBatch(&critic_update_tape_);
    critic_grad_out_.Resize(v, 1);
    for (int row = 0; row < v; ++row) {
      const double td = q.row(row)[0] - target_values_[valid_rows_[row]];
      critic_loss += td * td;
      critic_grad_out_.row(row)[0] = 2.0 * td * inv_h;
      Metrics().td_error->Record(std::abs(td));
    }
    critic_->BackwardBatch(&critic_update_tape_, critic_grad_out_);
    critic_->ClipGradNorm(config_.grad_clip);
    critic_opt_->Step(critic_.get());
  }

  // ---- Actor update (line 17): deterministic policy gradient, batched ----
  // grad_theta = 1/H sum_i grad_a Q(s_i, a)|_{a = f(s_i)} * grad_theta f(s_i)
  if (v > 0) {
    obs::ScopedPhase phase(Metrics().actor_update_us, "actor_update");
    actor_->ZeroGrad();
    nn::Matrix* x_s = actor_update_tape_.Prepare(*actor_, v);
    for (int row = 0; row < v; ++row) {
      encoder_.EncodeStateInto(batch[valid_rows_[row]]->state, x_s->row(row));
    }
    const nn::Matrix& proto = actor_->ForwardBatch(&actor_update_tape_);
    nn::Matrix* x_sa = critic_through_tape_.Prepare(*critic_, v);
    for (int row = 0; row < v; ++row) {
      double* dst = x_sa->row(row);
      std::copy(x_s->row(row), x_s->row(row) + state_dim, dst);
      std::copy(proto.row(row), proto.row(row) + action_dim,
                dst + state_dim);
    }
    critic_->ForwardBatch(&critic_through_tape_);
    // dQ/d(input) of the critic; parameter grads are not accumulated.
    critic_grad_out_.Resize(v, 1);
    critic_grad_out_.Fill(1.0);
    critic_->BackwardBatch(&critic_through_tape_, critic_grad_out_,
                           /*accumulate_param_grads=*/false,
                           &critic_grad_in_);
    // Gradient *ascent* on Q: feed -dQ/da as the actor's output loss grad.
    actor_grad_out_.Resize(v, action_dim);
    for (int row = 0; row < v; ++row) {
      const double* dq = critic_grad_in_.row(row) + state_dim;
      double* g = actor_grad_out_.row(row);
      for (int k = 0; k < action_dim; ++k) g[k] = -dq[k] * inv_h;
    }
    actor_->BackwardBatch(&actor_update_tape_, actor_grad_out_);
    actor_->ClipGradNorm(config_.grad_clip);
    actor_opt_->Step(actor_.get());
  }

  // ---- Soft target updates (line 18) ----
  {
    obs::ScopedPhase phase(Metrics().soft_update_us, "soft_update");
    SoftUpdateTargets();
  }

  return critic_loss * inv_h;
}

double DdpgAgent::TrainStepReference() {
  if (trainer_.empty()) return 0.0;
  const std::vector<const Transition*> batch = trainer_.SampleBatch();
  const double inv_h = 1.0 / config_.minibatch_size;

  // ---- Targets, one transition at a time ----
  target_values_.assign(batch.size(), 0.0);
  target_valid_.assign(batch.size(), 1);
  int valid = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Transition* t = batch[i];
    const std::vector<double> proto_next =
        actor_target_->Forward(encoder_.EncodeState(t->next_state));
    auto candidates_or =
        knn_.Solve(proto_next, config_.knn_k, MachineMaskOf(t->next_state));
    if (!candidates_or.ok()) {
      target_valid_[i] = 0;
      ++knn_failures_;
      Metrics().knn_failures->Add(1);
      DRLSTREAM_LOG(kWarning)
          << "K-NN solve failed on a target proto-action; skipping "
          << "minibatch sample (" << knn_failures_ << " skipped so far)";
      continue;
    }
    ++valid;
    const std::vector<double> q_values =
        ScoreCandidates(*critic_target_, critic_target_cols_,
                        encoder_.EncodeState(t->next_state), *candidates_or);
    const double max_next_q =
        *std::max_element(q_values.begin(), q_values.end());
    target_values_[i] = t->reward + config_.gamma * max_next_q;
  }

  // ---- Critic update (lines 15-16) ----
  double critic_loss = 0.0;
  if (valid > 0) {
    critic_->ZeroGrad();
    nn::Tape tape;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!target_valid_[i]) continue;
      const Transition* t = batch[i];
      std::vector<double> critic_in = encoder_.EncodeState(t->state);
      const std::vector<double> a =
          encoder_.EncodeAction(t->action_assignments);
      critic_in.insert(critic_in.end(), a.begin(), a.end());

      const std::vector<double> q = critic_->Forward(critic_in, &tape);
      const double td = q[0] - target_values_[i];
      critic_loss += td * td;
      critic_->Backward(tape, {2.0 * td * inv_h});
    }
    critic_->ClipGradNorm(config_.grad_clip);
    critic_opt_->Step(critic_.get());
  }

  // ---- Actor update (line 17): deterministic policy gradient ----
  if (valid > 0) {
    actor_->ZeroGrad();
    nn::Tape actor_tape;
    nn::Tape critic_tape;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!target_valid_[i]) continue;
      const Transition* t = batch[i];
      const std::vector<double> s = encoder_.EncodeState(t->state);
      const std::vector<double> proto = actor_->Forward(s, &actor_tape);
      std::vector<double> critic_in = s;
      critic_in.insert(critic_in.end(), proto.begin(), proto.end());
      critic_->Forward(critic_in, &critic_tape);
      // dQ/d(input) of the critic; the action part is the tail.
      critic_->ZeroGrad();  // Discard parameter grads from this pass.
      const std::vector<double> dq_dinput =
          critic_->Backward(critic_tape, {1.0});
      // Gradient *ascent* on Q: feed -dQ/da as the actor's output grad.
      std::vector<double> grad_proto(proto.size());
      for (size_t k = 0; k < proto.size(); ++k) {
        grad_proto[k] = -dq_dinput[s.size() + k] * inv_h;
      }
      actor_->Backward(actor_tape, grad_proto);
    }
    actor_->ClipGradNorm(config_.grad_clip);
    actor_opt_->Step(actor_.get());
  }

  // ---- Soft target updates (line 18) ----
  SoftUpdateTargets();

  return critic_loss * inv_h;
}

void DdpgAgent::PretrainOffline(const TransitionDatabase& db, int steps) {
  for (const TransitionDatabase::Record& record : db.records()) {
    Observe(record.transition);
  }
  for (int i = 0; i < steps && !trainer_.empty(); ++i) TrainStep();
}

Status DdpgAgent::Save(const std::string& prefix) const {
  DRLSTREAM_RETURN_NOT_OK(actor_->Save(prefix + ".actor"));
  return critic_->Save(prefix + ".critic");
}

Status DdpgAgent::Load(const std::string& prefix) {
  DRLSTREAM_ASSIGN_OR_RETURN(nn::Mlp actor, nn::Mlp::Load(prefix + ".actor"));
  DRLSTREAM_ASSIGN_OR_RETURN(nn::Mlp critic,
                             nn::Mlp::Load(prefix + ".critic"));
  if (actor.input_dim() != actor_->input_dim() ||
      actor.output_dim() != actor_->output_dim() ||
      critic.input_dim() != critic_->input_dim()) {
    return Status::InvalidArgument("loaded network shapes do not match");
  }
  actor_->CopyFrom(actor);
  actor_target_->CopyFrom(actor);
  critic_->CopyFrom(critic);
  critic_target_->CopyFrom(critic);
  TransposeFirstLayers();
  return Status::OK();
}

}  // namespace drlstream::rl
