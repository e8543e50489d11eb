#include "rl/dqn_agent.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topo/cluster.h"

namespace drlstream::rl {
namespace {

obs::Histogram* TrainStepUs() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Get().histogram("rl.dqn.train_step_us");
  return histogram;
}

obs::Histogram* SelectActionUs() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Get().histogram("rl.dqn.select_action_us");
  return histogram;
}

OffPolicyTrainer::Options TrainerOptions(const DqnConfig& config) {
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

/// Action index a = executor * M + machine targets an up machine under the
/// state's mask (empty mask = every machine up).
bool ActionAllowed(const State& state, int action_index, int num_machines) {
  if (state.machine_up.empty()) return true;
  return state.machine_up[action_index % num_machines] != 0;
}

/// Argmax of the Q row over the actions feasible in `state` (the first
/// index on ties).
int BestAllowedMove(const double* q, int action_dim, const State& state,
                    int num_machines) {
  int best = -1;
  for (int a = 0; a < action_dim; ++a) {
    if (!ActionAllowed(state, a, num_machines)) continue;
    if (best < 0 || q[a] > q[best]) best = a;
  }
  DRLSTREAM_CHECK_GE(best, 0);  // Mask never blanks every machine.
  return best;
}

/// Max Q over the actions feasible in `state` (dead-machine moves are
/// infeasible and must not leak into the TD target).
double MaxAllowedQ(const double* q, int action_dim, const State& state,
                   int num_machines) {
  double best = -std::numeric_limits<double>::infinity();
  for (int a = 0; a < action_dim; ++a) {
    if (!ActionAllowed(state, a, num_machines)) continue;
    if (q[a] > best) best = q[a];
  }
  return best;
}

}  // namespace

DqnAgent::DqnAgent(const StateEncoder& encoder, DqnConfig config)
    : encoder_(encoder), config_(config),
      trainer_(encoder_, TrainerOptions(config)) {
  const std::vector<int> sizes = OffPolicyTrainer::MlpSizes(
      encoder_.state_dim(), config_.hidden_sizes, encoder_.action_dim());
  const std::vector<nn::Activation> acts =
      OffPolicyTrainer::MlpActivations(config_.hidden_sizes.size());
  q_net_ = std::make_unique<nn::Mlp>(sizes, acts, trainer_.rng());
  target_net_ = std::make_unique<nn::Mlp>(sizes, acts, trainer_.rng());
  target_net_->CopyFrom(*q_net_);
  optimizer_ = std::make_unique<nn::Adam>(config_.learning_rate);
}

std::string DqnAgent::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s (dqn): single-move actions |A|=N*M, gamma=%g, C=%d, "
                "H=%d, |B|=%zu",
                name().c_str(), config_.gamma, config_.target_sync_epochs,
                config_.minibatch_size, config_.replay_capacity);
  return buf;
}

int DqnAgent::ExploreMove(const State& state, Rng* rng) const {
  if (state.machine_up.empty()) {
    return rng->UniformInt(0, encoder_.action_dim() - 1);
  }
  // Explore only deployable moves: uniform executor, uniform up machine.
  std::vector<int>& alive = decide_ws_.alive;
  topo::AliveMachineList(state.machine_up, encoder_.num_machines(), &alive);
  DRLSTREAM_CHECK(!alive.empty());
  const int executor = rng->UniformInt(0, encoder_.num_executors() - 1);
  const int machine =
      alive[rng->UniformInt(0, static_cast<int>(alive.size()) - 1)];
  return executor * encoder_.num_machines() + machine;
}

int DqnAgent::SelectMove(const State& state, double epsilon, Rng* rng,
                         const double* q_row) const {
  obs::ScopedPhase phase(SelectActionUs(), "dqn_select_action");
  if (rng->Bernoulli(epsilon)) return ExploreMove(state, rng);
  if (q_row == nullptr) return GreedyMove(state);
  return BestAllowedMove(q_row, encoder_.action_dim(), state,
                         encoder_.num_machines());
}

int DqnAgent::GreedyMove(const State& state) const {
  DecisionWorkspace& ws = decide_ws_;
  ws.state_enc.resize(encoder_.state_dim());
  encoder_.EncodeStateInto(state, ws.state_enc.data());
  const std::vector<double>& q =
      q_net_->Forward(ws.state_enc, &ws.fwd_x, &ws.fwd_z);
  return BestAllowedMove(q.data(), static_cast<int>(q.size()), state,
                         encoder_.num_machines());
}

Status DqnAgent::AssignmentsInto(const std::vector<int>& assignments,
                                 int executor, int machine,
                                 sched::Schedule* out) const {
  const int m = encoder_.num_machines();
  for (size_t i = 0; i < assignments.size(); ++i) {
    const int target =
        (static_cast<int>(i) == executor) ? machine : assignments[i];
    if (target < 0 || target >= m) {
      return Status::OutOfRange("machine index " + std::to_string(target) +
                                " out of [0, " + std::to_string(m) + ")");
    }
  }
  out->Reset(static_cast<int>(assignments.size()), m);
  for (size_t i = 0; i < assignments.size(); ++i) {
    out->Assign(static_cast<int>(i),
                (static_cast<int>(i) == executor) ? machine : assignments[i]);
  }
  return Status::OK();
}

StatusOr<PolicyAction> DqnAgent::SelectAction(const State& state,
                                              double epsilon,
                                              Rng* rng) const {
  PolicyAction action;
  DRLSTREAM_RETURN_NOT_OK(SelectActionInto(state, epsilon, rng, &action));
  return action;
}

Status DqnAgent::SelectActionInto(const State& state, double epsilon,
                                  Rng* rng, PolicyAction* out) const {
  const int move = SelectMove(state, epsilon, rng);
  const auto [executor, machine] = DecodeAction(move);
  DRLSTREAM_CHECK(executor >= 0 &&
                  executor < static_cast<int>(state.assignments.size()));
  DRLSTREAM_RETURN_NOT_OK(
      AssignmentsInto(state.assignments, executor, machine, &out->schedule));
  out->schedule.set_tenant(state.tenant);
  out->move_index = move;
  return Status::OK();
}

void DqnAgent::SelectActionBatch(DecisionRequest* slots, int count) const {
  if (count <= 0) return;
  if (count == 1) {
    slots[0].status = SelectActionInto(*slots[0].state, slots[0].epsilon,
                                       slots[0].rng, slots[0].out);
    return;
  }
  nn::Matrix* input = decide_batch_tape_.Prepare(*q_net_, count);
  for (int i = 0; i < count; ++i) {
    encoder_.EncodeStateInto(*slots[i].state, input->row(i));
  }
  const nn::Matrix& q = q_net_->ForwardBatch(&decide_batch_tape_);
  for (int i = 0; i < count; ++i) {
    const State& state = *slots[i].state;
    const int move =
        SelectMove(state, slots[i].epsilon, slots[i].rng, q.row(i));
    const auto [executor, machine] = DecodeAction(move);
    DRLSTREAM_CHECK(executor >= 0 &&
                    executor < static_cast<int>(state.assignments.size()));
    slots[i].status = AssignmentsInto(state.assignments, executor, machine,
                                      &slots[i].out->schedule);
    if (slots[i].status.ok()) slots[i].out->move_index = move;
  }
}

StatusOr<sched::Schedule> DqnAgent::GreedyAction(const State& state) const {
  sched::Schedule out(1, 1);
  DRLSTREAM_RETURN_NOT_OK(GreedyActionInto(state, &out));
  return out;
}

Status DqnAgent::GreedyActionInto(const State& state,
                                  sched::Schedule* out) const {
  State& rollout = decide_ws_.rollout;
  rollout = state;
  const int steps = config_.rollout_steps > 0 ? config_.rollout_steps
                                              : encoder_.num_executors();
  for (int i = 0; i < steps; ++i) {
    const int move = GreedyMove(rollout);
    const auto [executor, machine] = DecodeAction(move);
    DRLSTREAM_CHECK(executor >= 0 &&
                    executor < static_cast<int>(rollout.assignments.size()));
    rollout.assignments[executor] = machine;
  }
  return AssignmentsInto(rollout.assignments, /*executor=*/-1, /*machine=*/-1,
                         out);
}

StatusOr<sched::Schedule> DqnAgent::FinalSchedule(const State& state) const {
  return sched::Schedule::FromAssignments(state.assignments,
                                          encoder_.num_machines());
}

std::pair<int, int> DqnAgent::DecodeAction(int action_index) const {
  DRLSTREAM_CHECK(action_index >= 0 && action_index < encoder_.action_dim());
  return {action_index / encoder_.num_machines(),
          action_index % encoder_.num_machines()};
}

std::vector<int> DqnAgent::ApplyAction(const std::vector<int>& assignments,
                                       int action_index) const {
  auto [executor, machine] = DecodeAction(action_index);
  std::vector<int> next = assignments;
  DRLSTREAM_CHECK(executor >= 0 &&
                  executor < static_cast<int>(next.size()));
  next[executor] = machine;
  return next;
}

void DqnAgent::Observe(Transition transition) {
  DRLSTREAM_CHECK_GE(transition.move_index, 0);
  trainer_.Observe(std::move(transition));
}

double DqnAgent::TrainStep() {
  if (trainer_.empty()) return 0.0;
  obs::ScopedPhase step_phase(TrainStepUs(), "dqn_train_step");
  const std::vector<const Transition*> batch = trainer_.SampleBatch();
  const int h = static_cast<int>(batch.size());
  const int action_dim = encoder_.action_dim();

  // Targets y_i = r_i + gamma * max_a' Q_target(s'_i, a'), whole
  // minibatch per GEMM.
  trainer_.PrepareStateBatch(*target_net_, &target_tape_, batch,
                             /*next_states=*/true);
  const nn::Matrix& next_q = target_net_->ForwardBatch(&target_tape_);

  trainer_.PrepareStateBatch(*q_net_, &q_tape_, batch,
                             /*next_states=*/false);
  const nn::Matrix& q = q_net_->ForwardBatch(&q_tape_);

  q_net_->ZeroGrad();
  grad_out_.Resize(h, action_dim);
  grad_out_.Zero();
  double total_loss = 0.0;
  for (int i = 0; i < h; ++i) {
    const double max_next = MaxAllowedQ(next_q.row(i), action_dim,
                                        batch[i]->next_state,
                                        encoder_.num_machines());
    const double y = batch[i]->reward + config_.gamma * max_next;
    const double td = q.row(i)[batch[i]->move_index] - y;
    total_loss += td * td;
    // Gradient only flows through the taken action's output.
    grad_out_.row(i)[batch[i]->move_index] =
        2.0 * td / config_.minibatch_size;
  }
  q_net_->BackwardBatch(&q_tape_, grad_out_);
  q_net_->ClipGradNorm(config_.grad_clip);
  optimizer_->Step(q_net_.get());

  if (trainer_.TickTargetSync(config_.target_sync_epochs)) {
    target_net_->CopyFrom(*q_net_);
  }
  return total_loss / config_.minibatch_size;
}

double DqnAgent::TrainStepReference() {
  if (trainer_.empty()) return 0.0;
  const std::vector<const Transition*> batch = trainer_.SampleBatch();

  q_net_->ZeroGrad();
  double total_loss = 0.0;
  nn::Tape tape;
  for (const Transition* t : batch) {
    // Target: y = r + gamma * max_a' Q_target(s', a').
    const std::vector<double> next_q =
        target_net_->Forward(encoder_.EncodeState(t->next_state));
    const double max_next =
        MaxAllowedQ(next_q.data(), static_cast<int>(next_q.size()),
                    t->next_state, encoder_.num_machines());
    const double y = t->reward + config_.gamma * max_next;

    const std::vector<double> q =
        q_net_->Forward(encoder_.EncodeState(t->state), &tape);
    const double td = q[t->move_index] - y;
    total_loss += td * td;

    // Gradient only flows through the taken action's output.
    std::vector<double> grad(q.size(), 0.0);
    grad[t->move_index] = 2.0 * td / config_.minibatch_size;
    q_net_->Backward(tape, grad);
  }
  q_net_->ClipGradNorm(config_.grad_clip);
  optimizer_->Step(q_net_.get());

  if (trainer_.TickTargetSync(config_.target_sync_epochs)) {
    target_net_->CopyFrom(*q_net_);
  }
  return total_loss / config_.minibatch_size;
}

void DqnAgent::PretrainOffline(const TransitionDatabase& db, int steps) {
  for (const TransitionDatabase::Record& record : db.records()) {
    if (record.transition.move_index >= 0) {
      Observe(record.transition);
    }
  }
  for (int i = 0; i < steps && !trainer_.empty(); ++i) TrainStep();
}

Status DqnAgent::Save(const std::string& prefix) const {
  return q_net_->Save(prefix + ".qnet");
}

Status DqnAgent::Load(const std::string& prefix) {
  DRLSTREAM_ASSIGN_OR_RETURN(nn::Mlp net, nn::Mlp::Load(prefix + ".qnet"));
  if (net.input_dim() != q_net_->input_dim() ||
      net.output_dim() != q_net_->output_dim()) {
    return Status::InvalidArgument("loaded network shape mismatch");
  }
  q_net_->CopyFrom(net);
  target_net_->CopyFrom(net);
  return Status::OK();
}

double DqnAgent::MaxQ(const State& state) const {
  const std::vector<double> q = q_net_->Forward(encoder_.EncodeState(state));
  return *std::max_element(q.begin(), q.end());
}

}  // namespace drlstream::rl
