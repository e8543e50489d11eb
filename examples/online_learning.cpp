// Full actor-critic control loop on the continuous-queries application:
// offline sample collection, model fitting, offline pre-training, online
// learning, and a comparison of the final solutions of all four methods
// (Default / Model-based / DQN-based DRL / Actor-critic-based DRL).
//
//   ./online_learning [--scale=small|medium|large] [--samples=300]
//                     [--epochs=400] [--seed=11] [--policy=NAME]
//
// --policy restricts the final comparison table to one method, named by its
// policy-registry key (--help lists them); by default every method is shown.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "rl/policy_registry.h"
#include "topo/apps.h"

using namespace drlstream;

namespace {

topo::Scale ParseScale(const std::string& s) {
  if (s == "medium") return topo::Scale::kMedium;
  if (s == "large") return topo::Scale::kLarge;
  return topo::Scale::kSmall;
}

void PrintUsage() {
  std::printf(
      "usage: online_learning [--scale=small|medium|large] [--samples=N]\n"
      "                       [--epochs=N] [--pretrain=N] [--knn_k=K]\n"
      "                       [--gamma=G] [--tsp=N] [--seed=S]\n"
      "                       [--policy=NAME]\n"
      "registered policies: %s (default: compare all)\n",
      rl::PolicyRegistry::Get().KeysLine().c_str());
}

/// Measures the stabilized latency of a deployed schedule (fresh system, no
/// cold-start inflation, averaged over a long window).
double Stabilized(const topo::App& app, const topo::ClusterConfig& cluster,
                  const sched::Schedule& schedule, uint64_t seed) {
  core::SeriesOptions options;
  options.points = 6;
  options.warmup_extra = 0.0;
  options.seed = seed;
  auto series = core::MeasureLatencySeries(app.topology, app.workload,
                                           cluster, schedule, options);
  if (!series.ok()) return -1.0;
  // Average the tail (after migration churn settles).
  return (series->at(3) + series->at(4) + series->at(5)) / 3.0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  ApplyProcessFlags(flags);

  const std::string policy_key = flags.GetString("policy", "");
  if (!policy_key.empty() && !rl::PolicyRegistry::Get().Has(policy_key)) {
    std::fprintf(
        stderr, "%s\n",
        rl::PolicyRegistry::Get().UnknownKeyError(policy_key).ToString()
            .c_str());
    return 1;
  }

  const topo::Scale scale = ParseScale(flags.GetString("scale", "small"));
  topo::AppOptions app_options;
  app_options.rate_scale = flags.GetDouble("rate_scale", 1.0);
  topo::App app = topo::BuildContinuousQueries(scale, app_options);
  topo::ClusterConfig cluster;

  core::PipelineConfig config;
  config.offline_samples = flags.GetInt("samples", 300);
  config.online.epochs = flags.GetInt("epochs", 400);
  config.pretrain_steps = flags.GetInt("pretrain", 1200);
  config.ddpg.knn_k = flags.GetInt("knn_k", 16);
  config.ddpg.gamma = flags.GetDouble("gamma", 0.99);
  config.dqn.gamma = flags.GetDouble("gamma", 0.99);
  config.online.train_steps_per_epoch = flags.GetInt("tsp", 1);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));

  std::printf("training all methods on %s (%d executors)...\n",
              app.topology.name().c_str(), app.topology.num_executors());
  auto trained_or =
      core::TrainAllMethods(&app.topology, app.workload, cluster, config);
  if (!trained_or.ok()) {
    std::fprintf(stderr, "%s\n", trained_or.status().ToString().c_str());
    return 1;
  }
  core::TrainedMethods& trained = *trained_or;

  // Mean reward over the first and last (up to) 50 epochs; a run with
  // fewer epochs averages all of them in both.
  const std::vector<double>& rewards = trained.ddpg_online.rewards;
  const int window = static_cast<int>(std::min<size_t>(50, rewards.size()));
  std::printf("online learning: ddpg mean reward (first %d epochs) %.3f -> "
              "(last %d) %.3f\n",
              window, Mean({rewards.begin(), rewards.begin() + window}),
              window, Mean({rewards.end() - window, rewards.end()}));

  struct Row {
    const char* key;  // policy-registry key; matched against --policy
    const char* name;
    const sched::Schedule* schedule;
  };
  const Row rows[] = {
      {"round-robin", "Default", &trained.default_schedule},
      {"model-based", "Model-based", &trained.model_based_schedule},
      {"dqn", "DQN-based DRL", &trained.dqn_online.final_schedule},
      {"ddpg", "Actor-critic-based DRL", &trained.ddpg_online.final_schedule},
  };
  std::printf("\n%-24s %s\n", "method", "stabilized avg tuple time (ms)");
  for (const Row& row : rows) {
    if (!policy_key.empty() && policy_key != row.key) continue;
    std::printf("%-24s %6.3f\n", row.name,
                Stabilized(app, cluster, *row.schedule, config.seed + 77));
  }
  return 0;
}
