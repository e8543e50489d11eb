// Workload-scenario engine + energy model coverage:
//  * generator op streams are deterministic and bit-identical at any thread
//    count;
//  * the `constant` generator (factor 1) reproduces the generator-free
//    trajectory bit-identically (the new modulation path is free when
//    unused);
//  * the registry rejects unknown scenarios/parameters with did-you-mean
//    suggestions and trace CSV errors name the offending line;
//  * energy conservation: per-state dwell x wattage equals the reported
//    joules, per machine and cluster-wide;
//  * the energy term of the reward at lambda = 0 leaves DDPG and DQN runs
//    bit-identical to the pre-energy control loop.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/environment.h"
#include "core/experiment.h"
#include "core/online.h"
#include "rl/policy_registry.h"
#include "sim/cluster_sim.h"
#include "topo/apps.h"
#include "workload/generator.h"
#include "workload/registry.h"

namespace drlstream {
namespace {

using workload::RateChangeOp;
using workload::WorkloadGenerator;

std::vector<RateChangeOp> CollectOps(const WorkloadGenerator& generator,
                                     double horizon_ms, int max_ops = 1000) {
  std::vector<RateChangeOp> ops;
  double now = -1.0;
  while (static_cast<int>(ops.size()) < max_ops) {
    auto op = generator.NextRateChange(0, now);
    if (!op.has_value() || op->time_ms > horizon_ms) break;
    ops.push_back(*op);
    now = op->time_ms;
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Generator op-stream semantics

TEST(GeneratorTest, DiurnalOpStreamIsDeterministic) {
  workload::DiurnalConfig config;
  config.period_ms = 24000.0;
  config.steps_per_period = 24;
  config.jitter = 0.1;
  config.seed = 42;
  auto a = workload::MakeDiurnal(config);
  auto b = workload::MakeDiurnal(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::vector<RateChangeOp> ops_a = CollectOps(**a, 60000.0);
  const std::vector<RateChangeOp> ops_b = CollectOps(**b, 60000.0);
  ASSERT_GT(ops_a.size(), 10u);
  ASSERT_EQ(ops_a.size(), ops_b.size());
  for (size_t i = 0; i < ops_a.size(); ++i) {
    EXPECT_EQ(ops_a[i].time_ms, ops_b[i].time_ms) << i;
    EXPECT_EQ(ops_a[i].spout, ops_b[i].spout) << i;
    EXPECT_EQ(ops_a[i].multiplier, ops_b[i].multiplier) << i;
  }
  // Op times are strictly increasing and MultiplierAt changes exactly at
  // the op boundaries (piecewise constant in between).
  for (size_t i = 0; i < ops_a.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(ops_a[i].time_ms, ops_a[i - 1].time_ms);
    }
    const double at = (*a)->MultiplierAt(0, 0, ops_a[i].time_ms);
    EXPECT_EQ(at, ops_a[i].multiplier) << i;
    const double halfway = ops_a[i].time_ms +
                           (i + 1 < ops_a.size()
                                ? (ops_a[i + 1].time_ms - ops_a[i].time_ms) / 2
                                : 1.0);
    EXPECT_EQ((*a)->MultiplierAt(0, 0, halfway), ops_a[i].multiplier) << i;
  }
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentJitter) {
  workload::DiurnalConfig config;
  config.jitter = 0.2;
  config.seed = 1;
  auto a = workload::MakeDiurnal(config);
  config.seed = 2;
  auto b = workload::MakeDiurnal(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::vector<RateChangeOp> ops_a = CollectOps(**a, 60000.0);
  const std::vector<RateChangeOp> ops_b = CollectOps(**b, 60000.0);
  ASSERT_EQ(ops_a.size(), ops_b.size());  // same grid, different values
  bool any_different = false;
  for (size_t i = 0; i < ops_a.size(); ++i) {
    if (ops_a[i].multiplier != ops_b[i].multiplier) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(GeneratorTest, DriftReachesTargetExactly) {
  workload::DriftConfig config;
  config.from = 1.0;
  config.to = 1.75;
  config.start_ms = 10000.0;
  config.end_ms = 20000.0;
  config.step_ms = 1000.0;
  auto drift = workload::MakeDrift(config);
  ASSERT_TRUE(drift.ok());
  EXPECT_EQ((*drift)->MultiplierAt(0, 0, 0.0), 1.0);
  EXPECT_EQ((*drift)->MultiplierAt(0, 0, 20000.0), 1.75);  // exact, no FP dust
  EXPECT_EQ((*drift)->MultiplierAt(0, 0, 1e9), 1.75);
  const std::vector<RateChangeOp> ops = CollectOps(**drift, 1e12);
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops.back().multiplier, 1.75);
  EXPECT_EQ(ops.back().time_ms, 20000.0);
}

TEST(GeneratorTest, FlashCrowdSpikesAndReturnsToBase) {
  workload::FlashCrowdConfig config;
  config.at_ms = 5000.0;
  config.peak = 4.0;
  config.base = 1.0;
  config.decay_tau_ms = 2000.0;
  config.step_ms = 500.0;
  auto flash = workload::MakeFlashCrowd(config);
  ASSERT_TRUE(flash.ok());
  EXPECT_EQ((*flash)->MultiplierAt(0, 0, 0.0), 1.0);
  EXPECT_EQ((*flash)->MultiplierAt(0, 0, 5000.0), 4.0);
  EXPECT_EQ((*flash)->MultiplierAt(0, 0, 1e9), 1.0);  // decayed back exactly
}

// A repeating spike started off the whole-number grid: at the second
// spike's front, (now - at_ms) / repeat_ms rounds just below 1, and the
// generator used to answer the query with the front itself, which a
// simulator re-arms forever.
TEST(GeneratorTest, FlashCrowdOpAtAnOffGridFrontIsStrictlyLater) {
  workload::FlashCrowdConfig config;
  config.step_ms = 500.0;
  config.peak = 1.8;
  config.decay_tau_ms = 9000.0;
  config.repeat_ms = 90000.0;
  config.at_ms = 50213.735451116707;
  auto flash = workload::MakeFlashCrowd(config);
  ASSERT_TRUE(flash.ok()) << flash.status().ToString();
  const double front = config.at_ms + config.repeat_ms;
  EXPECT_EQ(front, 140213.73545111669);
  const std::optional<RateChangeOp> op = (*flash)->NextRateChange(0, front);
  ASSERT_TRUE(op.has_value());
  EXPECT_GT(op->time_ms, front);
  EXPECT_EQ(op->time_ms, front + config.step_ms);
  // The second front reads what the first did: the spike's peak.
  EXPECT_EQ((*flash)->MultiplierAt(0, 0, front), config.peak);
  EXPECT_EQ((*flash)->MultiplierAt(0, 0, front),
            (*flash)->MultiplierAt(0, 0, config.at_ms));
}

// Seeded random flash-crowd configs, fronts off the grid: every op lands
// strictly after its query time, and every spike front reads what the
// first front does (the spike's peak, as the decay curve computes it).
TEST(GeneratorTest, FlashCrowdOpsAdvanceOverRandomConfigs) {
  Rng rng(20261020);
  int fronts = 0;
  for (int trial = 0; trial < 400; ++trial) {
    workload::FlashCrowdConfig config;
    config.at_ms = rng.Uniform(36000.0, 54000.0);
    config.base = rng.Uniform(0.2, 1.5);
    config.peak = config.base * rng.Uniform(1.1, 4.0);
    config.decay_tau_ms = rng.Uniform(500.0, 10000.0);
    config.step_ms = rng.Uniform(100.0, 1000.0);
    // At least the decay span (bounded by 1,000,000 steps of 1% residual)
    // plus a fractional remainder.
    config.repeat_ms = 60000.0 + rng.Uniform(0.0, 60000.0);
    auto flash = workload::MakeFlashCrowd(config);
    if (!flash.ok()) continue;  // repeat shorter than this decay span
    SCOPED_TRACE("trial " + std::to_string(trial) + " at_ms " +
                 std::to_string(config.at_ms));
    const double peak = (*flash)->MultiplierAt(0, 0, config.at_ms);
    double now = 0.0;
    for (int i = 0; i < 2000; ++i) {
      const std::optional<RateChangeOp> op = (*flash)->NextRateChange(0, now);
      ASSERT_TRUE(op.has_value());
      ASSERT_GT(op->time_ms, now) << "op " << i << " does not advance";
      if (op->multiplier == config.peak) {
        ++fronts;
        EXPECT_EQ((*flash)->MultiplierAt(0, 0, op->time_ms), peak);
      }
      now = op->time_ms;
      if (now > config.at_ms + 4.0 * config.repeat_ms) break;
    }
  }
  EXPECT_GT(fronts, 1000);
}

// Seeded random generators on fractional grids, where a step's start and a
// division by the step round apart, and one spike whose steps share start
// times: MultiplierAt reads each op's multiplier from the op's time on, and
// the previous op's until one ulp before it.
TEST(GeneratorTest, MultiplierAtAgreesWithOpsOnFractionalGrids) {
  Rng rng(37);
  const auto make = [&rng](int kind)
      -> StatusOr<std::unique_ptr<WorkloadGenerator>> {
    if (kind == 0) {
      workload::DiurnalConfig config;
      config.period_ms = rng.Uniform(1000.0, 200000.0);
      config.steps_per_period = rng.UniformInt(2, 48);
      config.jitter = 0.1;
      return workload::MakeDiurnal(config);
    }
    if (kind <= 2) {
      workload::FlashCrowdConfig config;
      config.at_ms = rng.Uniform(0.0, 100000.0);
      config.step_ms = rng.Uniform(50.0, 2000.0);
      config.decay_tau_ms = rng.Uniform(100.0, 20000.0);
      config.base = rng.Uniform(0.2, 1.5);
      config.peak = config.base * rng.Uniform(1.1, 4.0);
      config.repeat_ms = kind == 2 ? rng.Uniform(10000.0, 200000.0) : 0.0;
      return workload::MakeFlashCrowd(config);
    }
    workload::DriftConfig config;
    config.from = rng.Uniform(0.0, 2.0);
    config.to = rng.Uniform(0.0, 2.0);
    config.start_ms = rng.Uniform(0.0, 50000.0);
    config.end_ms = config.start_ms + rng.Uniform(0.0, 100000.0);
    config.step_ms = rng.Uniform(10.0, 2000.0);
    return workload::MakeDrift(config);
  };
  std::vector<std::unique_ptr<WorkloadGenerator>> generators;
  for (int trial = 0; trial < 250; ++trial) {
    // Kinds 0-3: diurnal, flash crowd, repeating flash crowd, drift; 4
    // composes two of them.
    const int kind = trial % 5;
    StatusOr<std::unique_ptr<WorkloadGenerator>> generator =
        Status::Internal("unset");
    if (kind < 4) {
      generator = make(kind);
    } else {
      std::vector<std::unique_ptr<WorkloadGenerator>> children;
      for (int i = 0; i < 2; ++i) {
        auto child = make(rng.UniformInt(0, 3));
        if (child.ok()) children.push_back(std::move(*child));
      }
      generator = workload::MakeCompose(std::move(children));
    }
    // Skipped: a repeat shorter than its decay span.
    if (generator.ok()) generators.push_back(std::move(*generator));
  }
  // A spike so far out that a time's ulp (0.125 ms) exceeds its 1 us step:
  // about 125 decay steps start at each time its ops take.
  workload::FlashCrowdConfig far;
  far.at_ms = 1e15;
  far.step_ms = 0.001;
  far.decay_tau_ms = 1.0;
  auto far_spike = workload::MakeFlashCrowd(far);
  ASSERT_TRUE(far_spike.ok()) << far_spike.status().ToString();
  generators.push_back(std::move(*far_spike));

  int ops = 0;
  int wrong_at_op = 0;
  int wrong_before_op = 0;
  for (const auto& generator : generators) {
    double now = -1.0;
    double before = generator->MultiplierAt(0, 0, 0.0);
    for (int i = 0; i < 2000; ++i) {
      const std::optional<RateChangeOp> op = generator->NextRateChange(0, now);
      if (!op.has_value()) break;
      ASSERT_GT(op->time_ms, now) << generator->Describe();
      ++ops;
      const double at = generator->MultiplierAt(0, 0, op->time_ms);
      const double just_before =
          generator->MultiplierAt(0, 0, std::nextafter(op->time_ms, 0.0));
      if (at != op->multiplier) ++wrong_at_op;
      if (op->time_ms > 0.0 && just_before != before) ++wrong_before_op;
      before = op->multiplier;
      now = op->time_ms;
    }
  }
  EXPECT_GT(ops, 20000);
  EXPECT_EQ(wrong_at_op, 0) << "of " << ops << " ops";
  EXPECT_EQ(wrong_before_op, 0) << "of " << ops << " ops";
}

// An op is in effect from its time on, and NextRateChange names the first
// op strictly after the query time.
TEST(TraceReplayTest, OpsApplyFromTheirTime) {
  auto trace = workload::MakeTraceReplay({{5000.0, -1, 1.5}});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ((*trace)->MultiplierAt(0, 0, 4999.0), 1.0);
  EXPECT_EQ((*trace)->MultiplierAt(0, 0, 5000.0), 1.5);
  EXPECT_EQ((*trace)->MultiplierAt(0, 0, 10000.0), 1.5);
  const std::optional<RateChangeOp> next = (*trace)->NextRateChange(0, 4999.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->time_ms, 5000.0);
  EXPECT_EQ(next->multiplier, 1.5);
  EXPECT_FALSE((*trace)->NextRateChange(0, 5000.0).has_value());
}

// At equal times the later op wins; ops out of time order are rejected.
TEST(TraceReplayTest, LatestOpWins) {
  auto trace = workload::MakeTraceReplay(
      {{1000.0, -1, 0.5}, {2000.0, -1, 2.0}, {2000.0, -1, 3.0}});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ((*trace)->MultiplierAt(0, 0, 1500.0), 0.5);
  EXPECT_EQ((*trace)->MultiplierAt(0, 0, 2000.0), 3.0);
  EXPECT_EQ((*trace)->MultiplierAt(0, 0, 2500.0), 3.0);
  EXPECT_FALSE(
      workload::MakeTraceReplay({{2000.0, -1, 2.0}, {1000.0, -1, 0.5}}).ok());
}

// A seeded random trace of per-spout and all-spout ops, with ties at equal
// times: both queries match a scan of the whole trace at every op time,
// one ulp before it and between ops.
TEST(TraceReplayTest, QueriesMatchALinearScan) {
  Rng rng(11);
  std::vector<RateChangeOp> ops;
  double time = 0.0;
  for (int i = 0; i < 300; ++i) {
    if (!rng.Bernoulli(0.3)) time += rng.Uniform(0.0, 1000.0);
    ops.push_back({time, rng.UniformInt(-1, 2), rng.Uniform(0.0, 3.0)});
  }
  auto trace = workload::MakeTraceReplay(ops);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::vector<double> queries = {0.0, time + 1.0};
  for (const RateChangeOp& op : ops) {
    queries.push_back(op.time_ms);
    queries.push_back(std::nextafter(op.time_ms, 0.0));
    queries.push_back(op.time_ms + 0.5);
  }
  for (double t : queries) {
    SCOPED_TRACE("t " + std::to_string(t));
    std::optional<RateChangeOp> next;
    for (const RateChangeOp& op : ops) {
      if (op.time_ms > t) {
        next = op;
        break;
      }
    }
    const std::optional<RateChangeOp> got = (*trace)->NextRateChange(0, t);
    ASSERT_EQ(got.has_value(), next.has_value());
    if (next.has_value()) {
      EXPECT_EQ(got->time_ms, next->time_ms);
      EXPECT_EQ(got->spout, next->spout);
      EXPECT_EQ(got->multiplier, next->multiplier);
    }
    // Spout 3 is never named, so only the all-spout ops reach it.
    for (int spout = 0; spout <= 3; ++spout) {
      double factor = 1.0;
      for (const RateChangeOp& op : ops) {
        if (op.time_ms <= t && (op.spout < 0 || op.spout == spout)) {
          factor = op.multiplier;
        }
      }
      EXPECT_EQ((*trace)->MultiplierAt(0, spout, t), factor) << spout;
    }
  }
}

// A long trace that names spout 0 alone, with a few all-spout ops mixed in
// and ties at equal times: spout 0 and the never-named spouts 1 and 7 read
// what a scan of the whole trace reads.
TEST(TraceReplayTest, ATraceNamingOneSpoutMatchesALinearScan) {
  Rng rng(12);
  std::vector<RateChangeOp> ops;
  double time = 0.0;
  for (int i = 0; i < 4000; ++i) {
    if (!rng.Bernoulli(0.2)) time += rng.Uniform(0.0, 50.0);
    ops.push_back({time, rng.Bernoulli(0.05) ? -1 : 0, rng.Uniform(0.0, 3.0)});
  }
  auto trace = workload::MakeTraceReplay(ops);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::vector<double> queries = {0.0, time + 1.0};
  for (size_t i = 0; i < ops.size(); i += 7) {
    queries.push_back(ops[i].time_ms);
    queries.push_back(std::nextafter(ops[i].time_ms, 0.0));
    queries.push_back(ops[i].time_ms + 0.25);
  }
  for (double t : queries) {
    for (int spout : {0, 1, 7}) {
      double factor = 1.0;
      for (const RateChangeOp& op : ops) {
        if (op.time_ms <= t && (op.spout < 0 || op.spout == spout)) {
          factor = op.multiplier;
        }
      }
      ASSERT_EQ((*trace)->MultiplierAt(0, spout, t), factor)
          << "t " << t << " spout " << spout;
    }
  }
}

// ---------------------------------------------------------------------------
// Registry

TEST(WorkloadRegistryTest, UnknownKeyHasDidYouMean) {
  auto generator = workload::ParseWorkloadSpec("diurnl", 1);
  ASSERT_FALSE(generator.ok());
  const std::string message = generator.status().ToString();
  EXPECT_NE(message.find("unknown workload"), std::string::npos) << message;
  EXPECT_NE(message.find("did you mean 'diurnal'"), std::string::npos)
      << message;
}

TEST(WorkloadRegistryTest, UnknownParameterIsNamed) {
  auto generator = workload::ParseWorkloadSpec("diurnal:bogus=1", 1);
  ASSERT_FALSE(generator.ok());
  const std::string message = generator.status().ToString();
  EXPECT_NE(message.find("unknown parameter 'bogus'"), std::string::npos)
      << message;
}

// Integer parameters parse whole, as integers: a fraction is an error, not
// cut to its integer part.
TEST(WorkloadRegistryTest, FractionalIntegerParameterIsRejected) {
  auto generator = workload::ParseWorkloadSpec("diurnal:steps=2.7", 1);
  ASSERT_FALSE(generator.ok());
  const std::string message = generator.status().ToString();
  EXPECT_NE(message.find("parameter 'steps' wants an integer, got '2.7'"),
            std::string::npos)
      << message;
  EXPECT_TRUE(workload::ParseWorkloadSpec("diurnal:steps=3", 1).ok());
}

// A seed that is not a whole uint64_t is an error, not an undefined
// conversion of a double.
TEST(WorkloadRegistryTest, SeedOutsideUint64IsRejected) {
  for (const char* spec : {"diurnal:seed=1e30", "diurnal:seed=-1",
                           "diurnal:seed=18446744073709551616"}) {
    EXPECT_FALSE(workload::ParseWorkloadSpec(spec, 1).ok()) << spec;
  }
  EXPECT_TRUE(
      workload::ParseWorkloadSpec("diurnal:seed=18446744073709551615", 1)
          .ok());
}

// A step grid whose step index a double cannot count is an error naming the
// parameter: a 1e-300 ms step made NextRateChange count up without end, and
// a ramp of 1e300 steps overflowed the step count.
TEST(WorkloadRegistryTest, UnindexableStepGridsAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"diurnal:period_ms=1e-300", "period_ms"},
      {"flash_crowd:at_ms=0,step_ms=1e-300,decay_tau_ms=1", "step_ms"},
      {"drift:start_ms=0,end_ms=1e300,step_ms=1e-300", "step_ms"},
      {"drift:start_ms=0,end_ms=1e300,step_ms=1", "step_ms"},
  };
  for (const auto& [spec, parameter] : cases) {
    auto generator = workload::ParseWorkloadSpec(spec, 1);
    ASSERT_FALSE(generator.ok()) << spec;
    const std::string message = generator.status().ToString();
    EXPECT_NE(message.find(parameter), std::string::npos) << message;
  }
}

TEST(WorkloadRegistryTest, ComposeMultipliesChildren) {
  auto generator = workload::ParseWorkloadSpec(
      "compose:constant:factor=2+constant:factor=3", 1);
  ASSERT_TRUE(generator.ok()) << generator.status().ToString();
  EXPECT_EQ((*generator)->MultiplierAt(0, 0, 1000.0), 6.0);
}

TEST(WorkloadRegistryTest, TraceReplayCsvErrorsNameTheLine) {
  auto bad_field = workload::MakeTraceReplayFromCsv("time_ms,spout,mult\n"
                                                    "0,-1,abc\n");
  ASSERT_FALSE(bad_field.ok());
  EXPECT_NE(bad_field.status().ToString().find("line 2"), std::string::npos)
      << bad_field.status().ToString();

  auto decreasing = workload::MakeTraceReplayFromCsv("1000,-1,2\n500,-1,1\n");
  ASSERT_FALSE(decreasing.ok());

  auto good = workload::MakeTraceReplayFromCsv("# comment\n"
                                               "time_ms,spout,multiplier\n"
                                               "1000,-1,2.0\n"
                                               "2000,0,0.5\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ((*good)->MultiplierAt(0, 0, 1500.0), 2.0);
  EXPECT_EQ((*good)->MultiplierAt(0, 0, 2500.0), 0.5);   // spout 0 override
  EXPECT_EQ((*good)->MultiplierAt(0, 1, 2500.0), 2.0);   // other spouts keep
}

// A spout id outside int is an error; wrapped, 4294967295 would read as
// -1, which means every spout.
TEST(WorkloadRegistryTest, TraceSpoutOutsideIntIsRejected) {
  auto trace = workload::MakeTraceReplayFromCsv("1000,4294967295,2.0\n");
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.status().ToString().find("line 1: bad spout '4294967295'"),
            std::string::npos)
      << trace.status().ToString();
}

// ---------------------------------------------------------------------------
// Simulator integration: determinism and the constant == legacy golden

struct RunSignature {
  long long roots_emitted = 0;
  long long roots_completed = 0;
  long long tuples_processed = 0;
  long long remote_transfers = 0;
  double window_avg_latency_ms = 0.0;
  double joules = 0.0;

  bool operator==(const RunSignature& other) const {
    return roots_emitted == other.roots_emitted &&
           roots_completed == other.roots_completed &&
           tuples_processed == other.tuples_processed &&
           remote_transfers == other.remote_transfers &&
           window_avg_latency_ms == other.window_avg_latency_ms &&
           joules == other.joules;
  }
};

RunSignature RunSim(const WorkloadGenerator* generator,
                    double sleep_after_idle_ms) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  cluster.machine.sleep_after_idle_ms = sleep_after_idle_ms;
  sim::SimOptions options;
  options.seed = 99;
  sim::ClusterSim simulator(cluster, options);
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  sched::Schedule schedule(n, m);
  for (int i = 0; i < n; ++i) schedule.Assign(i, i % m);
  EXPECT_TRUE(simulator.AddTenant(&app.topology, &app.workload, schedule).ok());
  if (generator != nullptr) {
    EXPECT_TRUE(simulator.SetTenantWorkloadGenerator(0, generator).ok());
  }
  EXPECT_TRUE(simulator.Start().ok());
  simulator.RunFor(2500.0);
  simulator.ResetWindow();
  simulator.RunFor(1500.0);
  RunSignature signature;
  const sim::SimCounters& c = simulator.counters();
  signature.roots_emitted = c.roots_emitted;
  signature.roots_completed = c.roots_completed;
  signature.tuples_processed = c.tuples_processed;
  signature.remote_transfers = c.remote_transfers;
  signature.window_avg_latency_ms = simulator.WindowAvgLatencyMs();
  signature.joules = simulator.TotalJoules();
  return signature;
}

class WorkloadSimTest : public testing::Test {
 protected:
  void TearDown() override { SetGlobalThreadCount(0); }
};

TEST_F(WorkloadSimTest, DiurnalRunIsBitIdenticalAcrossThreads) {
  workload::DiurnalConfig config;
  config.period_ms = 2000.0;
  config.amplitude = 0.5;
  config.jitter = 0.05;
  config.seed = 7;
  auto generator = workload::MakeDiurnal(config);
  ASSERT_TRUE(generator.ok());

  SetGlobalThreadCount(1);
  const RunSignature golden = RunSim(generator->get(), -1.0);
  EXPECT_GT(golden.roots_completed, 0);
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    const RunSignature run = RunSim(generator->get(), -1.0);
    EXPECT_TRUE(run == golden) << "threads=" << threads;
  }
}

TEST_F(WorkloadSimTest, ConstantFactorOneIsBitIdenticalToNoGenerator) {
  auto constant = workload::MakeConstant(1.0);
  ASSERT_TRUE(constant.ok());
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    const RunSignature plain = RunSim(nullptr, -1.0);
    const RunSignature modulated = RunSim(constant->get(), -1.0);
    EXPECT_TRUE(plain == modulated) << "threads=" << threads;
  }
}

TEST_F(WorkloadSimTest, GeneratorActuallyModulatesThroughput) {
  SetGlobalThreadCount(1);
  auto surge = workload::MakeConstant(2.0);
  ASSERT_TRUE(surge.ok());
  const RunSignature plain = RunSim(nullptr, -1.0);
  const RunSignature doubled = RunSim(surge->get(), -1.0);
  // Twice the arrival rate must emit measurably more roots.
  EXPECT_GT(doubled.roots_emitted, plain.roots_emitted * 3 / 2);
}

// ---------------------------------------------------------------------------
// Energy accounting

TEST(EnergyTest, DwellTimesWattageEqualsReportedJoules) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  cluster.machine.sleep_after_idle_ms = 1000.0;
  sim::SimOptions options;
  options.seed = 3;
  sim::ClusterSim simulator(cluster, options);
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  // Pack onto 3 machines so the rest idle into deep sleep.
  sched::Schedule schedule(n, m);
  for (int i = 0; i < n; ++i) schedule.Assign(i, i % 3);
  ASSERT_TRUE(simulator.AddTenant(&app.topology, &app.workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(6000.0);

  const topo::MachineSpec& spec = cluster.machine;
  double machine_sum = 0.0;
  int asleep = 0;
  for (int machine = 0; machine < m; ++machine) {
    const auto b = simulator.MachineEnergy(machine);
    const double expected = (b.active_ms * spec.active_watts +
                             b.idle_ms * spec.idle_watts +
                             (b.sleep_ms + b.down_ms) * spec.sleep_watts) /
                            1000.0;
    EXPECT_NEAR(b.joules, expected, 1e-6 * (1.0 + expected))
        << "machine " << machine;
    // Every simulated millisecond is accounted to exactly one power state.
    EXPECT_NEAR(b.active_ms + b.idle_ms + b.sleep_ms + b.down_ms,
                simulator.now_ms(), 1e-6);
    machine_sum += b.joules;
    if (b.asleep) ++asleep;
  }
  EXPECT_NEAR(simulator.TotalJoules(), machine_sum,
              1e-6 * (1.0 + machine_sum));
  // The 7 hostless machines passed the idle window and sleep.
  EXPECT_EQ(asleep, m - 3);
}

TEST(EnergyTest, ConsolidationDrawsFewerJoulesThanSpreading) {
  auto run_joules = [](int spread_over) {
    topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
    topo::ClusterConfig cluster;
    cluster.machine.sleep_after_idle_ms = 500.0;
    sim::SimOptions options;
    options.seed = 4;
    sim::ClusterSim simulator(cluster, options);
    sched::Schedule schedule(app.topology.num_executors(),
                             cluster.num_machines);
    for (int i = 0; i < schedule.num_executors(); ++i) {
      schedule.Assign(i, i % spread_over);
    }
    EXPECT_TRUE(
        simulator.AddTenant(&app.topology, &app.workload, schedule).ok());
    EXPECT_TRUE(simulator.Start().ok());
    simulator.RunFor(8000.0);
    return simulator.TotalJoules();
  };
  EXPECT_LT(run_joules(2), run_joules(10));
}

TEST(EnergyTest, DefaultSpecDisablesSleep) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;  // sleep_after_idle_ms < 0: sleeping disabled
  sim::SimOptions options;
  sim::ClusterSim simulator(cluster, options);
  sched::Schedule schedule(app.topology.num_executors(),
                           cluster.num_machines);
  for (int i = 0; i < schedule.num_executors(); ++i) schedule.Assign(i, 0);
  ASSERT_TRUE(simulator.AddTenant(&app.topology, &app.workload, schedule).ok());
  ASSERT_TRUE(simulator.Start().ok());
  simulator.RunFor(5000.0);
  for (int machine = 0; machine < cluster.num_machines; ++machine) {
    EXPECT_FALSE(simulator.MachineAsleep(machine)) << machine;
    EXPECT_EQ(simulator.MachineEnergy(machine).sleep_ms, 0.0);
  }
}

// ---------------------------------------------------------------------------
// lambda = 0 reward equivalence for the DRL agents

struct GoldenRun {
  std::vector<double> rewards;
  std::vector<int> final_assignments;
};

GoldenRun RunPolicy(const std::string& key, bool with_factor_generator) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  const int n = app.topology.num_executors();
  const int m = cluster.num_machines;
  rl::StateEncoder encoder(n, m, app.topology.num_spouts(),
                           core::NominalSpoutRate(app.topology, app.workload));

  rl::PolicyContext policy_context;
  policy_context.encoder = &encoder;
  rl::DdpgConfig& ddpg = policy_context.ddpg;
  ddpg.minibatch_size = 8;
  ddpg.replay_capacity = 64;
  ddpg.knn_k = 6;
  ddpg.reward_shift = -8.0;
  ddpg.reward_scale = 2.0;
  rl::DqnConfig& dqn = policy_context.dqn;
  dqn.minibatch_size = 8;
  dqn.replay_capacity = 64;
  dqn.reward_shift = -8.0;
  dqn.reward_scale = 2.0;
  auto policy = rl::PolicyRegistry::Get().Create(key, policy_context);
  EXPECT_TRUE(policy.ok());

  const bool is_ddpg = key == "ddpg";
  sim::SimOptions sim_options;
  sim_options.seed = is_ddpg ? 71 : 72;
  core::MeasurementConfig measure;
  measure.stabilize_ms = 800.0;
  measure.num_measurements = 1;
  measure.measurement_interval_ms = 200.0;
  core::SchedulingEnvironment env(&app.topology, app.workload, cluster,
                                  sim_options, measure);
  Rng rng(is_ddpg ? 13 : 14);
  EXPECT_TRUE(env.Reset(sched::Schedule::RandomPacked(n, m, 4, &rng)).ok());
  if (with_factor_generator) {
    // A factor-1 generator must leave the trajectory untouched.
    EXPECT_TRUE(env.SetWorkloadFactor(1.0).ok());
  }

  core::OnlineOptions options;
  options.epochs = 5;
  options.train_steps_per_epoch = 1;
  options.seed = is_ddpg ? 17 : 18;
  if (is_ddpg) options.reward_cap_ms = 100000.0;
  auto result = core::RunOnline(policy->get(), &env, options);
  EXPECT_TRUE(result.ok());

  GoldenRun run;
  run.rewards = result->rewards;
  run.final_assignments = result->final_schedule.assignments();
  return run;
}

class LambdaZeroEquivalenceTest : public testing::Test {
 protected:
  void TearDown() override { SetGlobalThreadCount(0); }
};

TEST_F(LambdaZeroEquivalenceTest, DdpgRewardsUnchangedByEnergyPlumbing) {
  for (int threads : {1, 2}) {
    SetGlobalThreadCount(threads);
    const GoldenRun plain = RunPolicy("ddpg", false);
    const GoldenRun energized = RunPolicy("ddpg", true);
    ASSERT_EQ(plain.rewards.size(), energized.rewards.size());
    for (size_t i = 0; i < plain.rewards.size(); ++i) {
      EXPECT_EQ(plain.rewards[i], energized.rewards[i])
          << "epoch " << i << " threads=" << threads;
    }
    EXPECT_EQ(plain.final_assignments, energized.final_assignments)
        << "threads=" << threads;
  }
}

TEST_F(LambdaZeroEquivalenceTest, DqnRewardsUnchangedByEnergyPlumbing) {
  for (int threads : {1, 2}) {
    SetGlobalThreadCount(threads);
    const GoldenRun plain = RunPolicy("dqn", false);
    const GoldenRun energized = RunPolicy("dqn", true);
    ASSERT_EQ(plain.rewards.size(), energized.rewards.size());
    for (size_t i = 0; i < plain.rewards.size(); ++i) {
      EXPECT_EQ(plain.rewards[i], energized.rewards[i])
          << "epoch " << i << " threads=" << threads;
    }
    EXPECT_EQ(plain.final_assignments, energized.final_assignments)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Energy-aware baseline through the policy registry

TEST(EnergyAwarePolicyTest, PacksOntoFewMachinesAndIsRegistered) {
  topo::App app = topo::BuildContinuousQueries(topo::Scale::kSmall);
  topo::ClusterConfig cluster;
  rl::PolicyContext policy_context;
  policy_context.topology = &app.topology;
  policy_context.cluster = &cluster;
  auto policy =
      rl::PolicyRegistry::Get().Create("energy-aware", policy_context);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();

  rl::State state;
  state.assignments.assign(
      static_cast<size_t>(app.topology.num_executors()), 0);
  auto schedule = (*policy)->GreedyAction(state);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  std::vector<int> hosted(static_cast<size_t>(cluster.num_machines), 0);
  for (int i = 0; i < schedule->num_executors(); ++i) {
    ++hosted[static_cast<size_t>(schedule->MachineOf(i))];
    EXPECT_EQ(schedule->ProcessOf(i), 0) << i;
  }
  int used = 0;
  for (int h : hosted) {
    if (h > 0) ++used;
    EXPECT_LE(h, cluster.slots_per_machine);
  }
  // 20 executors, 10 slots per machine: exactly 2 machines used.
  EXPECT_EQ(used, 2);
}

}  // namespace
}  // namespace drlstream
