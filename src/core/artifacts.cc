#include "core/artifacts.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <fstream>

#include "common/logging.h"
#include "obs/metrics.h"

namespace drlstream::core {
namespace {

std::string Base(const std::string& dir, const std::string& key) {
  return dir + "/" + key;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status SaveSchedule(const std::string& path, const sched::Schedule& schedule) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out << schedule.num_executors() << ' ' << schedule.num_machines() << '\n';
  for (int i = 0; i < schedule.num_executors(); ++i) {
    out << schedule.MachineOf(i) << ' ';
  }
  out << '\n';
  for (int i = 0; i < schedule.num_executors(); ++i) {
    out << schedule.ProcessOf(i) << ' ';
  }
  out << '\n';
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<sched::Schedule> LoadSchedule(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  int n = 0, m = 0;
  if (!(in >> n >> m) || n <= 0 || m <= 0) {
    return Status::IoError("bad schedule file " + path);
  }
  sched::Schedule schedule(n, m);
  for (int i = 0; i < n; ++i) {
    int machine = 0;
    if (!(in >> machine)) return Status::IoError("truncated " + path);
    if (machine < 0 || machine >= m) {
      return Status::InvalidArgument("bad machine index in " + path);
    }
    schedule.Assign(i, machine);
  }
  for (int i = 0; i < n; ++i) {
    int process = 0;
    if (!(in >> process)) return Status::IoError("truncated " + path);
    schedule.AssignProcess(i, process);
  }
  return schedule;
}

Status SaveCurve(const std::string& path, const std::vector<double>& values) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out.precision(17);
  out << values.size() << '\n';
  for (double v : values) out << v << '\n';
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<std::vector<double>> LoadCurve(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  size_t n = 0;
  if (!(in >> n) || n > 10000000) {
    return Status::IoError("bad curve file " + path);
  }
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(in >> values[i])) return Status::IoError("truncated " + path);
  }
  return values;
}

const char* const kRequiredSuffixes[] = {
    ".default.sched", ".model.sched",  ".dqn.sched",   ".ddpg.sched",
    ".ddpg_rewards",  ".dqn_rewards",  ".ddpg.policy", ".ddpg.actor",
    ".ddpg.critic",   ".dqn.policy",   ".dqn.qnet",    ".delaymodel",
};

}  // namespace

bool ArtifactsExist(const std::string& dir, const std::string& key) {
  for (const char* suffix : kRequiredSuffixes) {
    if (!FileExists(Base(dir, key) + suffix)) return false;
  }
  return true;
}

Status SaveTrainedMethods(const std::string& dir, const std::string& key,
                          const TrainedMethods& methods) {
  if (methods.dqn == nullptr) {
    return Status::InvalidArgument(
        "artifacts: '" + key + "' has no DQN agent (train_dqn = false)");
  }
  ::mkdir(dir.c_str(), 0755);  // Best effort; failures surface below.
  const std::string base = Base(dir, key);
  DRLSTREAM_RETURN_NOT_OK(
      SaveSchedule(base + ".default.sched", methods.default_schedule));
  DRLSTREAM_RETURN_NOT_OK(
      SaveSchedule(base + ".model.sched", methods.model_based_schedule));
  DRLSTREAM_RETURN_NOT_OK(
      SaveSchedule(base + ".dqn.sched", methods.dqn_online.final_schedule));
  DRLSTREAM_RETURN_NOT_OK(
      SaveSchedule(base + ".ddpg.sched", methods.ddpg_online.final_schedule));
  DRLSTREAM_RETURN_NOT_OK(
      SaveCurve(base + ".ddpg_rewards", methods.ddpg_online.rewards));
  DRLSTREAM_RETURN_NOT_OK(
      SaveCurve(base + ".dqn_rewards", methods.dqn_online.rewards));
  // Each policy writes a `.policy` header (registry key + name) next to its
  // parameter files, so loading can reconstruct it by key.
  DRLSTREAM_RETURN_NOT_OK(rl::SavePolicyArtifact(*methods.ddpg, base + ".ddpg"));
  DRLSTREAM_RETURN_NOT_OK(rl::SavePolicyArtifact(*methods.dqn, base + ".dqn"));
  return methods.delay_model->Save(base + ".delaymodel");
}

StatusOr<TrainedMethods> LoadTrainedMethods(
    const std::string& dir, const std::string& key,
    const topo::Topology* topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const PipelineConfig& config) {
  const std::string base = Base(dir, key);
  TrainedMethods out;
  const rl::PolicyContext policy_context =
      PipelinePolicyContext(topology, workload, cluster, config, &out);
  DRLSTREAM_ASSIGN_OR_RETURN(out.default_schedule,
                             LoadSchedule(base + ".default.sched"));
  DRLSTREAM_ASSIGN_OR_RETURN(out.model_based_schedule,
                             LoadSchedule(base + ".model.sched"));
  DRLSTREAM_ASSIGN_OR_RETURN(out.dqn_online.final_schedule,
                             LoadSchedule(base + ".dqn.sched"));
  DRLSTREAM_ASSIGN_OR_RETURN(out.ddpg_online.final_schedule,
                             LoadSchedule(base + ".ddpg.sched"));
  DRLSTREAM_ASSIGN_OR_RETURN(out.ddpg_online.rewards,
                             LoadCurve(base + ".ddpg_rewards"));
  DRLSTREAM_ASSIGN_OR_RETURN(out.dqn_online.rewards,
                             LoadCurve(base + ".dqn_rewards"));

  // Policies come back through the registry: the `.policy` header names the
  // key, the context supplies the construction-time configuration.
  DRLSTREAM_ASSIGN_OR_RETURN(
      out.ddpg, rl::LoadPolicyArtifact(base + ".ddpg", policy_context));
  DRLSTREAM_ASSIGN_OR_RETURN(
      out.dqn, rl::LoadPolicyArtifact(base + ".dqn", policy_context));

  out.delay_model = std::make_unique<sched::DelayModel>(topology, &cluster);
  DRLSTREAM_RETURN_NOT_OK(out.delay_model->LoadFrom(base + ".delaymodel"));
  return out;
}

StatusOr<TrainedMethods> TrainAllMethodsCached(
    const std::string& dir, const std::string& key,
    const topo::Topology* topology, const topo::Workload& workload,
    const topo::ClusterConfig& cluster, const PipelineConfig& config) {
  if (ArtifactsExist(dir, key)) {
    auto loaded = LoadTrainedMethods(dir, key, topology, workload, cluster,
                                     config);
    if (loaded.ok()) return loaded;
    DRLSTREAM_LOG(kWarning) << "artifact cache for '" << key
                            << "' unreadable (" << loaded.status()
                            << "); retraining";
  }
  DRLSTREAM_ASSIGN_OR_RETURN(
      TrainedMethods methods,
      TrainAllMethods(topology, workload, cluster, config));
  const Status save = SaveTrainedMethods(dir, key, methods);
  if (!save.ok()) {
    DRLSTREAM_LOG(kWarning) << "failed to save artifacts for '" << key
                            << "': " << save;
  }
  return methods;
}

namespace {

template <typename T>
void WriteJsonArray(std::ofstream& out, const std::vector<T>& values) {
  out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ',';
    // uint8_t streams as a character; widen every element to a number.
    out << +values[i];
  }
  out << ']';
}

}  // namespace

Status SaveSeriesJson(const std::string& path, const SeriesResult& result) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  out.precision(17);
  out << "{\n";
  out << "  \"scheduler\": \"" << obs::JsonEscape(result.scheduler)
      << "\",\n";
  out << "  \"workload\": \"" << obs::JsonEscape(result.workload)
      << "\",\n";
  out << "  \"total_joules\": " << result.total_joules << ",\n";
  out << "  \"avg_power_watts\": " << result.avg_power_watts << ",\n";
  out << "  \"series_ms\": ";
  WriteJsonArray(out, result.LatencySeries());
  out << ",\n  \"points\": [\n";
  for (size_t i = 0; i < result.points.size(); ++i) {
    const SeriesPoint& point = result.points[i];
    out << "    {\"time_ms\": " << point.time_ms << ", "
        << "\"avg_latency_ms\": " << point.avg_latency_ms << ", "
        << "\"rate_multiplier\": " << point.rate_multiplier << ", "
        << "\"joules\": " << point.joules << ", "
        << "\"avg_power_watts\": " << point.avg_power_watts << ", "
        << "\"machines_asleep\": " << point.machines_asleep << ", "
        << "\"executors_moved\": " << point.executors_moved << "}"
        << (i + 1 < result.points.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"phases\": [\n";
  for (size_t i = 0; i < result.phases.size(); ++i) {
    const SeriesPhase& phase = result.phases[i];
    out << "    {\"label\": \"" << obs::JsonEscape(phase.label) << "\", "
        << "\"start_ms\": " << phase.start_ms << ", "
        << "\"end_ms\": " << phase.end_ms << ", "
        << "\"avg_latency_ms\": " << phase.avg_latency_ms << ", "
        << "\"roots_completed\": " << phase.roots_completed << ", "
        << "\"roots_failed\": " << phase.roots_failed << ", "
        << "\"tuples_dropped\": " << phase.tuples_dropped << ", "
        << "\"executors_moved\": " << phase.executors_moved << ", "
        << "\"dead_machines\": " << phase.dead_machines << "}"
        << (i + 1 < result.phases.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"timeline\": [\n";
  for (size_t i = 0; i < result.timeline.size(); ++i) {
    const sim::FaultEvent& event = result.timeline[i];
    out << "    {\"time_ms\": " << event.time_ms << ", "
        << "\"type\": \"" << sim::FaultTypeName(event.type) << "\", "
        << "\"machine\": " << event.machine << ", "
        << "\"magnitude\": " << event.magnitude << ", "
        << "\"duration_ms\": " << event.duration_ms << "}"
        << (i + 1 < result.timeline.size() ? "," : "") << '\n';
  }
  const sim::SimCounters& c = result.final_counters;
  out << "  ],\n  \"counters\": {"
      << "\"roots_emitted\": " << c.roots_emitted << ", "
      << "\"roots_completed\": " << c.roots_completed << ", "
      << "\"roots_failed\": " << c.roots_failed << ", "
      << "\"tuples_processed\": " << c.tuples_processed << ", "
      << "\"tuples_dropped\": " << c.tuples_dropped << ", "
      << "\"migrations\": " << c.migrations << ", "
      << "\"faults_applied\": " << c.faults_applied << ", "
      << "\"energy_joules\": " << c.energy_joules << "},\n";
  out << "  \"final_machine_up\": ";
  WriteJsonArray(out, result.final_machine_up);
  out << ",\n  \"final_machine_executors\": ";
  WriteJsonArray(out, result.final_machine_executors);
  out << ",\n  \"executors_on_dead_machines\": "
      << result.executors_on_dead_machines;
  if (!result.metrics.empty()) {
    out << ",\n  \"metrics\": " << obs::ToJson(result.metrics, "  ");
  }
  out << "\n}\n";
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace drlstream::core
