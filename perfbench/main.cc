// The benchmark program: runs one workload in this process and prints one
// JSON line with its metrics, checks, operation counts, exact outputs and
// host context. perfbench/run.py builds it, runs it and formats the result.
//
//   perfbench --workload=train_cq|scenario_day|serve_ddpg --seed=N
//             --seconds=S --trace=0|1 [--setup-only]
//
// setup_s is the CPU time from the program's first static initializer to the
// first timed call; --setup-only stops there. The program's thread pool runs
// with one thread, so every workload's compute is single-threaded.
// Exit status: 0 when every output check passed, 1 when one failed, 2 when
// the run could not complete.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"
#include "common/flags.h"
#include "common/simd.h"
#include "common/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

double g_program_cpu_start = 0.0;

// Priority 101 is the first one open to programs, so this runs before the
// static initializers of the libraries (the policy and metrics registries)
// and setup_s counts their work. Process creation, exec and dynamic linking
// come before it and are left out: they are the launcher's and the host's
// cost, and on a shared host they vary more than the set-up itself.
__attribute__((constructor(101))) void StampProgramStart() {
  g_program_cpu_start = ProcessCpuSeconds();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  return std::isfinite(value) ? Exact(value) : "null";
}

std::string ToJson(const std::string& workload, const Options& options,
                   const RunResult& result) {
  std::string j = "{\"workload\": " + Quote(workload) +
                  ", \"seed\": " + std::to_string(options.seed) +
                  ", \"seconds\": " + Number(options.seconds) +
                  ", \"trace\": " + (options.trace ? "true" : "false") +
                  ", \"ok\": " + (result.ok() ? "true" : "false") +
                  ", \"ops\": " + std::to_string(result.ops) +
                  ", \"ops_failed\": " + std::to_string(result.ops_failed);
  j += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    j += (first ? "" : ", ") + Quote(name) + ": {\"value\": " +
         Number(metric.value) + ", \"unit\": " + Quote(metric.unit) +
         ", \"samples\": " + std::to_string(metric.samples) + "}";
    first = false;
  }
  j += "}, \"layers\": {";
  first = true;
  for (const auto& [name, value] : result.layers) {
    j += (first ? "" : ", ") + Quote(name) + ": " + Number(value);
    first = false;
  }
  j += "}, \"checks\": [";
  first = true;
  for (const Check& check : result.checks) {
    j += std::string(first ? "" : ", ") + "{\"name\": " + Quote(check.name) +
         ", \"ok\": " + (check.ok ? "true" : "false") +
         ", \"detail\": " + Quote(check.detail) + "}";
    first = false;
  }
  j += "], \"outputs\": {";
  first = true;
  for (const auto& [name, value] : result.outputs) {
    j += (first ? "" : ", ") + Quote(name) + ": " + Quote(value);
    first = false;
  }
  const bool avx2 = dl::CpuSupportsAvx2();
  const bool simd_auto = dl::GetSimdMode() == dl::SimdMode::kAuto;
  j += "}, \"host\": {\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
       ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
       ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
       ", \"cxx_flags\": " + Quote(PERFBENCH_CXX_FLAGS) +
       ", \"simd\": " +
       Quote(std::string(simd_auto ? "auto" : "off") +
             (simd_auto && avx2 ? " (avx2)" : " (scalar)")) +
       ", \"thread_pool\": " + std::to_string(dl::GlobalThreadCount()) + "}}";
  return j;
}

int Main(int argc, char** argv) {
  // A parallel section waits for its slowest worker, and on a shared host a
  // worker is often descheduled, so pooled runs measure the host's
  // scheduler more than the program. The program's results do not depend on
  // the thread count.
  dl::SetGlobalThreadCount(1);
  Options options;
  dl::StatusOr<dl::Flags> flags = dl::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  const std::string workload = flags->GetString("workload", "");
  const WorkloadFn run = FindWorkload(workload);
  if (run == nullptr) {
    std::fprintf(stderr,
                 "perfbench: --workload must be train_cq, scenario_day or "
                 "serve_ddpg (got '%s')\n",
                 workload.c_str());
    return 2;
  }
  options.seed = static_cast<uint64_t>(
      std::stoull(flags->GetString("seed", "1")));
  options.seconds = flags->GetDouble("seconds", options.seconds);
  options.trace = flags->GetInt("trace", 0) != 0;
  options.setup_only = flags->GetBool("setup-only", false);
  options.cpu_start = g_program_cpu_start;
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  RunResult result;
  const dl::Status status = run(options, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  std::printf("%s\n", ToJson(workload, options, result).c_str());
  return result.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
