// Micro: the control-plane wire codecs. One GetSchedule round-trip per
// decision epoch is the protocol's hot path; at paper scale (N=100, M=10 →
// a few KiB of state) encode+decode must stay deep in the microsecond
// range so the wire adds nothing next to the stabilization window.

#include <benchmark/benchmark.h>

#include <string>

#include "common/rng.h"
#include "ctrl/messages.h"
#include "net/wire.h"

using namespace drlstream;

namespace {

rl::State MakeState(int n, int m, int spouts, Rng* rng) {
  rl::State state;
  state.assignments.resize(n);
  for (int& a : state.assignments) a = rng->UniformInt(0, m - 1);
  state.spout_rates.resize(spouts);
  for (double& r : state.spout_rates) r = rng->Uniform(50.0, 500.0);
  return state;
}

}  // namespace

/// arg0 selects the payload: 0 = State, 2 = schedule diff with 10% of the
/// executors moved (the typical incremental deploy). The values match the
/// row names committed in BENCH_micro.json.
static void BM_WireRoundTrip(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  Rng rng(42);
  const rl::State drl_state = MakeState(n, m, 5, &rng);
  const sched::Schedule base = ctrl::DiffBaseFromState(drl_state, m);
  sched::Schedule target = base;
  for (int i = 0; i < n; i += 10) {  // move 10% of the executors
    target.Assign(i, (target.MachineOf(i) + 1) % m);
  }
  const ctrl::ScheduleDiff diff = ctrl::MakeScheduleDiff(base, target);

  size_t bytes = 0;
  for (auto _ : state) {
    net::WireWriter writer;
    if (which == 0) {
      ctrl::EncodeState(drl_state, &writer);
    } else {
      ctrl::EncodeScheduleDiff(diff, &writer);
    }
    const std::string payload = writer.Release();
    bytes = payload.size();
    net::WireReader reader(payload);
    if (which == 0) {
      rl::State decoded;
      benchmark::DoNotOptimize(ctrl::DecodeState(&reader, &decoded));
    } else {
      ctrl::ScheduleDiff decoded;
      benchmark::DoNotOptimize(ctrl::DecodeScheduleDiff(&reader, &decoded));
    }
  }
  state.SetLabel(std::string(which == 0 ? "state" : "diff-10pct") + " N=" +
                 std::to_string(n) + " M=" + std::to_string(m) + " " +
                 std::to_string(bytes) + "B");
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WireRoundTrip)
    ->Args({0, 100, 10})
    ->Args({2, 100, 10})
    ->Args({0, 500, 20})
    ->Args({2, 500, 20});

BENCHMARK_MAIN();
