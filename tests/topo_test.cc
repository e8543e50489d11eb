#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "topo/apps.h"
#include "topo/cluster.h"
#include "topo/datasets.h"
#include "topo/topology.h"
#include "topo/workload.h"

namespace drlstream::topo {
namespace {

Component MakeComponent(const std::string& name, int parallelism) {
  Component c;
  c.name = name;
  c.parallelism = parallelism;
  c.service_mean_ms = 0.1;
  return c;
}

// ---------------------------------------------------------------------------
// Topology structure
// ---------------------------------------------------------------------------

TEST(TopologyTest, ExecutorIndexingIsContiguous) {
  Topology topo("t");
  const int spout = topo.AddSpout(MakeComponent("spout", 2));
  const int bolt = topo.AddBolt(MakeComponent("bolt", 3));
  EXPECT_EQ(topo.num_executors(), 5);
  EXPECT_EQ(topo.FirstExecutorOf(spout), 0);
  EXPECT_EQ(topo.FirstExecutorOf(bolt), 2);
  EXPECT_EQ(topo.ComponentOfExecutor(0), spout);
  EXPECT_EQ(topo.ComponentOfExecutor(1), spout);
  EXPECT_EQ(topo.ComponentOfExecutor(4), bolt);
  EXPECT_EQ(topo.ExecutorsOf(bolt), (std::vector<int>{2, 3, 4}));
}

TEST(TopologyTest, ConnectValidatesEndpoints) {
  Topology topo("t");
  const int spout = topo.AddSpout(MakeComponent("spout", 1));
  const int bolt = topo.AddBolt(MakeComponent("bolt", 1));
  EXPECT_TRUE(topo.Connect(spout, bolt, Grouping::kShuffle).ok());
  EXPECT_FALSE(topo.Connect(spout, 5, Grouping::kShuffle).ok());
  EXPECT_FALSE(topo.Connect(bolt, spout, Grouping::kShuffle).ok());
  EXPECT_FALSE(topo.Connect(bolt, bolt, Grouping::kShuffle).ok());
}

TEST(TopologyTest, ValidateRequiresSpout) {
  Topology topo("t");
  topo.AddBolt(MakeComponent("bolt", 1));
  EXPECT_EQ(topo.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(TopologyTest, ValidateRequiresReachability) {
  Topology topo("t");
  topo.AddSpout(MakeComponent("spout", 1));
  topo.AddBolt(MakeComponent("orphan", 1));
  EXPECT_EQ(topo.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(TopologyTest, ValidateDetectsCycle) {
  Topology topo("t");
  const int spout = topo.AddSpout(MakeComponent("spout", 1));
  const int a = topo.AddBolt(MakeComponent("a", 1));
  const int b = topo.AddBolt(MakeComponent("b", 1));
  ASSERT_TRUE(topo.Connect(spout, a, Grouping::kShuffle).ok());
  ASSERT_TRUE(topo.Connect(a, b, Grouping::kShuffle).ok());
  ASSERT_TRUE(topo.Connect(b, a, Grouping::kShuffle).ok());
  EXPECT_EQ(topo.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(TopologyTest, EdgeAdjacency) {
  Topology topo("t");
  const int spout = topo.AddSpout(MakeComponent("spout", 1));
  const int a = topo.AddBolt(MakeComponent("a", 1));
  const int b = topo.AddBolt(MakeComponent("b", 1));
  ASSERT_TRUE(topo.Connect(spout, a, Grouping::kShuffle).ok());
  ASSERT_TRUE(topo.Connect(a, b, Grouping::kFields).ok());
  EXPECT_EQ(topo.OutEdges(spout).size(), 1u);
  EXPECT_EQ(topo.OutEdges(a).size(), 1u);
  EXPECT_EQ(topo.InEdges(b).size(), 1u);
  EXPECT_EQ(topo.edges()[topo.InEdges(b)[0]].grouping, Grouping::kFields);
  EXPECT_EQ(topo.SpoutComponents(), (std::vector<int>{spout}));
  EXPECT_EQ(topo.num_spouts(), 1);
}

// ---------------------------------------------------------------------------
// Cluster config
// ---------------------------------------------------------------------------

TEST(ClusterConfigTest, DefaultIsValid) {
  EXPECT_TRUE(ClusterConfig().Validate().ok());
}

TEST(ClusterConfigTest, RejectsBadValues) {
  ClusterConfig config;
  config.num_machines = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ClusterConfig();
  config.nic_bandwidth_mbps = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = ClusterConfig();
  config.remote_base_ms = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config = ClusterConfig();
  config.ack_timeout_ms = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ClusterConfigTest, WireTime) {
  ClusterConfig config;
  config.nic_bandwidth_mbps = 1000.0;  // 1 Gbps = 1e6 bits/ms
  EXPECT_NEAR(config.WireTimeMs(125000), 1.0, 1e-9);  // 1 Mbit
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

TEST(WorkloadTest, BaseRates) {
  Workload w;
  w.SetBaseRate(0, 100.0);
  EXPECT_DOUBLE_EQ(w.BaseRate(0), 100.0);
  EXPECT_DOUBLE_EQ(w.BaseRate(1), 0.0);
}

TEST(WorkloadTest, RatesVectorAndScaling) {
  Workload w;
  w.SetBaseRate(0, 100.0);
  w.SetBaseRate(2, 300.0);
  EXPECT_EQ(w.RatesVector({0, 2}, 0.0), (std::vector<double>{100.0, 300.0}));
  w.ScaleAllRates(0.5);
  EXPECT_DOUBLE_EQ(w.BaseRate(2), 150.0);
}

// ---------------------------------------------------------------------------
// Datasets
// ---------------------------------------------------------------------------

TEST(DatasetsTest, VehicleTableShape) {
  Rng rng(1);
  const std::vector<VehicleRecord> table = MakeVehicleTable(100, &rng);
  ASSERT_EQ(table.size(), 100u);
  for (const VehicleRecord& rec : table) {
    EXPECT_EQ(rec.plate.size(), 8u);  // AAA-0000
    EXPECT_GE(rec.speed_mph, 35);
    EXPECT_LE(rec.speed_mph, 95);
    EXPECT_FALSE(rec.owner.empty());
    EXPECT_FALSE(rec.ssn.empty());
  }
}

TEST(DatasetsTest, QuerySerializationRoundTrip) {
  SpeedQuery q;
  q.speed_threshold = 72;
  q.plate_prefix = "K";
  const SpeedQuery parsed = ParseQuery(SerializeQuery(q));
  EXPECT_EQ(parsed.speed_threshold, 72);
  EXPECT_EQ(parsed.plate_prefix, "K");
  const SpeedQuery no_prefix = ParseQuery("65|");
  EXPECT_EQ(no_prefix.speed_threshold, 65);
  EXPECT_TRUE(no_prefix.plate_prefix.empty());
}

TEST(DatasetsTest, LogLineParses) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::string line = MakeLogLine(&rng);
    LogEntry entry;
    ASSERT_TRUE(ParseLogLine(line, &entry)) << line;
    EXPECT_FALSE(entry.method.empty());
    EXPECT_FALSE(entry.uri.empty());
    EXPECT_GE(entry.status, 200);
    EXPECT_EQ(entry.is_error, entry.status >= 400);
  }
  LogEntry entry;
  EXPECT_FALSE(ParseLogLine("garbage", &entry));
}

TEST(DatasetsTest, SplitWordsLowercasesAndSplits) {
  EXPECT_EQ(SplitWords("Alice was here!"),
            (std::vector<std::string>{"alice", "was", "here"}));
  EXPECT_TRUE(SplitWords("123 456").empty());
  EXPECT_EQ(SplitWords("one-two"), (std::vector<std::string>{"one", "two"}));
}

TEST(DatasetsTest, AliceTextAvailable) {
  const std::vector<std::string>& lines = AliceLines();
  EXPECT_GT(lines.size(), 20u);
  double total_words = 0;
  for (const std::string& line : lines) {
    total_words += SplitWords(line).size();
  }
  // The word-count topology's emit factor assumes ~10.5 words per line.
  EXPECT_NEAR(total_words / lines.size(), 10.5, 1.5);
}

// ---------------------------------------------------------------------------
// Application builders (paper Section 4.1 configurations)
// ---------------------------------------------------------------------------

struct ScaleCase {
  Scale scale;
  int total;
  int spouts;
};

class ContinuousQueriesScaleTest : public testing::TestWithParam<ScaleCase> {};

TEST_P(ContinuousQueriesScaleTest, MatchesPaperExecutorCounts) {
  const ScaleCase& param = GetParam();
  App app = BuildContinuousQueries(param.scale);
  EXPECT_TRUE(app.topology.Validate().ok());
  EXPECT_EQ(app.topology.num_executors(), param.total);
  EXPECT_EQ(app.topology.component(0).parallelism, param.spouts);
  EXPECT_GT(app.workload.BaseRate(0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllScales, ContinuousQueriesScaleTest,
    testing::Values(ScaleCase{Scale::kSmall, 20, 2},
                    ScaleCase{Scale::kMedium, 50, 5},
                    ScaleCase{Scale::kLarge, 100, 10}));

TEST(AppsTest, LogProcessingMatchesPaper) {
  App app = BuildLogProcessing();
  EXPECT_TRUE(app.topology.Validate().ok());
  EXPECT_EQ(app.topology.num_executors(), 100);
  EXPECT_EQ(app.topology.num_components(), 6);
  // 10 spout, 20 rules, 20 indexer, 20 counter, 15 + 15 database.
  EXPECT_EQ(app.topology.component(0).parallelism, 10);
  EXPECT_EQ(app.topology.component(1).parallelism, 20);
  EXPECT_EQ(app.topology.component(4).parallelism, 15);
  EXPECT_EQ(app.topology.component(5).parallelism, 15);
  EXPECT_EQ(app.topology.edges().size(), 5u);
}

TEST(AppsTest, WordCountMatchesPaper) {
  App app = BuildWordCount();
  EXPECT_TRUE(app.topology.Validate().ok());
  EXPECT_EQ(app.topology.num_executors(), 100);
  EXPECT_EQ(app.topology.num_components(), 4);
  EXPECT_EQ(app.topology.component(1).parallelism, 30);
  // split -> count uses fields grouping on the word.
  bool found_fields = false;
  for (const StreamEdge& e : app.topology.edges()) {
    if (e.from == 1 && e.to == 2) {
      EXPECT_EQ(e.grouping, Grouping::kFields);
      found_fields = true;
    }
  }
  EXPECT_TRUE(found_fields);
}

TEST(AppsTest, RateScaleMultipliesWorkload) {
  AppOptions options;
  options.rate_scale = 2.0;
  App scaled = BuildContinuousQueries(Scale::kSmall, options);
  App base = BuildContinuousQueries(Scale::kSmall);
  EXPECT_DOUBLE_EQ(scaled.workload.BaseRate(0),
                   2.0 * base.workload.BaseRate(0));
}

TEST(AppsTest, FunctionalModeAttachesUdfs) {
  AppOptions options;
  options.functional = true;
  App app = BuildWordCount(options);
  EXPECT_TRUE(app.topology.HasFunctionalComponents());
  EXPECT_NE(app.sink, nullptr);
  EXPECT_TRUE(app.topology.component(0).source_factory != nullptr);
  EXPECT_TRUE(app.topology.component(1).udf_factory != nullptr);
  // Timing-only mode attaches nothing.
  App plain = BuildWordCount();
  EXPECT_FALSE(plain.topology.HasFunctionalComponents());
}

TEST(AppsTest, QueryBoltFindsSpeeders) {
  AppOptions options;
  options.functional = true;
  options.table_rows = 50;
  App app = BuildContinuousQueries(Scale::kSmall, options);
  auto udf = app.topology.component(1).udf_factory();
  TupleData query;
  query.text = "35|";  // Threshold below every speed: everything matches.
  std::vector<TupleData> out;
  udf->Process(query, &out);
  EXPECT_GT(out.size(), 0u);
  EXPECT_LE(out.size(), 3u);  // Capped at kMaxMatches.
  out.clear();
  query.text = "200|";  // Impossible threshold: no matches.
  udf->Process(query, &out);
  EXPECT_TRUE(out.empty());
}

TEST(AppsTest, WordCountBoltCountsPerExecutor) {
  AppOptions options;
  options.functional = true;
  App app = BuildWordCount(options);
  auto split = app.topology.component(1).udf_factory();
  auto count = app.topology.component(2).udf_factory();
  TupleData line;
  line.text = "the cat and the hat";
  std::vector<TupleData> words;
  split->Process(line, &words);
  ASSERT_EQ(words.size(), 5u);
  std::vector<TupleData> counted;
  for (const TupleData& w : words) count->Process(w, &counted);
  ASSERT_EQ(counted.size(), 5u);
  // Second occurrence of "the" must carry count 2.
  int the_seen = 0;
  for (const TupleData& c : counted) {
    if (c.text == "the") {
      ++the_seen;
      EXPECT_EQ(c.number, the_seen);
    }
  }
  EXPECT_EQ(the_seen, 2);
}

TEST(AppsTest, SinkCollectorAccumulates) {
  SinkCollector sink;
  sink.Record("words", "alice", 1);
  sink.Record("words", "alice", 1);
  sink.Record("index", "x", 1);
  EXPECT_EQ(sink.Get("words", "alice"), 2);
  EXPECT_EQ(sink.Get("words", "bob"), 0);
  EXPECT_EQ(sink.TotalRecords(), 3);
  EXPECT_EQ(sink.Snapshot("words").size(), 1u);
  EXPECT_TRUE(sink.Snapshot("missing").empty());
}

TEST(AppsTest, LogRulesPipelineProcessesRealLines) {
  AppOptions options;
  options.functional = true;
  App app = BuildLogProcessing(options);
  auto rules = app.topology.component(1).udf_factory();
  auto indexer = app.topology.component(2).udf_factory();
  auto counter = app.topology.component(3).udf_factory();
  Rng rng(5);
  TupleData line;
  line.text = MakeLogLine(&rng);
  std::vector<TupleData> parsed;
  rules->Process(line, &parsed);
  ASSERT_EQ(parsed.size(), 1u);
  std::vector<TupleData> indexed, counted;
  indexer->Process(parsed[0], &indexed);
  counter->Process(parsed[0], &counted);
  ASSERT_EQ(indexed.size(), 1u);
  ASSERT_EQ(counted.size(), 1u);
  EXPECT_EQ(indexed[0].text.rfind("idx:", 0), 0u);
  EXPECT_EQ(counted[0].text.rfind("cnt:", 0), 0u);
  EXPECT_EQ(counted[0].number, 1);
}

}  // namespace
}  // namespace drlstream::topo
