#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strutil.h"

namespace drlstream {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result(std::make_unique<int>(5));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> v = std::move(result).value();
  EXPECT_EQ(*v, 5);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  DRLSTREAM_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalf(7, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

// The simulator's draws: SplitMix64 streams (common/rng.h).

TEST(RngTest, SplitMix64MatchesTheReferenceSequence) {
  // The first outputs of the reference splitmix64.c seeded with 1234567.
  SplitMix64 stream(1234567);
  EXPECT_EQ(stream.Next(), 6457827717110365317ull);
  EXPECT_EQ(stream.Next(), 3203168211198807973ull);
  EXPECT_EQ(stream.Next(), 9817491932198370423ull);
  EXPECT_EQ(stream.Next(), 4593380528125082431ull);
  EXPECT_EQ(stream.Next(), 16408922859458223821ull);
  EXPECT_EQ(SplitMix64Hash(1234567), 6457827717110365317ull);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  SplitMix64 stream(7);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(stream.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_NEAR(stats.stddev(), 0.25, 0.01);
}

TEST(RngTest, LogNormalMeanCvMatchesMoments) {
  SplitMix64 stream(11);
  const LogNormalLaw law(2.0, 0.5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(stream.LogNormal(law));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev() / stats.mean(), 0.5, 0.03);
}

TEST(RngTest, LogNormalZeroCvIsDeterministic) {
  SplitMix64 stream(11);
  const SplitMix64 untouched = stream;
  EXPECT_DOUBLE_EQ(stream.LogNormal(LogNormalLaw(3.5, 0.0)), 3.5);
  // A constant law draws nothing.
  SplitMix64 copy = untouched;
  EXPECT_EQ(stream.Next(), copy.Next());
}

TEST(RngTest, NormalMomentsAndSpareReuse) {
  SplitMix64 stream(19);
  RunningStats stats;
  RunningStats products;  // E[x_{2i} x_{2i+1}]: 0 for independent halves
  for (int i = 0; i < 50000; ++i) {
    const double a = stream.Normal();
    const double b = stream.Normal();
    stats.Add(a);
    stats.Add(b);
    products.Add(a * b);
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.015);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.015);
  EXPECT_NEAR(products.mean(), 0.0, 0.015);
  // The second normal of a pair is the cached spare: it costs no draw.
  SplitMix64 a(23), b(23);
  a.Normal();
  const SplitMix64 after_pair = a;
  a.Normal();
  b.Normal();
  b.Normal();
  SplitMix64 check = after_pair;
  EXPECT_EQ(a.Next(), check.Next());
}

TEST(RngTest, PoissonMean) {
  SplitMix64 stream(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(stream.Poisson(std::exp(-3.0)));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.variance(), 3.0, 0.15);
  // A mean of 0 returns 0 without drawing.
  SplitMix64 copy = stream;
  EXPECT_EQ(stream.Poisson(1.0), 0);
  EXPECT_EQ(stream.Next(), copy.Next());
}

TEST(RngTest, BelowIsInRangeAndUnbiased) {
  SplitMix64 stream(29);
  for (uint32_t n : {1u, 2u, 3u, 7u, 10u, 1000u}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(stream.Below(n), n);
  }
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[stream.Below(3)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 300);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  const std::vector<int> sample = rng.SampleWithoutReplacement(10, 6);
  ASSERT_EQ(sample.size(), 6u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 6u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

// Pins Rng's seeding and the first outputs of each distribution, one
// fresh generator per distribution, so that a change to the engine or to
// one distribution fails here by name and not only in downstream goldens.
TEST(RngTest, FirstDrawsOfEachDistributionArePinned) {
  constexpr uint64_t kSeed = 2024;
  std::string want_state = "sm64:";
  for (uint64_t counter = SplitMix64Hash(kSeed), i = 0; i < 8;
       ++i, counter >>= 8) {
    want_state.push_back(static_cast<char>(counter & 0xff));
  }
  EXPECT_EQ(Rng(kSeed).SerializeState(), want_state);

  Rng uniform(kSeed);
  std::vector<double> uniforms;
  for (int i = 0; i < 4; ++i) uniforms.push_back(uniform.Uniform(-1.0, 3.0));
  EXPECT_EQ(uniforms, (std::vector<double>{1.2570200395965996, 0.22762054028292855,
                                 -0.40273003914832417, 1.4839985834078768}));

  Rng uniform_int(kSeed);
  std::vector<int> ints;
  for (int i = 0; i < 6; ++i) ints.push_back(uniform_int.UniformInt(0, 9));
  for (int i = 0; i < 2; ++i) {
    ints.push_back(uniform_int.UniformInt(1, 1 << 30));
  }
  EXPECT_EQ(ints, (std::vector<int>{5, 3, 1, 6, 1, 9, 254731189, 21157797}));

  Rng bernoulli(kSeed);
  std::string coins;
  for (int i = 0; i < 12; ++i) coins += bernoulli.Bernoulli(0.3) ? '1' : '0';
  EXPECT_EQ(coins, "001010110000");

  Rng shuffle(kSeed);
  std::vector<int> order = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle.Shuffle(&order);
  EXPECT_EQ(order, (std::vector<int>{8, 7, 3, 9, 6, 0, 4, 1, 2, 5}));

  Rng sample(kSeed);
  EXPECT_EQ(sample.SampleWithoutReplacement(10, 4),
            (std::vector<int>{5, 3, 1, 7}));
}

TEST(RngTest, SerializedStateRoundTripsMidStream) {
  Rng original(31337);
  for (int i = 0; i < 500; ++i) (void)original.UniformInt(0, 1 << 20);
  const std::string state = original.SerializeState();
  EXPECT_EQ(state.size(), 13u);  // "sm64:" + the 8-byte counter

  // A generator restored from the state continues the exact stream.
  Rng restored(1);
  ASSERT_TRUE(restored.DeserializeState(state).ok());
  EXPECT_EQ(restored.SerializeState(), state);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(restored.Uniform(0.0, 1.0), original.Uniform(0.0, 1.0))
        << "draw " << i;
    ASSERT_EQ(restored.UniformInt(0, 1 << 20), original.UniformInt(0, 1 << 20))
        << "draw " << i;
  }
}

TEST(RngTest, MalformedStatesAreRejectedWithoutTouchingTheStream) {
  Rng rng(5);
  (void)rng.Uniform(0.0, 1.0);
  const std::string snapshot = rng.SerializeState();

  std::string truncated = snapshot;
  truncated.pop_back();
  EXPECT_FALSE(rng.DeserializeState(truncated).ok());
  EXPECT_FALSE(rng.DeserializeState(snapshot + "x").ok());
  std::string wrong_tag = snapshot;
  wrong_tag[0] = 'S';
  EXPECT_FALSE(rng.DeserializeState(wrong_tag).ok());
  EXPECT_FALSE(rng.DeserializeState("").ok());
  EXPECT_FALSE(rng.DeserializeState("sm64:short").ok());

  // The format of the Mersenne twister this engine replaced: "b1:", 312
  // little-endian words and a u16 position (2,501 bytes).
  EXPECT_FALSE(rng.DeserializeState("b1:" + std::string(8 * 312 + 2, '\0'))
                   .ok());

  // Every rejection above left the stream untouched: it continues exactly
  // as a clean copy of the snapshot does.
  Rng shadow(0);
  ASSERT_TRUE(shadow.DeserializeState(snapshot).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(rng.Uniform(0.0, 1.0), shadow.Uniform(0.0, 1.0)) << "draw " << i;
  }
}

TEST(RngTest, RejectsTheLegacyDecimalTokenFormat) {
  // The decimal tokens std::mt19937_64's operator<< writes (312 state
  // words and a position) were the state format before "b1:". They are
  // refused, and the refusal leaves the stream as it was.
  std::mt19937_64 reference(20240808);
  for (int i = 0; i < 7; ++i) (void)reference();  // non-trivial position
  std::ostringstream tokens;
  tokens << reference;
  Rng rng(11);
  Rng untouched(11);
  EXPECT_FALSE(rng.DeserializeState(tokens.str()).ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(rng.UniformInt(0, 1 << 30), untouched.UniformInt(0, 1 << 30))
        << "draw " << i;
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  RunningStats a, b, all;
  SplitMix64 noise(5);
  for (int i = 0; i < 100; ++i) {
    const double v = 3.0 + 2.0 * noise.Normal();
    (i < 40 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats stats;
  stats.Add(1.0);
  stats.Reset();
  EXPECT_EQ(stats.count(), 0u);
}

TEST(NormalizeMinMaxTest, MapsToUnitInterval) {
  const std::vector<double> out = NormalizeMinMax({2.0, 4.0, 6.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST(NormalizeMinMaxTest, ConstantSeriesIsHalf) {
  for (double v : NormalizeMinMax({3.0, 3.0, 3.0})) {
    EXPECT_DOUBLE_EQ(v, 0.5);
  }
}

TEST(NormalizeMinMaxTest, EmptyInput) {
  EXPECT_TRUE(NormalizeMinMax({}).empty());
}

TEST(FiltFiltTest, IdentityAtAlphaOne) {
  const std::vector<double> in = {1.0, 5.0, 2.0, 8.0};
  EXPECT_EQ(FiltFilt(in, 1.0), in);
}

TEST(FiltFiltTest, PreservesConstantSignal) {
  const std::vector<double> out = FiltFilt({4.0, 4.0, 4.0, 4.0}, 0.2);
  for (double v : out) EXPECT_NEAR(v, 4.0, 1e-12);
}

TEST(FiltFiltTest, SmoothsNoise) {
  SplitMix64 noise(9);
  std::vector<double> in(400);
  for (double& v : in) v = 1.0 + 0.5 * noise.Normal();
  const std::vector<double> out = FiltFilt(in, 0.1);
  RunningStats rough, smooth;
  for (size_t i = 1; i < in.size(); ++i) {
    rough.Add(std::abs(in[i] - in[i - 1]));
    smooth.Add(std::abs(out[i] - out[i - 1]));
  }
  EXPECT_LT(smooth.mean(), rough.mean() * 0.5);
}

TEST(FiltFiltTest, ZeroPhaseKeepsPulseCentered) {
  // Forward-backward filtering is (approximately) zero phase: a centered
  // pulse keeps its peak at the center and spreads nearly symmetrically
  // (the single-pole edge initialization leaves a small asymmetry).
  std::vector<double> pulse(21, 0.0);
  pulse[10] = 1.0;
  const std::vector<double> out = FiltFilt(pulse, 0.3);
  const auto peak = std::max_element(out.begin(), out.end());
  EXPECT_EQ(peak - out.begin(), 10);
  for (int d = 1; d <= 6; ++d) {
    EXPECT_NEAR(out[10 - d], out[10 + d], 0.05);
  }
}

TEST(PercentileTest, InterpolatesCorrectly) {
  std::vector<double> values = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 25);
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

// ---------------------------------------------------------------------------
// Strings and numbers from outside
// ---------------------------------------------------------------------------

TEST(StrutilTest, TrimStripsSpaceTabsAndLineEnds) {
  EXPECT_EQ(Trim(" \t 1,2 \r\n"), "1,2");
  EXPECT_EQ(Trim(" \t\r\n"), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StrutilTest, ParseNumberTakesOnlyWholeValuesInRange) {
  int i = 7;
  EXPECT_TRUE(ParseNumber("-12", &i));
  EXPECT_EQ(i, -12);
  uint64_t u = 7;
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ull);
  double d = 7.0;
  EXPECT_TRUE(ParseNumber("1e-3", &d));
  EXPECT_EQ(d, 1e-3);

  // Each rejection leaves the output as it was.
  i = 7;
  for (const char* text : {"", "2x", "2.7", "1e3", " 1", "+1", "4294967297",
                           "2147483648"}) {
    EXPECT_FALSE(ParseNumber(text, &i)) << text;
  }
  EXPECT_EQ(i, 7);
  for (const char* text : {"-1", "1e30", "18446744073709551616"}) {
    EXPECT_FALSE(ParseNumber(text, &u)) << text;
  }
  for (const char* text : {"0.9x", "abc", "1e400", ""}) {
    EXPECT_FALSE(ParseNumber(text, &d)) << text;
  }
  EXPECT_EQ(d, 1e-3);
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(FlagsTest, ParsesKeyValueForms) {
  const char* argv[] = {"prog",   "--alpha=3", "--beta", "7.5",   "--gamma",
                        "--a=11", "--b=-3",    "--c=0.9", "--d=1e-3"};
  auto flags = Flags::Parse(9, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags->GetDouble("beta", 0), 7.5);
  EXPECT_EQ(flags->GetInt("a", 0), 11);
  EXPECT_EQ(flags->GetInt("b", 0), -3);
  EXPECT_DOUBLE_EQ(flags->GetDouble("a", 0), 11.0);
  EXPECT_DOUBLE_EQ(flags->GetDouble("c", 0), 0.9);
  EXPECT_DOUBLE_EQ(flags->GetDouble("d", 0), 1e-3);
  EXPECT_TRUE(flags->GetBool("gamma", false));
  EXPECT_TRUE(flags->Has("alpha"));
  EXPECT_FALSE(flags->Has("delta"));
  EXPECT_EQ(flags->GetString("delta", "dflt"), "dflt");
}

TEST(FlagsTest, RejectsPositionalArgument) {
  const char* argv[] = {"prog", "oops"};
  auto flags = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, BoolParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=no"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("a", false));
  EXPECT_FALSE(flags->GetBool("b", true));
  EXPECT_TRUE(flags->GetBool("c", false));
  EXPECT_FALSE(flags->GetBool("d", true));
}

// Parse-only: nothing here applies a flag, so no thread pool is built.
TEST(FlagsTest, RejectsBadProcessFlagValues) {
  for (const char* arg :
       {"--threads=abc", "--threads=0", "--threads=-2", "--threads=4x",
        "--threads=257", "--log-level=loud", "--simd=avx512"}) {
    const char* argv[] = {"prog", arg};
    auto flags = Flags::Parse(2, const_cast<char**>(argv));
    ASSERT_FALSE(flags.ok()) << arg;
    EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument) << arg;
  }
  const char* argv[] = {"prog", "--threads=256", "--log-level=warning",
                        "--simd=off"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetInt("threads", 0), 256);
}

TEST(FlagsTest, RejectsUndeclaredKeyWithSuggestion) {
  const char* argv[] = {"prog", "--epohcs=5"};
  auto flags =
      Flags::Parse(2, const_cast<char**>(argv), {"samples", "epochs"});
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(flags.status().message().find("--epohcs"), std::string::npos)
      << flags.status().ToString();
  EXPECT_NE(flags.status().message().find("did you mean --epochs?"),
            std::string::npos)
      << flags.status().ToString();

  // Nothing close: the key is still named, with no suggestion.
  const char* far[] = {"prog", "--verbose"};
  flags = Flags::Parse(2, const_cast<char**>(far), {"samples", "epochs"});
  ASSERT_FALSE(flags.ok());
  EXPECT_NE(flags.status().message().find("--verbose"), std::string::npos);
  EXPECT_EQ(flags.status().message().find("did you mean"), std::string::npos);
}

TEST(FlagsTest, AcceptsDeclaredAndProcessKeys) {
  const char* argv[] = {"prog",
                        "--epochs=5",
                        "--samples",
                        "7",
                        "--threads=2",
                        "--log-level=error",
                        "--simd=off",
                        "--metrics",
                        "--metrics-out=m.prom",
                        "--metrics-json=m.json",
                        "--trace-out=t.json"};
  auto flags =
      Flags::Parse(11, const_cast<char**>(argv), {"samples", "epochs"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetInt("epochs", 0), 5);
  EXPECT_EQ(flags->GetInt("samples", 0), 7);
  EXPECT_EQ(flags->GetString("trace-out", ""), "t.json");
}

TEST(FlagsTest, MalformedNumbersExitWithInvalidArgument) {
  // The child re-executes this test alone, so no thread of another test is
  // alive at the fork.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog", "--epochs=2x", "--samples=abc",
                        "--rate=0.9x"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EXIT(flags->GetInt("epochs", 0), testing::ExitedWithCode(1),
              "InvalidArgument: --epochs=2x: expected an integer");
  EXPECT_EXIT(flags->GetInt("samples", 0), testing::ExitedWithCode(1),
              "--samples=abc: expected an integer");
  EXPECT_EXIT(flags->GetDouble("rate", 0), testing::ExitedWithCode(1),
              "--rate=0.9x: expected a number");
}

TEST(FlagsTest, UndeclaredFormAcceptsAnyKey) {
  const char* argv[] = {"prog", "--epohcs=5", "--anything"};
  auto flags = Flags::Parse(3, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetInt("epohcs", 0), 5);
  EXPECT_TRUE(flags->GetBool("anything", false));
}

}  // namespace
}  // namespace drlstream
