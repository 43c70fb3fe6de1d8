#include "util/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

namespace tcpdyn::util {
namespace {

TEST(Summarize, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summarize, SingleValue) {
  const std::vector<double> xs{4.5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 4.5);
  EXPECT_DOUBLE_EQ(s.max, 4.5);
}

TEST(Summarize, KnownMoments) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 17.5);
}

TEST(Percentile, UnsortedInputAndClamping) {
  const std::vector<double> xs{30.0, 10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(a, b), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputsReturnZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> flat{5.0, 5.0, 5.0};
  const std::vector<double> shorter{1.0, 2.0};
  EXPECT_DOUBLE_EQ(pearson(a, flat), 0.0);
  EXPECT_DOUBLE_EQ(pearson(a, shorter), 0.0);
  EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
}

TEST(PearsonChecked, DistinguishesDegenerateFromUncorrelated) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> flat{5.0, 5.0, 5.0};
  // A constant series has no variance: rho 0 is "no signal", and the flag
  // says so — unlike a genuinely uncorrelated pair, where rho 0 is a result.
  const Correlation degen = pearson_checked(a, flat);
  EXPECT_TRUE(degen.degenerate);
  EXPECT_DOUBLE_EQ(degen.rho, 0.0);
  const std::vector<double> x{1.0, -1.0, 1.0, -1.0};
  const std::vector<double> y{1.0, 1.0, -1.0, -1.0};
  const Correlation ortho = pearson_checked(x, y);
  EXPECT_FALSE(ortho.degenerate);
  EXPECT_NEAR(ortho.rho, 0.0, 1e-12);
}

TEST(PearsonChecked, SizeMismatchAndEmptyAreDegenerate) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> shorter{1.0, 2.0};
  EXPECT_TRUE(pearson_checked(a, shorter).degenerate);
  EXPECT_TRUE(pearson_checked({}, {}).degenerate);
}

TEST(PearsonChecked, AgreesWithPearsonOnHealthyInput) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  const Correlation c = pearson_checked(a, b);
  EXPECT_FALSE(c.degenerate);
  EXPECT_NEAR(c.rho, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(c.rho, pearson(a, b));
}

TEST(Pearson, IndependentSeriesNearZero) {
  // Orthogonal-by-construction series.
  const std::vector<double> a{1.0, -1.0, 1.0, -1.0};
  const std::vector<double> b{1.0, 1.0, -1.0, -1.0};
  EXPECT_NEAR(pearson(a, b), 0.0, 1e-12);
}

TEST(Detrend, RemovesExactLinearTrend) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(3.0 + 0.5 * i);
  const std::vector<double> d = detrend(xs);
  for (double v : d) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(Detrend, PreservesResidualShape) {
  // Sine on a ramp: after detrending the sine should survive.
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(0.1 * i + std::sin(2.0 * std::numbers::pi * i / 20.0));
  }
  const std::vector<double> d = detrend(xs);
  const Summary s = summarize(d);
  EXPECT_NEAR(s.mean, 0.0, 1e-9);
  EXPECT_GT(s.stddev, 0.5);  // the oscillation survived
}

TEST(Detrend, ShortInputs) {
  EXPECT_TRUE(detrend({}).empty());
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(detrend(one)[0], 0.0);
}

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(std::sin(2.0 * std::numbers::pi * i / 25.0));
  }
  EXPECT_GT(autocorrelation(xs, 25), 0.8);
  EXPECT_LT(autocorrelation(xs, 12), 0.0);  // half period: anti-correlated
  EXPECT_DOUBLE_EQ(autocorrelation(xs, 500), 0.0);  // lag beyond length
}

TEST(DominantPeriod, FindsSinePeriod) {
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) {
    xs.push_back(std::sin(2.0 * std::numbers::pi * i / 40.0));
  }
  const auto p = dominant_period(xs);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(static_cast<double>(*p), 40.0, 2.0);
}

TEST(DominantPeriod, SquareWavePeriod) {
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) xs.push_back((i / 30) % 2 == 0 ? 1.0 : 0.0);
  const auto p = dominant_period(xs);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(static_cast<double>(*p), 60.0, 3.0);
}

TEST(DominantPeriod, AperiodicReturnsNullopt) {
  std::vector<double> xs;
  // Monotone ramp has no autocorrelation peak after detrending... feed the
  // raw ramp: its ACF decays monotonically, no local max above threshold.
  for (int i = 0; i < 100; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_FALSE(dominant_period(detrend(xs)).has_value());
  EXPECT_FALSE(dominant_period(std::vector<double>{1.0, 2.0}).has_value());
}

// The full-table period search that dominant_period replaced, kept as the
// reference for the differential tests below: it recomputes the mean and
// the denominator for every lag and tabulates all n/2 lags before scanning
// for the first peak.
double reference_autocorrelation(std::span<const double> xs,
                                 std::size_t lag) {
  const std::size_t n = xs.size();
  if (lag >= n) return 0.0;
  const double m = mean(xs);
  double denom = 0.0;
  for (double x : xs) {
    const double d = x - m;
    denom += d * d;
  }
  if (denom <= 0.0) return 0.0;
  double num = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    num += (xs[i] - m) * (xs[i + lag] - m);
  }
  return num / denom;
}

std::optional<std::size_t> reference_dominant_period(
    std::span<const double> xs, std::size_t min_lag, double min_corr) {
  const std::size_t n = xs.size();
  if (n < 4 || min_lag + 1 >= n / 2) return std::nullopt;
  const std::size_t max_lag = n / 2;
  std::vector<double> ac(max_lag + 1, 0.0);
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    ac[lag] = reference_autocorrelation(xs, lag);
  }
  bool dipped = false;
  for (std::size_t lag = min_lag + 1; lag < max_lag; ++lag) {
    if (ac[lag] < min_corr) dipped = true;
    if (dipped && ac[lag] >= min_corr && ac[lag] >= ac[lag - 1] &&
        ac[lag] >= ac[lag + 1]) {
      return lag;
    }
  }
  return std::nullopt;
}

// Seeded xorshift64 stream of uniforms in [0, 1).
class Uniform {
 public:
  explicit Uniform(std::uint64_t seed) : x_(seed) {}
  double operator()() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return static_cast<double>(x_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t x_;
};

struct NamedSeries {
  std::string name;
  std::vector<double> xs;
};

std::vector<NamedSeries> differential_inputs() {
  std::vector<NamedSeries> out;
  Uniform u(0x9e3779b97f4a7c15ULL);
  for (const double period : {5.0, 17.0, 40.0, 97.5}) {
    std::vector<double> xs;
    for (int i = 0; i < 600; ++i) {
      xs.push_back(std::sin(2.0 * std::numbers::pi * i / period) +
                   0.6 * (u() - 0.5) + 0.002 * i);
    }
    out.push_back({"noisy_sine_" + std::to_string(period), xs});
    out.push_back({"noisy_sine_detrended_" + std::to_string(period),
                   detrend(xs)});
  }
  for (const int half : {3, 30, 61}) {
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i) xs.push_back((i / half) % 2 == 0 ? 1.0 : 0.0);
    out.push_back({"square_" + std::to_string(half), xs});
  }
  for (int walk = 0; walk < 4; ++walk) {
    std::vector<double> xs;
    double level = 0.0;
    for (int i = 0; i < 400 + 101 * walk; ++i) {
      level += u() - 0.5;
      xs.push_back(level);
    }
    out.push_back({"random_walk_" + std::to_string(walk), xs});
    out.push_back({"random_walk_detrended_" + std::to_string(walk),
                   detrend(xs)});
  }
  std::vector<double> noise;
  for (int i = 0; i < 1500; ++i) noise.push_back(u() - 0.5);
  out.push_back({"white_noise", noise});
  out.push_back({"constant_9", std::vector<double>(9, 3.25)});
  out.push_back({"constant_300", std::vector<double>(300, -1.5)});
  out.push_back({"zeros_64", std::vector<double>(64, 0.0)});
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(std::sin(2.0 * std::numbers::pi * i / 3.0) + 0.1 * u());
    }
    out.push_back({"length_" + std::to_string(n), xs});
  }
  // A pure sine of period P over 2P + 2 samples peaks first at lag P, the
  // last lag the search admits (max_lag - 1 with max_lag = n/2 = P + 1).
  for (const int period : {4, 10, 29, 100}) {
    std::vector<double> xs;
    for (int i = 0; i < 2 * period + 2; ++i) {
      xs.push_back(std::sin(2.0 * std::numbers::pi * i / period));
    }
    out.push_back({"last_lag_peak_" + std::to_string(period), xs});
  }
  // The autocorrelation at lags 4 and 5 is exactly equal: the peak at 4
  // stands only because a tie with the next lag counts as a maximum.
  out.push_back({"tied_peak", {0, 0, 0, 1, 2, 1, 0, 2, 2, 2}});
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(DominantPeriod, MatchesFullTableReference) {
  std::size_t found = 0, missing = 0;
  for (const NamedSeries& s : differential_inputs()) {
    for (const std::size_t min_lag : {0u, 1u, 2u, 5u, 20u}) {
      for (const double min_corr : {-0.2, 0.0, 0.1, 0.35, 0.9}) {
        SCOPED_TRACE(s.name + " min_lag=" + std::to_string(min_lag) +
                     " min_corr=" + std::to_string(min_corr));
        const auto want = reference_dominant_period(s.xs, min_lag, min_corr);
        EXPECT_EQ(dominant_period(s.xs, min_lag, min_corr), want);
        ++(want ? found : missing);
      }
    }
    SCOPED_TRACE(s.name);
    EXPECT_EQ(dominant_period(s.xs), reference_dominant_period(s.xs, 2, 0.1));
  }
  // Both outcomes are exercised, so agreement is not vacuous.
  EXPECT_GT(found, 50u);
  EXPECT_GT(missing, 50u);
}

TEST(DominantPeriod, ReferenceFixturesHitTheirCases) {
  // Guards the differential inputs: the periodic ones have a peak, the
  // flat, white-noise and too-short ones (n < 8 leaves no lag between
  // min_lag 2 and n/2) do not, and the last-lag fixtures really peak at
  // max_lag - 1.
  for (const NamedSeries& s : differential_inputs()) {
    SCOPED_TRACE(s.name);
    const auto p = reference_dominant_period(s.xs, 2, 0.1);
    if (s.name.starts_with("noisy_sine_detrended_") ||
        s.name.starts_with("square_")) {
      EXPECT_TRUE(p.has_value());
    }
    if (s.name.starts_with("constant_") || s.name.starts_with("zeros_") ||
        s.name == "white_noise" || s.xs.size() < 8) {
      EXPECT_FALSE(p.has_value());
    }
    if (s.name == "tied_peak") {
      EXPECT_EQ(p, std::optional<std::size_t>(4));
      EXPECT_EQ(bits(reference_autocorrelation(s.xs, 4)),
                bits(reference_autocorrelation(s.xs, 5)));
    }
    if (s.name.starts_with("last_lag_peak_")) {
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(*p, s.xs.size() / 2 - 1);
    }
  }
}

TEST(Autocorrelation, MatchesReferenceBitForBit) {
  for (const NamedSeries& s : differential_inputs()) {
    SCOPED_TRACE(s.name);
    for (std::size_t lag = 0; lag <= s.xs.size() + 1; ++lag) {
      ASSERT_EQ(bits(autocorrelation(s.xs, lag)),
                bits(reference_autocorrelation(s.xs, lag)))
          << "lag " << lag;
    }
  }
}

TEST(RunLengths, Empty) {
  const RunLengthStats s = run_lengths({});
  EXPECT_EQ(s.total, 0u);
  EXPECT_EQ(s.runs, 0u);
}

TEST(RunLengths, SingleRun) {
  const std::vector<std::uint32_t> xs{7, 7, 7, 7};
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, 1u);
  EXPECT_EQ(s.max_run_length, 4u);
  EXPECT_DOUBLE_EQ(s.mean_run_length, 4.0);
  EXPECT_DOUBLE_EQ(s.same_successor_fraction, 1.0);
}

TEST(RunLengths, PerfectInterleaving) {
  const std::vector<std::uint32_t> xs{0, 1, 0, 1, 0, 1};
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, 6u);
  EXPECT_EQ(s.max_run_length, 1u);
  EXPECT_DOUBLE_EQ(s.mean_run_length, 1.0);
  EXPECT_DOUBLE_EQ(s.same_successor_fraction, 0.0);
}

TEST(RunLengths, MixedRuns) {
  const std::vector<std::uint32_t> xs{0, 0, 0, 1, 1, 2};
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, 3u);
  EXPECT_EQ(s.max_run_length, 3u);
  EXPECT_DOUBLE_EQ(s.mean_run_length, 2.0);
  EXPECT_DOUBLE_EQ(s.same_successor_fraction, 3.0 / 5.0);
}

// Property sweep: for a two-symbol sequence of n runs of length k,
// mean_run_length == k and same_successor_fraction == (n*k - n)/(n*k - 1).
class RunLengthProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RunLengthProperty, UniformRunsRoundTrip) {
  const auto [n_runs, run_len] = GetParam();
  std::vector<std::uint32_t> xs;
  for (int r = 0; r < n_runs; ++r) {
    for (int i = 0; i < run_len; ++i) {
      xs.push_back(static_cast<std::uint32_t>(r % 2));
    }
  }
  const RunLengthStats s = run_lengths(xs);
  EXPECT_EQ(s.runs, static_cast<std::size_t>(n_runs));
  EXPECT_DOUBLE_EQ(s.mean_run_length, static_cast<double>(run_len));
  EXPECT_EQ(s.max_run_length, static_cast<std::size_t>(run_len));
  const double total = static_cast<double>(n_runs) * run_len;
  EXPECT_NEAR(s.same_successor_fraction,
              (total - n_runs) / (total - 1.0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RunLengthProperty,
                         ::testing::Combine(::testing::Values(2, 5, 10),
                                            ::testing::Values(1, 3, 8, 20)));

}  // namespace
}  // namespace tcpdyn::util
