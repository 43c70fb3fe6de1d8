// Statistics helpers used by the analysis layer: descriptive statistics,
// Pearson correlation, linear detrending, autocorrelation-based period
// estimation, and run-length analysis of categorical sequences.
//
// All functions operate on plain std::vector<double> (or spans thereof) so
// they are trivially testable in isolation from the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace tcpdyn::util {

// Descriptive summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // population variance
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Computes count/mean/variance/stddev/min/max in one pass.
// Empty input yields a zeroed Summary with count == 0.
Summary summarize(std::span<const double> xs);

// Arithmetic mean; 0.0 for empty input.
double mean(std::span<const double> xs);

// p-th percentile (0 <= p <= 100) by linear interpolation between closest
// ranks. Empty input returns 0.0.
double percentile(std::span<const double> xs, double p);

// percentile() of an already ascending-sorted sample, without the copy and
// sort: the same interpolation, bit for bit. Lets a caller that needs
// several percentiles of one sample sort it once.
double percentile_sorted(std::span<const double> sorted, double p);

// Pearson correlation with an explicit degeneracy signal: a constant
// (zero-variance) series has no defined correlation, and callers that
// classify by rho must be able to tell "uncorrelated" (rho near 0) from
// "rho is meaningless" (flat queue trace, empty window).
struct Correlation {
  double rho = 0.0;
  // True when the correlation is undefined: lengths differ, series are
  // empty, or either series has zero variance. rho is 0 in that case.
  bool degenerate = false;
};

Correlation pearson_checked(std::span<const double> a,
                            std::span<const double> b);

// Pearson correlation coefficient of two equal-length series.
// Returns 0.0 when either series has zero variance or lengths differ/empty
// (use pearson_checked to distinguish those degenerate cases from rho == 0).
double pearson(std::span<const double> a, std::span<const double> b);

// Removes the least-squares linear trend (intercept + slope*i) from xs.
std::vector<double> detrend(std::span<const double> xs);

// Lagged cross-correlation peak: Pearson rho of the overlapping parts of a
// and b[i + lag], maximized over integer lags in [-max_lag, +max_lag].
// lag > 0 means b's signal trails a's (b is a delayed copy of a); ties go to
// the smallest |lag| (negative before positive). Degenerate when every lag is
// degenerate (flat or too-short overlap).
struct LaggedCorrelation {
  double rho = 0.0;
  int lag = 0;
  bool degenerate = false;
};

LaggedCorrelation peak_cross_correlation(std::span<const double> a,
                                         std::span<const double> b,
                                         std::size_t max_lag);

// Normalized autocorrelation of a (detrended) series at the given lag.
double autocorrelation(std::span<const double> xs, std::size_t lag);

// Estimates the dominant oscillation period of a series, in samples, as the
// lag of the first local maximum of the autocorrelation function that exceeds
// `min_corr`. Searches lags in [min_lag, xs.size()/2]. Returns nullopt when
// no such peak exists (aperiodic or too-short series).
//
// Cost: lags are evaluated in order and the search stops at the first peak,
// so it is O(n*(P+2)) for a peak at lag P and O(n^2/2) when there is none
// (every lag up to n/2 is scanned). A constant series returns in O(n).
std::optional<std::size_t> dominant_period(std::span<const double> xs,
                                           std::size_t min_lag = 2,
                                           double min_corr = 0.1);

// Run-length statistics for a categorical sequence (e.g. the connection ids
// of packets departing a queue, in order).
struct RunLengthStats {
  std::size_t total = 0;        // number of elements
  std::size_t runs = 0;         // number of maximal same-value runs
  double mean_run_length = 0.0; // total / runs
  std::size_t max_run_length = 0;
  // Fraction of elements whose successor has the same value. 1 - runs/total
  // (for non-empty input); ~0 for perfectly interleaved two-symbol input.
  double same_successor_fraction = 0.0;
};

RunLengthStats run_lengths(std::span<const std::uint32_t> xs);

}  // namespace tcpdyn::util
