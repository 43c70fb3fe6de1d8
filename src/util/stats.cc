#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tcpdyn::util {

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(s.count);
  double sq = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    sq += d * d;
  }
  s.variance = sq / static_cast<double>(s.count);
  s.stddev = std::sqrt(s.variance);
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Correlation pearson_checked(std::span<const double> a,
                            std::span<const double> b) {
  Correlation c;
  if (a.size() != b.size() || a.empty()) {
    c.degenerate = true;
    return c;
  }
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    num += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) {
    c.degenerate = true;
    return c;
  }
  c.rho = num / std::sqrt(va * vb);
  return c;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  return pearson_checked(a, b).rho;
}

std::vector<double> detrend(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<double> out(xs.begin(), xs.end());
  if (n < 2) {
    if (n == 1) out[0] = 0.0;
    return out;
  }
  // Least-squares fit of y = a + b*i.
  const double nn = static_cast<double>(n);
  const double mean_i = (nn - 1.0) / 2.0;
  const double mean_y = mean(xs);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double di = static_cast<double>(i) - mean_i;
    sxy += di * (xs[i] - mean_y);
    sxx += di * di;
  }
  const double b = sxx > 0.0 ? sxy / sxx : 0.0;
  const double a = mean_y - b * mean_i;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = xs[i] - (a + b * static_cast<double>(i));
  }
  return out;
}

LaggedCorrelation peak_cross_correlation(std::span<const double> a,
                                         std::span<const double> b,
                                         std::size_t max_lag) {
  LaggedCorrelation best;
  best.degenerate = true;
  if (a.size() != b.size() || a.empty()) return best;
  const auto n = a.size();
  const auto at = [&](int lag) {
    // lag >= 0 pairs a[i] with b[i + lag] (b trails a by `lag` samples);
    // lag < 0 pairs a[i - lag] with b[i].
    const auto shift = static_cast<std::size_t>(lag >= 0 ? lag : -lag);
    if (shift >= n) return Correlation{0.0, true};
    const std::size_t len = n - shift;
    return lag >= 0 ? pearson_checked(a.subspan(0, len), b.subspan(shift, len))
                    : pearson_checked(a.subspan(shift, len), b.subspan(0, len));
  };
  // Visit lags by increasing |lag| (negative first) so ties keep the
  // smallest shift — a pure phase offset then reports its true delay, not
  // a harmonic.
  for (std::size_t s = 0; s <= max_lag; ++s) {
    for (const int lag : {-static_cast<int>(s), static_cast<int>(s)}) {
      const Correlation c = at(lag);
      if (c.degenerate) continue;
      if (best.degenerate || c.rho > best.rho) {
        best.rho = c.rho;
        best.lag = lag;
        best.degenerate = false;
      }
      if (s == 0) break;  // -0 and +0 are the same lag
    }
  }
  return best;
}

namespace {

// Centred sum of squares about m: the autocorrelation denominator.
double centred_sum_of_squares(std::span<const double> xs, double m) {
  double sq = 0.0;
  for (double x : xs) {
    const double d = x - m;
    sq += d * d;
  }
  return sq;
}

// Sum of (xs[i] - m) * (xs[i + lag] - m) over the overlap; lag < xs.size().
double lagged_cross_sum(std::span<const double> xs, double m,
                        std::size_t lag) {
  double num = 0.0;
  for (std::size_t i = 0; i + lag < xs.size(); ++i) {
    num += (xs[i] - m) * (xs[i + lag] - m);
  }
  return num;
}

}  // namespace

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (lag >= xs.size()) return 0.0;
  const double m = mean(xs);
  const double denom = centred_sum_of_squares(xs, m);
  if (denom <= 0.0) return 0.0;
  return lagged_cross_sum(xs, m, lag) / denom;
}

std::optional<std::size_t> dominant_period(std::span<const double> xs,
                                           std::size_t min_lag,
                                           double min_corr) {
  const std::size_t n = xs.size();
  if (n < 4 || min_lag + 1 >= n / 2) return std::nullopt;
  const std::size_t max_lag = n / 2;
  const double m = mean(xs);
  const double denom = centred_sum_of_squares(xs, m);
  // A flat series has autocorrelation 0 at every lag, which can never both
  // dip below min_corr and reach it; NaN input compares false everywhere.
  if (!(denom > 0.0)) return std::nullopt;
  // autocorrelation(xs, lag) with the mean and denominator hoisted out: the
  // same expression in the same order, so every value is bit-identical.
  const auto ac = [&](std::size_t lag) {
    return lagged_cross_sum(xs, m, lag) / denom;
  };
  // First local maximum above the threshold: a lag whose autocorrelation
  // is at least both neighbours'. Skip the initial decay from lag 0 by
  // requiring the function to have dipped below min_corr at least once
  // first. Lags are evaluated lazily in order, so the scan stops at the
  // first peak instead of tabulating all n/2 lags.
  bool dipped = false;
  double prev = ac(min_lag);
  double cur = ac(min_lag + 1);
  for (std::size_t lag = min_lag + 1; lag < max_lag; ++lag) {
    const double next = ac(lag + 1);
    if (cur < min_corr) dipped = true;
    if (dipped && cur >= min_corr && cur >= prev && cur >= next) return lag;
    prev = cur;
    cur = next;
  }
  return std::nullopt;
}

RunLengthStats run_lengths(std::span<const std::uint32_t> xs) {
  RunLengthStats s;
  s.total = xs.size();
  if (xs.empty()) return s;
  std::size_t run = 1;
  std::size_t same_successor = 0;
  s.runs = 1;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] == xs[i - 1]) {
      ++run;
      ++same_successor;
    } else {
      s.max_run_length = std::max(s.max_run_length, run);
      run = 1;
      ++s.runs;
    }
  }
  s.max_run_length = std::max(s.max_run_length, run);
  s.mean_run_length =
      static_cast<double>(s.total) / static_cast<double>(s.runs);
  s.same_successor_fraction = xs.size() > 1
      ? static_cast<double>(same_successor) / static_cast<double>(xs.size() - 1)
      : 1.0;
  return s;
}

}  // namespace tcpdyn::util
