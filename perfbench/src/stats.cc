#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/random.h"

namespace fairbc::perfbench {

namespace {

std::size_t NearestRank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

std::size_t CountAbove(const std::vector<double>& samples, double p) {
  const double cut = Percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double x) { return x > cut; }));
}

int PercentileSelfCheck() {
  // The oracle sorts and walks up until the share of samples at or below
  // the candidate reaches p: the definition of the nearest rank, written
  // without the rank arithmetic Percentile uses.
  Rng rng(12345);
  int mismatches = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.NextUInt64(trial < 1000 ? 12 : 3000);
    std::vector<double> v(n);
    for (double& x : v) {
      x = static_cast<double>(rng.NextUInt64(trial % 3 == 0 ? 5 : 100000));
    }
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
      double oracle = sorted.back();
      const double share = p * static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<double>(i + 1) * 100.0 >= share - 1e-6) {
          oracle = sorted[i];
          break;
        }
      }
      if (Percentile(v, p) != oracle) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace fairbc::perfbench
