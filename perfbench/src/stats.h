// Order statistics shared by the load generator and the layer run.

#ifndef FAIRBC_PERFBENCH_STATS_H_
#define FAIRBC_PERFBENCH_STATS_H_

#include <vector>

namespace fairbc::perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it (p in (0, 100]). 0 for no samples.
/// Takes its input by value because it sorts.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank `p` percentile.
std::size_t CountAbove(const std::vector<double>& samples, double p);

/// Checks Percentile against a sorted-vector oracle on random inputs;
/// returns the number of mismatches.
int PercentileSelfCheck();

}  // namespace fairbc::perfbench

#endif  // FAIRBC_PERFBENCH_STATS_H_
