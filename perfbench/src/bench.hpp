// Shared types of jmh_perfbench: options, the metric sink, sample
// quantiles, and the per-workload outcome the main program prints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       ///< the separate traced run: per-layer metrics
  bool setup_only = false;  ///< stop once set-up is done (setup_s samples)
  std::string trace_out;    ///< Chrome trace path (traced run)
  bool saturate = false;    ///< service_mix: measure saturation throughput
};

/// Metrics in insertion order, each with its unit.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : items_)
      if (n == name) {
        m = {value, unit};
        return;
      }
    items_.push_back({name, {value, unit}});
  }
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median over consecutive blocks (in sample order, i.e. time order) of
/// each block's q-quantile. There are at least kMinBlocks blocks, more when
/// the run is long enough for each block to hold ten samples above its
/// q-quantile; a burst of interference from outside the process then
/// spoils a few blocks, not the whole figure.
inline double block_quantile(const std::vector<double>& v, double q) {
  constexpr std::size_t kMinBlocks = 5;
  const auto by_tail = static_cast<std::size_t>(static_cast<double>(v.size()) * (1.0 - q) / 10.0);
  const std::size_t blocks = std::min(v.size(), std::max(kMinBlocks, by_tail));
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b)
    per_block.push_back(quantile({v.begin() + static_cast<std::ptrdiff_t>(b * v.size() / blocks),
                                  v.begin() + static_cast<std::ptrdiff_t>((b + 1) * v.size() / blocks)},
                                 q));
  return quantile(per_block, 0.5);
}

/// What one workload run produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, unconverged or wrong results
  MetricSet e2e;             ///< end-to-end metrics (untraced)
  MetricSet layer;           ///< per-layer metrics (traced run only)
  MetricSet info;            ///< sample counts and other context
  std::vector<std::string> failures;  ///< first few failure reasons
  /// Failing evd/gevd columns that belong to a +/-lambda near-tie
  /// (checks.hpp): how many failures are of the unshifted method's known
  /// kind. They are counted in `failed` like any other.
  int pm_tie_columns = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Called by a workload once set-up is done, right before its first timed
/// request; the main program stamps the time there.
using ReadyFn = std::function<void()>;

Outcome run_closed_loop(const Options& opt, const ReadyFn& ready);
Outcome run_service_mix(const Options& opt, const ReadyFn& ready);

}  // namespace perfbench
