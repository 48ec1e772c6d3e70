// The hypervisor's steal, seen from inside the guest. On a shared host the
// vCPUs are sometimes taken away for seconds at a stretch; every latency
// measured then describes the neighbours, not the program. A StealMonitor
// samples /proc/stat once a second while a measurement runs, and
// quiet_samples() keeps the samples taken in the seconds when little was
// stolen.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// A window counts as quiet when the hypervisor took at most this share of
/// the VM's CPU time in it.
inline constexpr double kQuietSteal = 0.02;
/// When the quiet windows hold fewer than this share of the samples, the
/// quietest windows that do are kept instead.
inline constexpr double kMinKeptShare = 0.25;

class StealMonitor {
 public:
  /// Starts sampling: one reading now, then one per second.
  StealMonitor();
  /// Stops sampling (see stop()).
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Takes a last reading and joins the sampler. Idempotent.
  void stop();

  /// Window (between two readings) that holds @p t; the last window for
  /// times after the last reading. Call after stop().
  std::size_t window_of(Clock::time_point t) const;
  std::size_t windows() const { return readings_.empty() ? 0 : readings_.size() - 1; }
  /// Steal share of window @p w; 0 when /proc/stat could not be read.
  double share(std::size_t w) const;
  /// Steal share over every window.
  double total_share() const;

 private:
  struct Reading {
    Clock::time_point at;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  void sample();

  std::vector<Reading> readings_;  // sampler thread only, until stop()
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mu_
  std::thread sampler_;
};

/// The samples of @p v (taken at @p at, in time order) that fall in quiet
/// windows of @p steal; when those are fewer than kMinKeptShare of all
/// samples, the samples of the quietest windows that make up that share.
/// Time order is kept. @p kept_share receives the share kept.
std::vector<double> quiet_samples(const std::vector<double>& v,
                                  const std::vector<Clock::time_point>& at,
                                  const StealMonitor& steal, double* kept_share);

}  // namespace perfbench
