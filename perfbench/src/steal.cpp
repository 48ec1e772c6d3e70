#include "steal.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

namespace perfbench {

StealMonitor::StealMonitor() {
  sample();
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto next = Clock::now() + std::chrono::seconds(1);
         !cv_.wait_until(lock, next, [this] { return stopping_; });
         next += std::chrono::seconds(1))
      sample();
  });
}

StealMonitor::~StealMonitor() { stop(); }

void StealMonitor::stop() {
  if (!sampler_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  sampler_.join();
  sample();
}

void StealMonitor::sample() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in jiffies.
  Reading r;
  r.at = Clock::now();
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream in(line.substr(4));
    std::uint64_t field = 0;
    for (int i = 0; i < 8 && in >> field; ++i) {
      r.total += field;
      if (i == 7) r.steal = field;
    }
  }
  readings_.push_back(r);
}

std::size_t StealMonitor::window_of(Clock::time_point t) const {
  if (windows() == 0) return 0;
  const auto it = std::lower_bound(readings_.begin() + 1, readings_.end(), t,
                                   [](const Reading& r, Clock::time_point x) { return r.at < x; });
  const auto w = static_cast<std::size_t>(it - readings_.begin()) - 1;
  return std::min(w, windows() - 1);
}

double StealMonitor::share(std::size_t w) const {
  const Reading& a = readings_[w];
  const Reading& b = readings_[w + 1];
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

double StealMonitor::total_share() const {
  const Reading& a = readings_.front();
  const Reading& b = readings_.back();
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

std::vector<double> quiet_samples(const std::vector<double>& v,
                                  const std::vector<Clock::time_point>& at,
                                  const StealMonitor& steal, double* kept_share) {
  const std::size_t nw = steal.windows();
  if (nw == 0) {
    if (kept_share != nullptr) *kept_share = 1.0;
    return v;
  }
  std::vector<std::size_t> window(v.size()), count(nw, 0);
  for (std::size_t i = 0; i < v.size(); ++i) ++count[window[i] = steal.window_of(at[i])];

  // Quiet windows first, then the rest from the quietest up, until the
  // kept windows hold enough samples.
  std::vector<std::size_t> order(nw);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal.share(a) < steal.share(b); });
  const auto wanted = static_cast<std::size_t>(kMinKeptShare * static_cast<double>(v.size()));
  std::vector<bool> keep(nw, false);
  std::size_t kept = 0;
  for (std::size_t w : order) {
    if (steal.share(w) > kQuietSteal && kept >= wanted) break;
    keep[w] = true;
    kept += count[w];
  }
  std::vector<double> out;
  out.reserve(kept);
  for (std::size_t i = 0; i < v.size(); ++i)
    if (keep[window[i]]) out.push_back(v[i]);
  if (kept_share != nullptr)
    *kept_share = v.empty() ? 1.0 : static_cast<double>(out.size()) / static_cast<double>(v.size());
  return out;
}

}  // namespace perfbench
