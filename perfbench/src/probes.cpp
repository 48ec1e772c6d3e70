#include "probes.hpp"

#include <cmath>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "la/kernels.hpp"
#include "la/sym_gen.hpp"
#include "net/universe.hpp"
#include "solve/block_layout.hpp"
#include "solve/jacobi_node.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

constexpr int kRepeats = 15;

/// Runs @p batch kRepeats times and returns the median seconds per call,
/// where one batch makes @p calls calls.
template <typename Fn>
double median_seconds_per_call(std::size_t calls, Fn&& batch) {
  std::vector<double> per_call;
  batch();  // warm caches and lazy state
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    batch();
    per_call.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return quantile(per_call, 0.5);
}

volatile double g_sink = 0.0;

}  // namespace

KernelRates probe_kernels(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  jmh::Xoshiro256 rng(seed);
  std::vector<double> b(rows * cols), v(rows * cols);
  for (double& x : b) x = rng.uniform(-1.0, 1.0);
  for (std::size_t c = 0; c < cols; ++c) v[c * rows + c % rows] = 1.0;
  const std::size_t pairs = cols * (cols - 1) / 2;
  const double n = static_cast<double>(rows);
  // Rotation by a fixed small angle: norms are preserved, so repeated
  // batches neither overflow nor denormalize.
  const double s = std::sin(1e-3), c = std::cos(1e-3);

  KernelRates out;
  {
    SpanScope span("la.gram3", "la");
    const double t = median_seconds_per_call(pairs, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < cols; ++i)
        for (std::size_t j = i + 1; j < cols; ++j)
          acc += jmh::la::kernels::gram3(&b[i * rows], &b[j * rows], rows).xy;
      g_sink = acc;
    });
    out.gram3_gbps = 16.0 * n / t / 1e9;
  }
  {
    SpanScope span("la.fused_rotate", "la");
    const double t = median_seconds_per_call(pairs, [&] {
      for (std::size_t i = 0; i < cols; ++i)
        for (std::size_t j = i + 1; j < cols; ++j)
          jmh::la::kernels::fused_rotate(&b[i * rows], &b[j * rows], &v[i * rows], &v[j * rows],
                                         rows, c, s);
    });
    out.fused_rotate_gbps = 64.0 * n / t / 1e9;
  }
  return out;
}

namespace {
jmh::solve::ColumnBlock probe_block(std::size_t m, int d, std::size_t rows, std::uint64_t seed) {
  jmh::Xoshiro256 rng(seed);
  const jmh::la::Matrix a = jmh::la::random_uniform(rows, m, rng);
  return jmh::solve::extract_block(a, jmh::solve::BlockLayout(m, d), 0);
}
}  // namespace

std::size_t block_payload_elems(std::size_t m, int d, std::size_t rows) {
  jmh::net::Payload payload;
  probe_block(m, d, rows, 1).serialize_into(payload);
  return payload.size();
}

double probe_block_pack_gbps(std::size_t m, int d, std::size_t rows, std::uint64_t seed) {
  SpanScope span("solve.pack_roundtrip", "solve");
  const jmh::solve::ColumnBlock src = probe_block(m, d, rows, seed);
  jmh::solve::ColumnBlock dst;
  jmh::net::Payload payload;
  constexpr std::size_t kCalls = 200;
  const double t = median_seconds_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      src.serialize_into(payload);
      dst.assign_from(payload);
    }
  });
  return static_cast<double>(payload.size() * sizeof(double)) / t / 1e9;
}

PingPongFit probe_pingpong(std::size_t max_elems) {
  SpanScope span("net.pingpong", "net");
  std::vector<std::size_t> sizes;
  for (std::size_t s = std::max<std::size_t>(max_elems / 16, 1); s < max_elems; s *= 2)
    sizes.push_back(s);
  sizes.push_back(max_elems);
  sizes.insert(sizes.begin(), 1);

  constexpr int kIters = 40;
  std::vector<double> med_us(sizes.size(), 0.0);
  jmh::net::Universe universe(2);
  universe.run([&](jmh::net::Comm& comm) {
    const int peer = 1 - comm.rank();
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const std::vector<double> data(sizes[k], 1.0);
      std::vector<double> batch_us;
      for (int r = 0; r <= kRepeats; ++r) {
        const auto t0 = Clock::now();
        double sink = 0.0;
        for (int i = 0; i < kIters; ++i) sink += comm.sendrecv(peer, 7, data).back();
        if (r > 0) batch_us.push_back(seconds_since(t0) * 1e6 / kIters);
        if (comm.rank() == 0) g_sink = sink;  // one writer: both ranks run this body
      }
      if (comm.rank() == 0) med_us[k] = quantile(batch_us, 0.5);
    }
  });

  // Least squares of time = Ts + Tw * elems.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(sizes.size());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const double x = static_cast<double>(sizes[k]);
    sx += x;
    sy += med_us[k];
    sxx += x * x;
    sxy += x * med_us[k];
  }
  const double tw = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return {(sy - tw * sx) / n, tw * 1000.0};
}

double probe_gang_us(std::size_t width) {
  SpanScope span("exec.run_gang", "exec");
  auto& pool = jmh::exec::ThreadPool::global();
  constexpr std::size_t kCalls = 100;
  return 1e6 * median_seconds_per_call(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) pool.run_gang(width, [](std::size_t) {});
  });
}

}  // namespace perfbench
