// Outside-in layer probes. Each times calls into one layer's public
// functions at the geometry of the workload it runs beside, and reports
// rates from byte counts COMPUTED from array sizes (the host exposes no
// hardware counters, so cache misses are not seen).
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct KernelRates {
  double gram3_gbps = 0.0;         ///< 16*n bytes read per gram3 call
  double fused_rotate_gbps = 0.0;  ///< 32*n read + 32*n written per call
};

/// la::kernels::gram3 / fused_rotate over every column pair of a
/// rows x cols block (the workload's column length and width).
KernelRates probe_kernels(std::size_t rows, std::size_t cols, std::uint64_t seed);

/// solve::ColumnBlock serialize_into + assign_from (checksum computed and
/// verified) round trips of block 0 of an m-column, d-cube layout with
/// @p rows rows; GB/s of payload bytes per round trip.
double probe_block_pack_gbps(std::size_t m, int d, std::size_t rows, std::uint64_t seed);

/// The payload length, in doubles, of that block.
std::size_t block_payload_elems(std::size_t m, int d, std::size_t rows);

struct PingPongFit {
  double ts_us = 0.0;         ///< fitted start-up time per sendrecv
  double us_per_kelem = 0.0;  ///< fitted time per 1000 payload doubles
};

/// 2-rank net::Comm::sendrecv exchanges at sizes up to @p max_elems,
/// least-squares fit of time = Ts + Tw * elems.
PingPongFit probe_pingpong(std::size_t max_elems);

/// Median microseconds of an exec::ThreadPool::run_gang of @p width no-op
/// closures on the process-wide pool.
double probe_gang_us(std::size_t width);

}  // namespace perfbench
