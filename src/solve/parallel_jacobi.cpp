#include "solve/parallel_jacobi.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/assert.hpp"
#include "obs/trace.hpp"
#include "solve/fault_injection.hpp"
#include "solve/mpi_transport.hpp"
#include "solve/sweep_engine.hpp"

namespace jmh::solve {

namespace {

/// Normalizes a topk selection: sorted ascending, validated unique and in
/// range. Ascending matters for bit-parity -- a selection covering every
/// column becomes exactly the iota permutation the full assembly sorts.
std::vector<std::size_t> sorted_selection(const std::vector<std::size_t>& leading,
                                          std::size_t num_cols) {
  std::vector<std::size_t> sel = leading;
  std::sort(sel.begin(), sel.end());
  JMH_REQUIRE(!sel.empty() && sel.back() < num_cols, "leading selection out of range");
  JMH_REQUIRE(std::adjacent_find(sel.begin(), sel.end()) == sel.end(),
              "leading selection has duplicate columns");
  return sel;
}

}  // namespace

DistributedResult assemble_result(std::vector<ColumnBlock> blocks, std::size_t m, int sweeps,
                                  bool converged, std::size_t rotations,
                                  const std::vector<std::size_t>& leading) {
  DistributedResult out;
  out.sweeps = sweeps;
  out.converged = converged;
  out.rotations = rotations;

  la::Matrix b(m, m);
  la::Matrix v(m, m);
  std::vector<char> seen(m, 0);
  for (auto& blk : blocks) {
    JMH_REQUIRE(blk.rows == m && blk.vrows == m, "block row count mismatch");
    for (std::size_t i = 0; i < blk.num_cols(); ++i) {
      const std::size_t col = blk.cols[i];
      JMH_REQUIRE(col < m && !seen[col], "column coverage violation in final blocks");
      seen[col] = 1;
      std::copy_n(blk.b.begin() + static_cast<std::ptrdiff_t>(i * m), m, b.col(col).begin());
      std::copy_n(blk.v.begin() + static_cast<std::ptrdiff_t>(i * m), m, v.col(col).begin());
    }
  }
  JMH_REQUIRE(std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; }),
              "final blocks do not cover every column");

  // lambda_k = v_k . b_k over the selected columns (all of them for a full
  // solve); sort ascending. The comparator and the ascending starting
  // permutation match the historical full path exactly, so a selection of
  // every column reproduces it bit-for-bit, order included.
  std::vector<std::size_t> order;
  if (leading.empty()) {
    order.resize(m);
    std::iota(order.begin(), order.end(), 0);
  } else {
    order = sorted_selection(leading, m);
  }
  std::vector<double> lambda(m);
  for (std::size_t col : order) lambda[col] = la::dot(v.col(col), b.col(col));
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return lambda[x] < lambda[y]; });

  const std::size_t k_out = order.size();
  out.eigenvalues.resize(k_out);
  out.eigenvectors = la::Matrix(m, k_out);
  for (std::size_t k = 0; k < k_out; ++k) {
    out.eigenvalues[k] = lambda[order[k]];
    const auto src = v.col(order[k]);
    std::copy(src.begin(), src.end(), out.eigenvectors.col(k).begin());
  }
  return out;
}

SvdSolveResult assemble_svd_result(std::vector<ColumnBlock> blocks, std::size_t rows,
                                   std::size_t cols, int sweeps, bool converged,
                                   std::size_t rotations,
                                   const std::vector<std::size_t>& leading) {
  la::Matrix b(rows, cols);
  la::Matrix v(cols, cols);
  std::vector<char> seen(cols, 0);
  for (auto& blk : blocks) {
    JMH_REQUIRE(blk.rows == rows && blk.vrows == cols, "block row count mismatch");
    for (std::size_t i = 0; i < blk.num_cols(); ++i) {
      const std::size_t col = blk.cols[i];
      JMH_REQUIRE(col < cols && !seen[col], "column coverage violation in final blocks");
      seen[col] = 1;
      std::copy_n(blk.b.begin() + static_cast<std::ptrdiff_t>(i * rows), rows,
                  b.col(col).begin());
      std::copy_n(blk.v.begin() + static_cast<std::ptrdiff_t>(i * cols), cols,
                  v.col(col).begin());
    }
  }
  JMH_REQUIRE(std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; }),
              "final blocks do not cover every column");

  SvdSolveResult out;
  if (leading.empty() || leading.size() == cols) {
    // Full extraction -- also taken by topk == m, whose selection covers
    // every column: routing through the identical call keeps it
    // bit-identical to the full solve.
    if (!leading.empty()) sorted_selection(leading, cols);  // validate only
    static_cast<la::SvdResult&>(out) = la::svd_from_bv(b, v);
  } else {
    // Truncated extraction, mirroring la::svd_from_bv over the selected
    // columns: sigma descending, ties by ascending global column index
    // (sel is ascending, so position order == global-id order).
    const std::vector<std::size_t> sel = sorted_selection(leading, cols);
    const std::size_t k_out = sel.size();
    std::vector<double> sigma(k_out);
    for (std::size_t i = 0; i < k_out; ++i) sigma[i] = la::norm2(b.col(sel[i]));
    std::vector<std::size_t> order(k_out);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return sigma[x] != sigma[y] ? sigma[x] > sigma[y] : x < y;
    });
    out.singular_values.resize(k_out);
    out.u = la::Matrix(rows, k_out);
    out.v = la::Matrix(cols, k_out);
    for (std::size_t k = 0; k < k_out; ++k) {
      const std::size_t src = sel[order[k]];
      const double s = sigma[order[k]];
      out.singular_values[k] = s;
      const auto bcol = b.col(src);
      auto ucol = out.u.col(k);
      if (s > 0.0)
        for (std::size_t r = 0; r < bcol.size(); ++r) ucol[r] = bcol[r] / s;
      const auto vcol = v.col(src);
      std::copy(vcol.begin(), vcol.end(), out.v.col(k).begin());
    }
  }
  out.sweeps = sweeps;
  out.converged = converged;
  out.rotations = rotations;
  return out;
}

namespace {

/// The shared mpi_lite run: spins up the universe, drives the protocol on
/// every rank, and hands rank 0's collected blocks (plus traffic) to the
/// caller's assembly -- identical for the EVD and SVD entry points.
struct MpiRunOutcome {
  std::vector<ColumnBlock> blocks;  ///< rank 0's full final block set
  EngineResult engine;
  net::CommStats comm;
};

MpiRunOutcome run_mpi_protocol(const la::Matrix& a, const ord::JacobiOrdering& ordering,
                               const SolveOptions& opts, std::uint64_t q) {
  net::Universe universe(1 << ordering.dimension());
  MpiRunOutcome out;
  std::mutex out_mu;
  universe.run([&](net::Comm& comm) {
    MpiLiteTransport transport(comm, a, q);
    // Faults decorate the real transport per rank; with the plan disabled
    // the decorator is never built, keeping unfaulted runs bit-identical.
    EngineResult er;
    if (opts.faults.enabled()) {
      FaultInjectingTransport faulty(transport, opts.faults);
      er = run_sweep_protocol(faulty, ordering, opts);
    } else {
      er = run_sweep_protocol(transport, ordering, opts);
    }
    // The status came out of the allreduced vote, so every rank takes the
    // same branch here: all participate in the collect allgatherv, or none.
    std::vector<ColumnBlock> blocks;
    if (er.status == RunStatus::Ok) blocks = transport.collect_blocks();
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(out_mu);
      out.engine = er;
      out.blocks = std::move(blocks);
    }
  });
  out.comm = universe.stats();
  if (out.engine.status != RunStatus::Ok) throw SolveInterrupted(out.engine.status);
  return out;
}

}  // namespace

DistributedResult solve_mpi_like(const la::Matrix& a, const ord::JacobiOrdering& ordering,
                                 const SolveOptions& opts, std::uint64_t q) {
  MpiRunOutcome run = run_mpi_protocol(a, ordering, opts, q);
  const obs::SpanScope span("assemble", obs::Category::kAssembly, a.rows(),
                            opts.timing != nullptr ? &opts.timing->assembly_ns : nullptr);
  DistributedResult result =
      assemble_result(std::move(run.blocks), a.rows(), run.engine.sweeps,
                      run.engine.converged, run.engine.rotations, run.engine.leading);
  result.comm = run.comm;
  return result;
}

SvdSolveResult solve_mpi_svd_like(const la::Matrix& a, const ord::JacobiOrdering& ordering,
                                  const SolveOptions& opts, std::uint64_t q) {
  MpiRunOutcome run = run_mpi_protocol(a, ordering, opts, q);
  const obs::SpanScope span("assemble", obs::Category::kAssembly, a.cols(),
                            opts.timing != nullptr ? &opts.timing->assembly_ns : nullptr);
  SvdSolveResult result =
      assemble_svd_result(std::move(run.blocks), a.rows(), a.cols(), run.engine.sweeps,
                          run.engine.converged, run.engine.rotations, run.engine.leading);
  result.comm = run.comm;
  return result;
}

}  // namespace jmh::solve
