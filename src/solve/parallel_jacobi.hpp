// Distributed one-sided Jacobi eigensolver: the assembly of eigenpairs
// (and singular triplets) from the final column blocks of a sweep-engine
// run. Callers reach the solver through the api facade (api/solver.hpp);
// this header is the shape of what every backend's run hands back.
//
// All backends share one sweep engine (solve/sweep_engine.hpp) and differ
// only in the Transport they plug into it:
//   * InlineTransport -- the 2^d nodes simulated sequentially in one thread
//     (deterministic; used for the Table 2 convergence experiments);
//   * MpiLiteTransport -- each node an mpi_lite rank, exchanging blocks with
//     real messages over the hypercube overlay (optionally packetized
//     exchange phases) -- the shape an MPI port of the paper's algorithm
//     would take;
//   * SimTransport -- inline numerics with modeled per-link time under
//     pipe::MachineParams.
//
// Each sweep: intra-block pairings, then the 2^{d+1}-1 step/transition
// pairs of the ordering (inter-block pairings + mobile exchange or division
// transfer). Convergence: a sweep in which no node applies any rotation.
#pragma once

#include "la/svd.hpp"
#include "net/universe.hpp"
#include "ord/ordering.hpp"
#include "solve/jacobi_node.hpp"
#include "solve/transport.hpp"

namespace jmh::solve {

/// Eigenpairs assembled from one run's final blocks (api::SolvePlan moves
/// them into its SolveReport).
struct DistributedResult {
  std::vector<double> eigenvalues;  ///< ascending
  la::Matrix eigenvectors;          ///< column k pairs with eigenvalues[k]
  int sweeps = 0;                   ///< sweeps that performed >= 1 rotation
  bool converged = false;
  std::size_t rotations = 0;
  /// Traffic of the mpi_lite run (zero for single-owner backends).
  net::CommStats comm;
};

/// Assembles eigenpairs from final node blocks (exposed for the executors
/// and tests). Blocks must jointly cover all m columns. A non-empty
/// @p leading (EngineResult::leading of a topk run) restricts the output
/// to those columns: eigenvalues/eigenvectors carry only the selected
/// pairs, still sorted by eigenvalue ascending. With leading covering
/// every column the result is bit-identical to the unrestricted assembly
/// -- the selection is sorted ascending first, so the extraction sort
/// starts from the same permutation the full path uses.
DistributedResult assemble_result(std::vector<ColumnBlock> blocks, std::size_t m, int sweeps,
                                  bool converged, std::size_t rotations,
                                  const std::vector<std::size_t>& leading = {});

/// Distributed SVD outcome: la::SvdResult plus the run's traffic counters.
struct SvdSolveResult : la::SvdResult {
  net::CommStats comm;  ///< mpi_lite traffic (zero for single-owner runs)
};

/// SVD counterpart of assemble_result: reassembles the final (B, V) pair of
/// a task=svd run -- B is rows x cols, V is cols x cols -- and extracts
/// (sigma, U, V) through la::svd_from_bv, so every backend collecting the
/// same blocks produces bit-identical results. Blocks must jointly cover
/// all @p cols columns.
/// @p leading as in assemble_result: a non-empty selection yields the
/// truncated factorization (sigma, U, V restricted to those columns,
/// sigma-descending with the same index tie-break la::svd_from_bv uses);
/// a selection covering every column routes through la::svd_from_bv
/// itself and is bit-identical to the unrestricted assembly.
SvdSolveResult assemble_svd_result(std::vector<ColumnBlock> blocks, std::size_t rows,
                                   std::size_t cols, int sweeps, bool converged,
                                   std::size_t rotations,
                                   const std::vector<std::size_t>& leading = {});

}  // namespace jmh::solve
