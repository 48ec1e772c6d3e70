// The distributed solver through the api facade: inline and mpi backends
// against the sequential reference.
#include <gtest/gtest.h>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/sym_gen.hpp"

namespace jmh::solve {
namespace {

using api::SolveReport;

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

/// Spec of an order-a.cols() eigenproblem on @p backend with @p ordering.
api::SolverSpec spec_for(api::Backend backend, const la::Matrix& a,
                         const ord::JacobiOrdering& ordering) {
  api::SolverSpec spec;
  spec.backend = backend;
  spec.ordering = ordering.kind();
  spec.m = a.cols();
  spec.d = ordering.dimension();
  return spec;
}

SolveReport run_inline(const la::Matrix& a, const ord::JacobiOrdering& ordering) {
  return api::Solver::solve(spec_for(api::Backend::Inline, a, ordering), a);
}

SolveReport run_mpi(const la::Matrix& a, const ord::JacobiOrdering& ordering) {
  return api::Solver::solve(spec_for(api::Backend::MpiLite, a, ordering), a);
}

struct SolverCase {
  ord::OrderingKind kind;
  int d;
  std::size_t m;
};

class InlineSolverTest : public ::testing::TestWithParam<SolverCase> {};

TEST_P(InlineSolverTest, MatchesSequentialReference) {
  const auto [kind, d, m] = GetParam();
  const la::Matrix a = test_matrix(m, 1000 + m);
  const ord::JacobiOrdering ordering(kind, d);
  const SolveReport dist = run_inline(a, ordering);
  const la::JacobiResult ref = la::onesided_jacobi_cyclic(a);
  ASSERT_TRUE(dist.converged);
  ASSERT_TRUE(ref.converged);
  EXPECT_LT(la::spectrum_distance(dist.eigenvalues, ref.eigenvalues), 1e-8);
  EXPECT_LT(la::eigenpair_residual(a, dist.eigenvalues, dist.eigenvectors), 1e-9);
  EXPECT_LT(la::orthogonality_defect(dist.eigenvectors), 1e-10);
}

std::vector<SolverCase> solver_cases() {
  std::vector<SolverCase> cases;
  for (auto kind : {ord::OrderingKind::BR, ord::OrderingKind::PermutedBR,
                    ord::OrderingKind::Degree4, ord::OrderingKind::MinAlpha}) {
    cases.push_back({kind, 1, 8});
    cases.push_back({kind, 2, 16});
    cases.push_back({kind, 3, 16});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, InlineSolverTest, ::testing::ValuesIn(solver_cases()),
                         [](const ::testing::TestParamInfo<SolverCase>& pinfo) {
                           std::string name = ord::to_string(pinfo.param.kind) + "_d" +
                                              std::to_string(pinfo.param.d) + "_m" +
                                              std::to_string(pinfo.param.m);
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

TEST(InlineSolver, UnevenColumnSplit) {
  // 13 columns over 8 blocks: sizes differ by one; must still be exact.
  const la::Matrix a = test_matrix(13, 77);
  const ord::JacobiOrdering ordering(ord::OrderingKind::PermutedBR, 2);
  const SolveReport dist = run_inline(a, ordering);
  const la::JacobiResult ref = la::onesided_jacobi_cyclic(a);
  ASSERT_TRUE(dist.converged);
  EXPECT_LT(la::spectrum_distance(dist.eigenvalues, ref.eigenvalues), 1e-8);
}

TEST(InlineSolver, DiagonalConvergesInZeroSweeps) {
  const la::Matrix a = la::diagonal({4.0, 3.0, 2.0, 1.0, 0.5, -1.0, -2.0, -3.0});
  const ord::JacobiOrdering ordering(ord::OrderingKind::BR, 1);
  const SolveReport r = run_inline(a, ordering);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.sweeps, 0);
}

TEST(InlineSolver, KnownSpectrumRecovered) {
  // NOTE: the spectrum must be free of +/- magnitude ties: one-sided Jacobi
  // converges to the SVD, so eigenvalues lambda and -lambda share a singular
  // subspace and cannot be separated (see test_onesided_jacobi's
  // PlusMinusTieLimitation).
  Xoshiro256 rng(5);
  const std::vector<double> spectrum = {-8.0, -2.5, -1.0, 0.25, 1.5, 2.0, 4.0, 16.0};
  const la::Matrix a = la::symmetric_with_spectrum(spectrum, rng);
  const ord::JacobiOrdering ordering(ord::OrderingKind::Degree4, 1);
  const SolveReport r = run_inline(a, ordering);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(la::spectrum_distance(r.eigenvalues, spectrum), 1e-8);
}

TEST(InlineSolver, RotationCountMatchesPairCoverage) {
  // First sweep of an m=16, d=2 solve touches every pair at most once:
  // m(m-1)/2 = 120 rotations is the per-sweep ceiling.
  const la::Matrix a = test_matrix(16, 9);
  const ord::JacobiOrdering ordering(ord::OrderingKind::BR, 2);
  api::SolverSpec spec = spec_for(api::Backend::Inline, a, ordering);
  spec.max_sweeps = 1;
  const SolveReport r = api::Solver::solve(spec, a);
  EXPECT_LE(r.rotations, 120u);
  EXPECT_GT(r.rotations, 100u);  // random matrix: almost every pair rotates
}

TEST(MpiSolver, AgreesWithInlineSolver) {
  const la::Matrix a = test_matrix(16, 21);
  const ord::JacobiOrdering ordering(ord::OrderingKind::PermutedBR, 2);
  const SolveReport inline_r = run_inline(a, ordering);
  const SolveReport mpi_r = run_mpi(a, ordering);
  ASSERT_TRUE(mpi_r.converged);
  EXPECT_EQ(mpi_r.sweeps, inline_r.sweeps);
  EXPECT_LT(la::spectrum_distance(mpi_r.eigenvalues, inline_r.eigenvalues), 1e-12);
  EXPECT_LT(la::Matrix::max_abs_diff(mpi_r.eigenvectors, inline_r.eigenvectors), 1e-12);
}

TEST(MpiSolver, AllOrderingsConvergeOnThreads) {
  const la::Matrix a = test_matrix(16, 33);
  for (auto kind : {ord::OrderingKind::BR, ord::OrderingKind::Degree4}) {
    const ord::JacobiOrdering ordering(kind, 2);
    const SolveReport r = run_mpi(a, ordering);
    ASSERT_TRUE(r.converged) << ord::to_string(kind);
    EXPECT_LT(la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors), 1e-9);
  }
}

TEST(MpiSolver, LargerCube) {
  const la::Matrix a = test_matrix(32, 55);
  const ord::JacobiOrdering ordering(ord::OrderingKind::Degree4, 3);
  const SolveReport r = run_mpi(a, ordering);
  ASSERT_TRUE(r.converged);
  const la::JacobiResult ref = la::onesided_jacobi_cyclic(a);
  EXPECT_LT(la::spectrum_distance(r.eigenvalues, ref.eigenvalues), 1e-8);
}

TEST(Solver, NonSquareRejected) {
  la::Matrix a(3, 4);
  const ord::JacobiOrdering ordering(ord::OrderingKind::BR, 1);
  EXPECT_THROW(run_inline(a, ordering), std::invalid_argument);
}

}  // namespace
}  // namespace jmh::solve
