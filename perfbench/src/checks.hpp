// Result checks, run outside every timed region. A solve passes when it is
// OK and converged and its residual and orthogonality stay within the
// task's bounds (la::eigen_check); gevd vectors are checked for
// B-orthonormality instead.
#pragma once

#include <string>

#include "api/report.hpp"
#include "api/spec.hpp"
#include "la/matrix.hpp"

namespace perfbench {

/// Relative residual bound (the eigensolver CLI's --check bound).
inline constexpr double kResidualBound = 1e-8;
inline constexpr double kOrthBound = 1e-9;
/// Relative |lambda + lambda'| below which an evd/gevd pair counts as a
/// +/-lambda near-tie of the unshifted method (see check_report).
inline constexpr double kTieGap = 1e-4;
/// svd/pca: singular values below this share of the largest are null
/// components, whose directions are undefined and not checked.
inline constexpr double kNullSigma = 1e-10;

/// Empty string when @p r is a correct answer for input @p a under
/// @p spec; otherwise the reason it is not. When an evd or gevd fails on
/// its residual, the failing columns that belong to a +/-lambda near-tie
/// (the unshifted method's known limit, la/shift.hpp) are added to
/// @p pm_ties (when non-null): a count of failures, not an exemption.
std::string check_report(const jmh::api::SolverSpec& spec, const jmh::la::Matrix& a,
                         const jmh::api::SolveReport& r, int* pm_ties = nullptr);

/// Empty string when the two reports carry bit-identical solutions
/// (values, vectors, sweeps, rotations); otherwise the first difference.
std::string compare_bits(const jmh::api::SolveReport& x, const jmh::api::SolveReport& y);

/// The seeded input of one request: a symmetric matrix for evd/gevd, a
/// rows x m matrix for svd/pca.
jmh::la::Matrix make_input(const jmh::api::SolverSpec& spec, std::uint64_t seed);

}  // namespace perfbench
