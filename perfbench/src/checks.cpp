#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "la/eigen_check.hpp"
#include "la/pca.hpp"
#include "la/sym_gen.hpp"

namespace perfbench {

using jmh::api::SolveReport;
using jmh::api::SolverSpec;
using jmh::api::Task;
using jmh::la::Matrix;

namespace {

std::string fmt(const char* what, double value, double bound) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.3e exceeds %.1e", what, value, bound);
  return buf;
}

Matrix multiply(const Matrix& a, const Matrix& x) {
  Matrix out(a.rows(), x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double xkj = x(k, j);
      for (std::size_t i = 0; i < a.rows(); ++i) out(i, j) += a(i, k) * xkj;
    }
  return out;
}

/// max |X^T B X - I|, given BX.
double b_orthonormality_defect(const Matrix& x, const Matrix& bx) {
  double orth = 0.0;
  for (std::size_t i = 0; i < x.cols(); ++i)
    for (std::size_t j = i; j < x.cols(); ++j) {
      double g = 0.0;
      for (std::size_t row = 0; row < x.rows(); ++row) g += x(row, i) * bx(row, j);
      orth = std::max(orth, std::abs(g - (i == j ? 1.0 : 0.0)));
    }
  return orth;
}

/// ||A x_k - lambda_k B x_k|| / ||A||_F for every eigenpair of @p r,
/// given BX (X itself for the standard problem, B = I).
std::vector<double> column_residuals(const Matrix& a, const Matrix& bx, const SolveReport& r) {
  const Matrix& x = r.eigenvectors;
  const Matrix ax = multiply(a, x);
  const double scale = std::max(jmh::la::frobenius(a), 1e-300);
  std::vector<double> res(x.cols());
  for (std::size_t k = 0; k < x.cols(); ++k) {
    double norm2 = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const double d = ax(i, k) - r.eigenvalues[k] * bx(i, k);
      norm2 += d * d;
    }
    res[k] = std::sqrt(norm2) / scale;
  }
  return res;
}

/// Columns over the residual bound whose eigenvalue has an opposite-sign
/// partner within kTieGap * max|lambda|. The unshifted one-sided method
/// converges to the SVD, so such a pair shares one singular subspace and
/// is separated only as far as the rotation threshold allows
/// (la/shift.hpp). These columns are failures like any other; the count
/// only names how many of them are of this kind.
int near_tie_columns(const std::vector<double>& res, const std::vector<double>& lam) {
  double lmax = 0.0;
  for (double l : lam) lmax = std::max(lmax, std::abs(l));
  int ties = 0;
  for (std::size_t k = 0; k < res.size(); ++k) {
    if (res[k] <= kResidualBound) continue;
    for (std::size_t c = 0; c < lam.size(); ++c)
      if (c != k && lam[c] * lam[k] < 0.0 && std::abs(lam[c] + lam[k]) <= kTieGap * lmax) {
        ++ties;
        break;
      }
  }
  return ties;
}

double max_of(const std::vector<double>& v) {
  double worst = 0.0;
  for (double x : v) worst = std::max(worst, x);
  return worst;
}

/// The first @p k columns of @p m.
Matrix leading_cols(const Matrix& m, std::size_t k) {
  Matrix out(m.rows(), k);
  for (std::size_t c = 0; c < k; ++c)
    for (std::size_t r = 0; r < m.rows(); ++r) out(r, c) = m(r, c);
  return out;
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

Matrix make_input(const SolverSpec& spec, std::uint64_t seed) {
  jmh::Xoshiro256 rng(seed);
  if (spec.task == Task::Svd || spec.task == Task::Pca)
    return jmh::la::random_uniform(spec.input_rows(), spec.m, rng);
  return jmh::la::random_uniform_symmetric(spec.m, rng);
}

std::string check_report(const SolverSpec& spec, const Matrix& a, const SolveReport& r,
                         int* pm_ties) {
  if (r.status != jmh::api::SolveStatus::Ok) return "status " + jmh::api::to_string(r.status);
  if (!r.converged) return "not converged";
  const bool svd = spec.task == Task::Svd || spec.task == Task::Pca;
  if (!all_finite(svd ? r.singular_values : r.eigenvalues)) return "non-finite values";

  double residual = 0.0;
  double orth = 0.0;
  switch (spec.task) {
    case Task::Evd: {
      residual = jmh::la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors);
      orth = jmh::la::orthogonality_defect(r.eigenvectors);
      if (residual > kResidualBound && pm_ties != nullptr)
        *pm_ties += near_tie_columns(column_residuals(a, r.eigenvectors, r), r.eigenvalues);
      break;
    }
    case Task::Svd:
    case Task::Pca: {
      // A null singular triplet's direction is undefined (pca centering
      // always makes one): check the components above noise, as the
      // repo's own parity suites do.
      Matrix data = a;
      if (spec.task == Task::Pca) jmh::la::center_columns(data);
      const std::vector<double>& sv = r.singular_values;
      std::size_t k = 0;
      while (k < sv.size() && sv[k] > kNullSigma * sv.front()) ++k;
      const std::vector<double> lead(sv.begin(), sv.begin() + static_cast<std::ptrdiff_t>(k));
      const Matrix v = leading_cols(r.eigenvectors, k);
      residual = jmh::la::svd_residual(data, lead, leading_cols(r.u, k), v);
      orth = jmh::la::orthogonality_defect(v);
      break;
    }
    case Task::Gevd: {
      jmh::Xoshiro256 brng(spec.bseed);
      const Matrix bx = multiply(jmh::la::random_spd(spec.m, brng), r.eigenvectors);
      const std::vector<double> res = column_residuals(a, bx, r);
      residual = max_of(res);
      orth = b_orthonormality_defect(r.eigenvectors, bx);
      if (residual > kResidualBound && pm_ties != nullptr)
        *pm_ties += near_tie_columns(res, r.eigenvalues);
      break;
    }
  }
  if (!(residual <= kResidualBound)) return fmt("residual", residual, kResidualBound);
  if (!(orth <= kOrthBound))
    return fmt(spec.task == Task::Gevd ? "B-orthonormality defect" : "orthogonality defect",
               orth, kOrthBound);
  return {};
}

std::string compare_bits(const SolveReport& x, const SolveReport& y) {
  const auto same = [](const std::vector<double>& p, const std::vector<double>& q) {
    return p.size() == q.size() &&
           (p.empty() || std::memcmp(p.data(), q.data(), p.size() * sizeof(double)) == 0);
  };
  const auto same_matrix = [&](const Matrix& p, const Matrix& q) {
    return p.rows() == q.rows() && p.cols() == q.cols() && same(p.data(), q.data());
  };
  if (x.sweeps != y.sweeps) return "sweeps differ";
  if (x.rotations != y.rotations) return "rotations differ";
  if (!same(x.eigenvalues, y.eigenvalues)) return "eigenvalues differ in bits";
  if (!same(x.singular_values, y.singular_values)) return "singular values differ in bits";
  if (!same_matrix(x.eigenvectors, y.eigenvectors)) return "vectors differ in bits";
  return {};
}

}  // namespace perfbench
