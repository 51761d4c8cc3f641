#include "sim/pendulum.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace m2td::sim {

namespace {

/// Upper bound on chain length; keeps the per-step solver on the stack.
constexpr std::size_t kMaxLinks = 8;

/// In-place Gaussian elimination with partial pivoting on a kMaxLinks-sized
/// stack system. The mass matrix of a physical pendulum is symmetric
/// positive definite, so singularity here is a programming error.
void SolveSmallSystem(std::size_t n, double m[kMaxLinks][kMaxLinks],
                      double rhs[kMaxLinks], double out[kMaxLinks]) {
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(m[col][col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(m[r][col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    M2TD_CHECK(best > 1e-300) << "singular pendulum mass matrix";
    if (pivot != col) {
      for (std::size_t j = col; j < n; ++j) std::swap(m[col][j], m[pivot][j]);
      std::swap(rhs[col], rhs[pivot]);
    }
    const double inv = 1.0 / m[col][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m[r][col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) m[r][j] -= factor * m[col][j];
      rhs[r] -= factor * rhs[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = rhs[ri];
    for (std::size_t j = ri + 1; j < n; ++j) sum -= m[ri][j] * out[j];
    out[ri] = sum / m[ri][ri];
  }
}

}  // namespace

Result<ChainPendulum> ChainPendulum::Create(std::vector<double> masses,
                                            double gravity, double friction) {
  if (masses.empty()) {
    return Status::InvalidArgument("pendulum needs at least one link");
  }
  if (masses.size() > kMaxLinks) {
    return Status::InvalidArgument("pendulum supports at most 8 links");
  }
  for (double m : masses) {
    if (!(m > 0.0)) {
      return Status::InvalidArgument("all masses must be positive");
    }
  }
  if (friction < 0.0) {
    return Status::InvalidArgument("friction must be non-negative");
  }
  return ChainPendulum(std::move(masses), gravity, friction);
}

ChainPendulum::ChainPendulum(std::vector<double> masses, double gravity,
                             double friction)
    : masses_(std::move(masses)), gravity_(gravity), friction_(friction) {
  const std::size_t n = masses_.size();
  a_matrix_.assign(n, std::vector<double>(n, 0.0));
  // Suffix sums of masses: A_ij = sum_{k >= max(i,j)} m_k.
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t k = n; k-- > 0;) suffix[k] = suffix[k + 1] + masses_[k];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a_matrix_[i][j] = suffix[std::max(i, j)];
    }
  }
}

void ChainPendulum::Derivative(double /*t*/, const std::vector<double>& state,
                               std::vector<double>* derivative) const {
  const std::size_t n = masses_.size();
  M2TD_DCHECK(state.size() == 2 * n && derivative->size() == 2 * n);
  const double* theta = state.data();
  const double* omega = state.data() + n;

  double m[kMaxLinks][kMaxLinks];
  double rhs[kMaxLinks];
  double alpha[kMaxLinks];
  for (std::size_t i = 0; i < n; ++i) {
    double acc = -gravity_ * a_matrix_[i][i] * std::sin(theta[i]) -
                 friction_ * omega[i];
    for (std::size_t j = 0; j < n; ++j) {
      // On the diagonal delta == 0: cos gives exactly 1 and the sin term
      // subtracts +0, so skipping the trig is bit-identical.
      if (j == i) {
        m[i][i] = a_matrix_[i][i];
        continue;
      }
      const double delta = theta[i] - theta[j];
      m[i][j] = a_matrix_[i][j] * std::cos(delta);
      acc -= a_matrix_[i][j] * std::sin(delta) * omega[j] * omega[j];
    }
    rhs[i] = acc;
  }
  SolveSmallSystem(n, m, rhs, alpha);

  for (std::size_t i = 0; i < n; ++i) {
    (*derivative)[i] = omega[i];
    (*derivative)[n + i] = alpha[i];
  }
}

std::vector<double> ChainPendulum::Observable(
    const std::vector<double>& state) const {
  const std::size_t n = masses_.size();
  return std::vector<double>(state.begin(), state.begin() + n);
}

std::vector<double> ChainPendulum::InitialState(
    const std::vector<double>& initial_angles) const {
  M2TD_CHECK(initial_angles.size() == masses_.size())
      << "one initial angle per link required";
  std::vector<double> state(2 * masses_.size(), 0.0);
  for (std::size_t i = 0; i < initial_angles.size(); ++i) {
    state[i] = initial_angles[i];
  }
  return state;
}

double ChainPendulum::TotalEnergy(const std::vector<double>& state) const {
  const std::size_t n = masses_.size();
  M2TD_CHECK(state.size() == 2 * n);
  const double* theta = state.data();
  const double* omega = state.data() + n;
  double energy = 0.0;
  double x = 0.0, y = 0.0, vx = 0.0, vy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x += std::sin(theta[i]);
    y -= std::cos(theta[i]);
    vx += std::cos(theta[i]) * omega[i];
    vy += std::sin(theta[i]) * omega[i];
    energy += masses_[i] * (0.5 * (vx * vx + vy * vy) + gravity_ * y);
  }
  return energy;
}

void DoublePendulumReference::Derivative(
    double /*t*/, const std::vector<double>& state,
    std::vector<double>* derivative) const {
  const double th1 = state[0];
  const double th2 = state[1];
  const double w1 = state[2];
  const double w2 = state[3];
  const double g = gravity_;
  const double m1 = m1_;
  const double m2 = m2_;
  const double delta = th1 - th2;
  const double denom = 2.0 * m1 + m2 - m2 * std::cos(2.0 * th1 - 2.0 * th2);

  const double a1 =
      (-g * (2.0 * m1 + m2) * std::sin(th1) -
       m2 * g * std::sin(th1 - 2.0 * th2) -
       2.0 * std::sin(delta) * m2 * (w2 * w2 + w1 * w1 * std::cos(delta))) /
      denom;
  const double a2 =
      (2.0 * std::sin(delta) *
       (w1 * w1 * (m1 + m2) + g * (m1 + m2) * std::cos(th1) +
        w2 * w2 * m2 * std::cos(delta))) /
      denom;

  (*derivative)[0] = w1;
  (*derivative)[1] = w2;
  (*derivative)[2] = a1;
  (*derivative)[3] = a2;
}

}  // namespace m2td::sim
