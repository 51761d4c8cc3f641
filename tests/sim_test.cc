#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/lorenz.h"
#include "sim/ode.h"
#include "sim/pendulum.h"
#include "util/random.h"

namespace m2td::sim {
namespace {

// ---------------------------------------------------------------- RK4

/// dx/dt = -x has the exact solution x0 * exp(-t).
class ExponentialDecay : public OdeSystem {
 public:
  std::size_t StateSize() const override { return 1; }
  void Derivative(double /*t*/, const std::vector<double>& state,
                  std::vector<double>* d) const override {
    (*d)[0] = -state[0];
  }
};

TEST(Rk4Test, MatchesExponentialDecay) {
  ExponentialDecay system;
  Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 100;
  options.record_every = 10;
  auto trajectory = IntegrateRk4(system, {1.0}, options);
  ASSERT_TRUE(trajectory.ok());
  ASSERT_EQ(trajectory->NumSamples(), 11u);
  for (std::size_t s = 0; s < trajectory->NumSamples(); ++s) {
    const double t = trajectory->times[s];
    EXPECT_NEAR(trajectory->observables[s][0], std::exp(-t), 1e-9)
        << "sample " << s;
  }
}

TEST(Rk4Test, FourthOrderConvergence) {
  // Halving dt should reduce the endpoint error by ~2^4.
  ExponentialDecay system;
  auto endpoint_error = [&](double dt, int steps) {
    Rk4Options options;
    options.dt = dt;
    options.num_steps = steps;
    options.record_every = steps;
    auto trajectory = IntegrateRk4(system, {1.0}, options);
    EXPECT_TRUE(trajectory.ok());
    return std::fabs(trajectory->observables.back()[0] - std::exp(-dt * steps));
  };
  const double e1 = endpoint_error(0.2, 10);
  const double e2 = endpoint_error(0.1, 20);
  EXPECT_GT(e1 / e2, 10.0);  // ideal 16, allow slack
}

TEST(Rk4Test, InputValidation) {
  ExponentialDecay system;
  Rk4Options bad;
  bad.dt = -1.0;
  EXPECT_FALSE(IntegrateRk4(system, {1.0}, bad).ok());
  Rk4Options ok_options;
  EXPECT_FALSE(IntegrateRk4(system, {1.0, 2.0}, ok_options).ok());
  ok_options.num_steps = 0;
  EXPECT_FALSE(IntegrateRk4(system, {1.0}, ok_options).ok());
}

TEST(Rk4Test, ObservableDistanceIsEuclidean) {
  Trajectory a, b;
  a.times = {0.0};
  b.times = {0.0};
  a.observables = {{0.0, 0.0}};
  b.observables = {{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(ObservableDistance(a, b, 0), 5.0);
  EXPECT_DOUBLE_EQ(ObservableDistance(a, a, 0), 0.0);
}

// ---------------------------------------------------------- ChainPendulum

TEST(ChainPendulumTest, CreateValidation) {
  EXPECT_FALSE(ChainPendulum::Create({}).ok());
  EXPECT_FALSE(ChainPendulum::Create({1.0, -1.0}).ok());
  EXPECT_FALSE(ChainPendulum::Create({1.0}, 9.81, -0.1).ok());
  EXPECT_FALSE(
      ChainPendulum::Create(std::vector<double>(9, 1.0)).ok());
  EXPECT_TRUE(ChainPendulum::Create({1.0, 2.0, 3.0}).ok());
}

TEST(ChainPendulumTest, SinglePendulumSmallAngleFrequency) {
  // Small-angle single pendulum: theta(t) ~= theta0 cos(sqrt(g/L) t).
  auto pendulum = ChainPendulum::Create({1.0}, 9.81);
  ASSERT_TRUE(pendulum.ok());
  const double theta0 = 0.01;
  Rk4Options options;
  options.dt = 0.001;
  options.num_steps = 2000;
  options.record_every = 100;
  auto trajectory =
      IntegrateRk4(*pendulum, pendulum->InitialState({theta0}), options);
  ASSERT_TRUE(trajectory.ok());
  const double omega = std::sqrt(9.81);
  for (std::size_t s = 0; s < trajectory->NumSamples(); ++s) {
    const double t = trajectory->times[s];
    EXPECT_NEAR(trajectory->observables[s][0], theta0 * std::cos(omega * t),
                1e-4 * theta0 + 1e-7)
        << "t=" << t;
  }
}

TEST(ChainPendulumTest, MatchesClosedFormDoublePendulum) {
  auto chain = ChainPendulum::Create({1.3, 0.7});
  ASSERT_TRUE(chain.ok());
  DoublePendulumReference reference(1.3, 0.7);
  Rk4Options options;
  options.dt = 0.002;
  options.num_steps = 1500;
  options.record_every = 100;
  const std::vector<double> initial = chain->InitialState({0.9, -0.4});
  auto t1 = IntegrateRk4(*chain, initial, options);
  auto t2 = IntegrateRk4(reference, initial, options);
  ASSERT_TRUE(t1.ok() && t2.ok());
  for (std::size_t s = 0; s < t1->NumSamples(); ++s) {
    EXPECT_NEAR(t1->observables[s][0], t2->observables[s][0], 1e-6)
        << "sample " << s;
    EXPECT_NEAR(t1->observables[s][1], t2->observables[s][1], 1e-6)
        << "sample " << s;
  }
}

TEST(ChainPendulumTest, EnergyConservedWithoutFriction) {
  auto pendulum = ChainPendulum::Create({1.0, 2.0, 0.5});
  ASSERT_TRUE(pendulum.ok());
  const std::vector<double> initial =
      pendulum->InitialState({1.0, 0.5, -0.3});
  const double e0 = pendulum->TotalEnergy(initial);

  Rk4Options options;
  options.dt = 0.0005;
  options.num_steps = 4000;
  options.record_every = 4000;
  // Integrate with a wrapper whose observable is the full state, so the
  // recorded samples can be fed back into TotalEnergy.
  class Reporting : public OdeSystem {
   public:
    explicit Reporting(const ChainPendulum* p) : p_(p) {}
    std::size_t StateSize() const override { return p_->StateSize(); }
    void Derivative(double t, const std::vector<double>& s,
                    std::vector<double>* d) const override {
      p_->Derivative(t, s, d);
    }
   private:
    const ChainPendulum* p_;
  };
  Reporting reporting(&*pendulum);
  auto trajectory = IntegrateRk4(reporting, initial, options);
  ASSERT_TRUE(trajectory.ok());
  const double e1 = pendulum->TotalEnergy(trajectory->observables.back());
  EXPECT_NEAR(e1, e0, 1e-6 * std::fabs(e0) + 1e-8);
}

TEST(ChainPendulumTest, FrictionDissipatesEnergy) {
  auto pendulum = ChainPendulum::Create({1.0, 1.0, 1.0}, 9.81, 0.3);
  ASSERT_TRUE(pendulum.ok());
  const std::vector<double> initial = pendulum->InitialState({1.2, 0.8, 0.4});
  class Reporting : public OdeSystem {
   public:
    explicit Reporting(const ChainPendulum* p) : p_(p) {}
    std::size_t StateSize() const override { return p_->StateSize(); }
    void Derivative(double t, const std::vector<double>& s,
                    std::vector<double>* d) const override {
      p_->Derivative(t, s, d);
    }
   private:
    const ChainPendulum* p_;
  };
  Reporting reporting(&*pendulum);
  Rk4Options options;
  options.dt = 0.001;
  options.num_steps = 3000;
  options.record_every = 1000;
  auto trajectory = IntegrateRk4(reporting, initial, options);
  ASSERT_TRUE(trajectory.ok());
  double last_energy = pendulum->TotalEnergy(trajectory->observables[0]);
  for (std::size_t s = 1; s < trajectory->NumSamples(); ++s) {
    const double energy = pendulum->TotalEnergy(trajectory->observables[s]);
    EXPECT_LT(energy, last_energy) << "sample " << s;
    last_energy = energy;
  }
}

TEST(ChainPendulumTest, ObservableIsAnglesOnly) {
  auto pendulum = ChainPendulum::Create({1.0, 1.0});
  ASSERT_TRUE(pendulum.ok());
  const std::vector<double> state = {0.1, 0.2, 5.0, 6.0};
  const std::vector<double> obs = pendulum->Observable(state);
  EXPECT_EQ(obs, (std::vector<double>{0.1, 0.2}));
}

/// The chain-pendulum derivative as written before the diagonal of the
/// mass matrix skipped its trig calls: the full j-loop, then Gaussian
/// elimination with partial pivoting. Bit-exactness oracle.
std::vector<double> LoopDerivativeOracle(const std::vector<double>& masses,
                                         double gravity, double friction,
                                         const std::vector<double>& state) {
  const std::size_t n = masses.size();
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t k = n; k-- > 0;) suffix[k] = suffix[k + 1] + masses[k];
  std::vector<std::vector<double>> a(n, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i][j] = suffix[std::max(i, j)];
  }
  const double* theta = state.data();
  const double* omega = state.data() + n;
  std::vector<std::vector<double>> m(n, std::vector<double>(n));
  std::vector<double> rhs(n), alpha(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = -gravity * a[i][i] * std::sin(theta[i]) - friction * omega[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double delta = theta[i] - theta[j];
      m[i][j] = a[i][j] * std::cos(delta);
      acc -= a[i][j] * std::sin(delta) * omega[j] * omega[j];
    }
    rhs[i] = acc;
  }
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
    for (std::size_t j = ri + 1; j < n; ++j) sum -= m[ri][j] * alpha[j];
    alpha[ri] = sum / m[ri][ri];
  }
  std::vector<double> derivative(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    derivative[i] = omega[i];
    derivative[n + i] = alpha[i];
  }
  return derivative;
}

TEST(ChainPendulumTest, DerivativeBitIdenticalToFullLoop) {
  Rng rng(2024);
  for (std::size_t n : {2u, 3u}) {
    for (double friction : {0.0, 0.35}) {
      std::vector<double> masses(n);
      for (double& mass : masses) mass = rng.UniformDouble(0.5, 2.5);
      auto pendulum = ChainPendulum::Create(masses, 9.81, friction);
      ASSERT_TRUE(pendulum.ok());
      std::vector<double> state(2 * n), derivative(2 * n);
      for (int sample = 0; sample < 128; ++sample) {
        for (std::size_t i = 0; i < n; ++i) {
          state[i] = rng.UniformDouble(-std::numbers::pi, std::numbers::pi);
          state[n + i] = rng.UniformDouble(-6.0, 6.0);
        }
        pendulum->Derivative(0.0, state, &derivative);
        const std::vector<double> want =
            LoopDerivativeOracle(masses, 9.81, friction, state);
        for (std::size_t k = 0; k < 2 * n; ++k) {
          EXPECT_EQ(derivative[k], want[k])
              << "n=" << n << " friction=" << friction << " sample "
              << sample << " component " << k;
        }
      }
    }
  }
}

TEST(ChainPendulumTest, AtRestStaysAtRest) {
  auto pendulum = ChainPendulum::Create({1.0, 1.0});
  ASSERT_TRUE(pendulum.ok());
  Rk4Options options;
  options.dt = 0.01;
  options.num_steps = 100;
  options.record_every = 10;
  auto trajectory = IntegrateRk4(
      *pendulum, pendulum->InitialState({0.0, 0.0}), options);
  ASSERT_TRUE(trajectory.ok());
  for (const auto& obs : trajectory->observables) {
    EXPECT_NEAR(obs[0], 0.0, 1e-12);
    EXPECT_NEAR(obs[1], 0.0, 1e-12);
  }
}

// ----------------------------------------------------------------- Lorenz

TEST(LorenzTest, FixedPointStaysFixed) {
  // For the classic parameters, C+ = (sqrt(beta(rho-1)), same, rho-1) is an
  // equilibrium.
  const double sigma = 10.0, rho = 14.0, beta = 8.0 / 3.0;
  const double c = std::sqrt(beta * (rho - 1.0));
  LorenzSystem lorenz(sigma, rho, beta);
  std::vector<double> d(3);
  lorenz.Derivative(0.0, {c, c, rho - 1.0}, &d);
  EXPECT_NEAR(d[0], 0.0, 1e-12);
  EXPECT_NEAR(d[1], 0.0, 1e-12);
  EXPECT_NEAR(d[2], 0.0, 1e-12);
}

TEST(LorenzTest, TrajectoryStaysBounded) {
  LorenzSystem lorenz(10.0, 28.0, 8.0 / 3.0);
  Rk4Options options;
  options.dt = 0.005;
  options.num_steps = 4000;
  options.record_every = 100;
  auto trajectory = IntegrateRk4(
      lorenz, LorenzSystem::InitialState(1.0, 1.0, 25.0), options);
  ASSERT_TRUE(trajectory.ok());
  for (const auto& obs : trajectory->observables) {
    for (double v : obs) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_LT(std::fabs(v), 100.0);
    }
  }
}

TEST(LorenzTest, SensitiveDependenceOnInitialCondition) {
  // Chaos: nearby starts diverge materially within a few time units.
  LorenzSystem lorenz(10.0, 28.0, 8.0 / 3.0);
  Rk4Options options;
  options.dt = 0.005;
  options.num_steps = 3000;
  options.record_every = 3000;
  auto a = IntegrateRk4(lorenz, {1.0, 1.0, 25.0}, options);
  auto b = IntegrateRk4(lorenz, {1.0, 1.0, 25.0 + 1e-4}, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(ObservableDistance(*a, *b, a->NumSamples() - 1), 0.1);
}

TEST(LorenzTest, DerivativeMatchesEquations) {
  LorenzSystem lorenz(2.0, 3.0, 4.0);
  std::vector<double> d(3);
  lorenz.Derivative(0.0, {1.0, 2.0, 3.0}, &d);
  EXPECT_DOUBLE_EQ(d[0], 2.0 * (2.0 - 1.0));
  EXPECT_DOUBLE_EQ(d[1], 1.0 * (3.0 - 3.0) - 2.0);
  EXPECT_DOUBLE_EQ(d[2], 1.0 * 2.0 - 4.0 * 3.0);
}

}  // namespace
}  // namespace m2td::sim
