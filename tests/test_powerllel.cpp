// Mini-PowerLLEL integration tests: halo exchange and transpose correctness
// over both backends, Poisson solver against a manufactured solution,
// divergence-free projection, Taylor-Green decay, and MPI/UNR backend
// equivalence (identical physics, different transport).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "powerllel/halo.hpp"
#include "powerllel/poisson.hpp"
#include "powerllel/solver.hpp"
#include "powerllel/transpose.hpp"
#include "runtime/world.hpp"
#include "unr/unr.hpp"

namespace unr::powerllel {
namespace {

using runtime::Rank;
using runtime::World;

World::Config world_for(int nranks) {
  World::Config wc;
  wc.nodes = nranks;
  wc.ranks_per_node = 1;
  wc.profile = unr::make_th_xy();
  wc.deterministic_routing = true;
  return wc;
}

Decomp decomp_for(std::size_t nx, std::size_t ny, std::size_t nz, int pr, int pc) {
  Decomp d;
  d.nx = nx;
  d.ny = ny;
  d.nz = nz;
  d.pr = pr;
  d.pc = pc;
  return d;
}

/// Encodes a unique value per (global i, j, k, field).
double coord_tag(std::size_t i, std::size_t jg, std::size_t kg, int field) {
  return static_cast<double>(i) + 1000.0 * static_cast<double>(jg) +
         1000000.0 * static_cast<double>(kg) + 1e9 * field;
}

// gtest prints a parameter that has no printer as its raw bytes, and ctest
// takes that text into the test's name. The label is therefore held inline
// rather than as a pointer, and the struct has no padding, so every name is
// the same from build to build.
struct BackendCase {
  char label[12];
  CommBackend backend;
  int pr, pc;
};
static_assert(std::has_unique_object_representations_v<BackendCase>);

class HaloP : public ::testing::TestWithParam<BackendCase> {};

TEST_P(HaloP, FillsHalosWithNeighborValues) {
  const auto c = GetParam();
  const int p = c.pr * c.pc;
  World w(world_for(p));
  std::optional<unrlib::Unr> unr;
  if (c.backend == CommBackend::kUnr) unr.emplace(w);
  int bad = 0;
  w.run([&](Rank& r) {
    Decomp d = decomp_for(8, 8, 8, c.pr, c.pc);
    d.self = r.id();
    d.validate();
    Field a(d.nx, d.nyl(), d.nzl()), b(d.nx, d.nyl(), d.nzl());
    for (std::size_t k = 0; k < d.nzl(); ++k)
      for (std::size_t j = 0; j < d.nyl(); ++j)
        for (std::size_t i = 0; i < d.nx; ++i) {
          a.at(i, static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(k)) =
              coord_tag(i, d.y0() + j, d.z0() + k, 0);
          b.at(i, static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(k)) =
              coord_tag(i, d.y0() + j, d.z0() + k, 1);
        }
    auto halo = c.backend == CommBackend::kUnr ? make_unr_halo(r, *unr, d, 2)
                                               : make_mpi_halo(r, d, 2);
    Field* fields[2] = {&a, &b};
    // Run twice: the UNR double buffering must recycle cleanly.
    for (int rep = 0; rep < 2; ++rep) halo->exchange(fields);

    auto check = [&](Field& f, int tag) {
      // y halos (periodic).
      for (std::size_t k = 0; k < d.nzl(); ++k)
        for (std::size_t i = 0; i < d.nx; ++i) {
          const std::size_t jm = (d.y0() + d.ny - 1) % d.ny;
          const std::size_t jp = (d.y0() + d.nyl()) % d.ny;
          if (f.at(i, -1, static_cast<std::ptrdiff_t>(k)) !=
              coord_tag(i, jm, d.z0() + k, tag))
            ++bad;
          if (f.at(i, static_cast<std::ptrdiff_t>(d.nyl()),
                   static_cast<std::ptrdiff_t>(k)) !=
              coord_tag(i, jp, d.z0() + k, tag))
            ++bad;
        }
      // z halos (walls have no source; interior only).
      for (std::size_t j = 0; j < d.nyl(); ++j)
        for (std::size_t i = 0; i < d.nx; ++i) {
          if (!d.at_bottom_wall() &&
              f.at(i, static_cast<std::ptrdiff_t>(j), -1) !=
                  coord_tag(i, d.y0() + j, d.z0() - 1, tag))
            ++bad;
          if (!d.at_top_wall() &&
              f.at(i, static_cast<std::ptrdiff_t>(j),
                   static_cast<std::ptrdiff_t>(d.nzl())) !=
                  coord_tag(i, d.y0() + j, d.z0() + d.nzl(), tag))
            ++bad;
        }
    };
    check(a, 0);
    check(b, 1);
  });
  EXPECT_EQ(bad, 0) << c.label;
}

class TransposeP : public ::testing::TestWithParam<BackendCase> {};

TEST_P(TransposeP, ForwardThenBackIsIdentityAndPlacesGlobally) {
  const auto c = GetParam();
  const int p = c.pr * c.pc;
  World w(world_for(p));
  std::optional<unrlib::Unr> unr;
  if (c.backend == CommBackend::kUnr) unr.emplace(w);
  int bad = 0;
  w.run([&](Rank& r) {
    Decomp d = decomp_for(8, 8, 4, c.pr, c.pc);
    d.self = r.id();
    d.validate();
    auto tr = c.backend == CommBackend::kUnr ? make_unr_transposer(r, *unr, d)
                                             : make_mpi_transposer(r, d);
    auto val = [](std::size_t ig, std::size_t jg, std::size_t kg) {
      return Complex(static_cast<double>(ig + 100 * jg + 10000 * kg),
                     -static_cast<double>(ig));
    };
    std::vector<Complex> xp(d.nx * d.nyl() * d.nzl());
    for (std::size_t k = 0; k < d.nzl(); ++k)
      for (std::size_t j = 0; j < d.nyl(); ++j)
        for (std::size_t i = 0; i < d.nx; ++i)
          xp[i + d.nx * (j + d.nyl() * k)] = val(i, d.y0() + j, d.z0() + k);
    const auto orig = xp;
    std::vector<Complex> yp(d.nxl() * d.ny * d.nzl());

    for (int rep = 0; rep < 2; ++rep) {
      tr->x_to_y(xp.data(), yp.data());
      // Check global placement in the y-pencil.
      for (std::size_t k = 0; k < d.nzl(); ++k)
        for (std::size_t j = 0; j < d.ny; ++j)
          for (std::size_t i = 0; i < d.nxl(); ++i)
            if (yp[i + d.nxl() * (j + d.ny * k)] != val(d.x0() + i, j, d.z0() + k))
              ++bad;
      std::fill(xp.begin(), xp.end(), Complex(0, 0));
      tr->y_to_x(yp.data(), xp.data());
      for (std::size_t i = 0; i < xp.size(); ++i)
        if (xp[i] != orig[i]) ++bad;
    }
  });
  EXPECT_EQ(bad, 0) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, HaloP,
    ::testing::Values(BackendCase{"mpi_2x2", CommBackend::kMpi, 2, 2},
                      BackendCase{"unr_2x2", CommBackend::kUnr, 2, 2},
                      BackendCase{"mpi_4x1", CommBackend::kMpi, 4, 1},
                      BackendCase{"unr_1x4", CommBackend::kUnr, 1, 4},
                      BackendCase{"mpi_1x1", CommBackend::kMpi, 1, 1},
                      BackendCase{"unr_1x1", CommBackend::kUnr, 1, 1},
                      BackendCase{"unr_2x1", CommBackend::kUnr, 2, 1}),
    [](const ::testing::TestParamInfo<BackendCase>& i) { return i.param.label; });

INSTANTIATE_TEST_SUITE_P(
    Backends, TransposeP,
    ::testing::Values(BackendCase{"mpi_2x2", CommBackend::kMpi, 2, 2},
                      BackendCase{"unr_2x2", CommBackend::kUnr, 2, 2},
                      BackendCase{"mpi_4x1", CommBackend::kMpi, 4, 1},
                      BackendCase{"unr_4x1", CommBackend::kUnr, 4, 1},
                      BackendCase{"mpi_1x2", CommBackend::kMpi, 1, 2},
                      BackendCase{"unr_1x1", CommBackend::kUnr, 1, 1}),
    [](const ::testing::TestParamInfo<BackendCase>& i) { return i.param.label; });

class PoissonP : public ::testing::TestWithParam<BackendCase> {};

TEST_P(PoissonP, ManufacturedSolution) {
  // p = cos(2pi x/Lx) * cos(4pi y/Ly) * cos(pi z/Lz) satisfies the Neumann
  // walls; feed the DISCRETE Laplacian of p as rhs and expect p back to
  // round-off (up to the pinned constant for the mean mode, which this p
  // does not contain).
  const auto c = GetParam();
  const int p = c.pr * c.pc;
  World w(world_for(p));
  std::optional<unrlib::Unr> unr;
  if (c.backend == CommBackend::kUnr) unr.emplace(w);
  double max_err = 0;
  w.run([&](Rank& r) {
    Decomp d = decomp_for(16, 16, 16, c.pr, c.pc);
    d.self = r.id();
    d.validate();
    const double lx = 2 * std::numbers::pi, ly = 2 * std::numbers::pi, lz = 2.0;
    const double dx = lx / static_cast<double>(d.nx);
    const double dy = ly / static_cast<double>(d.ny);
    const double dz = lz / static_cast<double>(d.nz);

    auto exact = [&](std::size_t ig, std::size_t jg, std::size_t kg) {
      const double x = (static_cast<double>(ig) + 0.5) * dx;
      const double y = (static_cast<double>(jg) + 0.5) * dy;
      const double z = (static_cast<double>(kg) + 0.5) * dz;
      return std::cos(2 * std::numbers::pi * x / lx) *
             std::cos(4 * std::numbers::pi * y / ly) *
             std::cos(std::numbers::pi * z / lz);
    };
    // Discrete Laplacian with Neumann ghosts in z, periodic x/y.
    auto lap = [&](std::size_t ig, std::size_t jg, std::size_t kg) {
      auto pv = [&](std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
        const auto n = static_cast<std::ptrdiff_t>(d.nx);
        const auto m = static_cast<std::ptrdiff_t>(d.ny);
        const auto q = static_cast<std::ptrdiff_t>(d.nz);
        if (k < 0) k = 0;
        if (k >= q) k = q - 1;  // Neumann mirror
        return exact(static_cast<std::size_t>(((i % n) + n) % n),
                     static_cast<std::size_t>(((j % m) + m) % m),
                     static_cast<std::size_t>(k));
      };
      const auto i = static_cast<std::ptrdiff_t>(ig);
      const auto j = static_cast<std::ptrdiff_t>(jg);
      const auto k = static_cast<std::ptrdiff_t>(kg);
      return (pv(i + 1, j, k) - 2 * pv(i, j, k) + pv(i - 1, j, k)) / (dx * dx) +
             (pv(i, j + 1, k) - 2 * pv(i, j, k) + pv(i, j - 1, k)) / (dy * dy) +
             (pv(i, j, k + 1) - 2 * pv(i, j, k) + pv(i, j, k - 1)) / (dz * dz);
    };

    PoissonSolver::Config pc2;
    pc2.decomp = d;
    pc2.dx = dx;
    pc2.dy = dy;
    pc2.dz = dz;
    pc2.backend = c.backend;
    pc2.unr = c.backend == CommBackend::kUnr ? &*unr : nullptr;
    PoissonSolver solver(r, pc2);

    std::vector<double> rhs(d.nx * d.nyl() * d.nzl());
    for (std::size_t k = 0; k < d.nzl(); ++k)
      for (std::size_t j = 0; j < d.nyl(); ++j)
        for (std::size_t i = 0; i < d.nx; ++i)
          rhs[i + d.nx * (j + d.nyl() * k)] = lap(i, d.y0() + j, d.z0() + k);
    solver.solve(rhs);
    double err = 0;
    for (std::size_t k = 0; k < d.nzl(); ++k)
      for (std::size_t j = 0; j < d.nyl(); ++j)
        for (std::size_t i = 0; i < d.nx; ++i)
          err = std::max(err, std::fabs(rhs[i + d.nx * (j + d.nyl() * k)] -
                                        exact(i, d.y0() + j, d.z0() + k)));
    max_err = std::max(max_err, err);
  });
  EXPECT_LT(max_err, 1e-9) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PoissonP,
    ::testing::Values(BackendCase{"mpi_1x1", CommBackend::kMpi, 1, 1},
                      BackendCase{"mpi_2x2", CommBackend::kMpi, 2, 2},
                      BackendCase{"unr_2x2", CommBackend::kUnr, 2, 2},
                      BackendCase{"mpi_1x4", CommBackend::kMpi, 1, 4},
                      BackendCase{"unr_4x1", CommBackend::kUnr, 4, 1}),
    [](const ::testing::TestParamInfo<BackendCase>& i) { return i.param.label; });

SolverConfig solver_cfg(std::size_t n, int pr, int pc, CommBackend backend,
                        unrlib::Unr* unr) {
  SolverConfig sc;
  sc.decomp = decomp_for(n, n, n, pr, pc);
  sc.lx = sc.ly = 2 * std::numbers::pi;
  sc.lz = 2 * std::numbers::pi;
  sc.nu = 0.02;
  sc.dt = 2e-3;
  sc.bc = ZBc::kFreeSlip;
  sc.backend = backend;
  sc.unr = unr;
  return sc;
}

TEST(Solver, ProjectionMakesVelocityDivergenceFree) {
  World w(world_for(4));
  double div = 1.0;
  w.run([&](Rank& r) {
    auto sc = solver_cfg(16, 2, 2, CommBackend::kMpi, nullptr);
    Solver s(r, sc);
    // A random-ish, very divergent initial field.
    s.init_velocity(
        [](double x, double y, double z) { return std::sin(x) + 0.3 * std::cos(y * 2) + 0.1 * z; },
        [](double x, double y, double) { return std::cos(x + y); },
        [](double, double y, double z) { return 0.2 * std::sin(z) * std::cos(y); });
    s.step();
    div = s.global_max_divergence();
  });
  EXPECT_LT(div, 1e-10);
}

TEST(Solver, TaylorGreenDecaysAtTheViscousRate) {
  World w(world_for(4));
  double ke0 = 0, ke1 = 0, t_end = 0, nu = 0;
  w.run([&](Rank& r) {
    auto sc = solver_cfg(16, 2, 2, CommBackend::kMpi, nullptr);
    nu = sc.nu;
    Solver s(r, sc);
    s.init_velocity(
        [](double x, double y, double) { return std::cos(x) * std::sin(y); },
        [](double x, double y, double) { return -std::sin(x) * std::cos(y); },
        [](double, double, double) { return 0.0; });
    ke0 = s.global_kinetic_energy();
    s.run(25);
    ke1 = s.global_kinetic_energy();
    t_end = s.time();
  });
  // KE ~ exp(-4 nu t) for the 2-D Taylor-Green vortex.
  const double expected = ke0 * std::exp(-4.0 * nu * t_end);
  EXPECT_NEAR(ke1 / expected, 1.0, 0.02);
}

TEST(Solver, UnrBackendReproducesMpiPhysicsExactly) {
  // The communication backend must not change the numerics at all: after N
  // steps, the fields must agree bit-for-bit (same operations, same order).
  auto run_backend = [&](CommBackend backend) {
    World w(world_for(4));
    std::optional<unrlib::Unr> unr;
    if (backend == CommBackend::kUnr) unr.emplace(w);
    std::vector<double> snapshot;
    double div = 0;
    w.run([&](Rank& r) {
      auto sc = solver_cfg(16, 2, 2, backend, backend == CommBackend::kUnr ? &*unr : nullptr);
      Solver s(r, sc);
      s.init_velocity(
          [](double x, double y, double z) { return std::cos(x) * std::sin(y) * (1 + 0.1 * std::cos(z)); },
          [](double x, double y, double) { return -std::sin(x) * std::cos(y); },
          [](double x, double, double z) { return 0.05 * std::sin(z) * std::cos(x); });
      s.run(5);
      div = s.global_max_divergence();
      if (r.id() == 0) {
        for (std::size_t k = 0; k < s.decomp().nzl(); ++k)
          for (std::size_t j = 0; j < s.decomp().nyl(); ++j)
            for (std::size_t i = 0; i < s.decomp().nx; ++i)
              snapshot.push_back(s.u().at(i, static_cast<std::ptrdiff_t>(j),
                                          static_cast<std::ptrdiff_t>(k)));
      }
    });
    EXPECT_LT(div, 1e-10);
    return snapshot;
  };
  const auto mpi = run_backend(CommBackend::kMpi);
  const auto unr = run_backend(CommBackend::kUnr);
  ASSERT_EQ(mpi.size(), unr.size());
  ASSERT_FALSE(mpi.empty());
  for (std::size_t i = 0; i < mpi.size(); ++i) ASSERT_EQ(mpi[i], unr[i]) << i;
}

TEST(Solver, NoSlipChannelRunsStably) {
  World w(world_for(4));
  double ke_start = 0, ke_end = 0, div = 1;
  w.run([&](Rank& r) {
    SolverConfig sc;
    sc.decomp = decomp_for(16, 16, 16, 2, 2);
    sc.lz = 2.0;
    sc.nu = 0.05;
    sc.dt = 1e-3;
    sc.bc = ZBc::kNoSlip;
    Solver s(r, sc);
    s.init_velocity(
        [](double, double, double z) { return z * (2.0 - z); },  // plug-ish profile
        [](double x, double y, double) { return 0.05 * std::sin(x) * std::cos(y); },
        [](double, double, double) { return 0.0; });
    ke_start = s.global_kinetic_energy();
    s.run(10);
    ke_end = s.global_kinetic_energy();
    div = s.global_max_divergence();
  });
  EXPECT_LT(div, 1e-10);
  EXPECT_GT(ke_end, 0.0);
  EXPECT_LT(ke_end, ke_start);  // no forcing: the flow decays
}

TEST(Solver, TimingsBreakdownAccumulates) {
  World w(world_for(4));
  StepTimings t;
  w.run([&](Rank& r) {
    auto sc = solver_cfg(16, 2, 2, CommBackend::kMpi, nullptr);
    Solver s(r, sc);
    s.init_velocity(
        [](double x, double y, double) { return std::cos(x) * std::sin(y); },
        [](double x, double y, double) { return -std::sin(x) * std::cos(y); },
        [](double, double, double) { return 0.0; });
    s.run(2);
    t = s.reduce_timings();
  });
  EXPECT_GT(t.total, 0u);
  EXPECT_GT(t.velocity, 0u);
  EXPECT_GT(t.ppe, 0u);
  EXPECT_GT(t.halo, 0u);
  EXPECT_GE(t.ppe, t.ppe_fft);
  EXPECT_GE(t.total, t.velocity);
}

}  // namespace
}  // namespace unr::powerllel
