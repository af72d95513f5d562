// Layer probes: each is a timed loop over one public call of one module,
// so a per-layer number can be compared across commits without tracing
// inside the library. Every probe reports the median of a few repetitions.
#include <algorithm>
#include <cmath>
#include <complex>
#include <random>

#include "check/runner.hpp"
#include "harness.hpp"
#include "powerllel/fft.hpp"
#include "powerllel/solver.hpp"
#include "powerllel/tridiag.hpp"
#include "runtime/world.hpp"
#include "scenarios/traffic.hpp"
#include "service.hpp"
#include "sim/kernel.hpp"
#include "svc/run.hpp"
#include "svc/server.hpp"
#include "unr/unr.hpp"

namespace perfbench {

namespace {

using unr::MiB;
using unr::runtime::Rank;
using unr::runtime::World;
using unr::unrlib::Blk;
using unr::unrlib::MemHandle;
using unr::unrlib::SigId;
using unr::unrlib::Unr;

/// The mean of the samples within half a percent of the `p`th percentile,
/// so a percentile of nanosecond-granular samples is not one clock tick.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return static_cast<std::size_t>(std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1));
  };
  const std::size_t lo = at(p - 0.5), hi = at(p + 0.5);
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

/// Median over `reps` calls of `f`, each returning one measurement.
template <class F>
double median_of(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  return median(v);
}

double since_ns(Ns t0) { return static_cast<double>(now_ns() - t0); }

World::Config two_nodes() {
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = unr::make_th_xy();
  wc.deterministic_routing = true;
  return wc;
}

// --- sim ----------------------------------------------------------------------

/// Post `n` trivial events from one actor, then let the kernel dispatch them.
double post_dispatch_ns(int n) {
  unr::sim::Kernel k;
  long fired = 0;
  const Ns t0 = now_ns();
  k.run(1, [&](int) {
    for (int i = 0; i < n; ++i) k.post_at(k.now() + 1 + (i & 1023), [&fired] { ++fired; });
  });
  return since_ns(t0) / n;
}

/// Two actors hand control back and forth with block_current / wake.
double fiber_switch_ns(int n) {
  unr::sim::Kernel k;
  int turn = 0;
  const Ns t0 = now_ns();
  k.run(2, [&](int id) {
    for (int i = 0; i < n; ++i) {
      while (turn != id) k.block_current();
      turn = 1 - id;
      k.wake(1 - id);
    }
  });
  return since_ns(t0) / (2.0 * n);
}

/// Kernel::run of `n` actors that return at once.
double actor_spawn_us(int n) {
  unr::sim::Kernel k;
  const Ns t0 = now_ns();
  k.run(n, [](int) {});
  return 1e-3 * since_ns(t0) / n;
}

// --- fabric -------------------------------------------------------------------

/// `n` Fabric::put calls of `size` bytes from rank 0 into rank 1, with the
/// delivery callback; returns host ns per put including all its events.
double fabric_put_ns(std::size_t size, int n) {
  World w(two_nodes());
  std::vector<std::byte> src(size, std::byte{1}), dst(size);
  const unr::fabric::MrId mr = w.fabric().memory().register_region(1, dst.data(), size);
  const Ns t0 = now_ns();
  w.run([&](Rank& rank) {
    if (rank.id() != 0) return;
    int delivered = 0;
    bool waiting = false;
    for (int i = 0; i < n; ++i) {
      unr::fabric::Fabric::PutArgs a;
      a.src_rank = 0;
      a.src = src.data();
      a.dst = {1, mr, 0};
      a.size = size;
      a.on_delivered = [&] {
        if (++delivered == n && waiting) rank.kernel().wake(0);
      };
      rank.fabric().put(std::move(a));
    }
    waiting = true;
    while (delivered < n) rank.kernel().block_current();
  });
  return since_ns(t0) / n;
}

// --- unr ----------------------------------------------------------------------

/// `n` 8-byte notified puts from rank 0 into one signal at rank 1. Returns
/// host ns per put end to end; `issue_ns` gets each Unr::put call's own time.
double unr_put_ns(int n, std::vector<double>& issue_ns) {
  World w(two_nodes());
  Unr unr(w);
  std::vector<std::byte> buf0(8), buf1(8);
  issue_ns.clear();
  issue_ns.reserve(static_cast<std::size_t>(n));
  const Ns t0 = now_ns();
  w.run([&](Rank& rank) {
    if (rank.id() == 1) {
      const MemHandle mh = unr.mem_reg(1, buf1.data(), 8);
      const SigId sig = unr.sig_init(1, n);
      const Blk blk = unr.blk_init(1, mh, 0, 8, sig);
      rank.send(0, 1, &blk, sizeof blk);
      unr.sig_wait(1, sig);
      return;
    }
    Blk remote;
    rank.recv(1, 1, &remote, sizeof remote);
    const MemHandle mh = unr.mem_reg(0, buf0.data(), 8);
    const Blk local = unr.blk_init(0, mh, 0, 8);
    for (int i = 0; i < n; ++i) {
      const Ns c0 = now_ns();
      unr.put(0, local, remote);
      issue_ns.push_back(since_ns(c0));
    }
  });
  return since_ns(t0) / n;
}

/// 8-byte notified-PUT ping-pong; host microseconds per round trip.
double unr_pingpong_us(int n) {
  World w(two_nodes());
  Unr unr(w);
  std::vector<std::vector<std::byte>> buf(2, std::vector<std::byte>(8));
  const Ns t0 = now_ns();
  w.run([&](Rank& rank) {
    const int me = rank.id();
    const MemHandle mh = unr.mem_reg(me, buf[static_cast<std::size_t>(me)].data(), 8);
    const SigId sig = unr.sig_init(me, 1);
    const Blk mine = unr.blk_init(me, mh, 0, 8, sig);
    Blk peer;
    rank.sendrecv(1 - me, 1, &mine, sizeof mine, 1 - me, 1, &peer, sizeof peer);
    const Blk send = unr.blk_init(me, mh, 0, 8);
    for (int i = 0; i < n; ++i) {
      if (me == 0) unr.put(0, send, peer);
      unr.sig_wait(me, sig);
      unr.sig_reset(me, sig);
      if (me == 1) unr.put(1, send, peer);
    }
  });
  return 1e-3 * since_ns(t0) / n;
}

// --- runtime ------------------------------------------------------------------

/// 8-byte two-sided send/recv ping-pong; host microseconds per round trip.
double sendrecv_us(int n) {
  World w(two_nodes());
  const Ns t0 = now_ns();
  w.run([&](Rank& rank) {
    double v = 1.0;
    for (int i = 0; i < n; ++i) {
      if (rank.id() == 0) {
        rank.send(1, 7, &v, sizeof v);
        rank.recv(1, 7, &v, sizeof v);
      } else {
        rank.recv(0, 7, &v, sizeof v);
        rank.send(0, 7, &v, sizeof v);
      }
    }
  });
  return 1e-3 * since_ns(t0) / n;
}

// --- powerllel ----------------------------------------------------------------

/// Solver::step on one rank over the whole grid: the workload's arithmetic
/// with no communication. Milliseconds per step (median of `steps`).
double step_1rank_ms(const Grid& g, int steps) {
  World::Config wc;
  wc.nodes = 1;
  wc.ranks_per_node = 1;
  wc.profile = unr::make_th_xy();
  wc.deterministic_routing = true;
  World w(wc);
  Unr unr(w);
  std::vector<double> ms;
  w.run([&](Rank& rank) {
    unr::powerllel::SolverConfig sc;
    sc.decomp.nx = g.nx;
    sc.decomp.ny = g.ny;
    sc.decomp.nz = g.nz;
    sc.lz = 2.0;
    sc.bc = unr::powerllel::ZBc::kNoSlip;
    sc.backend = unr::powerllel::CommBackend::kUnr;
    sc.unr = &unr;
    unr::powerllel::Solver s(rank, sc);
    s.init_velocity([](double x, double, double z) { return std::sin(x) * z * (2 - z); },
                    [](double x, double y, double) { return 0.1 * std::cos(x + y); },
                    [](double, double, double) { return 0.0; });
    for (int i = 0; i < steps; ++i) {
      const Ns t0 = now_ns();
      s.step();
      ms.push_back(1e-6 * since_ns(t0));
    }
  });
  return median(ms);
}

double fft_ns_per_point(std::size_t n, int transforms) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> u(-1, 1);
  std::vector<unr::powerllel::Complex> data(n);
  for (auto& c : data) c = {u(rng), u(rng)};
  const Ns t0 = now_ns();
  for (int i = 0; i < transforms / 2; ++i) {
    unr::powerllel::fft_inplace(data.data(), n, false);
    unr::powerllel::fft_inplace(data.data(), n, true);
  }
  const double t = since_ns(t0);
  if (!std::isfinite(data[0].real())) return -1;
  return t / (static_cast<double>(transforms) * static_cast<double>(n));
}

double thomas_ns_per_row(std::size_t n, int solves) {
  const std::vector<double> b(n, 4.0);
  std::vector<unr::powerllel::Complex> rhs(n), d(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = {1.0 + static_cast<double>(i % 7), 0.5};
  const Ns t0 = now_ns();
  for (int i = 0; i < solves; ++i) {
    d = rhs;
    unr::powerllel::thomas_inplace(1.0, b, 1.0, d);
  }
  const double t = since_ns(t0);
  if (!std::isfinite(d[0].real())) return -1;
  return t / (static_cast<double>(solves) * static_cast<double>(n));
}

// --- scenarios / check ----------------------------------------------------------

unr::scenarios::TrafficParams ring_params() {
  unr::scenarios::TrafficParams p;
  p.nodes = 256;
  p.ranks_per_node = 1;
  p.size = 2048;
  p.rounds = 1;
  return p;
}

// --- svc ------------------------------------------------------------------------

double parse_us(int n) {
  const std::string text = unr::svc::to_text(pool_spec(1, 0, 1));
  std::uint64_t sink = 0;
  const Ns t0 = now_ns();
  for (int i = 0; i < n; ++i) {
    unr::svc::RunSpec s;
    if (unr::svc::from_text(text, s, nullptr)) sink += unr::svc::digest(s);
  }
  const double t = since_ns(t0);
  return sink == 0 ? -1 : 1e-3 * t / n;
}

/// Median host microseconds of `n` hello round trips and of `n` cache-hit
/// submissions on one loopback session.
std::pair<double, double> server_rtt_us(int n) {
  unr::svc::Server server;
  if (!server.start(nullptr)) return {-1, -1};
  Client c(server.port());
  std::vector<double> hello, hit;
  std::string reply, status;
  const std::string frame = submit_frame(pool_spec(1, 0, 0));
  if (!c.connected() || !c.call(frame, reply, &status)) return {-1, -1};
  for (int i = 0; i < n; ++i) {
    Ns t0 = now_ns();
    if (!c.hello()) return {-1, -1};
    hello.push_back(1e-3 * since_ns(t0));
    t0 = now_ns();
    if (!c.call(frame, reply, &status)) return {-1, -1};
    hit.push_back(1e-3 * since_ns(t0));
  }
  return {median(hello), median(hit)};
}

}  // namespace

std::vector<Metric> run_probes(const Grid& grid, bool quick) {
  const int k = quick ? 10 : 1;  // quick mode divides every loop count
  std::vector<Metric> m;
  m.push_back({"sim.post_dispatch_ns", median_of(3, [&] { return post_dispatch_ns(300000 / k); }), "ns"});
  m.push_back({"sim.fiber_switch_ns", median_of(3, [&] { return fiber_switch_ns(100000 / k); }), "ns"});
  m.push_back({"sim.actor_spawn_us", median_of(5, [&] { return actor_spawn_us(2048); }), "us"});

  m.push_back({"fabric.put_cycle_ns", median_of(3, [&] { return fabric_put_ns(8, 100000 / k); }), "ns"});
  const double copy_ns = median_of(3, [&] { return fabric_put_ns(1 * MiB, 64 / k); });
  m.push_back({"fabric.copy_gbps", static_cast<double>(MiB) / copy_ns, "GB/s"});

  std::vector<double> issue;
  m.push_back({"unr.put_cycle_ns", median_of(3, [&] { return unr_put_ns(100000 / k, issue); }), "ns"});
  m.push_back({"unr.put_issue_ns_p50", percentile(issue, 50), "ns"});
  m.push_back({"unr.put_issue_ns_p99", percentile(issue, 99), "ns"});
  m.push_back({"unr.pingpong_rtt_host_us", median_of(3, [&] { return unr_pingpong_us(5000 / k); }), "us"});

  m.push_back({"runtime.sendrecv_rtt_host_us", median_of(3, [&] { return sendrecv_us(5000 / k); }), "us"});

  m.push_back({"powerllel.step_1rank_ms", step_1rank_ms(grid, 3), "ms"});
  m.push_back({"powerllel.fft_ns_per_point", median_of(3, [&] { return fft_ns_per_point(128, 20000 / k); }), "ns"});
  m.push_back({"powerllel.thomas_ns_per_row", median_of(3, [&] { return thomas_ns_per_row(64, 20000 / k); }), "ns"});

  // The ring workload's set-up calls, 1000 at a time: one takes well under
  // a microsecond.
  const unr::scenarios::TrafficParams rp = ring_params();
  const unr::scenarios::Pattern* ring = unr::scenarios::find_pattern("ai_ring_allreduce");
  unr::check::WorkloadSpec spec;
  m.push_back({"scenarios.expand_us", median_of(5, [&] {
                 const Ns t0 = now_ns();
                 for (int i = 0; i < 1000; ++i) spec = ring->make(rp);
                 return 1e-6 * since_ns(t0);
               }), "us"});
  m.push_back({"check.validate_us", median_of(5, [&] {
                 bool ok = true;
                 const Ns t0 = now_ns();
                 for (int i = 0; i < 1000; ++i) ok = ok && unr::check::validate(spec).empty();
                 return ok ? 1e-6 * since_ns(t0) : -1.0;
               }), "us"});

  m.push_back({"svc.parse_us", median_of(3, [&] { return parse_us(20000 / k); }), "us"});
  const auto [hello_us, hit_us] = server_rtt_us(quick ? 3 : 10);
  m.push_back({"svc.hello_rtt_us", hello_us, "us"});
  m.push_back({"svc.submit_hit_us", hit_us, "us"});
  std::vector<double> run_ms;
  for (int i = 0; i < 10; ++i) {
    const Ns t0 = now_ns();
    const unr::svc::RunOutcome out = unr::svc::run_runspec(pool_spec(1, 0, i));
    run_ms.push_back(out.ok ? 1e-6 * since_ns(t0) : -1.0);
  }
  m.push_back({"svc.run_runspec_ms", median(run_ms), "ms"});
  return m;
}

}  // namespace perfbench
