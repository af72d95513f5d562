// The benchmark's workloads. Each one sets up, runs and verifies one
// user-visible job per rep; README.md says why each was chosen.
#include <algorithm>
#include <cmath>
#include <latch>
#include <thread>

#include "check/runner.hpp"
#include "harness.hpp"
#include "powerllel/solver.hpp"
#include "runtime/world.hpp"
#include "scenarios/traffic.hpp"
#include "service.hpp"
#include "svc/server.hpp"
#include "unr/unr.hpp"

namespace perfbench {

namespace {

using unr::KiB;
using unr::MiB;
using unr::runtime::Rank;
using unr::runtime::World;
using unr::unrlib::Blk;
using unr::unrlib::MemHandle;
using unr::unrlib::SigId;
using unr::unrlib::Unr;

std::string fail_msg(const char* what, std::uint64_t got, std::uint64_t want) {
  return std::string(what) + ": got " + std::to_string(got) + ", want " + std::to_string(want);
}

/// A World and its Unr; members destroy in reverse, Unr first.
struct Machine {
  std::unique_ptr<World> world;
  std::unique_ptr<Unr> unr;
};

Machine build_machine(const World::Config& wc, const Unr::Config& uc = {}) {
  Machine m;
  m.world = span("runtime.world", false, [&] { return std::make_unique<World>(wc); });
  m.unr = span("unr.init", false, [&] { return std::make_unique<Unr>(*m.world, uc); });
  return m;
}

/// Time `build()`; what it built is torn down after the clock stops.
template <class F>
double time_setup(F&& build) {
  const Ns t0 = now_ns();
  const auto built = build();
  return seconds_since(t0);
}

// --- ring_allreduce_256n ----------------------------------------------------

/// Scenario-pack chunked ring allreduce through the oracle-checked runner:
/// every host cycle is simulator work (kernel, fibers, fabric, native
/// channel, engine, oracle), none is application arithmetic.
class RingAllreduce final : public Workload {
 public:
  RingAllreduce(std::uint64_t seed, bool quick) {
    p_.seed = seed;
    p_.nodes = quick ? 16 : 256;
    p_.ranks_per_node = 1;
    p_.size = 2048;  // doubles per rank
    p_.rounds = 1;
  }

  double setup() override { return time_setup([&] { return build(); }); }

  RepResult rep(bool want_counts) override {
    RepResult r;
    const auto [spec, invalid] = build();
    if (!invalid.empty()) {
      r.errors.push_back("invalid spec: " + invalid);
      return r;
    }
    unr::check::RunOptions opt;
    std::string metrics;
    if (want_counts) opt.metrics_out = &metrics;
    const Usage u0 = Usage::now();
    const unr::check::RunResult res =
        span("check.run_workload", false, [&] { return unr::check::run_workload(spec, opt); });
    r.run = Usage::now() - u0;
    if (!res.ok) {
      r.errors.push_back("oracle: " + (res.violations.empty() ? std::string("run failed")
                                                              : res.violations.front()));
    }
    r.fp = {res.events, res.end_time, res.digest};
    if (want_counts) add_metrics_json(r.counts, metrics);
    return r;
  }

 private:
  /// The expanded spec and its validation verdict ("" = runnable).
  std::pair<unr::check::WorkloadSpec, std::string> build() const {
    const unr::scenarios::Pattern* pat = unr::scenarios::find_pattern("ai_ring_allreduce");
    unr::check::WorkloadSpec spec = span("scenarios.make", false, [&] { return pat->make(p_); });
    std::string invalid = span("check.validate", false, [&] { return unr::check::validate(spec); });
    return {std::move(spec), std::move(invalid)};
  }

  unr::scenarios::TrafficParams p_;
};

// --- powerllel_* --------------------------------------------------------------

struct PowerllelShape {
  int nodes, pr, pc;
  Grid grid;
  int steps;
};

/// Mini-PowerLLEL on TH-XY with the UNR backend (the Fig. 7 point). The
/// seed shifts the phase of the initial velocity field.
class Powerllel final : public Workload {
 public:
  Powerllel(std::uint64_t seed, PowerllelShape shape)
      : shape_(shape), phase_(0.001 * static_cast<double>(seed % 6283)) {
    wc_.nodes = shape.nodes;
    wc_.ranks_per_node = 2;
    wc_.profile = unr::make_th_xy();
    wc_.deterministic_routing = true;
  }

  std::optional<Grid> solver_grid() const override { return shape_.grid; }

  double setup() override { return time_setup([&] { return build_machine(wc_); }); }

  RepResult rep(bool want_counts) override {
    RepResult r;
    const Machine m = build_machine(wc_);
    World& w = *m.world;
    const int nranks = w.nranks();
    const bool multi = nranks > 1;
    const int threads = std::max(1, (wc_.profile.cores_per_node - 2) / 2);
    std::vector<double> div(static_cast<std::size_t>(nranks), 1.0);
    std::vector<double> ke(static_cast<std::size_t>(nranks), 0.0);
    std::vector<std::uint64_t> fields(static_cast<std::size_t>(nranks), 0);
    const double ph = phase_;
    const Usage u0 = Usage::now();
    span("sim.run", false, [&] {
      w.run([&](Rank& rank) {
        unr::powerllel::SolverConfig sc;
        sc.decomp.nx = shape_.grid.nx;
        sc.decomp.ny = shape_.grid.ny;
        sc.decomp.nz = shape_.grid.nz;
        sc.decomp.pr = shape_.pr;
        sc.decomp.pc = shape_.pc;
        sc.lz = 2.0;
        sc.bc = unr::powerllel::ZBc::kNoSlip;
        sc.backend = unr::powerllel::CommBackend::kUnr;
        sc.unr = m.unr.get();
        sc.threads = threads;
        // The constructor exchanges halo handles with the neighbours.
        auto s = span("powerllel.solver_init", multi, [&] {
          return std::make_unique<unr::powerllel::Solver>(rank, sc);
        });
        span("powerllel.init_velocity", false, [&] {
          s->init_velocity(
              [ph](double x, double, double z) { return std::sin(x + ph) * z * (2 - z); },
              [ph](double x, double y, double) { return 0.1 * std::cos(x + y + ph); },
              [](double, double, double) { return 0.0; });
        });
        for (int i = 0; i < shape_.steps; ++i)
          span("powerllel.step", multi, [&] { s->step(); });
        const auto id = static_cast<std::size_t>(rank.id());
        div[id] = span("powerllel.divergence", multi, [&] { return s->global_max_divergence(); });
        ke[id] = span("powerllel.kinetic_energy", multi, [&] { return s->global_kinetic_energy(); });
        std::uint64_t h = kFnvBasis;
        for (unr::powerllel::Field* f : {&s->u(), &s->v(), &s->w()}) h = fnv_doubles(h, f->raw(), f->raw_size());
        fields[id] = h;
      });
    });
    r.run = Usage::now() - u0;

    for (int i = 0; i < nranks; ++i) {
      const auto id = static_cast<std::size_t>(i);
      if (!(div[id] < 1e-10)) {
        r.errors.push_back("rank " + std::to_string(i) + " divergence " + std::to_string(div[id]));
        break;
      }
      if (!(ke[id] > 0) || !std::isfinite(ke[id]) || ke[id] != ke[0]) {
        r.errors.push_back("rank " + std::to_string(i) + " kinetic energy " + std::to_string(ke[id]));
        break;
      }
    }
    // The digest covers every rank's final velocity field, halos included.
    r.fp = {w.kernel().event_count(), w.elapsed(),
            fnv(kFnvBasis, fields.data(), fields.size() * sizeof fields[0])};
    if (want_counts) {
      add_registry(r.counts, w.kernel().telemetry().registry());
      const double per_rank = r.counts["solver.step_ns.count"] / nranks;
      if (per_rank != shape_.steps)
        r.errors.push_back(fail_msg("solver steps per rank", static_cast<std::uint64_t>(per_rank),
                                    static_cast<std::uint64_t>(shape_.steps)));
      r.counts["powerllel.steps"] = shape_.steps;
    }
    return r;
  }

 private:
  PowerllelShape shape_;
  double phase_;
  World::Config wc_;
};

// --- p2p_faults_2n ----------------------------------------------------------

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed, int rank) {
  std::vector<std::byte> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::byte>((i * 131u + seed * 7u + static_cast<unsigned>(rank) * 17u) & 0xFF);
  return b;
}

/// Two nodes, two actors: a notified-PUT ping-pong over a size sweep, then
/// a PUT stream into a 4-entry CQ under injected drops.
class P2pFaults final : public Workload {
 public:
  P2pFaults(std::uint64_t seed, bool quick)
      : seed_(seed), iters_(quick ? 20 : 2000), stream_puts_(quick ? 500 : 10000) {}

  double setup() override {
    double s = 0;
    for (std::size_t i = 0; i < std::size(kSizes); ++i) s += time_setup([&] { return pingpong_machine(); });
    for (const double rate : kDropRates) s += time_setup([&] { return stream_machine(rate); });
    return s;
  }

  RepResult rep(bool want_counts) override {
    RepResult r;
    r.fp.digest = kFnvBasis;
    for (const std::size_t size : kSizes) pingpong(size, want_counts, r);
    for (const double rate : kDropRates) stream(rate, want_counts, r);
    return r;
  }

 private:
  static constexpr std::size_t kSizes[] = {8, 256, 4 * KiB, 64 * KiB, 1 * MiB};
  static constexpr double kDropRates[] = {0.0, 0.01, 0.05};
  static constexpr std::size_t kStreamBytes = 4 * KiB;
  /// Payload one ping-pong size may move: 2000 round trips of 1 MiB would
  /// spend two thirds of the rep in memcpy, crowding out the per-message
  /// path and tying the rep to the host's memory bandwidth.
  static constexpr std::size_t kPingpongBytes = 256 * MiB;

  World::Config world_config() const {
    World::Config wc;
    wc.nodes = 2;
    wc.ranks_per_node = 1;
    wc.profile = unr::make_th_xy();
    wc.deterministic_routing = true;
    wc.seed = seed_;
    return wc;
  }

  Machine pingpong_machine() const { return build_machine(world_config()); }

  Machine stream_machine(double drop_rate) const {
    World::Config wc = world_config();
    wc.profile.cq_depth = 4;
    wc.faults.drop_rate = drop_rate;
    Unr::Config uc;
    uc.engine.poll_interval = 10 * unr::kUs;  // lazy drain: the CQ does overflow
    return build_machine(wc, uc);
  }

  void finish(World& w, bool want_counts, const Usage& u0, RepResult& r) {
    r.run += Usage::now() - u0;
    r.fp.events += w.kernel().event_count();
    r.fp.virtual_ns += w.elapsed();
    if (want_counts) add_registry(r.counts, w.kernel().telemetry().registry());
  }

  void pingpong(std::size_t size, bool want_counts, RepResult& r) {
    const Machine m = pingpong_machine();
    Unr& unr = *m.unr;
    const int iters = static_cast<int>(std::min<std::size_t>(iters_, kPingpongBytes / size));
    std::vector<std::vector<std::byte>> buf = {pattern(size, seed_, 0), pattern(size, seed_, 1)};
    const Usage u0 = Usage::now();
    span("sim.run", false, [&] {
      m.world->run([&](Rank& rank) {
        const int me = rank.id();
        std::vector<std::byte>& mine = buf[static_cast<std::size_t>(me)];
        const MemHandle mh = span("unr.mem_reg", false, [&] { return unr.mem_reg(me, mine.data(), size); });
        const SigId rsig = span("unr.sig_init", false, [&] { return unr.sig_init(me, 1); });
        const Blk my_blk = span("unr.blk_init", false, [&] { return unr.blk_init(me, mh, 0, size, rsig); });
        const int peer = 1 - me;
        Blk peer_blk;
        span("runtime.sendrecv", true, [&] {
          rank.sendrecv(peer, 1, &my_blk, sizeof my_blk, peer, 1, &peer_blk, sizeof peer_blk);
        });
        const Blk send_blk = span("unr.blk_init", false, [&] { return unr.blk_init(me, mh, 0, size); });
        for (int i = 0; i < iters; ++i) {
          if (me == 0) span("unr.put", false, [&] { unr.put(me, send_blk, peer_blk); });
          span("unr.sig_wait", true, [&] { unr.sig_wait(me, rsig); });
          span("unr.sig_reset", false, [&] { unr.sig_reset(me, rsig); });
          if (me == 1) span("unr.put", false, [&] { unr.put(me, send_blk, peer_blk); });
        }
      });
    });
    finish(*m.world, want_counts, u0, r);
    // Rank 0's payload overwrites rank 1's, then travels back unchanged.
    const std::vector<std::byte> want = pattern(size, seed_, 0);
    if (buf[0] != want || buf[1] != want)
      r.errors.push_back("ping-pong payload corrupted at " + std::to_string(size) + " B");
    r.fp.digest = fnv(r.fp.digest, buf[1].data(), size);
  }

  void stream(double drop_rate, bool want_counts, RepResult& r) {
    const Machine m = stream_machine(drop_rate);
    Unr& unr = *m.unr;
    const std::size_t size = kStreamBytes;
    std::vector<std::vector<std::byte>> buf = {pattern(size, seed_, 0), pattern(size, seed_, 1)};
    const int puts = stream_puts_;
    const Usage u0 = Usage::now();
    span("sim.run", false, [&] {
      m.world->run([&](Rank& rank) {
        const int me = rank.id();
        std::vector<std::byte>& mine = buf[static_cast<std::size_t>(me)];
        const MemHandle mh = span("unr.mem_reg", false, [&] { return unr.mem_reg(me, mine.data(), size); });
        if (me == 1) {
          const SigId rsig = span("unr.sig_init", false, [&] { return unr.sig_init(1, puts); });
          const Blk rblk = span("unr.blk_init", false, [&] { return unr.blk_init(1, mh, 0, size, rsig); });
          span("runtime.send", true, [&] { rank.send(0, 1, &rblk, sizeof rblk); });
          span("unr.sig_wait", true, [&] { unr.sig_wait(1, rsig); });
        } else {
          Blk rblk;
          span("runtime.recv", true, [&] { rank.recv(1, 1, &rblk, sizeof rblk); });
          const Blk sblk = span("unr.blk_init", false, [&] { return unr.blk_init(0, mh, 0, size); });
          for (int i = 0; i < puts; ++i) span("unr.put", false, [&] { unr.put(0, sblk, rblk); });
        }
      });
    });
    const std::uint64_t drops =
        m.world->kernel().telemetry().registry().counter_value("fabric.resilience.injected_drops");
    finish(*m.world, want_counts, u0, r);
    if (buf[1] != buf[0])
      r.errors.push_back("stream payload corrupted at drop rate " + std::to_string(drop_rate));
    if ((drop_rate > 0) != (drops > 0))
      r.errors.push_back(fail_msg("injected drops", drops, drop_rate > 0 ? 1 : 0));
    r.fp.digest = fnv(r.fp.digest, buf[1].data(), size);
  }

  std::uint64_t seed_;
  int iters_;
  int stream_puts_;
};

// --- service_mixed ------------------------------------------------------------

constexpr int kSessions = 3;

/// A running server and one connected, greeted client per session. Clients
/// destroy first, so the server's sessions see their sockets close.
struct Service {
  std::unique_ptr<unr::svc::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::string error;
};

Service start_service() {
  Service s;
  s.server = std::make_unique<unr::svc::Server>();
  if (!span("svc.server_start", false, [&] { return s.server->start(&s.error); })) return s;
  for (int i = 0; i < kSessions; ++i) {
    s.clients.push_back(span("svc.connect", false,
                             [&] { return std::make_unique<Client>(s.server->port()); }));
    if (!s.clients.back()->connected() ||
        !span("svc.hello", true, [&] { return s.clients.back()->hello(); })) {
      s.error = "session " + std::to_string(i) + " failed to connect";
      return s;
    }
  }
  return s;
}

/// An in-process svc::Server on loopback with kSessions closed-loop client
/// sessions. Each session owns a pool of distinct specs and submits every
/// spec `uses` times in a seeded order: its first submission is a miss
/// (simulate, render, insert), the later ones are cache hits. The pools are
/// disjoint, so the hit/miss split is exact.
class ServiceMixed final : public Workload {
 public:
  ServiceMixed(std::uint64_t seed, int pool, int uses) {
    for (int s = 0; s < kSessions; ++s) {
      std::vector<std::string> frames;
      for (int i = 0; i < pool; ++i) frames.push_back(submit_frame(pool_spec(seed, s, i)));
      frames_.push_back(std::move(frames));
      std::vector<int> order;
      for (int i = 0; i < pool; ++i) order.insert(order.end(), static_cast<std::size_t>(uses), i);
      std::uint64_t h = fnv_value(kFnvBasis, seed * 31 + static_cast<std::uint64_t>(s));
      for (std::size_t i = order.size(); i > 1; --i) {
        h = fnv_value(h, i);
        std::swap(order[i - 1], order[h % i]);
      }
      order_.push_back(std::move(order));
    }
  }

  double setup() override { return time_setup(start_service); }

  RepResult rep(bool want_counts) override {
    RepResult r;
    Service svc = start_service();
    if (!svc.error.empty()) {
      r.errors.push_back(svc.error);
      return r;
    }

    // Released together; the run lasts from release to the last join.
    std::vector<std::vector<std::string>> status(kSessions), result(kSessions);
    std::latch go(1);
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        go.wait();
        span("svc.session", false, [&] {
          for (const int i : order_[s]) {
            std::string st, res;
            if (!span("svc.submit", true, [&] {
                  return svc.clients[s]->call(frames_[s][static_cast<std::size_t>(i)], res, &st);
                }))
              return;
            status[s].push_back(std::move(st));
            result[s].push_back(std::move(res));
          }
        });
      });
    }
    const Usage u0 = Usage::now();
    go.count_down();
    span("svc.clients", true, [&] {
      for (std::thread& t : threads) t.join();
    });
    r.run = Usage::now() - u0;
    const unr::svc::Server::Stats st = svc.server->stats();
    svc.clients.clear();
    svc.server.reset();

    r.fp.digest = kFnvBasis;
    r.attempted = 0;
    std::uint64_t misses = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::vector<int>& order = order_[s];
      r.attempted += order.size();
      if (result[s].size() != order.size()) {
        r.errors.push_back("session " + std::to_string(s) + " lost its connection");
        continue;
      }
      // The body each spec's miss produced, by pool index.
      std::vector<std::string> first(frames_[s].size());
      for (std::size_t k = 0; k < order.size(); ++k) {
        const std::string body = body_of(result[s][k]);
        std::string& want = first[static_cast<std::size_t>(order[k])];
        const bool miss = want.empty();
        if (miss) {
          want = body;
          ++misses;
        }
        const bool ok = status[s][k].find(miss ? "\"cache\":\"miss\"" : "\"cache\":\"hit\"") !=
                            std::string::npos &&
                        body == want && body.find("\"ok\":true") != std::string::npos &&
                        body.find("\"violations\":[]") != std::string::npos;
        if (!ok) r.errors.push_back("session " + std::to_string(s) + " submission " + std::to_string(k));
        r.fp.events += u64_field(body, "events");
        r.fp.virtual_ns += u64_field(body, "virtual_ns");
        r.fp.digest = fnv(r.fp.digest, body.data(), body.size());
        if (want_counts) add_metrics_json(r.counts, body, "metrics");
      }
    }
    const std::uint64_t pool = frames_.front().size() * kSessions;
    if (misses != pool) r.errors.push_back(fail_msg("first submissions", misses, pool));
    if (st.cache_hits != r.attempted - pool)
      r.errors.push_back(fail_msg("cache hits", st.cache_hits, r.attempted - pool));
    if (st.cache_misses != pool) r.errors.push_back(fail_msg("cache misses", st.cache_misses, pool));
    if (want_counts) {
      r.counts["svc.runs"] = static_cast<double>(st.runs);
      r.counts["svc.cache_hits"] = static_cast<double>(st.cache_hits);
      r.counts["svc.cache_misses"] = static_cast<double>(st.cache_misses);
    }
    return r;
  }

 private:
  std::vector<std::vector<std::string>> frames_;  ///< [session][pool index]
  std::vector<std::vector<int>> order_;           ///< [session] submission order
};

std::unique_ptr<Workload> make_ring(std::uint64_t seed, bool quick) {
  return std::make_unique<RingAllreduce>(seed, quick);
}
std::unique_ptr<Workload> make_powerllel_16n(std::uint64_t seed, bool quick) {
  if (quick) return std::make_unique<Powerllel>(seed, PowerllelShape{2, 2, 2, {16, 16, 16}, 1});
  return std::make_unique<Powerllel>(seed, PowerllelShape{16, 8, 4, {64, 64, 64}, 14});
}
std::unique_ptr<Workload> make_p2p(std::uint64_t seed, bool quick) {
  return std::make_unique<P2pFaults>(seed, quick);
}
std::unique_ptr<Workload> make_service_mixed(std::uint64_t seed, bool quick) {
  return std::make_unique<ServiceMixed>(seed, 5, quick ? 2 : 4);
}

constexpr WorkloadInfo kWorkloads[] = {
    {"ring_allreduce_256n", &make_ring},
    {"powerllel_16n", &make_powerllel_16n},
    {"p2p_faults_2n", &make_p2p},
    {"service_mixed", &make_service_mixed},
};

}  // namespace

std::span<const WorkloadInfo> workloads() { return kWorkloads; }

}  // namespace perfbench
