// Determinism guarantees of the simulation: identical seeds must produce
// bit-identical virtual timelines across the whole stack (fabric, runtime,
// UNR, mini-PowerLLEL), and the seed must actually matter when adaptive
// routing jitter is on.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "check/runner.hpp"
#include "check/workload.hpp"
#include "powerllel/solver.hpp"
#include "runtime/world.hpp"
#include "scenarios/traffic.hpp"
#include "unr/unr.hpp"

namespace unr {
namespace {

using powerllel::CommBackend;
using powerllel::Solver;
using powerllel::SolverConfig;
using powerllel::ZBc;
using runtime::Rank;
using runtime::World;
using unrlib::Blk;
using unrlib::MemHandle;
using unrlib::SigId;
using unrlib::Unr;

Time pingpong_elapsed(std::uint64_t seed, bool jitter) {
  World::Config wc;
  wc.profile = make_hpc_roce();  // largest jitter of the four platforms
  wc.seed = seed;
  wc.deterministic_routing = !jitter;
  World w(wc);
  Unr unr(w);
  w.run([&](Rank& r) {
    std::vector<std::byte> buf(4096);
    const MemHandle mh = unr.mem_reg(r.id(), buf.data(), buf.size());
    const SigId rsig = unr.sig_init(r.id(), 1);
    const Blk my_blk = unr.blk_init(r.id(), mh, 0, buf.size(), rsig);
    const int peer = 1 - r.id();
    Blk peer_blk;
    r.sendrecv(peer, 1, &my_blk, sizeof my_blk, peer, 1, &peer_blk, sizeof peer_blk);
    const Blk send_blk = unr.blk_init(r.id(), mh, 0, buf.size());
    for (int i = 0; i < 25; ++i) {
      if (r.id() == 0) {
        unr.put(0, send_blk, peer_blk);
        unr.sig_wait(0, rsig);
        unr.sig_reset(0, rsig);
      } else {
        unr.sig_wait(1, rsig);
        unr.sig_reset(1, rsig);
        unr.put(1, send_blk, peer_blk);
      }
    }
  });
  return w.elapsed();
}

TEST(Determinism, SameSeedSameTimeline) {
  EXPECT_EQ(pingpong_elapsed(7, true), pingpong_elapsed(7, true));
  EXPECT_EQ(pingpong_elapsed(123, false), pingpong_elapsed(123, false));
}

TEST(Determinism, SeedMattersWithAdaptiveRouting) {
  // With jitter on, different seeds must explore different timelines.
  EXPECT_NE(pingpong_elapsed(1, true), pingpong_elapsed(2, true));
  // With deterministic routing, the seed is irrelevant.
  EXPECT_EQ(pingpong_elapsed(1, false), pingpong_elapsed(2, false));
}

struct SolverRun {
  Time elapsed;
  double ke;
  double div;
};

SolverRun run_solver(std::uint64_t seed) {
  World::Config wc;
  wc.nodes = 4;
  wc.profile = make_th_xy();
  wc.seed = seed;
  World w(wc);
  Unr unr(w);
  SolverRun out{};
  w.run([&](Rank& r) {
    SolverConfig sc;
    sc.decomp.nx = 16;
    sc.decomp.ny = 16;
    sc.decomp.nz = 8;
    sc.decomp.pr = 2;
    sc.decomp.pc = 2;
    sc.backend = CommBackend::kUnr;
    sc.unr = &unr;
    Solver s(r, sc);
    s.init_velocity(
        [](double x, double y, double z) { return std::sin(x) * z * (2 - z) * std::cos(y); },
        [](double x, double y, double) { return 0.2 * std::cos(x + y); },
        [](double, double, double) { return 0.0; });
    s.run(3);
    out.ke = s.global_kinetic_energy();
    out.div = s.global_max_divergence();
  });
  out.elapsed = w.elapsed();
  return out;
}

TEST(Determinism, FullApplicationIsReproducible) {
  const SolverRun a = run_solver(11);
  const SolverRun b = run_solver(11);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.ke, b.ke);
  EXPECT_EQ(a.div, b.div);
}

struct KernelPin {
  std::uint64_t events;
  Time end;
};

/// Mixed PUT/AM/fault workload: notified PUTs around a ring, two-sided eager
/// traffic (AMs with ordered companions) the other way, adaptive-routing
/// jitter on, injected drops, and a NIC dying mid-run. Exercises every event
/// source in the fabric at once.
KernelPin run_mixed_workload(std::uint64_t seed, int shards = 1) {
  World::Config wc;
  wc.nodes = 4;
  wc.ranks_per_node = 2;
  wc.profile = make_th_xy();
  wc.profile.nics_per_node = 2;
  wc.seed = seed;
  // The golden pins below are defined by the single-shard kernel: pin the
  // shard count explicitly so a UNR_SHARDS environment override cannot move
  // them. (Fault draws come from per-shard injector streams, so a K>1 run
  // of this workload is reproducible per (seed, K) but pins different
  // values — see ShardedMixedWorkloadReproducible.)
  wc.shards = shards;
  wc.faults.drop_rate = 0.05;
  wc.faults.nic_faults.push_back({.node = 1, .index = 1, .at = 30 * kUs});
  World w(wc);
  Unr unr(w);
  const int iters = 20;
  w.run([&](Rank& r) {
    const int n = r.nranks();
    const int right = (r.id() + 1) % n;
    const int left = (r.id() + n - 1) % n;
    std::vector<std::byte> buf(4 * KiB);
    const MemHandle mh = unr.mem_reg(r.id(), buf.data(), buf.size());
    const SigId rsig = unr.sig_init(r.id(), iters);
    const Blk my_blk = unr.blk_init(r.id(), mh, 0, buf.size(), rsig);
    Blk right_blk;
    r.sendrecv(right, 7, &my_blk, sizeof my_blk, left, 7, &right_blk, sizeof right_blk);
    const Blk send_blk = unr.blk_init(r.id(), mh, 0, buf.size());
    std::uint64_t token = static_cast<std::uint64_t>(r.id());
    for (int i = 0; i < iters; ++i) {
      unr.put(r.id(), send_blk, right_blk);
      std::uint64_t got = 0;
      runtime::RequestPtr rr = r.irecv(right, 9, &got, sizeof got);
      r.send(left, 9, &token, sizeof token);
      r.wait(rr);
      token = got + 1;
    }
    unr.sig_wait(r.id(), rsig);
    r.barrier();
  });
  return {w.kernel().event_count(), w.elapsed()};
}

// Golden values pinned BEFORE the simulator hot-path refactor (timer wheel,
// pooled events/flights, flat tables): the refactor claims to be
// semantics-preserving, so the exact event count and end time of this
// workload must never move. If a legitimate *model* change (new event
// sources, cost-model changes) shifts them, re-pin deliberately in the same
// PR that changes the model and say so in its description.
inline constexpr std::uint64_t kMixedGoldenEvents = 1205;
inline constexpr Time kMixedGoldenEnd = 97650;

TEST(Determinism, MixedFaultWorkloadPinned) {
  const KernelPin a = run_mixed_workload(42);
  const KernelPin b = run_mixed_workload(42);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.events, kMixedGoldenEvents);
  EXPECT_EQ(a.end, kMixedGoldenEnd);
}

// ---------------------------------------------------------------------------
// Golden corpus: one generated fuzz workload per interface personality
// (Table II), run on the native channel, with its event count, virtual end
// time, and application-visible digest pinned. These are the same workloads
// the nightly fuzz sweep draws from (src/check/), so any timing-model or
// notification-path change that moves the simulation shows up here
// immediately — in tier 1, not at 3am. Re-pin deliberately (the failure
// output prints the new values) only in a PR that intentionally changes the
// model, and say so in its description.
struct GoldenPin {
  Interface iface;
  std::uint64_t seed;  // distinct per personality so each workload differs
  std::uint64_t events;
  Time end;
  std::uint64_t digest;
};

inline constexpr GoldenPin kGoldenCorpus[] = {
    {Interface::kGlex, 2026, 140, 2015238, 15776137241779103725ull},
    {Interface::kVerbs, 2027, 986, 2164072, 9072712369951878418ull},
    {Interface::kUtofu, 2028, 152, 2045572, 10922542496294661094ull},
    {Interface::kUgni, 2029, 644, 2059332, 5753888831682073803ull},
    {Interface::kPami, 2030, 119, 2019302, 1302273569689558915ull},
    {Interface::kPortals, 2031, 171, 2083644, 18003767250503377947ull},
};

TEST(Determinism, GoldenCorpusPerPersonality) {
  for (const GoldenPin& pin : kGoldenCorpus) {
    check::GenConfig gc;
    gc.iface = pin.iface;
    const check::WorkloadSpec spec = check::generate(pin.seed, gc);
    check::RunOptions opt;
    opt.channel = unrlib::ChannelKind::kNative;
    opt.shards = 1;  // pins are defined by the single-shard kernel
    const check::RunResult r = check::run_workload(spec, opt);
    ASSERT_TRUE(r.ok) << check::iface_token(pin.iface) << ": "
                      << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_EQ(r.events, pin.events) << check::iface_token(pin.iface);
    EXPECT_EQ(r.end_time, pin.end) << check::iface_token(pin.iface);
    EXPECT_EQ(r.digest, pin.digest)
        << check::iface_token(pin.iface) << " digest 0x" << std::hex << r.digest;
  }
}

// ---------------------------------------------------------------------------
// Scenario-pack traffic pins: every pattern in scenarios::patterns(), built
// at a fixed small topology (the same parameters the committed fuzz corpus
// uses) and run single-shard on the native channel. Like the golden corpus
// above, these catch timing-model or notification-path drift in tier 1;
// re-pin deliberately (the failure output has the new values) only in a PR
// that intentionally changes the model.
struct TrafficPin {
  const char* pattern;
  std::uint64_t events;
  Time end;
  std::uint64_t digest;
};

inline constexpr TrafficPin kTrafficPins[] = {
    {"ai_ring_allreduce", 1248, 2055528, 8989574799990096433ull},
    {"ai_tree_allreduce", 400, 2033784, 12067191026127495349ull},
    {"ai_pipeline", 928, 2053785, 8873455053576745039ull},
    {"ai_moe_alltoall", 719, 2026970, 2027165123038252694ull},
    {"sync_faa_tree", 404, 2025404, 12045923744769436573ull},
    {"sync_barrier_tree", 400, 2032334, 10622242693508522142ull},
    {"sync_work_steal", 826, 2031137, 11674555619523324971ull},
};

scenarios::TrafficParams traffic_pin_params() {
  scenarios::TrafficParams p;
  p.seed = 4242;
  p.nodes = 3;
  p.ranks_per_node = 2;
  p.rounds = 2;
  return p;
}

TEST(Determinism, TrafficPatternsPinned) {
  ASSERT_EQ(std::size(kTrafficPins), scenarios::patterns().size())
      << "pin table out of sync with scenarios::patterns()";
  for (const TrafficPin& pin : kTrafficPins) {
    const scenarios::Pattern* pat = scenarios::find_pattern(pin.pattern);
    ASSERT_NE(pat, nullptr) << pin.pattern;
    const check::WorkloadSpec spec = pat->make(traffic_pin_params());
    check::RunOptions opt;
    opt.channel = unrlib::ChannelKind::kNative;
    opt.shards = 1;  // pins are defined by the single-shard kernel
    const check::RunResult r = check::run_workload(spec, opt);
    ASSERT_TRUE(r.ok) << pin.pattern << ": "
                      << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_EQ(r.events, pin.events) << pin.pattern;
    EXPECT_EQ(r.end_time, pin.end) << pin.pattern;
    EXPECT_EQ(r.digest, pin.digest)
        << pin.pattern << " digest " << r.digest << "ull";
  }
}

// Regression pin: a 256-node, 2-round ring allreduce (perfbench's ring
// shape at its pin seed, one round longer). Its second round matches
// receives against unexpected messages while eager arrivals keep landing,
// which once erased a stale deque iterator in Comm::irecv.
TEST(Determinism, RingAllreduce256NodesTwoRoundsPinned) {
  scenarios::TrafficParams p;
  p.seed = 1;
  p.nodes = 256;
  p.ranks_per_node = 1;
  p.size = 2048;
  p.rounds = 2;
  const check::WorkloadSpec spec = scenarios::ai_ring_allreduce(p);
  check::RunOptions opt;
  opt.shards = 1;  // pins are defined by the single-shard kernel
  const check::RunResult r = check::run_workload(spec, opt);
  ASSERT_TRUE(r.ok) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_EQ(r.events, 2365176u);
  EXPECT_EQ(r.end_time, 4206913);
  EXPECT_EQ(r.digest, 0xbebd5d83e02715e8ull) << "digest 0x" << std::hex << r.digest;
}

// Digest invariance across shard counts for every traffic pattern, at a
// 4-node topology so K=4 is real sharding, not a clamp.
TEST(Determinism, TrafficShardCountPreservesDigest) {
  for (const scenarios::Pattern& pat : scenarios::patterns()) {
    scenarios::TrafficParams p = traffic_pin_params();
    p.nodes = 4;
    const check::WorkloadSpec spec = pat.make(p);
    ASSERT_EQ(check::validate(spec), "") << pat.name;
    std::optional<std::uint64_t> digest;
    for (const int k : {1, 2, 4}) {
      check::RunOptions opt;
      opt.channel = unrlib::ChannelKind::kNative;
      opt.shards = k;
      const check::RunResult r = check::run_workload(spec, opt);
      ASSERT_TRUE(r.ok) << pat.name << " shards=" << k << ": "
                        << (r.violations.empty() ? "" : r.violations.front());
      if (!digest) digest = r.digest;
      else EXPECT_EQ(r.digest, *digest) << pat.name << " shards=" << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded kernel (conservative-lookahead parallel simulation). Two contracts:
//   * fixed (seed, K) is fully reproducible — run twice, get the same event
//     count, end time, and digest, even with faults armed;
//   * the digest (application-visible bytes only, never timing) is invariant
//     across shard counts whenever the fault pattern is — always, for
//     fault-free specs, because per-shard RNG streams then never draw.

TEST(Determinism, ShardedMixedWorkloadReproducible) {
  const KernelPin a = run_mixed_workload(42, /*shards=*/2);
  const KernelPin b = run_mixed_workload(42, /*shards=*/2);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end, b.end);
}

TEST(Determinism, ShardCountPreservesDigest) {
  // A generated fault-free spec, widened to 4 nodes so K=4 is not clamped
  // (ops only ever reference ranks of the original, smaller machine, so
  // adding nodes keeps the spec valid — validate() confirms).
  check::GenConfig gc;
  gc.iface = Interface::kVerbs;
  check::WorkloadSpec spec = check::generate(3001, gc);
  spec.nodes = std::max(spec.nodes, 4);
  ASSERT_EQ(check::validate(spec), "");

  std::optional<check::RunResult> base;
  for (const int k : {1, 2, 4}) {
    check::RunOptions opt;
    opt.channel = unrlib::ChannelKind::kNative;
    opt.shards = k;
    const check::RunResult r = check::run_workload(spec, opt);
    ASSERT_TRUE(r.ok) << "shards=" << k << ": "
                      << (r.violations.empty() ? "" : r.violations.front());
    if (!base) {
      base = r;
    } else {
      EXPECT_EQ(r.digest, base->digest) << "shards=" << k;
    }
  }
}

TEST(Determinism, PhysicsIndependentOfJitterSeed) {
  // Message timing varies with the seed, but the NUMERICS may not: the
  // solver must compute the same flow regardless of arrival order.
  const SolverRun a = run_solver(100);
  const SolverRun b = run_solver(200);
  EXPECT_EQ(a.ke, b.ke);
  EXPECT_EQ(a.div, b.div);
  EXPECT_NE(a.elapsed, b.elapsed);  // ...while the timelines differ
}

}  // namespace
}  // namespace unr
