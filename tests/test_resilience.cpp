// Tests of the fault-injection and resilience layer: seeded drop/delay
// injection with retransmission, capped exponential NACK backoff, CQ-pressure
// bursts, NIC failure with multi-NIC failover (fabric-internal and through
// UNR's splitter), and determinism of faulty runs.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/log.hpp"
#include "common/profile.hpp"
#include "fabric/fabric.hpp"
#include "runtime/world.hpp"
#include "sim/cond.hpp"
#include "unr/unr.hpp"

namespace unr::fabric {
namespace {

using sim::Cond;
using sim::Kernel;

Fabric::Config two_node_cfg(unr::SystemProfile prof = unr::make_hpc_ib()) {
  Fabric::Config c;
  c.nodes = 2;
  c.ranks_per_node = 1;
  c.profile = std::move(prof);
  c.deterministic_routing = true;
  return c;
}

TEST(FaultInjector, RejectsBadRates) {
  EXPECT_THROW(FaultInjector({.drop_rate = 1.0}, 1), std::logic_error);
  EXPECT_THROW(FaultInjector({.drop_rate = -0.1}, 1), std::logic_error);
  EXPECT_THROW(FaultInjector({.delay_rate = 1.5}, 1), std::logic_error);
  EXPECT_NO_THROW(FaultInjector({.drop_rate = 0.99, .delay_rate = 1.0}, 1));
}

TEST(FaultInjector, DisabledClassesNeverDraw) {
  // With everything off the injector must not consume randomness — that is
  // the determinism contract that keeps faults-off runs bit-identical.
  FaultInjector inj({}, 42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.drop_delivery());
    EXPECT_EQ(inj.extra_delay(), 0);
  }
  EXPECT_EQ(inj.drops_injected(), 0u);
  EXPECT_EQ(inj.delays_injected(), 0u);
}

TEST(Backoff, FirstRetryKeepsBaseDelayThenGrowsToCap) {
  auto cfg = two_node_cfg();
  cfg.retry.jitter_frac = 0.0;  // exact values
  Kernel k;
  Fabric f(k, cfg);
  const Time base = cfg.profile.cq_retry_delay;
  EXPECT_EQ(f.nack_backoff_delay(1), base);
  EXPECT_EQ(f.nack_backoff_delay(2), 2 * base);
  EXPECT_EQ(f.nack_backoff_delay(3), 4 * base);
  EXPECT_EQ(f.nack_backoff_delay(6), 32 * base);   // hits the default cap (32x)
  EXPECT_EQ(f.nack_backoff_delay(20), 32 * base);  // stays capped
}

TEST(Backoff, JitterIsBoundedAndDeterministic) {
  auto cfg = two_node_cfg();
  cfg.retry.jitter_frac = 0.25;
  const Time base = cfg.profile.cq_retry_delay;
  std::vector<Time> first;
  for (int run = 0; run < 2; ++run) {
    Kernel k;
    Fabric f(k, cfg);
    std::vector<Time> delays;
    for (int a = 2; a < 8; ++a) delays.push_back(f.nack_backoff_delay(a));
    for (std::size_t i = 0; i < delays.size(); ++i) {
      const Time raw = std::min<Time>(base << (i + 1), 32 * base);
      EXPECT_GE(delays[i], raw);
      EXPECT_LE(delays[i], raw + raw / 4);
    }
    if (run == 0)
      first = delays;
    else
      EXPECT_EQ(first, delays);  // same seed, same jitter
  }
}

TEST(Backoff, PreviewIsConstAndPerFlightStreamsDesynchronize) {
  auto cfg = two_node_cfg();
  cfg.retry.jitter_frac = 0.25;
  Kernel k;
  // Const: previewing delays is a pure function of the configuration and can
  // never shift the jitter sequence the simulation itself sees.
  const Fabric f(k, cfg);
  EXPECT_EQ(f.nack_backoff_delay(4, 17), f.nack_backoff_delay(4, 17));
  // Different flights retrying the same attempt number fan out — this is
  // what breaks up lockstep retry storms.
  bool differs = false;
  for (std::uint64_t s = 1; s <= 8 && !differs; ++s)
    differs = f.nack_backoff_delay(4, s) != f.nack_backoff_delay(4, s + 8);
  EXPECT_TRUE(differs);
}

TEST(Backoff, CustomPolicyRespected) {
  auto cfg = two_node_cfg();
  cfg.retry.multiplier = 1.0;  // fixed-delay policy (the pre-backoff behavior)
  cfg.retry.jitter_frac = 0.0;
  Kernel k;
  Fabric f(k, cfg);
  for (int a : {1, 2, 5, 50})
    EXPECT_EQ(f.nack_backoff_delay(a), cfg.profile.cq_retry_delay);
}

TEST(Resilience, InjectedDropsAreRetransmitted) {
  auto cfg = two_node_cfg();
  cfg.seed = 7;
  cfg.faults.drop_rate = 0.25;
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> src(64), dst(50 * 64);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i + 3);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  int delivered = 0;
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(10 * kMs);
      return;
    }
    for (int i = 0; i < 50; ++i) {
      Fabric::PutArgs a;
      a.src_rank = 0;
      a.src = src.data();
      a.dst = {1, mr, static_cast<std::size_t>(i) * 64};
      a.size = 64;
      a.on_delivered = [&] { delivered++; };
      f.put(std::move(a));
    }
    Kernel::current()->sleep_for(10 * kMs);
  });
  EXPECT_EQ(delivered, 50);  // every drop was recovered
  EXPECT_GT(f.stats().resilience.injected_drops, 0u);
  EXPECT_EQ(f.stats().resilience.retransmits, f.stats().resilience.injected_drops);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(std::memcmp(dst.data() + i * 64, src.data(), 64), 0) << "put " << i;
}

TEST(Resilience, InjectedDelayPostponesArrival) {
  auto cfg = two_node_cfg();
  cfg.faults.delay_rate = 1.0;  // every delivery held up
  cfg.faults.delay_max = 50 * kUs;
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  Time arrival = 0;
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(1 * kMs);
      return;
    }
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = &one;
    a.dst = {1, mr, 0};
    a.size = 1;
    a.on_delivered = [&] { arrival = k.now(); };
    f.put(std::move(a));
    Kernel::current()->sleep_for(1 * kMs);
  });
  const auto& p = f.profile();
  const Time undelayed = p.nic_overhead + serialize_ns(1, p.nic_gbps) + p.wire_latency;
  EXPECT_GT(arrival, undelayed);
  EXPECT_LE(arrival, undelayed + cfg.faults.delay_max);
  EXPECT_EQ(f.stats().resilience.injected_delays, 1u);
}

TEST(Resilience, OrderedCompanionNeverOvertakesDataUnderDropsAndDelays) {
  // The companion pattern at fabric level: an ordered data PUT immediately
  // followed by an ordered AM on the same (src,dst) channel. Injected drops
  // and delays must stall the FIFO, never reorder it — when the AM fires,
  // the data it announces must already be visible.
  auto cfg = two_node_cfg();
  cfg.seed = 21;
  cfg.faults.drop_rate = 0.3;
  cfg.faults.delay_rate = 0.5;
  cfg.faults.delay_max = 30 * kUs;
  Kernel k;
  Fabric f(k, cfg);
  constexpr int kIters = 100;
  constexpr std::size_t kMsg = 8;
  std::vector<std::byte> dst(kIters * kMsg, std::byte{0});
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  int notified = 0;
  const int chan = f.open_am_channel();
  f.set_am_handler(1, chan, [&](int, const std::vector<std::byte>& p) {
    int i = -1;
    ASSERT_EQ(p.size(), sizeof i);
    std::memcpy(&i, p.data(), sizeof i);
    for (std::size_t b = 0; b < kMsg; ++b)
      ASSERT_EQ(dst[static_cast<std::size_t>(i) * kMsg + b],
                static_cast<std::byte>(i & 0xFF))
          << "companion overtook its data at iteration " << i;
    notified++;
  });
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(100 * kMs);
      return;
    }
    std::vector<std::byte> buf(kMsg);
    for (int i = 0; i < kIters; ++i) {
      std::fill(buf.begin(), buf.end(), static_cast<std::byte>(i & 0xFF));
      Fabric::PutArgs a;
      a.src_rank = 0;
      a.src = buf.data();
      a.dst = {1, mr, static_cast<std::size_t>(i) * kMsg};
      a.size = kMsg;
      a.ordered = true;
      f.put(std::move(a));
      std::vector<std::byte> payload(sizeof i);
      std::memcpy(payload.data(), &i, sizeof i);
      f.send_am(0, 1, chan, std::move(payload), -1, /*ordered=*/true);
    }
    Kernel::current()->sleep_for(100 * kMs);
  });
  EXPECT_EQ(notified, kIters);
  EXPECT_GT(f.stats().resilience.injected_drops, 0u);
  EXPECT_GT(f.stats().resilience.injected_delays, 0u);
}

TEST(Resilience, OrderedCompanionSurvivesMidFlightNicDeath) {
  // A NIC dies while an ordered data+companion pair is still in its send
  // engine: both messages are lost with the NIC and retransmitted in FIFO
  // order (data first), so the notification still cannot overtake the data.
  auto cfg = two_node_cfg(unr::make_th_xy());  // multi-NIC node
  cfg.faults.nic_faults.push_back({.node = 0, .index = 0, .at = 5 * kUs});
  Kernel k;
  Fabric f(k, cfg);
  const std::size_t msg = 1 * MiB;  // long serialization: dies mid-flight
  std::vector<std::byte> src(msg), dst(msg, std::byte{0});
  for (std::size_t i = 0; i < msg; ++i) src[i] = static_cast<std::byte>(i % 251);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  bool notified = false;
  const int chan = f.open_am_channel();
  f.set_am_handler(1, chan, [&](int, const std::vector<std::byte>&) {
    EXPECT_EQ(std::memcmp(src.data(), dst.data(), msg), 0)
        << "companion overtook the data lost to the NIC failure";
    notified = true;
  });
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(10 * kMs);
      return;
    }
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = src.data();
    a.dst = {1, mr, 0};
    a.size = msg;
    a.nic_index = 0;
    a.ordered = true;
    f.put(std::move(a));
    f.send_am(0, 1, chan, std::vector<std::byte>(8), /*nic_index=*/0, /*ordered=*/true);
    Kernel::current()->sleep_for(10 * kMs);
  });
  EXPECT_TRUE(notified);
  EXPECT_GE(f.stats().resilience.lost_to_nic, 2u);  // the data AND its companion
  EXPECT_GE(f.stats().resilience.retransmits, 2u);
}

TEST(Resilience, OrderedStreamStaysFifoAcrossNicDeathFailover) {
  // Regression (found by the fuzz harness, seed 60): a big ordered message
  // is in NIC 0's send engine when the NIC dies; a second ordered message to
  // the same peer is sent after the death and reroutes to NIC 1. The lost
  // message's recovery re-enters the launch path and reserves a *later*
  // FIFO slot, so without receiver-side sequencing the younger message
  // overtakes it — reordering the (src,dst) ordered stream that two-sided
  // eager traffic and level-0 companions rely on.
  auto cfg = two_node_cfg(unr::make_th_xy());  // multi-NIC node
  cfg.faults.nic_faults.push_back({.node = 0, .index = 0, .at = 5 * kUs});
  Kernel k;
  Fabric f(k, cfg);
  std::vector<int> order;
  const int chan = f.open_am_channel();
  f.set_am_handler(1, chan, [&](int, const std::vector<std::byte>& p) {
    order.push_back(static_cast<int>(std::to_integer<unsigned char>(p[0])));
  });
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(10 * kMs);
      return;
    }
    // Long serialization: still in tx at the 5us death, lost with the NIC.
    f.send_am(0, 1, chan, std::vector<std::byte>(1 * MiB, std::byte{1}),
              /*nic_index=*/0, /*ordered=*/true);
    Kernel::current()->sleep_for(10 * kUs);  // NIC 0 is dead by now
    f.send_am(0, 1, chan, std::vector<std::byte>(8, std::byte{2}),
              /*nic_index=*/0, /*ordered=*/true);
    Kernel::current()->sleep_for(10 * kMs);
  });
  EXPECT_GE(f.stats().resilience.lost_to_nic, 1u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Resilience, AmRetransmissionConsumesNicBandwidth) {
  // A dropped AM re-enters the launch path: every retransmission reserves
  // the source NIC's send engine again (one tx per traversal, not one per
  // AM) and pays the wire latency through the normal arrival model.
  auto cfg = two_node_cfg();
  cfg.seed = 5;
  cfg.faults.drop_rate = 0.25;
  Kernel k;
  Fabric f(k, cfg);
  int delivered = 0;
  const int chan = f.open_am_channel();
  f.set_am_handler(1, chan, [&](int, const std::vector<std::byte>&) { delivered++; });
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(10 * kMs);
      return;
    }
    for (int i = 0; i < 200; ++i)
      f.send_am(0, 1, chan, std::vector<std::byte>(16), -1, /*ordered=*/false);
    Kernel::current()->sleep_for(10 * kMs);
  });
  EXPECT_EQ(delivered, 200);
  const auto& rs = f.stats().resilience;
  EXPECT_GT(rs.injected_drops, 0u);
  EXPECT_EQ(f.nic(0, 0).tx_messages(), f.stats().ams + rs.retransmits);
}

TEST(Resilience, CqBurstForcesBackoffThenDrains) {
  auto cfg = two_node_cfg();
  cfg.profile.cq_depth = 4;
  // Occupy the whole remote CQ on (1, 0) from t=0 for 100 us.
  cfg.faults.cq_bursts.push_back({.node = 1, .index = 0, .at = 0, .entries = 4,
                                  .duration = 100 * kUs});
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  Time arrival = 0;
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(1 * kMs);
      return;
    }
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = &one;
    a.dst = {1, mr, 0};
    a.size = 1;
    a.want_remote_cqe = true;
    a.on_delivered = [&] { arrival = k.now(); };
    f.put(std::move(a));
    Kernel::current()->sleep_for(1 * kMs);
  });
  EXPECT_GE(arrival, 100 * kUs);  // could not land before the burst lifted
  EXPECT_GT(f.stats().cq_retries, 0u);
  EXPECT_GT(f.stats().resilience.backoff_ns, 0u);
  EXPECT_EQ(f.nic(1, 0).remote_cq().size(), 1u);  // the CQE did land
}

TEST(Resilience, NicFailureLosesInFlightAndFabricRetransmits) {
  // 2 NICs per node; a large PUT is still serializing on NIC 0 when the NIC
  // dies. No on_lost handler is set, so the fabric itself re-sends on the
  // surviving NIC after the detection timeout.
  auto cfg = two_node_cfg(unr::make_th_xy());
  cfg.faults.nic_faults.push_back({.node = 0, .index = 0, .at = 5 * kUs});
  Kernel k;
  Fabric f(k, cfg);
  const std::size_t msg = 1 * MiB;  // ~40 us of serialization: dies mid-flight
  std::vector<std::byte> src(msg), dst(msg);
  for (std::size_t i = 0; i < msg; ++i) src[i] = static_cast<std::byte>(i % 251);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  int delivered = 0;
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(10 * kMs);
      return;
    }
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = src.data();
    a.dst = {1, mr, 0};
    a.size = msg;
    a.nic_index = 0;
    a.on_delivered = [&] { delivered++; };
    f.put(std::move(a));
    Kernel::current()->sleep_for(10 * kMs);
  });
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), msg), 0);
  const auto& rs = f.stats().resilience;
  EXPECT_EQ(rs.nic_failures, 1u);
  EXPECT_EQ(rs.lost_to_nic, 1u);
  EXPECT_GE(rs.failovers, 1u);
  EXPECT_GE(rs.retransmits, 1u);
  EXPECT_TRUE(f.nic(0, 0).failed());
  EXPECT_FALSE(f.nic(0, 1).failed());
  EXPECT_EQ(f.healthy_nic_count(0), 1);
}

TEST(Resilience, PostTimeFailoverAvoidsDeadNic) {
  auto cfg = two_node_cfg(unr::make_th_xy());
  cfg.faults.nic_faults.push_back({.node = 0, .index = 0, .at = 1});
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  int delivered = 0;
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(1 * kMs);
      return;
    }
    Kernel::current()->sleep_for(10);  // the NIC is already dead by now
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = &one;
    a.dst = {1, mr, 0};
    a.size = 1;
    a.nic_index = 0;  // explicitly requests the dead NIC
    a.on_delivered = [&] { delivered++; };
    f.put(std::move(a));
    Kernel::current()->sleep_for(1 * kMs);
  });
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(f.stats().resilience.failovers, 1u);
  EXPECT_EQ(f.nic(0, 0).tx_messages(), 0u);  // nothing ever used the dead NIC
  EXPECT_GT(f.nic(0, 1).tx_messages(), 0u);
}

TEST(Resilience, AllNicsDeadFailsLoudly) {
  auto cfg = two_node_cfg();  // 1 NIC per node
  cfg.faults.nic_faults.push_back({.node = 0, .index = 0, .at = 1});
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  EXPECT_THROW(k.run(2,
                     [&](int id) {
                       if (id != 0) return;
                       Kernel::current()->sleep_for(10);
                       Fabric::PutArgs a;
                       a.src_rank = 0;
                       a.src = &one;
                       a.dst = {1, mr, 0};
                       a.size = 1;
                       f.put(std::move(a));
                     }),
               std::logic_error);
}

TEST(Resilience, FaultyRunsAreDeterministic) {
  // Same seed + same fault schedule => identical delivery times and counters.
  auto run_once = [](std::vector<Time>* times, Fabric::Stats* stats) {
    auto cfg = two_node_cfg();
    cfg.seed = 99;
    cfg.deterministic_routing = false;  // jitter on: the hardest case
    cfg.profile.jitter = 300;
    cfg.faults.drop_rate = 0.2;
    cfg.faults.delay_rate = 0.3;
    cfg.faults.delay_max = 10 * kUs;
    Kernel k;
    Fabric f(k, cfg);
    std::vector<std::byte> dst(32 * 8);
    const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
    std::byte one{1};
    k.run(2, [&](int id) {
      if (id != 0) {
        Kernel::current()->sleep_for(10 * kMs);
        return;
      }
      for (int i = 0; i < 32; ++i) {
        Fabric::PutArgs a;
        a.src_rank = 0;
        a.src = &one;
        a.dst = {1, mr, static_cast<std::size_t>(i) * 8};
        a.size = 1;
        a.on_delivered = [&, i] { times->push_back(k.now()); };
        f.put(std::move(a));
      }
      Kernel::current()->sleep_for(10 * kMs);
    });
    *stats = f.stats();
  };
  std::vector<Time> t1, t2;
  Fabric::Stats s1, s2;
  run_once(&t1, &s1);
  run_once(&t2, &s2);
  ASSERT_EQ(t1.size(), 32u);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(s1.resilience.injected_drops, s2.resilience.injected_drops);
  EXPECT_EQ(s1.resilience.injected_delays, s2.resilience.injected_delays);
  EXPECT_GT(s1.resilience.injected_drops, 0u);
}

}  // namespace
}  // namespace unr::fabric

namespace unr::unrlib {
namespace {

using runtime::Rank;
using runtime::World;

// ---- The acceptance scenario from the issue: a K=4 split transfer stream
// survives a mid-run NIC failure by degrading to the surviving NICs, and the
// resilience counters record at least one failover.
TEST(Resilience, SplitPutStreamSurvivesNicFailureViaFailover) {
  unr::SystemProfile prof = unr::make_th_xy();  // GLEX: 128 custom bits
  prof.nics_per_node = 4;
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = prof;
  wc.deterministic_routing = true;
  // Kill NIC 1 on the sending node while the put stream is in full flight.
  wc.faults.nic_faults.push_back({.node = 0, .index = 1, .at = 100 * kUs});
  World w(wc);
  Unr unr(w);

  constexpr int kIters = 20;
  constexpr std::size_t kMsg = 1 * MiB;  // splits 4 ways (>= split_threshold)
  std::vector<std::byte> src(kMsg), dst(kIters * kMsg);
  for (std::size_t i = 0; i < kMsg; ++i) src[i] = static_cast<std::byte>(i % 249);

  bool received = false;
  w.run([&](Rank& r) {
    if (r.id() == 1) {
      const MemHandle mh = unr.mem_reg(1, dst.data(), dst.size());
      const SigId rsig = unr.sig_init(1, kIters);
      const Blk rblk = unr.blk_init(1, mh, 0, dst.size(), rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
      received = true;
    } else {
      const MemHandle mh = unr.mem_reg(0, src.data(), src.size());
      Blk whole;
      r.recv(1, 1, &whole, sizeof whole);
      const SigId ssig = unr.sig_init(0, kIters);
      const Blk sblk = unr.blk_init(0, mh, 0, kMsg, ssig);
      for (int i = 0; i < kIters; ++i) {
        // Carve the i-th destination slice out of the receiver's block.
        Blk slice = whole;
        slice.offset = whole.offset + static_cast<std::size_t>(i) * kMsg;
        slice.size = kMsg;
        PutOptions opts;
        opts.local_sig = ssig;
        unr.put(0, sblk, slice, opts);
      }
      unr.sig_wait(0, ssig);
    }
  });

  EXPECT_TRUE(received);
  for (int i = 0; i < kIters; ++i)
    EXPECT_EQ(std::memcmp(dst.data() + static_cast<std::size_t>(i) * kMsg, src.data(),
                          kMsg),
              0)
        << "iteration " << i;
  const auto& rs = w.fabric().stats().resilience;
  EXPECT_EQ(rs.nic_failures, 1u);
  EXPECT_GE(rs.failovers, 1u);          // the acceptance criterion
  EXPECT_GE(unr.stats().failovers, 1u); // fragments re-issued by the splitter
  EXPECT_GT(unr.stats().fragments, 0u);
}

TEST(Resilience, SplitDegradesToSurvivingNicCount) {
  // With a NIC already dead, a fresh large put splits (K-1) ways.
  unr::SystemProfile prof = unr::make_th_xy();
  prof.nics_per_node = 4;
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = prof;
  wc.deterministic_routing = true;
  wc.faults.nic_faults.push_back({.node = 0, .index = 2, .at = 1});
  World w(wc);
  Unr unr(w);

  constexpr std::size_t kMsg = 1 * MiB;
  std::vector<std::byte> src(kMsg), dst(kMsg);
  w.run([&](Rank& r) {
    if (r.id() == 1) {
      const MemHandle mh = unr.mem_reg(1, dst.data(), dst.size());
      const SigId rsig = unr.sig_init(1, 1);
      const Blk rblk = unr.blk_init(1, mh, 0, kMsg, rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
    } else {
      const MemHandle mh = unr.mem_reg(0, src.data(), src.size());
      Blk rblk;
      r.recv(1, 1, &rblk, sizeof rblk);
      r.kernel().sleep_for(10);  // ensure the fault event has fired
      unr.put(0, unr.blk_init(0, mh, 0, kMsg), rblk);
    }
  });
  // 3 fragments (k=3), not 4: the dead NIC earns no fragment.
  EXPECT_EQ(unr.stats().fragments, 2u);
  EXPECT_EQ(w.fabric().nic(0, 2).tx_messages(), 0u);
}

TEST(Resilience, Level0CompanionChannelDeliversUnderDrops) {
  // Level 0 sends every notification as an ordered companion message behind
  // its data. With drop injection on, the fabric's FIFO-preserving
  // retransmission must keep each companion behind its (possibly dropped
  // and retransmitted) data: when the final signal fires, every slice must
  // already hold its payload.
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = unr::make_hpc_ib();
  wc.deterministic_routing = true;
  wc.seed = 13;
  wc.faults.drop_rate = 0.2;
  World w(wc);
  Unr::Config ucfg;
  ucfg.channel = ChannelKind::kLevel0;
  Unr unr(w, ucfg);

  constexpr int kIters = 30;
  constexpr std::size_t kMsg = 4 * KiB;
  std::vector<std::byte> src(kMsg), dst(kIters * kMsg, std::byte{0});
  w.run([&](Rank& r) {
    if (r.id() == 1) {
      const MemHandle mh = unr.mem_reg(1, dst.data(), dst.size());
      const SigId rsig = unr.sig_init(1, kIters);
      const Blk rblk = unr.blk_init(1, mh, 0, dst.size(), rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
    } else {
      const MemHandle mh = unr.mem_reg(0, src.data(), src.size());
      Blk whole;
      r.recv(1, 1, &whole, sizeof whole);
      const Blk sblk = unr.blk_init(0, mh, 0, kMsg);
      for (int i = 0; i < kIters; ++i) {
        for (std::size_t b = 0; b < kMsg; ++b)
          src[b] = static_cast<std::byte>((i + static_cast<int>(b)) % 253);
        Blk slice = whole;
        slice.offset = whole.offset + static_cast<std::size_t>(i) * kMsg;
        slice.size = kMsg;
        unr.put(0, sblk, slice);
      }
    }
  });
  // The signal fired: every slice's data must have been visible no later
  // than its companion notification.
  for (int i = 0; i < kIters; ++i)
    for (std::size_t b = 0; b < kMsg; ++b)
      ASSERT_EQ(dst[static_cast<std::size_t>(i) * kMsg + b],
                static_cast<std::byte>((i + static_cast<int>(b)) % 253))
          << "iteration " << i << " byte " << b;
  EXPECT_GT(unr.stats().companions, 0u);
  EXPECT_GT(w.fabric().stats().resilience.injected_drops, 0u);
}

TEST(Resilience, NativeCompanionFallbackDeliversUnderDrops) {
  // The native channel's escape hatch (channel_native.cpp): when a split's
  // MMAS addend does not fit the interface's custom bits (uTofu: 8 remote
  // bits), the fragment degrades to an ordered PUT plus an ordered
  // companion — exactly the pair that relies on fabric-internal,
  // FIFO-preserving retransmission under drop injection.
  unr::SystemProfile prof = unr::make_hpc_ib();
  prof.iface = unr::Interface::kUtofu;
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = prof;
  wc.deterministic_routing = true;
  wc.seed = 29;
  wc.faults.drop_rate = 0.15;
  World w(wc);
  Unr unr(w);  // auto => native channel

  constexpr int kIters = 20;
  constexpr std::size_t kMsg = 16 * KiB;
  std::vector<std::byte> src(kMsg), dst(kIters * kMsg, std::byte{0});
  w.run([&](Rank& r) {
    if (r.id() == 1) {
      const MemHandle mh = unr.mem_reg(1, dst.data(), dst.size());
      const SigId rsig = unr.sig_init(1, kIters);
      const Blk rblk = unr.blk_init(1, mh, 0, dst.size(), rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
    } else {
      const MemHandle mh = unr.mem_reg(0, src.data(), src.size());
      Blk whole;
      r.recv(1, 1, &whole, sizeof whole);
      const Blk sblk = unr.blk_init(0, mh, 0, kMsg);
      for (int i = 0; i < kIters; ++i) {
        for (std::size_t b = 0; b < kMsg; ++b)
          src[b] = static_cast<std::byte>((3 * i + static_cast<int>(b)) % 241);
        Blk slice = whole;
        slice.offset = whole.offset + static_cast<std::size_t>(i) * kMsg;
        slice.size = kMsg;
        PutOptions opts;
        opts.force_split = 2;  // MMAS addends overflow uTofu's 8 bits
        unr.put(0, sblk, slice, opts);
      }
    }
  });
  for (int i = 0; i < kIters; ++i)
    for (std::size_t b = 0; b < kMsg; ++b)
      ASSERT_EQ(dst[static_cast<std::size_t>(i) * kMsg + b],
                static_cast<std::byte>((3 * i + static_cast<int>(b)) % 241))
          << "iteration " << i << " byte " << b;
  EXPECT_GT(unr.stats().encode_fallbacks, 0u);  // the fallback actually fired
  EXPECT_GT(unr.stats().companions, 0u);
  EXPECT_GT(w.fabric().stats().resilience.injected_drops, 0u);
}

TEST(Resilience, SigWaitForTimesOutOnWedgedTransfer) {
  // A transfer that can never complete (its peer never sends) times out
  // instead of hanging the actor forever.
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = unr::make_hpc_ib();
  wc.deterministic_routing = true;
  World w(wc);
  Unr unr(w);
  bool timed_out = false;
  Time woke = 0;
  w.run([&](Rank& r) {
    if (r.id() != 0) return;
    const SigId sig = unr.sig_init(0, 1);
    timed_out = !unr.sig_wait_for(0, sig, 50 * kUs);
    woke = r.now();
  });
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(woke, 50 * kUs);
}

}  // namespace
}  // namespace unr::unrlib
