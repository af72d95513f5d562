// Tests of the simulated interconnect: memory registration, PUT/GET data
// movement and timing, custom-bit truncation, completion queues and
// overflow/retry, active messages and FIFO ordering, multi-NIC bandwidth.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "common/profile.hpp"
#include "fabric/fabric.hpp"
#include "sim/cond.hpp"

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

TEST(CustomBits, TruncationWidths) {
  const CustomBits full = CustomBits::from_pair(~0ull, ~0ull);
  EXPECT_EQ(full.truncated(0), CustomBits::from_pair(0, 0));
  EXPECT_EQ(full.truncated(8).lo, 0xFFull);
  EXPECT_EQ(full.truncated(32).lo, 0xFFFFFFFFull);
  EXPECT_EQ(full.truncated(64), CustomBits::from_pair(~0ull, 0));
  EXPECT_EQ(full.truncated(100).hi, (1ull << 36) - 1);
  EXPECT_EQ(full.truncated(128), full);
}

TEST(CustomBits, Fits) {
  EXPECT_TRUE(CustomBits::from_u64(0xFF).fits(8));
  EXPECT_FALSE(CustomBits::from_u64(0x100).fits(8));
  EXPECT_TRUE(CustomBits::from_pair(0, 1).fits(65));
  EXPECT_FALSE(CustomBits::from_pair(0, 1).fits(64));
}

TEST(Personalities, TableTwoRows) {
  EXPECT_EQ(personality(Interface::kGlex).put_remote_bits, 128);
  EXPECT_EQ(personality(Interface::kVerbs).put_remote_bits, 32);
  EXPECT_EQ(personality(Interface::kVerbs).get_remote_bits, 0);
  EXPECT_EQ(personality(Interface::kUtofu).put_remote_bits, 8);
  EXPECT_EQ(personality(Interface::kUgni).put_remote_bits, 32);
  EXPECT_TRUE(personality(Interface::kPami).shared_put_bits);
  EXPECT_EQ(personality(Interface::kPortals).put_local_bits, -1);  // "Hash"
  EXPECT_EQ(personality(Interface::kPortals).effective_put_local(), 64);
}

TEST(MemRegistry, RegisterResolveBounds) {
  MemRegistry reg(0, 8);
  std::vector<std::byte> buf(256);
  const MrId id = reg.register_region(3, buf.data(), buf.size());
  EXPECT_EQ(reg.resolve({3, id, 16}, 10), buf.data() + 16);
  EXPECT_EQ(reg.region_size(3, id), 256u);
  EXPECT_THROW(reg.resolve({3, id, 250}, 10), std::logic_error);   // out of bounds
  EXPECT_THROW(reg.resolve({2, id, 0}, 1), std::logic_error);      // wrong rank
  reg.deregister_region(3, id);
  EXPECT_THROW(reg.resolve({3, id, 0}, 1), std::logic_error);      // dead region
}

TEST(MemRegistry, PerRankLimitEnforced) {
  MemRegistry reg(2, 8);
  std::vector<std::byte> buf(64);
  reg.register_region(0, buf.data(), 1);
  reg.register_region(0, buf.data() + 1, 1);
  EXPECT_THROW(reg.register_region(0, buf.data() + 2, 1), std::logic_error);
  // Other ranks unaffected.
  EXPECT_NO_THROW(reg.register_region(1, buf.data() + 3, 1));
}

TEST(CompletionQueue, PushPopOverflow) {
  CompletionQueue q(2);
  EXPECT_TRUE(q.push({}));
  EXPECT_TRUE(q.push({}));
  EXPECT_FALSE(q.push({}));
  EXPECT_EQ(q.overflows(), 1u);
  q.pop();
  EXPECT_TRUE(q.push({}));
  EXPECT_EQ(q.pushed(), 3u);
}

TEST(CompletionQueue, PopOnEmptyFailsLoudly) {
  // Regression: pop() on an empty queue used to read q_.front() of an empty
  // deque — undefined behavior. It must fail loudly instead.
  CompletionQueue q(2);
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push({});
  q.pop();
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(CompletionQueue, PressureOccupiesSlotsWithoutContent) {
  CompletionQueue q(2);
  q.add_pressure(2);
  EXPECT_TRUE(q.full());
  EXPECT_TRUE(q.empty());  // pressure is not content
  EXPECT_FALSE(q.push({}));
  EXPECT_EQ(q.overflows(), 1u);
  q.release_pressure(1);
  EXPECT_TRUE(q.push({}));
  EXPECT_TRUE(q.full());
  q.release_pressure(5);  // over-release clamps at zero
  EXPECT_EQ(q.pressure(), 0u);
  EXPECT_FALSE(q.full());
}

TEST(Fabric, PutMovesDataAndSignalsDelivery) {
  Kernel k;
  Fabric f(k, two_node_cfg());
  std::vector<std::byte> src(1024), dst(1024);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::byte>(i * 7);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());

  bool delivered = false;
  Time deliver_time = 0;
  Cond cond;
  k.run(2, [&](int id) {
    if (id != 0) {
      cond.wait([&] { return delivered; });
      EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
      return;
    }
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = src.data();
    a.dst = {1, mr, 0};
    a.size = src.size();
    a.on_delivered = [&] {
      delivered = true;
      deliver_time = k.now();
      cond.notify_all();
    };
    f.put(std::move(a));
  });
  EXPECT_TRUE(delivered);
  // Arrival = nic_overhead + size/bw + wire latency.
  const auto& p = f.profile();
  const Time expect = p.nic_overhead + serialize_ns(1024, p.nic_gbps) + p.wire_latency;
  EXPECT_EQ(deliver_time, expect);
}

TEST(Fabric, LocalCompletionComesOneAckAfterDelivery) {
  Kernel k;
  Fabric f(k, two_node_cfg());
  std::vector<std::byte> src(64), dst(64);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  Time deliver_time = 0, local_time = 0;
  bool done = false;
  Cond cond;
  k.run(2, [&](int id) {
    if (id != 0) return;
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = src.data();
    a.dst = {1, mr, 0};
    a.size = src.size();
    a.on_delivered = [&] { deliver_time = k.now(); };
    a.on_local_complete = [&] {
      local_time = k.now();
      done = true;
      cond.notify_all();
    };
    f.put(std::move(a));
    cond.wait([&] { return done; });
  });
  EXPECT_EQ(local_time, deliver_time + f.profile().wire_latency);
}

TEST(Fabric, GetFetchesRemoteData) {
  Kernel k;
  Fabric f(k, two_node_cfg());
  std::vector<std::byte> owner_buf(512), reader_buf(512);
  for (std::size_t i = 0; i < owner_buf.size(); ++i)
    owner_buf[i] = static_cast<std::byte>(255 - i % 251);
  const MrId mr = f.memory().register_region(1, owner_buf.data(), owner_buf.size());
  bool done = false;
  Cond cond;
  k.run(2, [&](int id) {
    if (id != 0) return;
    Fabric::GetArgs a;
    a.src_rank = 0;
    a.dst = reader_buf.data();
    a.src = {1, mr, 0};
    a.size = reader_buf.size();
    a.on_complete = [&] {
      done = true;
      cond.notify_all();
    };
    f.get(std::move(a));
    cond.wait([&] { return done; });
  });
  EXPECT_EQ(std::memcmp(owner_buf.data(), reader_buf.data(), owner_buf.size()), 0);
}

TEST(Fabric, GetLatencyIsRoundTrip) {
  // The paper recommends PUT over GET because GET pays a round trip.
  Kernel k;
  Fabric f(k, two_node_cfg());
  std::vector<std::byte> owner_buf(8), reader_buf(8);
  const MrId mr = f.memory().register_region(1, owner_buf.data(), owner_buf.size());
  Time got = 0;
  bool done = false;
  Cond cond;
  k.run(2, [&](int id) {
    if (id != 0) return;
    Fabric::GetArgs a;
    a.src_rank = 0;
    a.dst = reader_buf.data();
    a.src = {1, mr, 0};
    a.size = 8;
    a.on_complete = [&] {
      got = k.now();
      done = true;
      cond.notify_all();
    };
    f.get(std::move(a));
    cond.wait([&] { return done; });
  });
  EXPECT_GT(got, 2 * f.profile().wire_latency);  // request + response legs
}

TEST(Fabric, RemoteImmTruncatedToInterfaceWidth) {
  // Verbs: 32 remote PUT bits — the upper bits must be gone.
  Kernel k;
  Fabric f(k, two_node_cfg(unr::make_hpc_ib()));
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(50 * kUs);
      return;
    }
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = &one;
    a.dst = {1, mr, 0};
    a.size = 1;
    a.remote_imm = CustomBits::from_pair(0x1234567890ABCDEFull, 0xFFull);
    a.want_remote_cqe = true;
    f.put(std::move(a));
    Kernel::current()->sleep_for(50 * kUs);
  });
  auto& cq = f.nic(1, 0).remote_cq();
  ASSERT_EQ(cq.size(), 1u);
  const Cqe e = cq.pop();
  EXPECT_EQ(e.imm.lo, 0x90ABCDEFull);
  EXPECT_EQ(e.imm.hi, 0u);
  EXPECT_EQ(e.peer_rank, 0);
  EXPECT_EQ(e.kind, CqeKind::kPutDelivered);
}

TEST(Fabric, ZeroByteGetCompletesWithoutTouchingMemory) {
  // A 0-byte GET is legal: it pays the full round trip and fires its
  // completion, but must not touch a single byte on either side.
  Kernel k;
  Fabric f(k, two_node_cfg());
  std::vector<std::byte> owner_buf(32, std::byte{0xAA});
  std::vector<std::byte> reader_buf(32, std::byte{0x55});
  const MrId mr = f.memory().register_region(1, owner_buf.data(), owner_buf.size());
  Time got = 0;
  bool done = false;
  Cond cond;
  k.run(2, [&](int id) {
    if (id != 0) return;
    Fabric::GetArgs a;
    a.src_rank = 0;
    a.dst = reader_buf.data();
    a.src = {1, mr, 0};
    a.size = 0;
    a.on_complete = [&] {
      got = k.now();
      done = true;
      cond.notify_all();
    };
    f.get(std::move(a));
    cond.wait([&] { return done; });
  });
  EXPECT_TRUE(done);
  EXPECT_GT(got, 2 * f.profile().wire_latency);  // still a request + response
  for (const std::byte b : reader_buf) EXPECT_EQ(b, std::byte{0x55});
  for (const std::byte b : owner_buf) EXPECT_EQ(b, std::byte{0xAA});
}

TEST(Fabric, PutImmExactlyAtWidthBoundary) {
  // Verbs: 32 remote PUT bits. 2^32 - 1 fits exactly and must survive
  // untouched; 2^32 is one past the boundary and masks to 0 (the fabric
  // models hardware truncation — detecting the overflow and falling back is
  // the channel layer's job).
  Kernel k;
  Fabric f(k, two_node_cfg(unr::make_hpc_ib()));
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(300 * kUs);
      return;
    }
    const auto send = [&](std::uint64_t imm) {
      Fabric::PutArgs a;
      a.src_rank = 0;
      a.src = &one;
      a.dst = {1, mr, 0};
      a.size = 1;
      a.remote_imm = CustomBits::from_u64(imm);
      a.want_remote_cqe = true;
      f.put(std::move(a));
      Kernel::current()->sleep_for(100 * kUs);  // keep arrivals ordered
    };
    send(0xFFFFFFFFull);   // exactly at the 32-bit boundary
    send(0x100000000ull);  // one past
  });
  auto& cq = f.nic(1, 0).remote_cq();
  ASSERT_EQ(cq.size(), 2u);
  const Cqe at = cq.pop();
  EXPECT_EQ(at.imm.lo, 0xFFFFFFFFull);
  EXPECT_EQ(at.imm.hi, 0u);
  const Cqe past = cq.pop();
  EXPECT_EQ(past.imm.lo, 0u);
  EXPECT_EQ(past.imm.hi, 0u);
}

TEST(Fabric, CqOverflowNacksAndRetries) {
  auto cfg = two_node_cfg();
  cfg.profile.cq_depth = 4;
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> dst(64);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  int delivered = 0;
  k.run(2, [&](int id) {
    if (id != 0) {
      // Nobody drains the CQ for a while; then drain and let retries land.
      Kernel::current()->sleep_for(200 * kUs);
      auto& cq = f.nic(1, 0).remote_cq();
      while (!cq.empty()) cq.pop();
      Kernel::current()->sleep_for(200 * kUs);
      auto& cq2 = f.nic(1, 0).remote_cq();
      while (!cq2.empty()) cq2.pop();
      return;
    }
    for (int i = 0; i < 8; ++i) {
      Fabric::PutArgs a;
      a.src_rank = 0;
      a.src = &one;
      a.dst = {1, mr, static_cast<std::size_t>(i)};
      a.size = 1;
      a.want_remote_cqe = true;
      a.on_delivered = [&] { delivered++; };
      f.put(std::move(a));
    }
    Kernel::current()->sleep_for(400 * kUs);
  });
  EXPECT_EQ(delivered, 8);           // all land eventually
  EXPECT_GT(f.stats().cq_retries, 0u);  // but some had to retry
}

TEST(Fabric, CqRetryFailsLoudlyAtConfigurableAttemptCap) {
  // Nobody ever drains the remote CQ: the NACK loop must hit the (lowered)
  // attempt cap and fail loudly instead of spinning the event loop forever.
  auto cfg = two_node_cfg();
  cfg.profile.cq_depth = 1;
  cfg.retry.max_attempts = 16;
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  EXPECT_THROW(k.run(2,
                     [&](int id) {
                       if (id != 0) {
                         Kernel::current()->sleep_for(100 * kMs);
                         return;
                       }
                       for (int i = 0; i < 2; ++i) {
                         Fabric::PutArgs a;
                         a.src_rank = 0;
                         a.src = &one;
                         a.dst = {1, mr, 0};
                         a.size = 1;
                         a.want_remote_cqe = true;
                         f.put(std::move(a));
                       }
                       Kernel::current()->sleep_for(100 * kMs);
                     }),
               std::logic_error);
  // The first put filled the depth-1 CQ; the second burned all its retries:
  // max_attempts NACKs are allowed, attempt max_attempts + 1 fails loudly
  // (the same meaning the wire-retransmission cap has).
  EXPECT_EQ(f.stats().cq_retries, 16u);
  EXPECT_GT(f.stats().resilience.backoff_ns, 0u);
  EXPECT_GT(f.total_cq_overflows(), 0u);
}

TEST(Fabric, OrderedTrafficIsFifoPerPair) {
  auto cfg = two_node_cfg();
  cfg.deterministic_routing = false;
  cfg.profile.jitter = 500;  // plenty of reordering for unordered traffic
  Kernel k;
  Fabric f(k, cfg);
  std::vector<int> arrivals;
  const int chan = f.open_am_channel();
  for (int r = 0; r < 2; ++r)
    f.set_am_handler(r, chan, [&](int, const std::vector<std::byte>& p) {
      arrivals.push_back(static_cast<int>(std::to_integer<unsigned char>(p[0])));
    });
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(1 * kMs);
      return;
    }
    for (int i = 0; i < 32; ++i)
      f.send_am(0, 1, chan, {static_cast<std::byte>(i)}, -1, /*ordered=*/true);
    Kernel::current()->sleep_for(1 * kMs);
  });
  ASSERT_EQ(arrivals.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(arrivals[static_cast<std::size_t>(i)], i);
}

TEST(Fabric, AmChannelsAreDenseAndMustBeOpened) {
  Kernel k;
  Fabric f(k, two_node_cfg());
  const auto noop = [](int, const std::vector<std::byte>&) {};
  EXPECT_THROW(f.set_am_handler(0, 0, noop), std::logic_error);
  EXPECT_THROW(f.send_am(0, 1, 0, {std::byte{1}}), std::logic_error);
  EXPECT_EQ(f.open_am_channel(), 0);
  EXPECT_EQ(f.open_am_channel(), 1);
  for (const int unopened : {-1, 2}) {
    EXPECT_THROW(f.set_am_handler(0, unopened, noop), std::logic_error);
    EXPECT_THROW(f.send_am(0, 1, unopened, {std::byte{1}}), std::logic_error);
  }
  EXPECT_NO_THROW(f.set_am_handler(0, 1, noop));
}

TEST(Fabric, SecondAmHandlerOnOneRankAndChannelFailsLoudly) {
  Kernel k;
  Fabric f(k, two_node_cfg());
  const int chan = f.open_am_channel();
  int first = 0;
  f.set_am_handler(1, chan, [&](int, const std::vector<std::byte>&) { first++; });
  EXPECT_THROW(f.set_am_handler(1, chan, [](int, const std::vector<std::byte>&) {}),
               std::logic_error);
  // Other ranks and other channels stay free; the first handler stays put.
  EXPECT_NO_THROW(f.set_am_handler(0, chan, [](int, const std::vector<std::byte>&) {}));
  k.run(1, [&](int) {
    f.send_am(0, 1, chan, {std::byte{1}});
    Kernel::current()->sleep_for(1 * kMs);
  });
  EXPECT_EQ(first, 1);
}

TEST(Fabric, TwoNicsDoubleEffectiveBandwidth) {
  auto cfg = two_node_cfg(unr::make_th_xy());  // 2 NICs per node
  Kernel k;
  Fabric f(k, cfg);
  const std::size_t msg = 1 * MiB;
  std::vector<std::byte> src(2 * msg), dst(2 * msg);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  Time one_nic = 0, two_nic = 0;
  int pending = 0;
  Cond cond;
  auto send_pair = [&](int nic_b, Time* out) {
    const Time t0 = k.now();
    pending = 2;
    for (int i = 0; i < 2; ++i) {
      Fabric::PutArgs a;
      a.src_rank = 0;
      a.src = src.data() + static_cast<std::size_t>(i) * msg;
      a.dst = {1, mr, static_cast<std::size_t>(i) * msg};
      a.size = msg;
      a.nic_index = i == 0 ? 0 : nic_b;
      a.on_delivered = [&, t0, out] {
        if (--pending == 0) {
          *out = k.now() - t0;
          cond.notify_all();
        }
      };
      f.put(std::move(a));
    }
    cond.wait([&] { return pending == 0; });
  };
  k.run(2, [&](int id) {
    if (id != 0) return;
    send_pair(0, &one_nic);   // both messages on NIC 0: serialized
    send_pair(1, &two_nic);   // spread over both NICs: parallel
  });
  EXPECT_GT(one_nic, two_nic);
  // Two messages on one NIC serialize: ~2x the two-NIC completion time.
  EXPECT_NEAR(static_cast<double>(one_nic) / static_cast<double>(two_nic), 2.0, 0.25);
}

TEST(Fabric, IntraNodeFasterThanInterNode) {
  Fabric::Config cfg;
  cfg.nodes = 1;
  cfg.ranks_per_node = 2;
  cfg.profile = unr::make_hpc_ib();
  cfg.deterministic_routing = true;
  Kernel k;
  Fabric f(k, cfg);
  std::vector<std::byte> dst(8);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte one{1};
  Time arrival = 0;
  bool done = false;
  Cond cond;
  k.run(2, [&](int id) {
    if (id != 0) return;
    Fabric::PutArgs a;
    a.src_rank = 0;
    a.src = &one;
    a.dst = {1, mr, 0};
    a.size = 1;
    a.on_delivered = [&] {
      arrival = k.now();
      done = true;
      cond.notify_all();
    };
    f.put(std::move(a));
    cond.wait([&] { return done; });
  });
  EXPECT_LT(arrival, f.profile().wire_latency);  // loopback skips the switch
}

TEST(Fabric, StatsAccumulate) {
  Kernel k;
  Fabric f(k, two_node_cfg());
  std::vector<std::byte> dst(1024);
  const MrId mr = f.memory().register_region(1, dst.data(), dst.size());
  std::byte buf[16] = {};
  k.run(2, [&](int id) {
    if (id != 0) {
      Kernel::current()->sleep_for(1 * kMs);
      return;
    }
    for (int i = 0; i < 3; ++i) {
      Fabric::PutArgs a;
      a.src_rank = 0;
      a.src = buf;
      a.dst = {1, mr, 0};
      a.size = 16;
      f.put(std::move(a));
    }
    Fabric::GetArgs g;
    g.src_rank = 0;
    g.dst = buf;
    g.src = {1, mr, 0};
    g.size = 16;
    f.get(std::move(g));
    Kernel::current()->sleep_for(1 * kMs);
  });
  EXPECT_EQ(f.stats().puts, 3u);
  EXPECT_EQ(f.stats().gets, 1u);
  EXPECT_EQ(f.stats().put_bytes, 48u);
  EXPECT_EQ(f.stats().get_bytes, 16u);
}

}  // namespace
}  // namespace unr::fabric
