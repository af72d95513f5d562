// Channel-level tests: support-level classification (Tables I & II), the
// behaviour of each channel implementation across interface personalities,
// narrow-custom-bit fallbacks, and the level-4 hardware offload.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/log.hpp"
#include "runtime/window.hpp"
#include "runtime/world.hpp"
#include "unr/unr.hpp"

namespace unr::unrlib {
namespace {

using runtime::Rank;
using runtime::World;

TEST(SupportLevel, TableTwoClassification) {
  using fabric::personality;
  EXPECT_EQ(classify(personality(Interface::kGlex)), SupportLevel::kLevel3);
  EXPECT_EQ(classify(personality(Interface::kVerbs)), SupportLevel::kLevel2);
  EXPECT_EQ(classify(personality(Interface::kUtofu)), SupportLevel::kLevel1);
  EXPECT_EQ(classify(personality(Interface::kUgni)), SupportLevel::kLevel2);
  EXPECT_EQ(classify(personality(Interface::kPami)), SupportLevel::kLevel2);
  EXPECT_EQ(classify(personality(Interface::kPortals)), SupportLevel::kLevel3);
}

TEST(SupportLevel, NamesAndDocs) {
  for (int l = 0; l <= 4; ++l) {
    const auto lvl = static_cast<SupportLevel>(l);
    EXPECT_FALSE(std::string(support_level_name(lvl)).empty());
    EXPECT_FALSE(support_level_spec(lvl).empty());
    EXPECT_FALSE(support_level_suggestion(lvl).empty());
  }
}

TEST(WireEncoding, RoundTripsAcrossWidths) {
  struct Case {
    int width, index_bits;
    std::uint64_t index;
    std::int64_t code;
  };
  for (const Case c : {Case{128, 32, 0xDEADBEEFCAFEull, -1},
                       Case{128, 32, 7, 1023},
                       Case{64, 32, 0xFFFFFFFFull, -1},
                       Case{64, 32, 12, 65535},
                       Case{32, 20, (1 << 20) - 1, -1},
                       Case{32, 20, 5, 2047},
                       Case{16, 20, 65535, 0},
                       Case{8, 20, 255, 0}}) {
    fabric::CustomBits bits;
    ASSERT_TRUE(encode_notification(c.width, c.index_bits, c.index, c.code, bits))
        << "width=" << c.width;
    std::uint64_t index;
    std::int64_t code;
    decode_notification(c.width, c.index_bits, bits, index, code);
    EXPECT_EQ(index, c.index) << "width=" << c.width;
    EXPECT_EQ(code, c.code) << "width=" << c.width;
  }
}

TEST(WireEncoding, RejectsWhatDoesNotFit) {
  fabric::CustomBits bits;
  EXPECT_FALSE(encode_notification(0, 20, 0, 0, bits));          // no bits at all
  EXPECT_FALSE(encode_notification(8, 20, 256, 0, bits));        // index too wide
  EXPECT_FALSE(encode_notification(8, 20, 1, -1, bits));         // no room for code
  EXPECT_FALSE(encode_notification(32, 20, 1 << 20, 0, bits));   // index > 2^20
  EXPECT_FALSE(encode_notification(32, 20, 0, 4096, bits));      // code > 12 bits
  EXPECT_TRUE(encode_notification(32, 20, 0, 2047, bits));
}

// Notified put must work identically through every channel kind; what
// changes is the transport mechanics, not the observable semantics.
//
// gtest prints the case as raw bytes and ctest takes them into the test's
// name. The kind leads, so each name starts with bytes that are the same on
// every build; the label pointer and the profile's strings after it change
// with address-space randomisation.
struct ChannelCase {
  ChannelKind kind;
  const char* label;
  unr::SystemProfile profile;
};

class ChannelSemantics : public ::testing::TestWithParam<ChannelCase> {};

TEST_P(ChannelSemantics, NotifiedPutEndToEnd) {
  const auto& c = GetParam();
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = c.profile;
  wc.deterministic_routing = true;
  World w(wc);
  Unr::Config uc;
  uc.channel = c.kind;
  Unr unr(w, uc);

  const std::size_t n = 1024;
  bool data_ok = false, local_sig_ok = false;
  w.run([&](Rank& r) {
    std::vector<std::uint32_t> buf(n);
    const MemHandle mh = unr.mem_reg(r.id(), buf.data(), n * sizeof(std::uint32_t));
    if (r.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::uint32_t>(i ^ 0xA5);
      Blk rmt;
      r.recv(1, 1, &rmt, sizeof rmt);
      const SigId ssig = unr.sig_init(0, 1);
      unr.put(0, unr.blk_init(0, mh, 0, n * sizeof(std::uint32_t), ssig), rmt);
      unr.sig_wait(0, ssig);
      local_sig_ok = true;
    } else {
      const SigId rsig = unr.sig_init(1, 1);
      const Blk rblk = unr.blk_init(1, mh, 0, n * sizeof(std::uint32_t), rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
      data_ok = true;
      for (std::size_t i = 0; i < n; ++i)
        if (buf[i] != (i ^ 0xA5)) data_ok = false;
    }
  });
  EXPECT_TRUE(data_ok) << c.label;
  EXPECT_TRUE(local_sig_ok) << c.label;
}

TEST_P(ChannelSemantics, NotifiedGetEndToEnd) {
  const auto& c = GetParam();
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = c.profile;
  wc.deterministic_routing = true;
  World w(wc);
  Unr::Config uc;
  uc.channel = c.kind;
  Unr unr(w, uc);

  bool reader_ok = false, owner_notified = false;
  w.run([&](Rank& r) {
    std::vector<double> buf(16, r.id() == 1 ? 6.5 : 0.0);
    const MemHandle mh = unr.mem_reg(r.id(), buf.data(), buf.size() * sizeof(double));
    if (r.id() == 1) {
      const SigId osig = unr.sig_init(1, 1);
      const Blk oblk = unr.blk_init(1, mh, 0, 16 * sizeof(double), osig);
      r.send(0, 1, &oblk, sizeof oblk);
      unr.sig_wait(1, osig);
      owner_notified = true;
    } else {
      Blk oblk;
      r.recv(1, 1, &oblk, sizeof oblk);
      const SigId lsig = unr.sig_init(0, 1);
      unr.get(0, unr.blk_init(0, mh, 0, 16 * sizeof(double), lsig), oblk);
      unr.sig_wait(0, lsig);
      reader_ok = buf[0] == 6.5 && buf[15] == 6.5;
    }
  });
  EXPECT_TRUE(reader_ok) << c.label;
  EXPECT_TRUE(owner_notified) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, ChannelSemantics,
    ::testing::Values(
        ChannelCase{ChannelKind::kNative, "glex_native_level3", unr::make_th_xy()},
        ChannelCase{ChannelKind::kNative, "verbs_native_level2", unr::make_hpc_ib()},
        ChannelCase{ChannelKind::kLevel0, "glex_level0", unr::make_th_xy()},
        ChannelCase{ChannelKind::kLevel4, "glex_level4_hw", unr::make_th_xy()},
        ChannelCase{ChannelKind::kMpiFallback, "fallback_on_ib", unr::make_hpc_ib()},
        ChannelCase{ChannelKind::kMpiFallback, "fallback_on_th2a", unr::make_th_2a()}),
    [](const ::testing::TestParamInfo<ChannelCase>& i) { return i.param.label; });

// Windows and UNR channels each open their own AM channels, so a companion
// or fallback channel keeps working however many windows share the World:
// a notified put and a Lock/unlock epoch on the last of 12 windows complete.
class ManyWindows : public ::testing::TestWithParam<ChannelKind> {};

TEST_P(ManyWindows, NotifiedPutAndLockEpochOnLastWindow) {
  World::Config wc;
  wc.nodes = 2;
  wc.ranks_per_node = 1;
  wc.profile = unr::make_th_xy();
  wc.deterministic_routing = true;
  World w(wc);
  Unr::Config uc;
  uc.channel = GetParam();
  Unr unr(w, uc);

  constexpr int kWindows = 12;
  constexpr std::size_t n = 64;
  bool data_ok = false;
  double locked_seen = 0.0;
  w.run([&](Rank& r) {
    std::vector<std::vector<double>> expo(kWindows, std::vector<double>(2, 0.0));
    std::vector<std::shared_ptr<runtime::Window>> wins;
    for (auto& e : expo)
      wins.push_back(
          runtime::Window::create(r.comm(), r.id(), e.data(), e.size() * sizeof(double)));
    runtime::Window& last = *wins.back();

    std::vector<std::uint32_t> buf(n);
    const MemHandle mh = unr.mem_reg(r.id(), buf.data(), n * sizeof(std::uint32_t));
    if (r.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::uint32_t>(3 * i + 1);
      Blk rmt;
      r.recv(1, 1, &rmt, sizeof rmt);
      const SigId ssig = unr.sig_init(0, 1);
      unr.put(0, unr.blk_init(0, mh, 0, n * sizeof(std::uint32_t), ssig), rmt);
      last.lock(0, 1);
      const double v = 4.5;
      last.put(0, 1, sizeof(double), &v, sizeof v);
      last.unlock(0, 1);
      unr.sig_wait(0, ssig);
      char tok = 1;
      r.send(1, 2, &tok, 1);
    } else {
      const SigId rsig = unr.sig_init(1, 1);
      const Blk rblk = unr.blk_init(1, mh, 0, n * sizeof(std::uint32_t), rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
      data_ok = true;
      for (std::size_t i = 0; i < n; ++i)
        if (buf[i] != 3 * i + 1) data_ok = false;
      char tok;
      r.recv(0, 2, &tok, 1);
      locked_seen = expo.back()[1];
    }
  });
  EXPECT_TRUE(data_ok);
  EXPECT_EQ(locked_seen, 4.5);
}

INSTANTIATE_TEST_SUITE_P(
    Channels, ManyWindows,
    ::testing::Values(ChannelKind::kLevel0, ChannelKind::kMpiFallback),
    [](const ::testing::TestParamInfo<ChannelKind>& i) {
      return i.param == ChannelKind::kLevel0 ? "level0" : "fallback";
    });

unr::SystemProfile utofu_like_profile() {
  // A level-1 system: uTofu personality on otherwise IB-like hardware.
  unr::SystemProfile p = unr::make_hpc_ib();
  p.name = "UTOFU-SIM";
  p.iface = Interface::kUtofu;
  return p;
}

TEST(ChannelLevels, AutoChannelPicksInterfaceLevel) {
  for (auto& [prof, lvl] :
       std::vector<std::pair<unr::SystemProfile, SupportLevel>>{
           {unr::make_th_xy(), SupportLevel::kLevel3},
           {unr::make_hpc_ib(), SupportLevel::kLevel2},
           {utofu_like_profile(), SupportLevel::kLevel1}}) {
    World::Config wc;
    wc.profile = prof;
    World w(wc);
    Unr unr(w);
    EXPECT_EQ(unr.support_level(), lvl) << prof.name;
  }
}

TEST(ChannelLevels, Level1SignalOverflowFallsBackToCompanion) {
  // uTofu offers 8 remote bits -> at most 256 signal slots travel natively.
  // Slot 300 still works, via the companion-message escape hatch.
  World::Config wc;
  wc.profile = utofu_like_profile();
  wc.deterministic_routing = true;
  World w(wc);
  Unr unr(w);
  bool ok = false;
  w.run([&](Rank& r) {
    std::vector<int> buf(1, r.id() == 0 ? 77 : 0);
    const MemHandle mh = unr.mem_reg(r.id(), buf.data(), sizeof(int));
    if (r.id() == 1) {
      SigId rsig = 0;
      for (int i = 0; i <= 300; ++i) rsig = unr.sig_init(1, 1);
      EXPECT_GE(rsig, 256u);
      const Blk rblk = unr.blk_init(1, mh, 0, sizeof(int), rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
      ok = buf[0] == 77;
    } else {
      Blk rmt;
      r.recv(1, 1, &rmt, sizeof rmt);
      unr.put(0, unr.blk_init(0, mh, 0, sizeof(int)), rmt);
      r.kernel().sleep_for(2 * kMs);
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_GT(unr.stats().encode_fallbacks, 0u);
  EXPECT_GT(unr.stats().companions, 0u);
}

TEST(ChannelLevels, Level2Mode2SupportsSplitMode1DoesNot) {
  auto make_unr_cfg = [](int mode) {
    Unr::Config uc;
    uc.level2_mode = mode;
    uc.split_threshold = 1 * KiB;
    return uc;
  };
  {
    World::Config wc;
    wc.profile = unr::make_hpc_ib();
    World w(wc);
    Unr unr(w, make_unr_cfg(2));
    EXPECT_TRUE(unr.channel().multi_channel());
  }
  {
    World::Config wc;
    wc.profile = unr::make_hpc_ib();
    World w(wc);
    Unr unr(w, make_unr_cfg(1));
    EXPECT_FALSE(unr.channel().multi_channel());
  }
}

TEST(ChannelLevels, Level4NeedsWideBits) {
  World::Config wc;
  wc.profile = unr::make_hpc_ib();  // Verbs: 32 bits, not level-4 capable
  World w(wc);
  Unr::Config uc;
  uc.channel = ChannelKind::kLevel4;
  EXPECT_THROW(Unr(w, uc), std::logic_error);
}

TEST(ChannelLevels, Level4LeavesNoPollingFootprint) {
  World::Config wc;
  wc.profile = unr::make_th_xy();
  wc.deterministic_routing = true;
  World w(wc);
  Unr::Config uc;
  uc.channel = ChannelKind::kLevel4;
  uc.engine.reserved_core = false;  // would normally cost background load
  Unr unr(w, uc);
  // No background load registered on any node.
  for (int n = 0; n < 2; ++n)
    EXPECT_EQ(w.fabric().machine().node(n).background_load(), 0.0);

  bool ok = false;
  w.run([&](Rank& r) {
    std::vector<int> buf(1, r.id() == 0 ? 9 : 0);
    const MemHandle mh = unr.mem_reg(r.id(), buf.data(), sizeof(int));
    if (r.id() == 1) {
      const SigId rsig = unr.sig_init(1, 1);
      const Blk rblk = unr.blk_init(1, mh, 0, sizeof(int), rsig);
      r.send(0, 1, &rblk, sizeof rblk);
      unr.sig_wait(1, rsig);
      ok = buf[0] == 9;
    } else {
      Blk rmt;
      r.recv(1, 1, &rmt, sizeof rmt);
      unr.put(0, unr.blk_init(0, mh, 0, sizeof(int)), rmt);
      r.kernel().sleep_for(1 * kMs);
    }
  });
  EXPECT_TRUE(ok);
  // And the engines processed nothing.
  EXPECT_EQ(unr.engine(0).stats().cqes + unr.engine(1).stats().cqes, 0u);
}

TEST(ChannelLevels, Level4NotificationFasterThanPolledLevel3) {
  // Level 4's pitch: no polling phase delay on the notification path.
  auto run_kind = [](ChannelKind kind) {
    World::Config wc;
    wc.profile = unr::make_th_xy();
    wc.deterministic_routing = true;
    World w(wc);
    Unr::Config uc;
    uc.channel = kind;
    uc.engine.poll_interval = 20 * kUs;  // deliberately sluggish polling
    Unr unr(w, uc);
    Time triggered = 0;
    w.run([&](Rank& r) {
      std::vector<int> buf(1, 0);
      const MemHandle mh = unr.mem_reg(r.id(), buf.data(), sizeof(int));
      if (r.id() == 1) {
        const SigId rsig = unr.sig_init(1, 1);
        const Blk rblk = unr.blk_init(1, mh, 0, sizeof(int), rsig);
        r.send(0, 1, &rblk, sizeof rblk);
        unr.sig_wait(1, rsig);
        triggered = r.now();
      } else {
        Blk rmt;
        r.recv(1, 1, &rmt, sizeof rmt);
        unr.put(0, unr.blk_init(0, mh, 0, sizeof(int)), rmt);
      }
    });
    return triggered;
  };
  const Time polled = run_kind(ChannelKind::kNative);
  const Time hw = run_kind(ChannelKind::kLevel4);
  EXPECT_LT(hw, polled);
  EXPECT_GE(polled - hw, 5 * kUs);  // roughly the polling phase delay
}

TEST(ChannelLevels, FallbackStagingCopiesCostTime) {
  // The fallback channel pays pack+unpack copies; on a slow-memcpy system
  // (TH-2A) a large notified put takes measurably longer than native.
  auto run_kind = [](ChannelKind kind) {
    World::Config wc;
    wc.profile = unr::make_th_2a();
    wc.deterministic_routing = true;
    World w(wc);
    Unr::Config uc;
    uc.channel = kind;
    Unr unr(w, uc);
    const std::size_t bytes = 1 * MiB;
    Time triggered = 0;
    w.run([&](Rank& r) {
      std::vector<std::byte> buf(bytes);
      const MemHandle mh = unr.mem_reg(r.id(), buf.data(), bytes);
      if (r.id() == 1) {
        const SigId rsig = unr.sig_init(1, 1);
        const Blk rblk = unr.blk_init(1, mh, 0, bytes, rsig);
        r.send(0, 1, &rblk, sizeof rblk);
        unr.sig_wait(1, rsig);
        triggered = r.now();
      } else {
        Blk rmt;
        r.recv(1, 1, &rmt, sizeof rmt);
        unr.put(0, unr.blk_init(0, mh, 0, bytes), rmt);
      }
    });
    return triggered;
  };
  const Time native = run_kind(ChannelKind::kNative);
  const Time fallback = run_kind(ChannelKind::kMpiFallback);
  EXPECT_GT(fallback, native);
  // At 48 gigabit/s memcpy, two 1MiB copies cost ~350us: must be visible.
  EXPECT_GT(fallback - native, 100 * kUs);
}

}  // namespace
}  // namespace unr::unrlib
