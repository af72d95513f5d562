#include "runtime/window.hpp"

#include <cstring>
#include <mutex>

#include "common/check.hpp"

namespace unr::runtime {

namespace {

enum LockMsg : std::uint8_t { kLockReq = 1, kLockGrant = 2, kUnlockMsg = 3 };

// PSCW control tags (see collectives.cpp for the internal tag layout; the
// opcodes 7 and 8 are reserved for windows).
int pscw_post_tag(int win_index) { return kInternalTagBase | (win_index << 4) | 7; }
int pscw_complete_tag(int win_index) { return kInternalTagBase | (win_index << 4) | 8; }

}  // namespace

Window::Window(Comm& comm)
    : comm_(comm),
      lock_chan_(comm.fabric().open_am_channel()),
      grant_chan_(comm.fabric().open_am_channel()) {
  const auto n = static_cast<std::size_t>(comm.nranks());
  mrs_.assign(n, fabric::kInvalidMr);
  sizes_.assign(n, 0);
  state_ = std::vector<RankState>(n);
  for (auto& st : state_)
    st.sent_epoch.assign(n, 0);
}

std::shared_ptr<Window> Window::create(Comm& comm, int self, void* base,
                                       std::size_t size) {
  auto& registry = comm.object_registry();
  const auto index =
      static_cast<std::size_t>(comm.object_seq()[static_cast<std::size_t>(self)]++);
  std::shared_ptr<Window> win;
  {
    // Ranks on different kernel shards may reach the create-or-get step
    // concurrently; the first to arrive constructs the shared instance.
    std::lock_guard<std::mutex> lk(comm.object_mutex());
    if (index == registry.size()) {
      auto fresh = std::shared_ptr<Window>(new Window(comm));
      fresh->pscw_tag_base_ = static_cast<int>(index);
      registry.push_back(fresh);
    }
    UNR_CHECK_MSG(index < registry.size(),
                  "collective Window::create called out of order");
    win = std::static_pointer_cast<Window>(registry[index]);
  }

  win->mrs_[static_cast<std::size_t>(self)] =
      comm.fabric().memory().register_region(self, base, size == 0 ? 1 : size);
  win->sizes_[static_cast<std::size_t>(self)] = size;

  // The window's lock manager listens on its own AM channel.
  Window* raw = win.get();
  comm.fabric().set_am_handler(self, raw->lock_chan_, [raw, self](int src, const auto& p) {
    UNR_CHECK(p.size() == 1);
    auto& st = raw->state_[static_cast<std::size_t>(self)];
    switch (static_cast<LockMsg>(std::to_integer<std::uint8_t>(p[0]))) {
      case kLockReq:
        if (!st.locked) {
          st.locked = true;
          st.lock_holder = src;
          raw->comm_.fabric().send_am(self, src, raw->grant_chan_,
                                      {std::byte{kLockGrant}});
        } else {
          st.lock_waiters.push_back(src);
        }
        break;
      case kUnlockMsg:
        UNR_CHECK_MSG(st.locked && st.lock_holder == src,
                      "unlock from rank " << src << " which does not hold the lock");
        st.locked = false;
        st.lock_holder = -1;
        raw->grant_next_locked(self);
        break;
      case kLockGrant:
        UNR_CHECK_MSG(false, "grant on the request channel");
    }
  });
  // Grants arrive on a separate channel so that a rank acting as both origin
  // and target never confuses the two roles.
  comm.fabric().set_am_handler(
      self, raw->grant_chan_, [raw, self](int /*src*/, const auto& payload) {
        UNR_CHECK(payload.size() == 1 &&
                  std::to_integer<std::uint8_t>(payload[0]) == kLockGrant);
        auto& st = raw->state_[static_cast<std::size_t>(self)];
        st.lock_granted = true;
        st.lock_cond.notify_all();
      });

  barrier(comm, self);  // every rank attached before anyone issues RMA
  return win;
}

void Window::grant_next_locked(int target) {
  auto& st = state_[static_cast<std::size_t>(target)];
  if (st.locked || st.lock_waiters.empty()) return;
  const int next = st.lock_waiters.front();
  st.lock_waiters.pop_front();
  st.locked = true;
  st.lock_holder = next;
  comm_.fabric().send_am(target, next, grant_chan_, {std::byte{kLockGrant}});
}

void Window::bump_arrived(int target) {
  auto& st = state_[static_cast<std::size_t>(target)];
  st.arrived++;
  st.arrived_cond.notify_all();
}

void Window::put(int self, int target, std::size_t target_disp, const void* src,
                 std::size_t size) {
  auto& st = state_[static_cast<std::size_t>(self)];
  comm_.fabric().kernel().sleep_for(comm_.fabric().profile().rma_post_overhead);
  st.sent_epoch[static_cast<std::size_t>(target)]++;
  st.outstanding_local++;

  fabric::Fabric::PutArgs a;
  a.src_rank = self;
  a.src = src;
  a.dst = fabric::MemRef{target, mrs_[static_cast<std::size_t>(target)], target_disp};
  a.size = size;
  Window* w = this;
  a.on_delivered = [w, target] { w->bump_arrived(target); };
  a.on_local_complete = [w, self] {
    auto& s = w->state_[static_cast<std::size_t>(self)];
    UNR_CHECK(s.outstanding_local > 0);
    s.outstanding_local--;
    s.local_cond.notify_all();
  };
  comm_.fabric().put(std::move(a));
}

void Window::get(int self, int target, std::size_t target_disp, void* dst,
                 std::size_t size) {
  auto& st = state_[static_cast<std::size_t>(self)];
  comm_.fabric().kernel().sleep_for(comm_.fabric().profile().rma_post_overhead);
  st.outstanding_local++;

  fabric::Fabric::GetArgs a;
  a.src_rank = self;
  a.dst = dst;
  a.src = fabric::MemRef{target, mrs_[static_cast<std::size_t>(target)], target_disp};
  a.size = size;
  Window* w = this;
  a.on_complete = [w, self] {
    auto& s = w->state_[static_cast<std::size_t>(self)];
    UNR_CHECK(s.outstanding_local > 0);
    s.outstanding_local--;
    s.local_cond.notify_all();
  };
  comm_.fabric().get(std::move(a));
}

void Window::flush(int self) {
  auto& st = state_[static_cast<std::size_t>(self)];
  st.local_cond.wait([&] { return st.outstanding_local == 0; });
}

void Window::fence(int self) {
  const int p = comm_.nranks();
  auto& st = state_[static_cast<std::size_t>(self)];
  flush(self);

  // Everyone learns how many puts were aimed at it this epoch.
  std::vector<std::uint64_t> sent = st.sent_epoch;
  std::vector<std::uint64_t> owed(static_cast<std::size_t>(p));
  alltoall(comm_, self, sent.data(), owed.data(), sizeof(std::uint64_t));
  std::fill(st.sent_epoch.begin(), st.sent_epoch.end(), 0);

  std::uint64_t total = 0;
  for (auto v : owed) total += v;
  st.expected += total;
  st.arrived_cond.wait([&] { return st.arrived >= st.expected; });
}

void Window::post(int self, std::span<const int> origins) {
  auto& st = state_[static_cast<std::size_t>(self)];
  UNR_CHECK_MSG(st.post_origins.empty(), "nested exposure epoch");
  st.post_origins.assign(origins.begin(), origins.end());
  char token = 0;
  for (int o : origins)
    comm_.send(self, o, pscw_post_tag(pscw_tag_base_), &token, 1);
}

void Window::start(int self, std::span<const int> targets) {
  auto& st = state_[static_cast<std::size_t>(self)];
  UNR_CHECK_MSG(st.start_targets.empty(), "nested access epoch");
  st.start_targets.assign(targets.begin(), targets.end());
  char token = 0;
  for (int t : targets)
    comm_.recv(self, t, pscw_post_tag(pscw_tag_base_), &token, 1);
}

void Window::complete(int self) {
  auto& st = state_[static_cast<std::size_t>(self)];
  flush(self);
  for (int t : st.start_targets) {
    const std::uint64_t count = st.sent_epoch[static_cast<std::size_t>(t)];
    st.sent_epoch[static_cast<std::size_t>(t)] = 0;
    comm_.send(self, t, pscw_complete_tag(pscw_tag_base_), &count, sizeof count);
  }
  st.start_targets.clear();
}

void Window::wait(int self) {
  auto& st = state_[static_cast<std::size_t>(self)];
  std::uint64_t total = 0;
  for (int o : st.post_origins) {
    std::uint64_t count = 0;
    comm_.recv(self, o, pscw_complete_tag(pscw_tag_base_), &count, sizeof count);
    total += count;
  }
  st.post_origins.clear();
  st.expected += total;
  st.arrived_cond.wait([&] { return st.arrived >= st.expected; });
}

void Window::lock(int self, int target) {
  auto& st = state_[static_cast<std::size_t>(self)];
  comm_.fabric().send_am(self, target, lock_chan_, {std::byte{kLockReq}});
  st.lock_cond.wait([&] { return st.lock_granted; });
  st.lock_granted = false;
}

void Window::unlock(int self, int target) {
  // Our fabric's local completion implies remote placement, so a local
  // flush gives passive-target completion semantics.
  flush(self);
  comm_.fabric().send_am(self, target, lock_chan_, {std::byte{kUnlockMsg}});
}

}  // namespace unr::runtime
