// MPI-RMA style windows with the three classical synchronization schemes:
// Fence (active, collective), PSCW (active, group), and Lock/Unlock
// (passive). These are the baselines UNR is compared against in Figure 4 of
// the paper — none of them lets the *target* observe the completion of an
// individual operation, which is exactly the gap UNR fills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "runtime/collectives.hpp"
#include "runtime/comm.hpp"
#include "sim/cond.hpp"

namespace unr::runtime {

class Window {
 public:
  /// Collective: every rank calls create() with its local exposure buffer.
  /// All ranks obtain a handle to the same distributed window.
  static std::shared_ptr<Window> create(Comm& comm, int self, void* base,
                                        std::size_t size);

  /// Origin-side RMA. `target_disp` is a byte displacement into the
  /// target's exposure buffer.
  void put(int self, int target, std::size_t target_disp, const void* src,
           std::size_t size);
  void get(int self, int target, std::size_t target_disp, void* dst,
           std::size_t size);

  /// Block until all operations issued by `self` have completed at their
  /// targets (our fabric acks local completion only after remote placement).
  void flush(int self);

  // --- Fence synchronization (collective) ---
  void fence(int self);

  // --- PSCW (generalized active target) ---
  void post(int self, std::span<const int> origins);
  void start(int self, std::span<const int> targets);
  void complete(int self);  ///< closes the epoch opened by start()
  void wait(int self);      ///< closes the epoch opened by post()

  // --- Passive target ---
  void lock(int self, int target);
  void unlock(int self, int target);

  std::size_t size_of(int rank) const {
    return sizes_[static_cast<std::size_t>(rank)];
  }

 private:
  explicit Window(Comm& comm);

  struct RankState {
    // Cumulative counters: never reset, so late arrivals can't be confused
    // across epochs.
    std::uint64_t arrived = 0;        ///< puts delivered into my exposure buffer
    std::uint64_t expected = 0;       ///< cumulative arrivals all epochs owe me
    sim::Cond arrived_cond;

    std::uint64_t outstanding_local = 0;  ///< my puts/gets not yet completed
    sim::Cond local_cond;

    std::vector<std::uint64_t> sent_epoch;  ///< ops issued per target, this epoch

    std::vector<int> start_targets;  ///< PSCW: targets of my access epoch
    std::vector<int> post_origins;   ///< PSCW: origins of my exposure epoch

    // Passive-target lock manager state (this rank as the target).
    bool locked = false;
    int lock_holder = -1;
    std::deque<int> lock_waiters;
    bool lock_granted = false;  ///< this rank as origin, waiting for a grant
    sim::Cond lock_cond;
  };

  void bump_arrived(int target);
  void grant_next_locked(int target);

  Comm& comm_;
  /// Lock manager AM channels, opened by the first rank to create the window.
  const int lock_chan_, grant_chan_;
  std::vector<fabric::MrId> mrs_;
  std::vector<std::size_t> sizes_;
  std::vector<RankState> state_;
  int pscw_tag_base_ = 0;
};

}  // namespace unr::runtime
