// Two-sided communication over the simulated fabric.
//
// Implements the classical MPI point-to-point protocols of Figure 1 in the
// paper: Eager (one extra copy each side, sender completes on buffering) and
// Rendezvous (RTS/CTS handshake, then a zero-copy RDMA PUT straight into the
// posted receive buffer). Tag matching with wildcards, unexpected-message
// queue, and nonblocking requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "fabric/fabric.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/request.hpp"

namespace unr::runtime {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Tags with this bit set are reserved for the runtime itself (collectives,
/// window synchronization). User code must keep tags below it.
inline constexpr int kInternalTagBase = 1 << 28;

class Comm {
 public:
  explicit Comm(fabric::Fabric& fabric);

  int nranks() const { return fabric_.nranks(); }
  fabric::Fabric& fabric() { return fabric_; }

  // --- Blocking point-to-point (actor context only) ---
  void send(int self, int dst, int tag, const void* data, std::size_t size);
  void recv(int self, int src, int tag, void* buf, std::size_t size);
  void sendrecv(int self, int dst, int send_tag, const void* send_buf,
                std::size_t send_size, int src, int recv_tag, void* recv_buf,
                std::size_t recv_size);

  // --- Nonblocking ---
  RequestPtr isend(int self, int dst, int tag, const void* data, std::size_t size);
  RequestPtr irecv(int self, int src, int tag, void* buf, std::size_t size);
  void wait(int self, const RequestPtr& req);
  void wait_all(int self, std::span<const RequestPtr> reqs);
  bool test(const RequestPtr& req) const { return req->done; }

  /// Count of unexpected messages currently queued at `rank` (diagnostics).
  std::size_t unexpected_count(int rank) const;

  /// Per-rank collective sequence counters (used by collectives.cpp to keep
  /// internal tags unique; advances identically on every rank).
  std::vector<int>& coll_seq() { return coll_seq_; }

  /// Registry of collectively-created objects (windows). Ranks creating the
  /// n-th object all receive the same instance; see Window::create. The
  /// create-or-get step is the one place where ranks on different kernel
  /// shards touch shared runtime state, so it must run under object_mutex().
  std::vector<std::shared_ptr<void>>& object_registry() { return obj_registry_; }
  std::vector<int>& object_seq() { return obj_seq_; }
  std::mutex& object_mutex() { return obj_mu_; }

 private:
  struct PostedRecv {
    int src;  // may be kAnySource
    int tag;  // may be kAnyTag
    void* buf;
    std::size_t size;
    RequestPtr req;
  };

  struct UnexpectedMsg {
    int src;
    int tag;
    bool rendezvous;
    std::vector<std::byte> payload;  // eager: the data; rdv: empty
    std::size_t size;                // full message size
    std::uint64_t rdv_id;            // sender-side handle for the CTS
  };

  struct RankState {
    std::deque<PostedRecv> posted;
    std::deque<UnexpectedMsg> unexpected;
  };

  /// Sender-side state of one rendezvous in flight.
  struct RdvSend {
    const void* data;
    std::size_t size;
    RequestPtr req;
    int dst;
  };

  /// Receiver-side state of one rendezvous awaiting the sender's PUT.
  struct PendingRdvRecv {
    int rank;
    fabric::MrId mr;
    RequestPtr req;
  };

  static bool matches(int want_src, int want_tag, int src, int tag) {
    return (want_src == kAnySource || want_src == src) &&
           (want_tag == kAnyTag || want_tag == tag);
  }

  void handle_eager(int dst, int src, const std::vector<std::byte>& payload);
  void handle_rts(int dst, int src, const std::vector<std::byte>& payload);
  void handle_cts(int dst, int src, const std::vector<std::byte>& payload);
  /// Issue the rendezvous CTS for a matched RTS (callable from both actor
  /// and event context).
  void accept_rts(int self, int src, std::uint64_t rdv_id, void* buf, std::size_t size,
                  const RequestPtr& req);

  fabric::Fabric& fabric_;
  const int chan_eager_, chan_rts_, chan_cts_;  ///< AM channels of the protocol
  /// Protocol counters (registry handles resolved once at construction).
  struct Metrics {
    obs::Counter eager_sends, rts_sends, cts_sends, unexpected_msgs;
  };
  Metrics m_;
  /// Interned trace ids; `on` caches the tracer's enabled flag.
  struct TraceIds {
    bool on = false;
    obs::StrId cat, rdv, eager, rts, k_src, k_dst, k_size, k_tag;
  };
  TraceIds tr_;
  std::vector<RankState> ranks_;
  std::vector<std::unordered_map<std::uint64_t, RdvSend>> rdv_sends_;  // per src rank
  /// Receiver-side rendezvous state, indexed by the receiving rank so every
  /// entry is only touched from that rank's kernel shard.
  std::vector<std::unordered_map<std::uint64_t, PendingRdvRecv>> pending_rdv_recvs_;
  /// Per-sender rendezvous sequence numbers; ids embed the sender rank so
  /// they stay globally unique without a shared counter. They travel in
  /// RTS/CTS headers only and never reach application-visible bytes.
  std::vector<std::uint64_t> rdv_seq_;
  std::vector<int> coll_seq_;
  std::vector<std::shared_ptr<void>> obj_registry_;
  std::vector<int> obj_seq_;
  std::mutex obj_mu_;
};

}  // namespace unr::runtime
