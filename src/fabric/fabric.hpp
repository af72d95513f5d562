// The simulated interconnect: topology, RMA verbs (PUT/GET with immediate
// data), and small active messages for control traffic.
//
// This is the stand-in for GLEX / ibverbs / uTofu / uGNI / PAMI / Portals in
// the paper's UNR Transport Layer. It reproduces the properties UNR's design
// is built around:
//   * per-NIC serialization (multi-NIC aggregation pays off),
//   * per-message custom bits truncated to the interface's width (Table II),
//   * bounded remote completion queues that someone must drain,
//   * adaptive-routing jitter (fragments may arrive out of order),
//   * an optional hardware addend offload (the paper's proposed level 4).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/flat_table.hpp"
#include "common/profile.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fabric/custom_bits.hpp"
#include "fabric/fault.hpp"
#include "fabric/memory.hpp"
#include "fabric/nic.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/kernel.hpp"
#include "sim/node.hpp"

namespace unr::fabric {

class Fabric {
 public:
  /// NACK/backoff policy for deliveries that find the remote CQ full, and
  /// the retransmission cap for injected drops. The first retry waits the
  /// profile's cq_retry_delay (the backoff base); subsequent retries grow by
  /// `multiplier` up to `max_delay`, with a deterministic per-retry jitter
  /// that desynchronizes retriers (a fixed delay marches every NACKed sender
  /// in lockstep, turning one overflow into a retry storm).
  struct RetryPolicy {
    double multiplier = 2.0;  ///< backoff growth per consecutive NACK
    Time max_delay = 0;       ///< delay cap; 0 = 32x the backoff base
    double jitter_frac = 0.25;  ///< jitter window as a fraction of the delay
    /// Hard cap on delivery attempts (NACK retries + drop retransmissions),
    /// interpreted identically on every path: attempts up to and including
    /// max_attempts are allowed, attempt max_attempts + 1 fails loudly. If
    /// nothing drains the CQ for this long, the configuration is broken and
    /// we fail loudly instead of spinning the event loop forever.
    int max_attempts = 100000;
  };

  struct Config {
    int nodes = 2;
    int ranks_per_node = 1;
    unr::SystemProfile profile;
    std::size_t max_regions_per_rank = 0;  ///< 0 = unlimited
    std::uint64_t seed = 1;
    bool deterministic_routing = false;    ///< disable jitter entirely
    RetryPolicy retry;
    FaultConfig faults;
    /// Sender-side timeout before a delivery lost to a NIC failure or an
    /// injected drop is detected and re-issued.
    Time fault_detect_delay = 10 * kUs;
  };

  Fabric(sim::Kernel& kernel, Config cfg);
  ~Fabric();  // out-of-line: owns pools of the private Flight/AmFlight types
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- Topology ---
  int nranks() const { return cfg_.nodes * cfg_.ranks_per_node; }
  int node_count() const { return cfg_.nodes; }
  int ranks_per_node() const { return cfg_.ranks_per_node; }
  int node_of(int rank) const { return rank / cfg_.ranks_per_node; }
  int nics_per_node() const { return cfg_.profile.nics_per_node; }
  /// The NIC a rank uses by default (ranks round-robin over the node's NICs).
  int default_nic(int rank) const { return rank % nics_per_node(); }

  Nic& nic(int node, int index);
  const Nic& nic(int node, int index) const;
  /// The first healthy NIC on `node` at or after `preferred` (round-robin);
  /// fails loudly when every NIC on the node is dead.
  int pick_healthy_nic(int node, int preferred) const;
  /// Indices of the node's NICs that have not failed, in ascending order.
  std::vector<int> healthy_nics(int node) const;
  int healthy_nic_count(int node) const;
  sim::Machine& machine() { return machine_; }
  sim::Node& node_of_rank(int rank) { return machine_.node(node_of(rank)); }
  MemRegistry& memory() { return memory_; }
  const unr::SystemProfile& profile() const { return cfg_.profile; }
  const Personality& iface() const { return iface_; }
  sim::Kernel& kernel() { return kernel_; }

  // --- RMA verbs (non-blocking; they only schedule events) ---
  struct PutArgs {
    int src_rank = -1;
    const void* src = nullptr;  ///< local source buffer
    MemRef dst;                 ///< remote destination
    std::size_t size = 0;
    int nic_index = -1;         ///< -1: the source rank's default NIC

    CustomBits remote_imm;      ///< delivered with the remote CQE
    bool want_remote_cqe = false;
    CustomBits local_imm;       ///< delivered with the local CQE
    bool want_local_cqe = false;

    bool ordered = false;  ///< FIFO w.r.t. other ordered traffic on (src,dst)

    /// Level-4 hardware offload: the NIC applies *hw_add_target += hw_addend
    /// at delivery time (no software on the critical path) and then invokes
    /// hw_notify. This is the paper's proposed RMA+atomic combination.
    std::int64_t* hw_add_target = nullptr;
    std::int64_t hw_addend = 0;
    std::function<void()> hw_notify;

    /// Zero-cost hooks for the runtime layer (window counters, rendezvous).
    std::function<void()> on_delivered;
    std::function<void()> on_local_complete;

    /// Resilience hook: invoked (after fault_detect_delay) when the message
    /// was lost to a NIC that failed mid-flight. When set, the CALLER owns
    /// recovery — UNR's splitter re-issues the sub-message on a surviving
    /// NIC with the MMAS addends re-encoded. When unset, the fabric
    /// retransmits on a surviving NIC itself.
    std::function<void()> on_lost;
  };
  void put(PutArgs a);

  struct GetArgs {
    int src_rank = -1;          ///< the rank issuing the GET
    void* dst = nullptr;        ///< local destination buffer
    MemRef src;                 ///< remote source
    std::size_t size = 0;
    int nic_index = -1;

    CustomBits remote_imm;      ///< CQE at the data owner (if iface supports it)
    bool want_remote_cqe = false;
    CustomBits local_imm;       ///< CQE at the reader when data lands
    bool want_local_cqe = false;

    std::int64_t* hw_add_target = nullptr;  ///< applied at the READER on landing
    std::int64_t hw_addend = 0;
    std::function<void()> hw_notify;

    /// Owner-side hardware offload, applied when the response leaves the
    /// data owner's NIC (level-4 GET notification at the remote).
    std::int64_t* owner_hw_add_target = nullptr;
    std::int64_t owner_hw_addend = 0;
    std::function<void()> owner_hw_notify;

    std::function<void()> on_complete;  ///< runtime hook at the reader
  };
  void get(GetArgs a);

  // --- Active messages (small control traffic for the runtime layer) ---
  using AmHandler =
      std::function<void(int src_rank, const std::vector<std::byte>& payload)>;
  /// A fresh AM channel id. Ids are dense from 0 and never reused: each
  /// protocol opens the channels it uses, so no layer knows another's ids.
  /// Callable from any kernel shard (windows open channels mid-run).
  int open_am_channel();
  /// Install `rank`'s handler on an opened channel. One handler per
  /// (rank, channel): a second one fails loudly instead of replacing the
  /// first. During a run, only the rank's own shard may call this.
  void set_am_handler(int rank, int channel, AmHandler h);
  /// Fails loudly on a channel that was never opened.
  void send_am(int src_rank, int dst_rank, int channel, std::vector<std::byte> payload,
               int nic_index = -1, bool ordered = false);

  /// A reusable payload buffer from the fabric's AM arena, sized to `size`.
  /// Buffers handed to send_am() are recycled into the arena after their
  /// handler returns, so steady-state AM traffic allocates nothing: callers
  /// that pack payloads per message (the runtime's eager path) should start
  /// from here instead of a fresh std::vector.
  std::vector<std::byte> acquire_am_buffer(std::size_t size);

  /// Health and recovery counters for the resilience layer.
  struct ResilienceStats {
    std::uint64_t backoff_ns = 0;       ///< virtual time spent in NACK backoff
    std::uint64_t injected_drops = 0;   ///< deliveries dropped by the injector
    std::uint64_t injected_delays = 0;  ///< deliveries held up by the injector
    std::uint64_t retransmits = 0;      ///< wire traversals repeated after a drop
    std::uint64_t nic_failures = 0;     ///< NICs failed by the fault schedule
    std::uint64_t lost_to_nic = 0;      ///< messages lost inside a dying NIC
    std::uint64_t failovers = 0;        ///< deliveries moved to a surviving NIC
  };

  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t ams = 0;
    std::uint64_t put_bytes = 0;
    std::uint64_t get_bytes = 0;
    std::uint64_t cq_retries = 0;  ///< deliveries NACKed on a full remote CQ
    ResilienceStats resilience;
  };
  /// DEPRECATED shim (one PR): a snapshot materialized from the kernel's
  /// obs::Registry, which now owns all fabric counters (names under
  /// "fabric.*" — see docs/OBSERVABILITY.md). Prefer reading the registry.
  Stats stats() const;

  /// Total remote-CQ overflow events across all NICs.
  std::uint64_t total_cq_overflows() const;

  /// Flight-pool conservation snapshot. A live flight is pool-owned but not
  /// on the free list; after a quiesced run every event chain's terminal
  /// handler has returned its flight, so nonzero live counts at teardown
  /// mean a chain leaked its pooled Flight/AmFlight.
  struct PoolDebug {
    std::size_t flights_total = 0, flights_free = 0;
    std::size_t am_total = 0, am_free = 0;
    std::size_t live_flights() const { return flights_total - flights_free; }
    std::size_t live_am_flights() const { return am_total - am_free; }
  };
  PoolDebug pool_debug() const;

  /// Backoff delay before NACK retry number `attempt` (1-based). `stream`
  /// selects the deterministic jitter sequence — the fabric keys it by
  /// flight identity so simultaneously-NACKed senders desynchronize. A pure
  /// function of the configuration, exposed for tests and the fault-ablation
  /// bench: previewing delays cannot perturb simulation state.
  Time nack_backoff_delay(int attempt, std::uint64_t stream = 0) const;

 private:
  struct Flight;    // one PUT in transit (args + payload + attempt bookkeeping)
  struct AmFlight;  // one active message in transit

  /// Pre-resolved registry handles: hot-path accounting is one pointer-
  /// indirect add, no name lookup ever happens after construction.
  struct Metrics {
    obs::Counter puts, gets, ams, put_bytes, get_bytes, cq_retries;
    obs::Counter backoff_ns, injected_drops, injected_delays, retransmits;
    obs::Counter nic_failures, lost_to_nic, failovers;
    /// Per-NIC delivered remote CQEs, flat [node * nics_per_node + index].
    std::vector<obs::Counter> nic_cqes;
    /// Per-rank PUT issue counts (label rank=R).
    std::vector<obs::Counter> rank_puts;
  };

  /// Interned trace strings + cached enabled flag. The tracer's configure()
  /// happens before the Fabric exists (World does it first), so caching the
  /// flag here keeps every disabled-path check a single member-bool test.
  struct TraceIds {
    bool on = false;
    obs::StrId cat_flight, cat_am, cat_get, cat_fault;
    obs::StrId put, get, am, nack, retransmit, lost, failover, nic_failure, cq_burst;
    obs::StrId k_src, k_dst, k_size, k_nic, k_attempt, k_delay_ns;
  };
  void init_telemetry();

  /// One-way wire+switch latency between two nodes (intra-node traffic does
  /// not cross the switch fabric and pays a scaled-down cost).
  Time one_way_latency(int src_node, int dst_node) const;
  Time wire_arrival(int src_node, int dst_node, Time tx_done, bool ordered, int src_rank,
                    int dst_rank, Time extra = 0);
  void launch_put(Flight* f);
  void arrive_put(Flight* f, Time arrival);
  void deliver_put(Flight* f, Time arrival);
  void recover_lost_put(Flight* f);
  void launch_am(AmFlight* m);
  void deliver_am(AmFlight* m);
  void deliver_am_payload(AmFlight* m);
  void ordered_ready_put(Flight* f, Time arrival);
  void ordered_ready_am(AmFlight* m);
  void advance_ordered(std::uint64_t key);
  Time am_header_bytes() const { return 64; }

  // --- Flight pools: one PUT/AM in transit is a pooled object, not a
  // shared_ptr-per-message. The fabric owns every flight; the event chain
  // carries a raw pointer and the terminal handler of each chain returns the
  // flight to its free list. Steady-state traffic therefore allocates
  // nothing per message (the payload vectors keep their capacity too).
  Flight* acquire_flight();
  void release_flight(Flight* f);
  AmFlight* acquire_am_flight();
  void release_am_flight(AmFlight* m);
  void recycle_am_buffer(std::vector<std::byte>&& buf);

  Nic& nic_at(int node, int index) {
    return nics_[static_cast<std::size_t>(node * cfg_.profile.nics_per_node + index)];
  }
  const Nic& nic_at(int node, int index) const {
    return nics_[static_cast<std::size_t>(node * cfg_.profile.nics_per_node + index)];
  }

  /// True when `rank`'s simulated node is owned by the calling kernel shard
  /// (always true on an unsharded kernel). Optional early validation against
  /// another shard's state is skipped and left to the owning shard's
  /// delivery event, which performs the same checks.
  bool shard_local(int rank) const {
    return !kernel_.sharded() ||
           kernel_.current_shard() == kernel_.shard_of_node(node_of(rank));
  }

  /// Shard-safe variant of Nic::lost_in_tx for the delivery side. The
  /// receiver's shard may evaluate a delivery concurrently with the sender's
  /// shard running the fault event that flips the NIC's mutable failed flag,
  /// so under sharding the predicate is computed from the immutable fault
  /// schedule instead: the failure is visible once the caller's clock (`at`)
  /// has reached it, and the message was lost if it was still in the send
  /// engine then. Unsharded, the legacy flag path runs bit-identically.
  bool nic_lost_in_tx(const Nic& n, Time at, Time tx_done) const {
    if (!kernel_.sharded()) return n.lost_in_tx(tx_done);
    const Time planned = n.scheduled_fail();
    return planned <= at && planned < tx_done;
  }

  sim::Kernel& kernel_;
  Config cfg_;
  Personality iface_;
  sim::Machine machine_;
  MemRegistry memory_;
  std::vector<Nic> nics_;  ///< flat [node * nics_per_node + index]
  Metrics m_;
  TraceIds tr_;
  /// One entry of a stream's reorder buffer: a flight whose traversal
  /// succeeded but whose predecessor is still recovering.
  struct HeldOrdered {
    bool am = false;
    void* flight = nullptr;  ///< Flight* or AmFlight* according to `am`
  };
  /// Receiver-side release state of one (src,dst) ordered stream. The FIFO
  /// tail (ShardCtx::fifo_tail) orders arrival *events* for healthy traffic,
  /// but a NIC-death failover re-enters the launch path and reserves a fresh
  /// (later) slot, letting traffic queued behind the lost message overtake
  /// it. The receiver therefore sequences ordered deliveries and holds back
  /// any that lands ahead of a recovering predecessor — a reorder buffer,
  /// exactly as in a reliable in-order transport. Send-side sequence numbers
  /// live separately in ShardCtx::order_next_send (the sender's shard).
  struct OrderedStream {
    std::uint64_t next_release = 0;  ///< next sequence allowed to deliver
    std::map<std::uint64_t, HeldOrdered> held;  ///< out-of-order arrivals
  };
  /// Mutable launch/delivery state, one instance per kernel worker shard
  /// (exactly one on an unsharded kernel). Every field is only touched by
  /// the shard the current event or actor runs on: send-side state (RNG,
  /// injector, id sequences, FIFO tails, send cursors) belongs to the
  /// sender's shard, receive-side state (reorder buffers) to the receiver's,
  /// and the flight pools recycle into whichever shard releases the flight —
  /// objects migrate between free lists exactly like the kernel's event
  /// nodes, and pool_debug() conserves over the global sums. Shard 0 is
  /// seeded exactly like the pre-shard fabric, so a single-shard run is
  /// bit-identical to the golden pins; higher shards fork decorrelated
  /// streams, making multi-shard runs reproducible per (seed, K).
  struct ShardCtx {
    // Out-of-line (fabric.cpp): the pools hold the incomplete Flight types.
    ShardCtx(std::uint64_t rng_seed, const FaultConfig& faults,
             std::uint64_t fault_seed);
    ~ShardCtx();
    Rng rng;
    FaultInjector injector;
    std::uint64_t flight_seq = 0;  // per-flight identity (keys backoff jitter)
    // Trace-span ids for AMs/GETs are separate sequences: flight_seq keys
    // the NACK-backoff jitter streams, so sharing it would shift PUT flight
    // ids and perturb seeded timelines.
    std::uint64_t am_seq = 0;
    std::uint64_t get_seq = 0;
    /// Ordered-traffic FIFO tail per (src,dst) rank pair, key-packed flat.
    FlatU64Map<Time> fifo_tail;
    FlatU64Map<std::uint64_t> order_next_send;  ///< send-side stream cursors
    FlatU64Map<OrderedStream> order_recv;       ///< reorder buffers (receiver)
    std::vector<std::unique_ptr<Flight>> flight_pool;
    std::vector<Flight*> flight_free;
    std::vector<std::unique_ptr<AmFlight>> am_pool;
    std::vector<AmFlight*> am_free;
    std::vector<std::vector<std::byte>> am_arena;  ///< recycled payload buffers
  };
  /// The calling shard's context (index 0 unsharded / outside a run).
  ShardCtx& sctx() {
    return *shard_ctx_[static_cast<std::size_t>(kernel_.current_shard())];
  }
  /// Flight/AM ids carry the allocating shard in the top bits so per-shard
  /// sequences never collide; shard 0 produces the legacy id values.
  std::uint64_t shard_id_tag() const {
    return static_cast<std::uint64_t>(kernel_.current_shard()) << 48;
  }
  std::vector<std::unique_ptr<ShardCtx>> shard_ctx_;
  std::atomic<int> am_channels_{0};  ///< ids handed out by open_am_channel
  /// Dense handler table [rank][channel], as wide as the opened channels.
  /// Row r is only touched on rank r's shard: its owner installs handlers
  /// there and deliveries to r run there.
  std::vector<std::vector<AmHandler>> am_handlers_;
};

}  // namespace unr::fabric
