#include "fabric/fabric.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.hpp"

namespace unr::fabric {

namespace {
/// Intra-node traffic does not cross the switch fabric.
constexpr double kIntraLatencyFactor = 0.25;

/// Recycled AM payload buffers kept beyond this are returned to the heap;
/// steady-state traffic needs roughly (in-flight AMs) buffers, far below it.
constexpr std::size_t kAmArenaMax = 64;

/// Ordered-stream sequence numbers are assigned once, at first launch;
/// retransmissions keep theirs. The sentinel marks a not-yet-sequenced
/// (or unordered) flight.
constexpr std::uint64_t kNoOrderSeq = ~std::uint64_t{0};
}  // namespace

/// One PUT in transit: the caller's arguments, the payload snapshot, and the
/// attempt bookkeeping the resilience layer needs to retransmit or fail over.
/// Pooled: acquired in put(), released by the terminal handler of whichever
/// event chain finishes the flight.
struct Fabric::Flight {
  PutArgs args;
  std::vector<std::byte> data;
  std::uint64_t id = 0;    ///< stable per-flight identity (keys backoff jitter)
  Time tx_done = 0;        ///< when the source NIC finished injecting
  int wire_attempts = 0;   ///< wire traversals (first send + retransmissions)
  int cq_attempts = 0;     ///< consecutive NACKs at the destination CQ
  bool redirect_counted = false;  ///< dst/local CQE redirect already counted
  std::uint64_t order_seq = kNoOrderSeq;  ///< position in the (src,dst) ordered stream
};

/// One active message in transit (payload + retransmission count). Pooled
/// like Flight; its payload buffer is recycled into the AM arena.
struct Fabric::AmFlight {
  int src_rank = -1;
  int dst_rank = -1;
  int channel = 0;
  std::vector<std::byte> payload;
  int nic_index = 0;
  bool ordered = false;
  Time tx_done = 0;  ///< when the source NIC finished injecting
  int attempts = 1;
  std::uint64_t id = 0;  ///< trace-span identity (separate from flight ids)
  std::uint64_t order_seq = kNoOrderSeq;  ///< position in the (src,dst) ordered stream
};

Fabric::Fabric(sim::Kernel& kernel, Config cfg)
    : kernel_(kernel),
      cfg_(std::move(cfg)),
      iface_(personality(cfg_.profile.iface)),
      machine_(cfg_.nodes, cfg_.profile.cores_per_node),
      memory_(cfg_.max_regions_per_rank, cfg_.nodes * cfg_.ranks_per_node) {
  UNR_CHECK(cfg_.nodes >= 1 && cfg_.ranks_per_node >= 1);
  UNR_CHECK(cfg_.profile.nics_per_node >= 1);
  UNR_CHECK(cfg_.retry.max_attempts >= 1 && cfg_.retry.multiplier >= 1.0);
  // One mutable-state context per kernel shard. Shard 0 is seeded exactly
  // like the pre-shard single-context fabric; higher shards fork
  // decorrelated RNG/fault streams from the same configuration seed.
  const int nshards = kernel_.shard_count();
  shard_ctx_.reserve(static_cast<std::size_t>(nshards));
  for (int s = 0; s < nshards; ++s) {
    const std::uint64_t fork =
        s == 0 ? cfg_.seed
               : mix64(cfg_.seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(s));
    shard_ctx_.push_back(std::make_unique<ShardCtx>(fork, cfg_.faults, fork));
  }
  nics_.reserve(static_cast<std::size_t>(cfg_.nodes * cfg_.profile.nics_per_node));
  for (int n = 0; n < cfg_.nodes; ++n) {
    for (int i = 0; i < cfg_.profile.nics_per_node; ++i) {
      nics_.emplace_back(n, i, cfg_.profile.nic_gbps, cfg_.profile.nic_overhead,
                         cfg_.profile.cq_depth);
    }
  }
  am_handlers_.resize(static_cast<std::size_t>(nranks()));
  init_telemetry();

  // Schedule the configured fault timeline. The events sit in the kernel's
  // queue until the run reaches their virtual timestamps; each is routed to
  // the shard owning the target NIC's node (a no-op routing when unsharded).
  for (const auto& nf : cfg_.faults.nic_faults) {
    UNR_CHECK_MSG(nf.node >= 0 && nf.node < cfg_.nodes && nf.index >= 0 &&
                      nf.index < nics_per_node(),
                  "NIC fault targets nonexistent NIC (" << nf.node << ", " << nf.index
                                                        << ")");
    // The immutable schedule backs cross-shard loss checks (nic_lost_in_tx).
    nic(nf.node, nf.index).schedule_fail(nf.at);
    kernel_.post_at_node(nf.node, nf.at, [this, nf] {
      Nic& n = nic(nf.node, nf.index);
      if (n.failed()) return;
      n.fail(kernel_.now());
      m_.nic_failures.inc();
      if (tr_.on)
        kernel_.telemetry().tracer().instant(nf.node, obs::kNicTidBase + nf.index,
                                             tr_.cat_fault, tr_.nic_failure);
    });
  }
  for (const auto& b : cfg_.faults.cq_bursts) {
    UNR_CHECK_MSG(b.node >= 0 && b.node < cfg_.nodes && b.index >= 0 &&
                      b.index < nics_per_node(),
                  "CQ burst targets nonexistent NIC (" << b.node << ", " << b.index
                                                       << ")");
    kernel_.post_at_node(b.node, b.at, [this, b] {
      if (tr_.on)
        kernel_.telemetry().tracer().instant(b.node, obs::kNicTidBase + b.index,
                                             tr_.cat_fault, tr_.cq_burst);
      nic(b.node, b.index).remote_cq().add_pressure(b.entries);
      if (b.duration > 0)
        kernel_.post_in(b.duration, [this, b] {
          nic(b.node, b.index).remote_cq().release_pressure(b.entries);
        });
    });
  }
}

Fabric::~Fabric() = default;

Fabric::ShardCtx::ShardCtx(std::uint64_t rng_seed, const FaultConfig& faults,
                           std::uint64_t fault_seed)
    : rng(rng_seed), injector(faults, fault_seed) {}

Fabric::ShardCtx::~ShardCtx() = default;

void Fabric::init_telemetry() {
  obs::Registry& reg = kernel_.telemetry().registry();
  m_.puts = reg.counter("fabric.puts");
  m_.gets = reg.counter("fabric.gets");
  m_.ams = reg.counter("fabric.ams");
  m_.put_bytes = reg.counter("fabric.put_bytes");
  m_.get_bytes = reg.counter("fabric.get_bytes");
  m_.cq_retries = reg.counter("fabric.cq_retries");
  m_.backoff_ns = reg.counter("fabric.resilience.backoff_ns");
  m_.injected_drops = reg.counter("fabric.resilience.injected_drops");
  m_.injected_delays = reg.counter("fabric.resilience.injected_delays");
  m_.retransmits = reg.counter("fabric.resilience.retransmits");
  m_.nic_failures = reg.counter("fabric.resilience.nic_failures");
  m_.lost_to_nic = reg.counter("fabric.resilience.lost_to_nic");
  m_.failovers = reg.counter("fabric.resilience.failovers");
  const int npn = nics_per_node();
  m_.nic_cqes.reserve(static_cast<std::size_t>(cfg_.nodes * npn));
  for (int n = 0; n < cfg_.nodes; ++n)
    for (int i = 0; i < npn; ++i)
      m_.nic_cqes.push_back(reg.counter(
          "fabric.nic.remote_cqes",
          {{"node", std::to_string(n)}, {"nic", std::to_string(i)}}));
  m_.rank_puts.reserve(static_cast<std::size_t>(nranks()));
  for (int r = 0; r < nranks(); ++r)
    m_.rank_puts.push_back(
        reg.counter("fabric.rank.puts", {{"rank", std::to_string(r)}}));

  obs::Tracer& trc = kernel_.telemetry().tracer();
  tr_.on = trc.enabled();
  tr_.cat_flight = trc.intern("flight");
  tr_.cat_am = trc.intern("am");
  tr_.cat_get = trc.intern("get");
  tr_.cat_fault = trc.intern("fault");
  tr_.put = trc.intern("put");
  tr_.get = trc.intern("get");
  tr_.am = trc.intern("am");
  tr_.nack = trc.intern("cq_nack");
  tr_.retransmit = trc.intern("retransmit");
  tr_.lost = trc.intern("lost_to_nic");
  tr_.failover = trc.intern("failover");
  tr_.nic_failure = trc.intern("nic_failure");
  tr_.cq_burst = trc.intern("cq_burst");
  tr_.k_src = trc.intern("src");
  tr_.k_dst = trc.intern("dst");
  tr_.k_size = trc.intern("size");
  tr_.k_nic = trc.intern("nic");
  tr_.k_attempt = trc.intern("attempt");
  tr_.k_delay_ns = trc.intern("delay_ns");
  if (tr_.on) {
    for (int n = 0; n < cfg_.nodes; ++n) {
      trc.set_process_name(n, "node " + std::to_string(n));
      for (int i = 0; i < npn; ++i)
        trc.set_thread_name(n, obs::kNicTidBase + i, "nic " + std::to_string(i));
    }
  }
}

Fabric::Stats Fabric::stats() const {
  Stats s;
  s.puts = m_.puts.value();
  s.gets = m_.gets.value();
  s.ams = m_.ams.value();
  s.put_bytes = m_.put_bytes.value();
  s.get_bytes = m_.get_bytes.value();
  s.cq_retries = m_.cq_retries.value();
  s.resilience.backoff_ns = m_.backoff_ns.value();
  s.resilience.injected_drops = m_.injected_drops.value();
  s.resilience.injected_delays = m_.injected_delays.value();
  s.resilience.retransmits = m_.retransmits.value();
  s.resilience.nic_failures = m_.nic_failures.value();
  s.resilience.lost_to_nic = m_.lost_to_nic.value();
  s.resilience.failovers = m_.failovers.value();
  return s;
}

Nic& Fabric::nic(int node, int index) {
  UNR_CHECK(node >= 0 && node < cfg_.nodes);
  UNR_CHECK(index >= 0 && index < nics_per_node());
  return nic_at(node, index);
}

const Nic& Fabric::nic(int node, int index) const {
  UNR_CHECK(node >= 0 && node < cfg_.nodes);
  UNR_CHECK(index >= 0 && index < nics_per_node());
  return nic_at(node, index);
}

int Fabric::pick_healthy_nic(int node, int preferred) const {
  const int n = nics_per_node();
  for (int k = 0; k < n; ++k) {
    const int idx = (preferred + k) % n;
    if (!nic(node, idx).failed()) return idx;
  }
  UNR_CHECK_MSG(false, "every NIC on node " << node << " has failed — unreachable");
  __builtin_unreachable();
}

std::vector<int> Fabric::healthy_nics(int node) const {
  std::vector<int> out;
  for (int i = 0; i < nics_per_node(); ++i)
    if (!nic(node, i).failed()) out.push_back(i);
  return out;
}

int Fabric::healthy_nic_count(int node) const {
  int n = 0;
  for (int i = 0; i < nics_per_node(); ++i)
    if (!nic(node, i).failed()) ++n;
  return n;
}

// --- Flight pools -----------------------------------------------------------

// Pools are per shard; a flight acquired on one shard may be released into
// another's free list when its terminal handler runs there (AM flights
// complete at the receiver). Objects migrate between free lists exactly like
// the kernel's event nodes; pool_debug() conserves over the global sums.

Fabric::Flight* Fabric::acquire_flight() {
  ShardCtx& c = sctx();
  if (!c.flight_free.empty()) {
    Flight* f = c.flight_free.back();
    c.flight_free.pop_back();
    return f;
  }
  c.flight_pool.push_back(std::make_unique<Flight>());
  return c.flight_pool.back().get();
}

void Fabric::release_flight(Flight* f) {
  f->args = PutArgs{};  // drop the callbacks (they may pin caller state)
  f->data.clear();      // keep capacity for the next payload snapshot
  f->id = 0;
  f->tx_done = 0;
  f->wire_attempts = 0;
  f->cq_attempts = 0;
  f->redirect_counted = false;
  f->order_seq = kNoOrderSeq;
  sctx().flight_free.push_back(f);
}

Fabric::AmFlight* Fabric::acquire_am_flight() {
  ShardCtx& c = sctx();
  if (!c.am_free.empty()) {
    AmFlight* m = c.am_free.back();
    c.am_free.pop_back();
    return m;
  }
  c.am_pool.push_back(std::make_unique<AmFlight>());
  return c.am_pool.back().get();
}

void Fabric::release_am_flight(AmFlight* m) {
  m->payload.clear();
  m->tx_done = 0;
  m->attempts = 1;
  m->id = 0;
  m->order_seq = kNoOrderSeq;
  sctx().am_free.push_back(m);
}

std::vector<std::byte> Fabric::acquire_am_buffer(std::size_t size) {
  ShardCtx& c = sctx();
  std::vector<std::byte> buf;
  if (!c.am_arena.empty()) {
    buf = std::move(c.am_arena.back());
    c.am_arena.pop_back();
  }
  buf.resize(size);
  return buf;
}

void Fabric::recycle_am_buffer(std::vector<std::byte>&& buf) {
  ShardCtx& c = sctx();
  if (buf.capacity() == 0 || c.am_arena.size() >= kAmArenaMax) return;
  buf.clear();
  c.am_arena.push_back(std::move(buf));
}

// ----------------------------------------------------------------------------

Time Fabric::one_way_latency(int src_node, int dst_node) const {
  Time lat = cfg_.profile.wire_latency;
  if (src_node == dst_node)
    lat = static_cast<Time>(static_cast<double>(lat) * kIntraLatencyFactor);
  return lat;
}

Time Fabric::wire_arrival(int src_node, int dst_node, Time tx_done, bool ordered,
                          int src_rank, int dst_rank, Time extra) {
  // `extra` (injected delay, folded-in retransmission cost) is added BEFORE
  // the FIFO slot is reserved: an ordered delivery that is held up pushes
  // the whole (src,dst) channel back with it, so a companion launched later
  // can never overtake it.
  Time arrival = tx_done + one_way_latency(src_node, dst_node) + extra;
  if (!ordered && !cfg_.deterministic_routing && cfg_.profile.jitter > 0)
    arrival += static_cast<Time>(sctx().rng.below(cfg_.profile.jitter + 1));
  if (ordered) {
    Time& tail = sctx().fifo_tail.get_or_insert(pack_pair(src_rank, dst_rank));
    if (arrival <= tail) arrival = tail + 1;
    tail = arrival;
  }
  return arrival;
}

Time Fabric::nack_backoff_delay(int attempt, std::uint64_t stream) const {
  const Time base = std::max<Time>(cfg_.profile.cq_retry_delay, 1);
  const Time cap = cfg_.retry.max_delay > 0
                       ? cfg_.retry.max_delay
                       : 32 * base;
  double d = static_cast<double>(base);
  const int growth_steps = std::min(attempt - 1, 64);
  for (int i = 0; i < growth_steps && d < static_cast<double>(cap); ++i)
    d *= cfg_.retry.multiplier;
  Time delay = static_cast<Time>(std::min(d, static_cast<double>(cap)));
  // The first retry keeps the exact base delay (bit-compatible with the
  // pre-backoff fabric for single NACKs); later retries add deterministic
  // jitter so that simultaneously-NACKed senders fan out instead of
  // hammering the CQ in lockstep. The jitter is a pure hash of
  // (seed, stream, attempt) — distinct flights retrying the same attempt
  // number desynchronize, and previewing delays never shifts the sequence
  // the simulation itself sees.
  if (attempt > 1 && cfg_.retry.jitter_frac > 0.0) {
    const Time window =
        static_cast<Time>(static_cast<double>(delay) * cfg_.retry.jitter_frac);
    if (window > 0) {
      const std::uint64_t h =
          mix64(cfg_.seed ^ mix64(stream + 1) ^
                (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(attempt)));
      delay += static_cast<Time>(h % (static_cast<std::uint64_t>(window) + 1));
    }
  }
  return delay;
}

void Fabric::put(PutArgs args) {
  UNR_CHECK(args.src_rank >= 0 && args.src_rank < nranks());
  UNR_CHECK(args.dst.valid() && args.dst.rank < nranks());
  UNR_CHECK(args.src != nullptr || args.size == 0);
  // Resolve the destination now so that addressing errors surface at the
  // call site, not inside an event handler later. Another shard's registry
  // may be mid-registration, so cross-shard destinations skip the early
  // check — deliver_put performs the same resolve on the owning shard.
  if (shard_local(args.dst.rank)) (void)memory_.resolve(args.dst, args.size);
  if (args.nic_index >= 0) UNR_CHECK(args.nic_index < nics_per_node());

  args.remote_imm = args.remote_imm.truncated(iface_.effective_put_remote());
  args.local_imm = args.local_imm.truncated(iface_.effective_put_local());

  m_.puts.inc();
  m_.put_bytes.inc(args.size);
  m_.rank_puts[static_cast<std::size_t>(args.src_rank)].inc();

  Flight* f = acquire_flight();
  f->id = shard_id_tag() | ++sctx().flight_seq;
  if (tr_.on)
    kernel_.telemetry().tracer().async_begin(
        node_of(args.src_rank), args.src_rank, tr_.cat_flight, tr_.put, f->id,
        {{tr_.k_dst, args.dst.rank}, {tr_.k_size, static_cast<std::int64_t>(args.size)}});
  // Snapshot the payload at post time: RMA semantics require the source
  // buffer to stay unchanged until local completion, and the snapshot makes
  // the simulator robust even if callers violate that.
  f->data.resize(args.size);
  if (args.size > 0) std::memcpy(f->data.data(), args.src, args.size);
  f->args = std::move(args);
  launch_put(f);
}

void Fabric::launch_put(Flight* f) {
  PutArgs& a = f->args;
  const int src_node = node_of(a.src_rank);
  const int dst_node = node_of(a.dst.rank);
  if (a.ordered && f->order_seq == kNoOrderSeq) {
    // An ordered flight must keep its stream slot across recoveries: an
    // on_lost handler would abandon the sequence (the re-issue is a brand-new
    // flight) and wedge the reorder buffer behind the hole.
    UNR_CHECK_MSG(!a.on_lost, "ordered flights cannot use on_lost recovery");
    f->order_seq =
        sctx().order_next_send.get_or_insert(pack_pair(a.src_rank, a.dst.rank))++;
  }
  int nic_idx = a.nic_index < 0 ? default_nic(a.src_rank) : a.nic_index;
  if (nic(src_node, nic_idx).failed()) {
    nic_idx = pick_healthy_nic(src_node, nic_idx);
    m_.failovers.inc();
    if (tr_.on)
      kernel_.telemetry().tracer().instant(src_node, a.src_rank, tr_.cat_flight,
                                           tr_.failover, {{tr_.k_nic, nic_idx}});
  }
  a.nic_index = nic_idx;

  f->wire_attempts++;
  UNR_CHECK_MSG(f->wire_attempts <= cfg_.retry.max_attempts,
                "delivery to rank " << a.dst.rank << " exceeded "
                                    << cfg_.retry.max_attempts << " wire attempts");

  Nic& snic = nic(src_node, nic_idx);
  Time tx_done = snic.reserve_tx(kernel_.now(), a.size);
  const Time held = sctx().injector.extra_delay();
  if (held > 0) m_.injected_delays.inc();
  if (a.ordered) {
    // Ordered traffic rides an in-order reliable link: a dropped traversal
    // stalls the channel until the link layer retransmits it — nothing
    // queued behind it (a companion notification in particular) may
    // overtake. Evaluate the drops up front and fold each retransmission's
    // cost into the arrival that reserves the FIFO slot.
    const Time lat = one_way_latency(src_node, dst_node);
    while (sctx().injector.drop_delivery()) {
      f->wire_attempts++;
      UNR_CHECK_MSG(f->wire_attempts <= cfg_.retry.max_attempts,
                    "delivery to rank " << a.dst.rank << " exceeded "
                                        << cfg_.retry.max_attempts << " wire attempts");
      m_.injected_drops.inc();
      m_.retransmits.inc();
      if (tr_.on)
        kernel_.telemetry().tracer().instant(src_node, a.src_rank, tr_.cat_flight,
                                             tr_.retransmit,
                                             {{tr_.k_attempt, f->wire_attempts}});
      // The loss would have landed at tx_done + lat; the sender detects it
      // fault_detect_delay later and re-serializes the payload.
      tx_done = snic.reserve_tx(tx_done + lat + cfg_.fault_detect_delay, a.size);
    }
  }
  f->tx_done = tx_done;
  const Time arrival = wire_arrival(src_node, dst_node, tx_done, a.ordered, a.src_rank,
                                    a.dst.rank, held);
  // Arrival runs on the destination node's shard (where the payload lands
  // and the remote CQE fires); the wire latency covers the lookahead.
  kernel_.post_at_node(dst_node, arrival, [this, f, arrival] { arrive_put(f, arrival); });
}

void Fabric::arrive_put(Flight* f, Time arrival) {
  // Wire-level faults are evaluated once per traversal, at the instant the
  // message would have landed. This runs on the destination's shard, so the
  // source NIC's health is read through the immutable fault schedule.
  const Nic& snic = nic(node_of(f->args.src_rank), f->args.nic_index);
  const int src_node = node_of(f->args.src_rank);
  if (nic_lost_in_tx(snic, arrival, f->tx_done)) {
    m_.lost_to_nic.inc();
    if (tr_.on)
      kernel_.telemetry().tracer().instant(node_of(f->args.src_rank), f->args.src_rank,
                                           tr_.cat_flight, tr_.lost,
                                           {{tr_.k_nic, f->args.nic_index}});
    // Recovery re-launches from the source: route it back to the source's
    // shard (fault_detect_delay bounds the lookahead when faults are armed).
    kernel_.post_at_node(src_node, kernel_.now() + cfg_.fault_detect_delay,
                         [this, f] { recover_lost_put(f); });
    return;
  }
  // Ordered flights evaluated their drops at launch (see launch_put) so the
  // retransmissions could keep their FIFO slot.
  if (!f->args.ordered && sctx().injector.drop_delivery()) {
    m_.injected_drops.inc();
    m_.retransmits.inc();
    if (tr_.on)
      kernel_.telemetry().tracer().instant(node_of(f->args.src_rank), f->args.src_rank,
                                           tr_.cat_flight, tr_.retransmit,
                                           {{tr_.k_attempt, f->wire_attempts}});
    kernel_.post_at_node(src_node, kernel_.now() + cfg_.fault_detect_delay,
                         [this, f] { launch_put(f); });
    return;
  }
  if (f->args.ordered)
    ordered_ready_put(f, arrival);
  else
    deliver_put(f, arrival);
}

void Fabric::recover_lost_put(Flight* f) {
  m_.failovers.inc();
  if (tr_.on)
    kernel_.telemetry().tracer().instant(node_of(f->args.src_rank), f->args.src_rank,
                                         tr_.cat_flight, tr_.failover,
                                         {{tr_.k_nic, f->args.nic_index}});
  if (f->args.on_lost) {
    // The upper layer (UNR's splitter) re-issues the sub-message on a
    // surviving NIC, re-encoding its notification — this flight's span ends
    // here; the re-issue begins a new one. Detach the callback before
    // releasing the flight: recovery may immediately acquire it.
    if (tr_.on)
      kernel_.telemetry().tracer().async_end(node_of(f->args.src_rank),
                                             f->args.src_rank, tr_.cat_flight,
                                             tr_.put, f->id);
    auto on_lost = std::move(f->args.on_lost);
    release_flight(f);
    on_lost();
    return;
  }
  // No handler: the fabric retransmits itself; launch_put routes the flight
  // off the failed NIC.
  m_.retransmits.inc();
  launch_put(f);
}

void Fabric::deliver_put(Flight* f, Time arrival) {
  PutArgs& a = f->args;
  const int dst_node = node_of(a.dst.rank);
  // A CQE cannot land on a dead NIC; redirect it to a surviving one on the
  // destination node (adaptive routing re-steers the delivery).
  int dst_idx = a.nic_index;
  if (nic(dst_node, dst_idx).failed()) {
    dst_idx = pick_healthy_nic(dst_node, dst_idx);
    if (!f->redirect_counted) {
      f->redirect_counted = true;
      m_.failovers.inc();
    }
  }
  Nic& dnic = nic(dst_node, dst_idx);

  if (a.want_remote_cqe && dnic.remote_cq().full()) {
    f->cq_attempts++;
    UNR_CHECK_MSG(f->cq_attempts <= cfg_.retry.max_attempts,
                  "remote CQ on node " << dst_node << " never drained ("
                                       << f->cq_attempts << " NACKs)");
    (void)dnic.remote_cq().push({});  // records the overflow in CQ stats
    m_.cq_retries.inc();
    const Time delay = nack_backoff_delay(f->cq_attempts, f->id);
    m_.backoff_ns.inc(static_cast<std::uint64_t>(delay));
    if (tr_.on)
      kernel_.telemetry().tracer().instant(
          dst_node, obs::kNicTidBase + dst_idx, tr_.cat_flight, tr_.nack,
          {{tr_.k_src, a.src_rank},
           {tr_.k_attempt, f->cq_attempts},
           {tr_.k_delay_ns, static_cast<std::int64_t>(delay)}});
    const Time retry = kernel_.now() + delay;
    kernel_.post_at(retry, [this, f, retry] { deliver_put(f, retry); });
    return;
  }

  if (a.size > 0) {
    std::byte* dst = memory_.resolve(a.dst, a.size);
    std::memcpy(dst, f->data.data(), a.size);
  }

  // Level-4 hardware offload: atomic add applied by the NIC itself.
  if (a.hw_add_target != nullptr) {
    *a.hw_add_target += a.hw_addend;
    if (a.hw_notify) a.hw_notify();
  }

  if (a.want_remote_cqe) {
    // Width invariant: the immediate was truncated to the interface's
    // remote-PUT width at post time; no recovery/failover path may widen it.
    UNR_CHECK_MSG(a.remote_imm.fits(iface_.effective_put_remote()),
                  "remote CQE immediate exceeds the interface's "
                      << iface_.effective_put_remote() << "-bit width: "
                      << a.remote_imm.to_string());
    const bool ok = dnic.remote_cq().push(
        {CqeKind::kPutDelivered, a.src_rank, a.size, a.remote_imm, kernel_.now()});
    UNR_CHECK(ok);
    m_.nic_cqes[static_cast<std::size_t>(dst_node * nics_per_node() + dst_idx)].inc();
    dnic.fire_remote_cqe_hook();
  }
  if (a.on_delivered) a.on_delivered();

  // Local completion: the sender learns of completion one ACK later; the
  // ACK handler is the flight's terminal owner and returns it to the pool.
  // It runs on the source's shard (local CQ + caller completion hooks); the
  // ACK's wire crossing covers the lookahead.
  const int src_node = node_of(a.src_rank);
  const Time ack_lat = one_way_latency(src_node, dst_node);
  kernel_.post_at_node(src_node, arrival + ack_lat, [this, f, src_node] {
    PutArgs& args = f->args;
    int lidx = args.nic_index;
    if (nic(src_node, lidx).failed()) {
      lidx = pick_healthy_nic(src_node, lidx);
      if (!f->redirect_counted) {
        f->redirect_counted = true;
        m_.failovers.inc();
      }
    }
    Nic& snic = nic(src_node, lidx);
    if (args.want_local_cqe) {
      UNR_CHECK_MSG(args.local_imm.fits(iface_.effective_put_local()),
                    "local CQE immediate exceeds the interface's "
                        << iface_.effective_put_local() << "-bit width: "
                        << args.local_imm.to_string());
      // The local CQ is drained by the owner's progress engine; treat
      // overflow as fatal (real stacks size the send CQ to the SQ depth).
      const bool ok = snic.local_cq().push(
          {CqeKind::kPutComplete, args.dst.rank, args.size, args.local_imm, kernel_.now()});
      UNR_CHECK_MSG(ok, "local CQ overflow on node " << src_node);
      snic.fire_local_cqe_hook();
    }
    if (args.on_local_complete) args.on_local_complete();
    if (tr_.on)
      kernel_.telemetry().tracer().async_end(src_node, args.src_rank,
                                             tr_.cat_flight, tr_.put, f->id);
    release_flight(f);
  });
}

void Fabric::get(GetArgs args) {
  UNR_CHECK(args.src_rank >= 0 && args.src_rank < nranks());
  UNR_CHECK(args.src.valid() && args.src.rank < nranks());
  UNR_CHECK(args.dst != nullptr || args.size == 0);
  // Early validation only against shard-local registries (see put()); the
  // owner-side response event performs the same resolve otherwise.
  if (shard_local(args.src.rank)) (void)memory_.resolve(args.src, args.size);

  const int reader_node = node_of(args.src_rank);
  const int owner_node = node_of(args.src.rank);
  int nic_idx = args.nic_index < 0 ? default_nic(args.src_rank) : args.nic_index;
  UNR_CHECK(nic_idx < nics_per_node());
  if (nic(reader_node, nic_idx).failed()) {
    nic_idx = pick_healthy_nic(reader_node, nic_idx);
    m_.failovers.inc();
  }
  args.nic_index = nic_idx;

  args.remote_imm = args.remote_imm.truncated(iface_.effective_get_remote());
  args.local_imm = args.local_imm.truncated(iface_.effective_get_local());

  m_.gets.inc();
  m_.get_bytes.inc(args.size);
  const std::uint64_t get_id = shard_id_tag() | ++sctx().get_seq;
  if (tr_.on)
    kernel_.telemetry().tracer().async_begin(
        reader_node, args.src_rank, tr_.cat_get, tr_.get, get_id,
        {{tr_.k_src, args.src.rank}, {tr_.k_size, static_cast<std::int64_t>(args.size)}});

  // Request: a small descriptor travels to the data owner.
  Nic& rnic = nic(reader_node, nic_idx);
  const Time req_tx = rnic.reserve_tx(kernel_.now(), 64);
  const Time req_arrival = wire_arrival(reader_node, owner_node, req_tx, false,
                                        args.src_rank, args.src.rank);

  auto a = std::make_shared<GetArgs>(std::move(args));
  // The request descriptor lands at the data owner; its wire crossing covers
  // the lookahead when owner and reader live on different shards.
  kernel_.post_at_node(owner_node, req_arrival,
                       [this, a, reader_node, owner_node, get_id] {
    // The owner's NIC serializes the response; a dead NIC hands the request
    // to a surviving one.
    int oidx = a->nic_index;
    if (nic(owner_node, oidx).failed()) {
      oidx = pick_healthy_nic(owner_node, oidx);
      m_.failovers.inc();
    }
    Nic& onic = nic(owner_node, oidx);
    const Time resp_tx = onic.reserve_tx(kernel_.now(), a->size);

    // Snapshot the data at response time (this is when the NIC reads memory).
    auto data = std::make_shared<std::vector<std::byte>>(a->size);
    kernel_.post_at(resp_tx, [this, a, data, owner_node, reader_node, resp_tx, oidx,
                              get_id] {
      if (a->size > 0) {
        const std::byte* src = memory_.resolve(a->src, a->size);
        std::memcpy(data->data(), src, a->size);
      }
      // Remote (owner-side) completion, if the interface can express it:
      // Verbs offers 0 GET custom bits at remote — the CQE is silently
      // unavailable and upper layers must compensate (Table II).
      if (a->want_remote_cqe && iface_.get_remote_bits != 0) {
        UNR_CHECK_MSG(a->remote_imm.fits(iface_.effective_get_remote()),
                      "GET owner CQE immediate exceeds the interface's "
                          << iface_.effective_get_remote() << "-bit width: "
                          << a->remote_imm.to_string());
        Nic& onic2 = nic(owner_node, oidx);
        (void)onic2.remote_cq().push(
            {CqeKind::kGetDelivered, a->src_rank, a->size, a->remote_imm, kernel_.now()});
        onic2.fire_remote_cqe_hook();
      }
      if (a->owner_hw_add_target != nullptr) {
        *a->owner_hw_add_target += a->owner_hw_addend;
        if (a->owner_hw_notify) a->owner_hw_notify();
      }
      const Time arrival = wire_arrival(owner_node, reader_node, resp_tx, false,
                                        a->src.rank, a->src_rank);
      // The response returns to the reader's shard (local CQE + completion).
      kernel_.post_at_node(reader_node, arrival, [this, a, data, reader_node, get_id] {
        if (a->size > 0) std::memcpy(a->dst, data->data(), a->size);
        if (a->hw_add_target != nullptr) {
          *a->hw_add_target += a->hw_addend;
          if (a->hw_notify) a->hw_notify();
        }
        if (a->want_local_cqe) {
          UNR_CHECK_MSG(a->local_imm.fits(iface_.effective_get_local()),
                        "GET reader CQE immediate exceeds the interface's "
                            << iface_.effective_get_local() << "-bit width: "
                            << a->local_imm.to_string());
          int ridx = a->nic_index;
          if (nic(reader_node, ridx).failed()) {
            ridx = pick_healthy_nic(reader_node, ridx);
            m_.failovers.inc();
          }
          Nic& rnic2 = nic(reader_node, ridx);
          const bool ok = rnic2.local_cq().push(
              {CqeKind::kGetComplete, a->src.rank, a->size, a->local_imm, kernel_.now()});
          UNR_CHECK_MSG(ok, "local CQ overflow on node " << reader_node);
          rnic2.fire_local_cqe_hook();
        }
        if (a->on_complete) a->on_complete();
        if (tr_.on)
          kernel_.telemetry().tracer().async_end(reader_node, a->src_rank,
                                                 tr_.cat_get, tr_.get, get_id);
      });
    });
  });
}

int Fabric::open_am_channel() { return am_channels_.fetch_add(1); }

void Fabric::set_am_handler(int rank, int channel, AmHandler h) {
  UNR_CHECK(rank >= 0 && rank < nranks());
  UNR_CHECK_MSG(channel >= 0 && channel < am_channels_.load(),
                "AM channel " << channel << " was never opened");
  auto& chans = am_handlers_[static_cast<std::size_t>(rank)];
  if (static_cast<std::size_t>(channel) >= chans.size())
    chans.resize(static_cast<std::size_t>(channel) + 1);
  auto& slot = chans[static_cast<std::size_t>(channel)];
  UNR_CHECK_MSG(!slot, "rank " << rank << " already has a handler on AM channel "
                               << channel);
  slot = std::move(h);
}

void Fabric::send_am(int src_rank, int dst_rank, int channel,
                     std::vector<std::byte> payload, int nic_index, bool ordered) {
  UNR_CHECK(src_rank >= 0 && src_rank < nranks());
  UNR_CHECK(dst_rank >= 0 && dst_rank < nranks());
  UNR_CHECK_MSG(channel >= 0 && channel < am_channels_.load(),
                "AM channel " << channel << " was never opened");
  m_.ams.inc();

  AmFlight* m = acquire_am_flight();
  m->src_rank = src_rank;
  m->dst_rank = dst_rank;
  m->channel = channel;
  m->payload = std::move(payload);
  m->nic_index = nic_index < 0 ? default_nic(src_rank) : nic_index;
  m->ordered = ordered;
  m->id = shard_id_tag() | ++sctx().am_seq;
  if (tr_.on)
    kernel_.telemetry().tracer().async_begin(
        node_of(src_rank), src_rank, tr_.cat_am, tr_.am, m->id,
        {{tr_.k_dst, dst_rank},
         {tr_.k_size, static_cast<std::int64_t>(m->payload.size())}});
  launch_am(m);
}

void Fabric::launch_am(AmFlight* m) {
  const int src_node = node_of(m->src_rank);
  const int dst_node = node_of(m->dst_rank);
  if (m->ordered && m->order_seq == kNoOrderSeq)
    m->order_seq =
        sctx().order_next_send.get_or_insert(pack_pair(m->src_rank, m->dst_rank))++;
  int nic_idx = m->nic_index;
  if (nic(src_node, nic_idx).failed()) {
    // Control traffic reroutes transparently: an AM carries protocol state
    // (rendezvous, companions) that must not die with one NIC.
    nic_idx = pick_healthy_nic(src_node, nic_idx);
    m_.failovers.inc();
    if (tr_.on)
      kernel_.telemetry().tracer().instant(src_node, m->src_rank, tr_.cat_am,
                                           tr_.failover, {{tr_.k_nic, nic_idx}});
  }
  m->nic_index = nic_idx;

  Nic& snic = nic(src_node, nic_idx);
  const std::size_t bytes =
      m->payload.size() + static_cast<std::size_t>(am_header_bytes());
  Time tx_done = snic.reserve_tx(kernel_.now(), bytes);
  const Time held = sctx().injector.extra_delay();
  if (held > 0) m_.injected_delays.inc();
  if (m->ordered) {
    // Same launch-time drop evaluation as ordered PUTs: the retransmission
    // cost is folded into the FIFO slot, so an ordered companion stalls the
    // channel instead of being overtaken by traffic queued behind it.
    const Time lat = one_way_latency(src_node, dst_node);
    while (sctx().injector.drop_delivery()) {
      m->attempts++;
      UNR_CHECK_MSG(m->attempts <= cfg_.retry.max_attempts,
                    "AM to rank " << m->dst_rank << " exceeded "
                                  << cfg_.retry.max_attempts << " attempts");
      m_.injected_drops.inc();
      m_.retransmits.inc();
      if (tr_.on)
        kernel_.telemetry().tracer().instant(src_node, m->src_rank, tr_.cat_am,
                                             tr_.retransmit,
                                             {{tr_.k_attempt, m->attempts}});
      tx_done = snic.reserve_tx(tx_done + lat + cfg_.fault_detect_delay, bytes);
    }
  }
  m->tx_done = tx_done;
  const Time arrival =
      wire_arrival(src_node, dst_node, tx_done, m->ordered, m->src_rank, m->dst_rank, held);
  // Delivery runs on the receiver's shard (handler + arena recycle there).
  kernel_.post_at_node(dst_node, arrival, [this, m] { deliver_am(m); });
}

void Fabric::deliver_am(AmFlight* m) {
  // An AM still in a dying NIC's send engine is lost with it, exactly like a
  // PUT — critically, this loses a companion TOGETHER with its data, so the
  // recovery (data re-launches first, companion after) re-reserves FIFO
  // slots in the original order. Like arrive_put, this runs on the
  // receiver's shard and reads the source NIC's immutable fault schedule.
  const Nic& snic = nic(node_of(m->src_rank), m->nic_index);
  const int src_node = node_of(m->src_rank);
  if (nic_lost_in_tx(snic, kernel_.now(), m->tx_done)) {
    m_.lost_to_nic.inc();
    m_.retransmits.inc();
    if (tr_.on)
      kernel_.telemetry().tracer().instant(node_of(m->src_rank), m->src_rank,
                                           tr_.cat_am, tr_.lost,
                                           {{tr_.k_nic, m->nic_index}});
    m->attempts++;
    UNR_CHECK_MSG(m->attempts <= cfg_.retry.max_attempts,
                  "AM to rank " << m->dst_rank << " exceeded "
                                << cfg_.retry.max_attempts << " attempts");
    kernel_.post_at_node(src_node, kernel_.now() + cfg_.fault_detect_delay,
                         [this, m] { launch_am(m); });
    return;
  }
  // Link-level retransmission on injected drops: control traffic (rendezvous,
  // companions) must eventually arrive or the protocol wedges. Ordered AMs
  // evaluated their drops at launch (see launch_am) to keep their FIFO slot.
  if (!m->ordered && sctx().injector.drop_delivery()) {
    m_.injected_drops.inc();
    m_.retransmits.inc();
    if (tr_.on)
      kernel_.telemetry().tracer().instant(node_of(m->src_rank), m->src_rank,
                                           tr_.cat_am, tr_.retransmit,
                                           {{tr_.k_attempt, m->attempts}});
    m->attempts++;
    UNR_CHECK_MSG(m->attempts <= cfg_.retry.max_attempts,
                  "AM to rank " << m->dst_rank << " exceeded "
                                << cfg_.retry.max_attempts << " attempts");
    // Re-enter the launch path: the retransmission consumes send-engine
    // bandwidth and pays the (intra-node-scaled) wire latency again.
    kernel_.post_at_node(src_node, kernel_.now() + cfg_.fault_detect_delay,
                         [this, m] { launch_am(m); });
    return;
  }
  if (m->ordered)
    ordered_ready_am(m);
  else
    deliver_am_payload(m);
}

void Fabric::deliver_am_payload(AmFlight* m) {
  const auto& chans = am_handlers_[static_cast<std::size_t>(m->dst_rank)];
  const bool have = static_cast<std::size_t>(m->channel) < chans.size() &&
                    static_cast<bool>(chans[static_cast<std::size_t>(m->channel)]);
  UNR_CHECK_MSG(have, "no AM handler for rank " << m->dst_rank << " channel "
                                                << m->channel);
  chans[static_cast<std::size_t>(m->channel)](m->src_rank, m->payload);
  if (tr_.on)
    kernel_.telemetry().tracer().async_end(node_of(m->dst_rank), m->dst_rank,
                                           tr_.cat_am, tr_.am, m->id);
  recycle_am_buffer(std::move(m->payload));
  release_am_flight(m);
}

// --- Ordered-stream release: a traversal that survived its faults is only
// *eligible* to deliver; it lands when every predecessor on its (src,dst)
// stream has. In the fault-free (and drop-only) world sequence order equals
// arrival order and these release inline with zero extra state; only a
// NIC-death recovery — which re-enters the launch path and takes a fresh
// FIFO slot — populates the hold-back map.

void Fabric::ordered_ready_put(Flight* f, Time arrival) {
  const std::uint64_t key = pack_pair(f->args.src_rank, f->args.dst.rank);
  OrderedStream& st = sctx().order_recv.get_or_insert(key);
  if (f->order_seq != st.next_release) {
    st.held.emplace(f->order_seq, HeldOrdered{/*am=*/false, f});
    return;
  }
  deliver_put(f, arrival);
  advance_ordered(key);
}

void Fabric::ordered_ready_am(AmFlight* m) {
  const std::uint64_t key = pack_pair(m->src_rank, m->dst_rank);
  OrderedStream& st = sctx().order_recv.get_or_insert(key);
  if (m->order_seq != st.next_release) {
    st.held.emplace(m->order_seq, HeldOrdered{/*am=*/true, m});
    return;
  }
  deliver_am_payload(m);
  advance_ordered(key);
}

void Fabric::advance_ordered(std::uint64_t key) {
  // A delivery can issue new traffic and grow the stream table (invalidating
  // references), so the entry is re-fetched every iteration.
  while (true) {
    OrderedStream* st = sctx().order_recv.find(key);
    st->next_release++;
    const auto it = st->held.find(st->next_release);
    if (it == st->held.end()) return;
    const HeldOrdered h = it->second;
    st->held.erase(it);
    if (h.am)
      deliver_am_payload(static_cast<AmFlight*>(h.flight));
    else
      deliver_put(static_cast<Flight*>(h.flight), kernel_.now());
  }
}

Fabric::PoolDebug Fabric::pool_debug() const {
  // Flights migrate between shard pools (released into the handling shard's
  // free list), so conservation only holds over the global sums.
  PoolDebug d;
  for (const auto& sc : shard_ctx_) {
    d.flights_total += sc->flight_pool.size();
    d.flights_free += sc->flight_free.size();
    d.am_total += sc->am_pool.size();
    d.am_free += sc->am_free.size();
  }
  return d;
}

std::uint64_t Fabric::total_cq_overflows() const {
  std::uint64_t n = 0;
  for (const Nic& nc : nics_)
    n += nc.remote_cq().overflows() + nc.local_cq().overflows();
  return n;
}

}  // namespace unr::fabric
