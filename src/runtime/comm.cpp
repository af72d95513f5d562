#include "runtime/comm.hpp"

#include <cstring>

#include "common/check.hpp"

namespace unr::runtime {

namespace {

struct EagerHeader {
  std::int32_t tag;
  std::uint64_t size;
};

struct RtsHeader {
  std::int32_t tag;
  std::uint64_t size;
  std::uint64_t rdv_id;
};

struct CtsHeader {
  std::uint64_t rdv_id;
  std::uint32_t mr;
};

// Payload buffers come from the fabric's AM arena: the fabric recycles them
// after the handler runs, so the eager path allocates nothing at steady state.
template <typename H>
std::vector<std::byte> pack(fabric::Fabric& f, const H& h, const void* data = nullptr,
                            std::size_t n = 0) {
  std::vector<std::byte> v = f.acquire_am_buffer(sizeof(H) + n);
  std::memcpy(v.data(), &h, sizeof(H));
  if (n > 0) std::memcpy(v.data() + sizeof(H), data, n);
  return v;
}

template <typename H>
H unpack(const std::vector<std::byte>& v) {
  UNR_CHECK(v.size() >= sizeof(H));
  H h;
  std::memcpy(&h, v.data(), sizeof(H));
  return h;
}

void charge(fabric::Fabric& f, Time t) {
  // Only actors have a clock to charge; event handlers model NIC/firmware
  // work that is already accounted in the wire model.
  if (sim::Kernel::current_actor_id() >= 0) f.kernel().sleep_for(t);
}

}  // namespace

Comm::Comm(fabric::Fabric& fabric)
    : fabric_(fabric),
      chan_eager_(fabric.open_am_channel()),
      chan_rts_(fabric.open_am_channel()),
      chan_cts_(fabric.open_am_channel()) {
  obs::Telemetry& tel = fabric_.kernel().telemetry();
  m_.eager_sends = tel.registry().counter("comm.eager_sends");
  m_.rts_sends = tel.registry().counter("comm.rts_sends");
  m_.cts_sends = tel.registry().counter("comm.cts_sends");
  m_.unexpected_msgs = tel.registry().counter("comm.unexpected_msgs");
  tr_.on = tel.tracer().enabled();
  tr_.cat = tel.tracer().intern("rdv");
  tr_.rdv = tel.tracer().intern("rendezvous");
  tr_.eager = tel.tracer().intern("eager");
  tr_.rts = tel.tracer().intern("rts");
  tr_.k_src = tel.tracer().intern("src");
  tr_.k_dst = tel.tracer().intern("dst");
  tr_.k_size = tel.tracer().intern("size");
  tr_.k_tag = tel.tracer().intern("tag");
  ranks_.resize(static_cast<std::size_t>(fabric_.nranks()));
  rdv_sends_.resize(static_cast<std::size_t>(fabric_.nranks()));
  pending_rdv_recvs_.resize(static_cast<std::size_t>(fabric_.nranks()));
  rdv_seq_.assign(static_cast<std::size_t>(fabric_.nranks()), 0);
  coll_seq_.assign(static_cast<std::size_t>(fabric_.nranks()), 0);
  obj_seq_.assign(static_cast<std::size_t>(fabric_.nranks()), 0);
  for (int r = 0; r < fabric_.nranks(); ++r) {
    fabric_.set_am_handler(r, chan_eager_, [this, r](int src, const auto& p) {
      handle_eager(r, src, p);
    });
    fabric_.set_am_handler(r, chan_rts_, [this, r](int src, const auto& p) {
      handle_rts(r, src, p);
    });
    fabric_.set_am_handler(r, chan_cts_, [this, r](int src, const auto& p) {
      handle_cts(r, src, p);
    });
  }
}

RequestPtr Comm::isend(int self, int dst, int tag, const void* data, std::size_t size) {
  UNR_CHECK(dst >= 0 && dst < nranks());
  const auto& prof = fabric_.profile();
  charge(fabric_, prof.sw_overhead);

  if (size <= prof.eager_threshold) {
    // Eager: pack into the wire message (the sender-side extra copy of
    // Fig. 1a) and complete immediately — the data is buffered.
    charge(fabric_, prof.memcpy_time(size));
    m_.eager_sends.inc();
    if (tr_.on)
      fabric_.kernel().telemetry().tracer().instant(
          fabric_.node_of(self), self, tr_.cat, tr_.eager,
          {{tr_.k_dst, dst}, {tr_.k_size, static_cast<std::int64_t>(size)}});
    EagerHeader h{tag, size};
    fabric_.send_am(self, dst, chan_eager_, pack(fabric_, h, data, size), /*nic*/ -1,
                    /*ordered=*/true);
    return make_done_request();
  }

  // Rendezvous: RTS now; the PUT happens when the CTS comes back.
  auto req = make_request();
  const std::uint64_t id = ((static_cast<std::uint64_t>(self) + 1) << 40) |
                           ++rdv_seq_[static_cast<std::size_t>(self)];
  rdv_sends_[static_cast<std::size_t>(self)][id] = RdvSend{data, size, req, dst};
  m_.rts_sends.inc();
  // The handshake span covers RTS departure to CTS arrival back at the
  // sender (handle_cts); the data PUT itself is traced by the fabric.
  if (tr_.on)
    fabric_.kernel().telemetry().tracer().async_begin(
        fabric_.node_of(self), self, tr_.cat, tr_.rdv, id,
        {{tr_.k_dst, dst}, {tr_.k_size, static_cast<std::int64_t>(size)}});
  RtsHeader h{tag, size, id};
  fabric_.send_am(self, dst, chan_rts_, pack(fabric_, h), -1, /*ordered=*/true);
  return req;
}

RequestPtr Comm::irecv(int self, int src, int tag, void* buf, std::size_t size) {
  const auto& prof = fabric_.profile();
  charge(fabric_, prof.sw_overhead);
  auto& st = ranks_[static_cast<std::size_t>(self)];

  // Check the unexpected queue first.
  for (auto it = st.unexpected.begin(); it != st.unexpected.end(); ++it) {
    if (!matches(src, tag, it->src, it->tag)) continue;
    UNR_CHECK_MSG(it->size <= size, "receive buffer too small: message of "
                                        << it->size << " bytes into " << size);
    // Dequeue before anything that can yield: charge() switches fibers, and
    // an arrival meanwhile may push_back onto this deque, invalidating `it`.
    const UnexpectedMsg m = std::move(*it);
    st.unexpected.erase(it);
    auto req = make_request();
    if (m.rendezvous) {
      accept_rts(self, m.src, m.rdv_id, buf, m.size, req);
    } else {
      if (m.size > 0) std::memcpy(buf, m.payload.data(), m.size);
      charge(fabric_, prof.memcpy_time(m.size));
      req->done = true;
    }
    return req;
  }

  auto req = make_request();
  st.posted.push_back(PostedRecv{src, tag, buf, size, req});
  return req;
}

void Comm::wait(int self, const RequestPtr& req) {
  (void)self;
  req->cond.wait([&] { return req->done; });
  if (req->cpu_charge > 0) {
    charge(fabric_, req->cpu_charge);
    req->cpu_charge = 0;
  }
}

void Comm::wait_all(int self, std::span<const RequestPtr> reqs) {
  for (const auto& r : reqs) wait(self, r);
}

void Comm::send(int self, int dst, int tag, const void* data, std::size_t size) {
  wait(self, isend(self, dst, tag, data, size));
}

void Comm::recv(int self, int src, int tag, void* buf, std::size_t size) {
  wait(self, irecv(self, src, tag, buf, size));
}

void Comm::sendrecv(int self, int dst, int send_tag, const void* send_buf,
                    std::size_t send_size, int src, int recv_tag, void* recv_buf,
                    std::size_t recv_size) {
  RequestPtr rr = irecv(self, src, recv_tag, recv_buf, recv_size);
  RequestPtr sr = isend(self, dst, send_tag, send_buf, send_size);
  wait(self, sr);
  wait(self, rr);
}

void Comm::handle_eager(int dst, int src, const std::vector<std::byte>& payload) {
  const auto h = unpack<EagerHeader>(payload);
  auto& st = ranks_[static_cast<std::size_t>(dst)];
  for (auto it = st.posted.begin(); it != st.posted.end(); ++it) {
    if (!matches(it->src, it->tag, src, h.tag)) continue;
    UNR_CHECK_MSG(h.size <= it->size, "receive buffer too small: message of "
                                          << h.size << " bytes into " << it->size);
    if (h.size > 0)  // zero-byte recv may legally post a null buffer
      std::memcpy(it->buf, payload.data() + sizeof(EagerHeader), h.size);
    it->req->cpu_charge += fabric_.profile().memcpy_time(h.size);
    it->req->complete();
    st.posted.erase(it);
    return;
  }
  m_.unexpected_msgs.inc();
  UnexpectedMsg m;
  m.src = src;
  m.tag = h.tag;
  m.rendezvous = false;
  m.size = h.size;
  m.payload.assign(payload.begin() + sizeof(EagerHeader), payload.end());
  st.unexpected.push_back(std::move(m));
}

void Comm::handle_rts(int dst, int src, const std::vector<std::byte>& payload) {
  const auto h = unpack<RtsHeader>(payload);
  if (tr_.on)
    fabric_.kernel().telemetry().tracer().instant(
        fabric_.node_of(dst), dst, tr_.cat, tr_.rts,
        {{tr_.k_src, src}, {tr_.k_size, static_cast<std::int64_t>(h.size)}});
  auto& st = ranks_[static_cast<std::size_t>(dst)];
  for (auto it = st.posted.begin(); it != st.posted.end(); ++it) {
    if (!matches(it->src, it->tag, src, h.tag)) continue;
    UNR_CHECK_MSG(h.size <= it->size, "receive buffer too small: message of "
                                          << h.size << " bytes into " << it->size);
    PostedRecv pr = *it;
    st.posted.erase(it);
    accept_rts(dst, src, h.rdv_id, pr.buf, h.size, pr.req);
    return;
  }
  UnexpectedMsg m;
  m.src = src;
  m.tag = h.tag;
  m.rendezvous = true;
  m.size = h.size;
  m.rdv_id = h.rdv_id;
  m_.unexpected_msgs.inc();
  st.unexpected.push_back(std::move(m));
}

void Comm::accept_rts(int self, int src, std::uint64_t rdv_id, void* buf,
                      std::size_t size, const RequestPtr& req) {
  // Expose the receive buffer for the sender's zero-copy PUT. The CTS
  // carries the registration; delivery of the PUT completes the request
  // (handled in handle_cts on the sender, which owns the put descriptor).
  const fabric::MrId mr = fabric_.memory().register_region(self, buf, size == 0 ? 1 : size);
  // Remember how to finish this receive when the data lands. Keyed by the
  // receiving rank: the PUT delivers on this rank's shard, so the map is
  // never touched cross-shard.
  pending_rdv_recvs_[static_cast<std::size_t>(self)][rdv_id] =
      PendingRdvRecv{self, mr, req};
  m_.cts_sends.inc();
  CtsHeader h{rdv_id, mr};
  fabric_.send_am(self, src, chan_cts_, pack(fabric_, h));
}

void Comm::handle_cts(int dst, int src, const std::vector<std::byte>& payload) {
  // `dst` is the original sender; `src` the receiver granting the CTS.
  const auto h = unpack<CtsHeader>(payload);
  auto& pending = rdv_sends_[static_cast<std::size_t>(dst)];
  auto it = pending.find(h.rdv_id);
  UNR_CHECK_MSG(it != pending.end(), "CTS for unknown rendezvous id " << h.rdv_id);
  RdvSend rs = it->second;
  pending.erase(it);
  // CTS back at the original sender: the handshake opened in isend is done.
  if (tr_.on)
    fabric_.kernel().telemetry().tracer().async_end(fabric_.node_of(dst), dst,
                                                    tr_.cat, tr_.rdv, h.rdv_id);

  fabric::Fabric::PutArgs put;
  put.src_rank = dst;
  put.src = rs.data;
  put.dst = fabric::MemRef{src, h.mr, 0};
  put.size = rs.size;
  const std::uint64_t rdv_id = h.rdv_id;
  const int receiver = src;  // delivery runs on the receiver's shard
  put.on_delivered = [this, rdv_id, receiver] {
    auto& pend = pending_rdv_recvs_[static_cast<std::size_t>(receiver)];
    auto itp = pend.find(rdv_id);
    UNR_CHECK(itp != pend.end());
    PendingRdvRecv pr = itp->second;
    pend.erase(itp);
    fabric_.memory().deregister_region(pr.rank, pr.mr);
    pr.req->complete();
  };
  RequestPtr send_req = rs.req;
  put.on_local_complete = [send_req] { send_req->complete(); };
  fabric_.put(std::move(put));
}

std::size_t Comm::unexpected_count(int rank) const {
  return ranks_[static_cast<std::size_t>(rank)].unexpected.size();
}

}  // namespace unr::runtime
