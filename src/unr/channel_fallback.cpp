// MPI fallback channel (Section IV-A / Fig. 6).
//
// Guarantees that UNR-powered applications run on any system with a working
// message layer, at the cost of emulating notified RMA over two-sided
// semantics: every PUT is staged (pack copy at the sender, unpack copy at
// the receiver performed by the polling engine) and every notification is a
// software event. Whether this beats or loses to plain two-sided code
// depends on the system's copy bandwidth and software overhead — the paper
// measures +20% on TH-XY and -61% on TH-2A for PowerLLEL.
#include <cstring>

#include "common/check.hpp"
#include "unr/channels.hpp"
#include "unr/unr.hpp"

namespace unr::unrlib {

namespace {

struct FallbackPutHeader {
  fabric::MrId mr;
  std::uint64_t offset;
  std::uint64_t size;
  std::uint64_t rsig;  // kNoSig if none
  std::int64_t rcode;
};

struct FallbackGetReq {
  fabric::MrId mr;        // at the owner
  std::uint64_t offset;
  std::uint64_t size;
  std::uint64_t rsig;     // owner-side signal
  std::int64_t rcode;
  std::uint64_t token;    // reader-side pending-get id
};

struct FallbackGetRepHeader {
  std::uint64_t token;
};

class FallbackChannel final : public Channel {
 public:
  explicit FallbackChannel(Unr& ctx)
      : Channel(ctx),
        put_chan_(ctx.fabric().open_am_channel()),
        get_req_chan_(ctx.fabric().open_am_channel()),
        get_rep_chan_(ctx.fabric().open_am_channel()) {
    fabric::Fabric& f = ctx_.fabric();
    pending_gets_.resize(static_cast<std::size_t>(f.nranks()));
    token_seq_.assign(static_cast<std::size_t>(f.nranks()), 0);
    for (int r = 0; r < f.nranks(); ++r) {
      f.set_am_handler(r, put_chan_, [this, r](int src, const auto& p) {
        on_put_msg(r, src, p);
      });
      f.set_am_handler(r, get_req_chan_, [this, r](int src, const auto& p) {
        on_get_req(r, src, p);
      });
      f.set_am_handler(r, get_rep_chan_, [this, r](int src, const auto& p) {
        on_get_rep(r, src, p);
      });
    }
  }

  const char* name() const override { return "mpi-fallback"; }
  SupportLevel level() const override { return SupportLevel::kLevel0; }
  bool multi_channel() const override { return false; }

  void put(const XferOp& op) override {
    const auto& prof = ctx_.fabric().profile();
    // Sender side: software stack + emulation-path overhead + pack copy
    // into the staging message.
    sim::busy(prof.sw_overhead + prof.fallback_extra_sw / 2 +
              prof.memcpy_time(op.size));

    FallbackPutHeader h{op.remote.mr, op.remote.offset, op.size,
                        op.rsig == kNoSig ? kNoSig : op.rsig, op.r_code};
    std::vector<std::byte> msg(sizeof h + op.size);
    std::memcpy(msg.data(), &h, sizeof h);
    if (op.size > 0) std::memcpy(msg.data() + sizeof h, op.local, op.size);
    ctx_.fabric().send_am(op.src_rank, op.remote.rank, put_chan_, std::move(msg),
                          op.nic, /*ordered=*/true);

    // Buffered-send semantics: the local buffer is reusable immediately.
    if (op.lsig != kNoSig)
      ctx_.apply_notification(ctx_.node_of(op.src_rank), op.lsig, op.l_code);
  }

  void get(const XferOp& op) override {
    const auto& prof = ctx_.fabric().profile();
    sim::busy(prof.sw_overhead);
    // Tokens only need per-reader uniqueness: the reply comes back to this
    // rank and is looked up in this rank's own pending map, so no rank ever
    // touches another rank's (= possibly another kernel shard's) state.
    const std::uint64_t token = ++token_seq_[static_cast<std::size_t>(op.src_rank)];
    pending_gets_[static_cast<std::size_t>(op.src_rank)][token] =
        PendingGet{op.local, op.size, op.lsig, op.l_code,
                   ctx_.node_of(op.src_rank)};
    FallbackGetReq rq{op.remote.mr, op.remote.offset, op.size,
                      op.rsig == kNoSig ? kNoSig : op.rsig, op.r_code, token};
    std::vector<std::byte> msg(sizeof rq);
    std::memcpy(msg.data(), &rq, sizeof rq);
    ctx_.fabric().send_am(op.src_rank, op.remote.rank, get_req_chan_,
                          std::move(msg), op.nic);
  }

 private:
  struct PendingGet {
    void* dst;
    std::size_t size;
    SigId lsig;
    std::int64_t lcode;
    int node;
  };

  void on_put_msg(int self, int /*src*/, const std::vector<std::byte>& payload) {
    FallbackPutHeader h;
    UNR_CHECK(payload.size() >= sizeof h);
    std::memcpy(&h, payload.data(), sizeof h);
    // The polling engine runs the receive-side software stack (tag-matching
    // emulation) and performs the unpack copy; the data is usable (and the
    // signal fires) only after both have elapsed.
    auto data = std::make_shared<std::vector<std::byte>>(
        payload.begin() + sizeof h, payload.end());
    const int node = ctx_.node_of(self);
    const Time ready = ctx_.fabric().kernel().now() +
                       ctx_.fabric().profile().sw_overhead +
                       ctx_.fabric().profile().fallback_extra_sw / 2 +
                       ctx_.fabric().profile().memcpy_time(h.size);
    Unr* ctx = &ctx_;
    ctx_.engine(node).enqueue(ready, [ctx, self, node, h, data] {
      if (h.size > 0) {
        std::byte* dst = ctx->fabric().memory().resolve(
            {self, h.mr, static_cast<std::size_t>(h.offset)}, h.size);
        std::memcpy(dst, data->data(), h.size);
      }
      if (h.rsig != kNoSig) ctx->apply_notification(node, h.rsig, h.rcode);
    });
  }

  void on_get_req(int self, int src, const std::vector<std::byte>& payload) {
    FallbackGetReq rq;
    UNR_CHECK(payload.size() == sizeof rq);
    std::memcpy(&rq, payload.data(), sizeof rq);

    FallbackGetRepHeader rh{rq.token};
    std::vector<std::byte> msg(sizeof rh + rq.size);
    std::memcpy(msg.data(), &rh, sizeof rh);
    if (rq.size > 0) {
      const std::byte* p = ctx_.fabric().memory().resolve(
          {self, rq.mr, static_cast<std::size_t>(rq.offset)}, rq.size);
      std::memcpy(msg.data() + sizeof rh, p, rq.size);
    }
    ctx_.fabric().send_am(self, src, get_rep_chan_, std::move(msg));

    if (rq.rsig != kNoSig) {
      const int node = ctx_.node_of(self);
      Unr* ctx = &ctx_;
      const SigId rsig = rq.rsig;
      const std::int64_t rcode = rq.rcode;
      ctx_.engine(node).enqueue(ctx_.fabric().kernel().now(), [ctx, node, rsig, rcode] {
        ctx->apply_notification(node, rsig, rcode);
      });
    }
  }

  void on_get_rep(int self, int /*src*/, const std::vector<std::byte>& payload) {
    FallbackGetRepHeader rh;
    UNR_CHECK(payload.size() >= sizeof rh);
    std::memcpy(&rh, payload.data(), sizeof rh);
    auto& pend = pending_gets_[static_cast<std::size_t>(self)];
    auto it = pend.find(rh.token);
    UNR_CHECK_MSG(it != pend.end(), "fallback GET reply with unknown token");
    PendingGet pg = it->second;
    pend.erase(it);

    auto data = std::make_shared<std::vector<std::byte>>(payload.begin() + sizeof rh,
                                                         payload.end());
    const Time ready =
        ctx_.fabric().kernel().now() + ctx_.fabric().profile().memcpy_time(pg.size);
    Unr* ctx = &ctx_;
    ctx_.engine(pg.node).enqueue(ready, [ctx, pg, data] {
      if (pg.size > 0) std::memcpy(pg.dst, data->data(), pg.size);
      if (pg.lsig != kNoSig) ctx->apply_notification(pg.node, pg.lsig, pg.lcode);
    });
  }

  const int put_chan_, get_req_chan_, get_rep_chan_;  // AM channels
  std::vector<std::unordered_map<std::uint64_t, PendingGet>> pending_gets_;  // [reader]
  std::vector<std::uint64_t> token_seq_;                                     // [reader]
};

}  // namespace

std::unique_ptr<Channel> make_fallback_channel(Unr& ctx) {
  return std::make_unique<FallbackChannel>(ctx);
}

}  // namespace unr::unrlib
