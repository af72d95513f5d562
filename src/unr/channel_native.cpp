// Native channel: notifications ride inside the interface's custom bits.
//
// Covers support levels 1-3 (Table I): the level is derived from the
// interface personality's remote-PUT width. Whenever a (p, a) pair does not
// fit — too many signals at level 1, a multi-channel addend at level-2
// mode 1, GETs on Verbs (0 remote bits) — the channel degrades gracefully
// to an ordered companion message, exactly the "performance may degrade"
// escape hatch the paper describes.
#include "unr/channels.hpp"
#include "unr/unr.hpp"

namespace unr::unrlib {

namespace {

class NativeChannel final : public Channel {
 public:
  explicit NativeChannel(Unr& ctx) : Channel(ctx), pers_(ctx.fabric().iface()) {
    level_ = classify(pers_);
    open_companion_channel();
  }

  const char* name() const override { return "native"; }
  SupportLevel level() const override { return level_; }

  bool multi_channel() const override {
    // Needs an expressible addend: level 3 always; level 2 only in mode 2.
    if (level_ == SupportLevel::kLevel3) return true;
    if (level_ == SupportLevel::kLevel2) return ctx_.config().level2_mode == 2;
    return false;
  }

  void put(const XferOp& op) override {
    fabric::Fabric::PutArgs a;
    a.src_rank = op.src_rank;
    a.src = op.local;
    a.dst = op.remote;
    a.size = op.size;
    a.nic_index = op.nic;

    bool need_companion = false;
    if (op.rsig != kNoSig) {
      fabric::CustomBits imm;
      if (encode_notification(remote_put_width(), index_bits(remote_put_width()),
                              op.rsig, op.r_code, imm)) {
        a.want_remote_cqe = true;
        a.remote_imm = imm;
      } else {
        need_companion = true;
        ctx_.metrics().encode_fallbacks.inc();
      }
    }

    bool local_sw = false;
    if (op.lsig != kNoSig) {
      fabric::CustomBits imm;
      if (encode_notification(local_put_width(), index_bits(local_put_width()),
                              op.lsig, op.l_code, imm)) {
        a.want_local_cqe = true;
        a.local_imm = imm;
      } else {
        local_sw = true;
        ctx_.metrics().encode_fallbacks.inc();
      }
    }
    if (local_sw) {
      Unr* ctx = &ctx_;
      const int node = ctx_.node_of(op.src_rank);
      const SigId lsig = op.lsig;
      const std::int64_t code = op.l_code;
      a.on_local_complete = [ctx, node, lsig, code] {
        ctx->engine(node).enqueue(ctx->fabric().kernel().now(), [ctx, node, lsig, code] {
          ctx->apply_notification(node, lsig, code);
        });
      };
    }

    // The companion must not overtake the data.
    a.ordered = need_companion;
    // NIC-failure recovery: when the notification travels entirely with the
    // data, the fragment can be re-put on a surviving NIC with the same
    // addends. With a companion in flight re-putting would notify twice, so
    // those fragments keep the fabric's transparent retransmission instead.
    if (!need_companion) {
      Unr* ctx = &ctx_;
      a.on_lost = [ctx, op] { ctx->handle_fragment_failover(op); };
    }
    const int dst_rank = op.remote.rank;
    ctx_.fabric().put(std::move(a));
    if (need_companion)
      send_companion(op.src_rank, dst_rank, op.rsig, op.r_code, /*ordered=*/true,
                     op.nic);
  }

  void get(const XferOp& op) override {
    fabric::Fabric::GetArgs a;
    a.src_rank = op.src_rank;
    a.dst = op.local;
    a.src = op.remote;
    a.size = op.size;
    a.nic_index = op.nic;

    // Owner-side notification: only if the interface has GET-remote bits
    // (Verbs has none — Table II); otherwise notify the owner with a
    // software message once the data has landed at the reader.
    bool owner_companion = false;
    if (op.rsig != kNoSig) {
      fabric::CustomBits imm;
      if (pers_.get_remote_bits != 0 &&
          encode_notification(pers_.effective_get_remote(),
                              index_bits(pers_.effective_get_remote()), op.rsig,
                              op.r_code, imm)) {
        a.want_remote_cqe = true;
        a.remote_imm = imm;
      } else {
        owner_companion = true;
        ctx_.metrics().encode_fallbacks.inc();
      }
    }

    bool local_sw = false;
    if (op.lsig != kNoSig) {
      fabric::CustomBits imm;
      if (encode_notification(pers_.effective_get_local(),
                              index_bits(pers_.effective_get_local()), op.lsig,
                              op.l_code, imm)) {
        a.want_local_cqe = true;
        a.local_imm = imm;
      } else {
        local_sw = true;
      }
    }

    if (owner_companion || local_sw) {
      Unr* ctx = &ctx_;
      const int node = ctx_.node_of(op.src_rank);
      const int reader = op.src_rank;
      const int owner = op.remote.rank;
      const SigId lsig = local_sw ? op.lsig : kNoSig;
      const std::int64_t lcode = op.l_code;
      const SigId rsig = owner_companion ? op.rsig : kNoSig;
      const std::int64_t rcode = op.r_code;
      NativeChannel* self = this;
      a.on_complete = [ctx, self, node, reader, owner, lsig, lcode, rsig, rcode] {
        if (lsig != kNoSig)
          ctx->engine(node).enqueue(ctx->fabric().kernel().now(), [ctx, node, lsig, lcode] {
            ctx->apply_notification(node, lsig, lcode);
          });
        if (rsig != kNoSig)
          self->send_companion(reader, owner, rsig, rcode, /*ordered=*/false);
      };
    }
    ctx_.fabric().get(std::move(a));
  }

  void process_cqe(int node, const fabric::Cqe& cqe) override {
    int width = 0;
    switch (cqe.kind) {
      case fabric::CqeKind::kPutDelivered: width = remote_put_width(); break;
      case fabric::CqeKind::kPutComplete: width = local_put_width(); break;
      case fabric::CqeKind::kGetDelivered: width = pers_.effective_get_remote(); break;
      case fabric::CqeKind::kGetComplete: width = pers_.effective_get_local(); break;
    }
    std::uint64_t index = 0;
    std::int64_t code = 0;
    decode_notification(width, index_bits(width), cqe.imm, index, code);
    ctx_.apply_notification(node, index, code);
  }

 private:
  int remote_put_width() const { return effective_remote_put_bits(pers_); }
  int local_put_width() const { return pers_.effective_put_local(); }

  int index_bits(int width) const {
    if (width >= 64) return 32;  // handled by the fixed 32/32 layout
    if (width == 32 && ctx_.config().level2_mode == 1) return 32;
    return std::min(ctx_.config().level2_index_bits, width);
  }

  const fabric::Personality& pers_;
  SupportLevel level_ = SupportLevel::kLevel0;
};

}  // namespace

std::unique_ptr<Channel> make_native_channel(Unr& ctx) {
  return std::make_unique<NativeChannel>(ctx);
}

}  // namespace unr::unrlib
