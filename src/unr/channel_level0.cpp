// Level-0 channel: the interface offers NO custom bits (Table I, level 0).
//
// Every notification travels as an additional order-preserving message
// behind its data. Correctness-only; the extra message and the forced FIFO
// routing (no adaptive-routing spread) are the documented performance cost.
#include "unr/channels.hpp"
#include "unr/unr.hpp"

namespace unr::unrlib {

namespace {

class Level0Channel final : public Channel {
 public:
  explicit Level0Channel(Unr& ctx) : Channel(ctx) { open_companion_channel(); }

  const char* name() const override { return "level0"; }
  SupportLevel level() const override { return SupportLevel::kLevel0; }
  bool multi_channel() const override { return false; }

  void put(const XferOp& op) override {
    fabric::Fabric::PutArgs a;
    a.src_rank = op.src_rank;
    a.src = op.local;
    a.dst = op.remote;
    a.size = op.size;
    a.nic_index = op.nic;
    a.ordered = true;  // the companion must stay behind the data

    if (op.lsig != kNoSig) {
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
    const int dst_rank = op.remote.rank;
    ctx_.fabric().put(std::move(a));
    if (op.rsig != kNoSig)
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

    Unr* ctx = &ctx_;
    Level0Channel* self = this;
    const int node = ctx_.node_of(op.src_rank);
    const int reader = op.src_rank;
    const int owner = op.remote.rank;
    const SigId lsig = op.lsig;
    const std::int64_t lcode = op.l_code;
    const SigId rsig = op.rsig;
    const std::int64_t rcode = op.r_code;
    a.on_complete = [ctx, self, node, reader, owner, lsig, lcode, rsig, rcode] {
      if (lsig != kNoSig)
        ctx->engine(node).enqueue(ctx->fabric().kernel().now(), [ctx, node, lsig, lcode] {
          ctx->apply_notification(node, lsig, lcode);
        });
      if (rsig != kNoSig) self->send_companion(reader, owner, rsig, rcode, false);
    };
    ctx_.fabric().get(std::move(a));
  }
};

}  // namespace

std::unique_ptr<Channel> make_level0_channel(Unr& ctx) {
  return std::make_unique<Level0Channel>(ctx);
}

}  // namespace unr::unrlib
