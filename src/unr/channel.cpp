#include "unr/channel.hpp"

#include <cstring>

#include "common/check.hpp"
#include "unr/unr.hpp"

namespace unr::unrlib {

const char* channel_kind_name(ChannelKind k) {
  switch (k) {
    case ChannelKind::kAuto: return "auto";
    case ChannelKind::kNative: return "native";
    case ChannelKind::kLevel0: return "level0";
    case ChannelKind::kLevel4: return "level4-hw";
    case ChannelKind::kMpiFallback: return "mpi-fallback";
  }
  return "?";
}

void Channel::process_cqe(int /*node*/, const fabric::Cqe& /*cqe*/) {
  UNR_CHECK_MSG(false, "channel received a CQE it never produces");
}

namespace {
struct CompanionMsg {
  std::uint64_t index;
  std::int64_t code;
};
}  // namespace

void Channel::open_companion_channel() {
  fabric::Fabric& f = ctx_.fabric();
  companion_chan_ = f.open_am_channel();
  for (int r = 0; r < f.nranks(); ++r) {
    const int node = f.node_of(r);
    f.set_am_handler(r, companion_chan_, [this, node](int /*src*/, const auto& payload) {
      UNR_CHECK(payload.size() == sizeof(CompanionMsg));
      CompanionMsg m;
      std::memcpy(&m, payload.data(), sizeof m);
      // Companion notifications are software events: the polling engine
      // applies them, like any other drained completion.
      Engine& eng = ctx_.engine(node);
      eng.enqueue(ctx_.fabric().kernel().now(),
                  [this, node, m] { ctx_.apply_notification(node, m.index, m.code); });
    });
  }
}

void Channel::send_companion(int src_rank, int dst_rank, SigId idx, std::int64_t code,
                             bool ordered, int nic) {
  CompanionMsg m{idx, code};
  std::vector<std::byte> payload(sizeof m);
  std::memcpy(payload.data(), &m, sizeof m);
  ctx_.metrics().companions.inc();
  ctx_.fabric().send_am(src_rank, dst_rank, companion_chan_, std::move(payload), nic,
                        ordered);
}

bool encode_notification(int width, int index_bits, std::uint64_t index,
                         std::int64_t code, fabric::CustomBits& out) {
  if (width <= 0) return false;
  if (width >= 128) {
    out = {index, static_cast<std::uint64_t>(code)};
    return true;
  }
  if (width >= 64) {
    // 32 bits of index, 32 bits of code.
    if (index >= (1ull << 32)) return false;
    if (code < INT32_MIN || code > INT32_MAX) return false;
    const auto c32 = static_cast<std::uint32_t>(static_cast<std::int32_t>(code));
    out = {index | (static_cast<std::uint64_t>(c32) << 32), 0};
    return true;
  }
  const int ib = std::min(index_bits, width);
  const int cb = width - ib;
  if (ib < 64 && index >= (1ull << ib)) return false;
  if (cb == 0) {
    if (code != 0) return false;  // only a = -1 expressible
    out = {index, 0};
    return true;
  }
  if (code < -(std::int64_t{1} << (cb - 1)) || code >= (std::int64_t{1} << (cb - 1)))
    return false;
  const std::uint64_t cfield =
      static_cast<std::uint64_t>(code) & ((std::uint64_t{1} << cb) - 1);
  out = {index | (cfield << ib), 0};
  return true;
}

void decode_notification(int width, int index_bits, const fabric::CustomBits& in,
                         std::uint64_t& index, std::int64_t& code) {
  UNR_CHECK(width > 0);
  if (width >= 128) {
    index = in.lo;
    code = static_cast<std::int64_t>(in.hi);
    return;
  }
  if (width >= 64) {
    index = in.lo & 0xFFFFFFFFull;
    code = static_cast<std::int32_t>(static_cast<std::uint32_t>(in.lo >> 32));
    return;
  }
  const int ib = std::min(index_bits, width);
  const int cb = width - ib;
  index = ib >= 64 ? in.lo : (in.lo & ((std::uint64_t{1} << ib) - 1));
  if (cb == 0) {
    code = 0;
    return;
  }
  std::uint64_t cfield = (in.lo >> ib) & ((std::uint64_t{1} << cb) - 1);
  // Sign-extend the code field.
  if (cfield & (std::uint64_t{1} << (cb - 1)))
    cfield |= ~((std::uint64_t{1} << cb) - 1);
  code = static_cast<std::int64_t>(cfield);
}

}  // namespace unr::unrlib
