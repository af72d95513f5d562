// UNR Transport Layer: the channel abstraction over Notifiable RMA
// Primitives (Section IV-A).
//
// A channel moves one fragment and arranges for the bound signals to be
// notified. How the (p, a) pair travels — inside the custom bits, in an
// ordered companion message, through an MPI-like two-sided path, or applied
// by hardware — is what distinguishes the implementations.
#pragma once

#include <cstdint>
#include <memory>

#include "fabric/completion.hpp"
#include "fabric/memory.hpp"
#include "unr/ids.hpp"
#include "unr/support_level.hpp"

namespace unr::unrlib {

class Unr;

/// One fragment transfer with fully-computed notification bookkeeping.
/// The Context's splitter fills the addends (raw + compressed code).
struct XferOp {
  int src_rank = -1;
  void* local = nullptr;  ///< put: source buffer; get: destination buffer
  fabric::MemRef remote;
  std::size_t size = 0;
  int nic = -1;

  SigId rsig = kNoSig;  ///< signal at the remote side's node
  std::int64_t r_addend = 0;
  std::int64_t r_code = 0;
  int r_nbits = 0;

  SigId lsig = kNoSig;  ///< signal at the caller's node
  std::int64_t l_addend = 0;
  std::int64_t l_code = 0;
  int l_nbits = 0;
};

enum class ChannelKind {
  kAuto,         ///< native channel configured from the system's interface
  kNative,       ///< levels 1-3, notification in the custom bits
  kLevel0,       ///< no custom bits: ordered companion message
  kLevel4,       ///< proposed hardware offload: NIC applies *p += a
  kMpiFallback,  ///< two-sided emulation (portability fallback)
};

const char* channel_kind_name(ChannelKind k);

class Channel {
 public:
  explicit Channel(Unr& ctx) : ctx_(ctx) {}
  virtual ~Channel() = default;

  virtual const char* name() const = 0;
  virtual SupportLevel level() const = 0;
  /// Can fragments of one message safely aggregate into one signal?
  virtual bool multi_channel() const = 0;

  virtual void put(const XferOp& op) = 0;
  virtual void get(const XferOp& op) = 0;

  /// Decode and apply a completion-queue entry drained by the polling
  /// engine on `node`. Channels that never produce CQEs ignore this.
  virtual void process_cqe(int node, const fabric::Cqe& cqe);

 protected:
  /// Open the companion-notification AM channel and install its handler on
  /// every rank. Used when (p, a) cannot travel in the custom bits: level 0,
  /// level-1 overflow, and GET-remote notification on interfaces with 0 GET
  /// bits (Verbs).
  void open_companion_channel();
  /// Send a companion notification to `dst_rank`'s node. `ordered` keeps it
  /// behind the data it notifies for (FIFO per rank pair).
  void send_companion(int src_rank, int dst_rank, SigId idx, std::int64_t code,
                      bool ordered, int nic = -1);

  Unr& ctx_;

 private:
  int companion_chan_ = -1;
};

std::unique_ptr<Channel> make_channel(ChannelKind kind, Unr& ctx);

// --- Wire encoding of (signal index, addend code) into W custom bits ---
//
// W >= 128 : index in the low 64, raw code in the high 64
// W == 64  : index in bits 0..31, code (signed) in bits 32..63
// 17..63   : mode-2 split: index in the low x bits, code in the rest
// 1..16    : index only; code must be 0 (a = -1)
// W == 0   : nothing fits
//
// Returns false when (index, code) does not fit in W bits with the given
// split — the caller falls back to a companion message.
bool encode_notification(int width, int index_bits, std::uint64_t index,
                         std::int64_t code, fabric::CustomBits& out);
void decode_notification(int width, int index_bits, const fabric::CustomBits& in,
                         std::uint64_t& index, std::int64_t& code);

}  // namespace unr::unrlib
