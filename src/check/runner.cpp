#include "check/runner.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "check/oracle.hpp"
#include "common/log.hpp"
#include "common/profile.hpp"
#include "runtime/window.hpp"
#include "runtime/world.hpp"
#include "unr/collectives.hpp"
#include "unr/unr.hpp"

namespace unr::check {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv(h, &v, sizeof(v)); }

// Tag plan: Blk handles and two-sided payloads each get a dedicated tag per
// (round, op) so nothing can cross-match. Both planes stay far below
// runtime::kInternalTagBase (1 << 28); validate() bounds round/op counts.
int blk_tag(std::size_t round, std::size_t op) {
  return (1 << 20) + static_cast<int>(round) * 256 + static_cast<int>(op);
}
int send_tag(std::size_t round, std::size_t op) {
  return (1 << 21) + static_cast<int>(round) * 256 + static_cast<int>(op);
}
// Third plane for the scenario-pack collective rounds (ring steps, tree
// edges, steal events): k < 4096 per round, bounded by validate().
int coll_tag(std::size_t round, std::size_t k) {
  return (1 << 22) + static_cast<int>(round) * 4096 + static_cast<int>(k);
}

std::string op_desc(std::size_t i, const OpSpec& op) {
  std::ostringstream os;
  os << "op " << i << " (" << op_kind_name(op.kind) << " a=" << op.a
     << " b=" << op.b << " size=" << op.size << ")";
  return os.str();
}

/// Everything the per-rank body needs; lives on run_workload's stack. The
/// kernel runs one actor at a time, so ranks may touch shared vectors
/// without locks (same rule the rest of the simulator relies on).
struct Ctx {
  const WorkloadSpec& spec;
  const RunOptions& opt;
  const Oracle& oracle;
  /// Oracle::allreduce_expected per allreduce round (empty for other kinds),
  /// computed once before the run instead of re-summed by every rank.
  const std::vector<std::vector<double>>& ar_expected;
  unrlib::Unr& unr;
  std::vector<std::vector<std::byte>>& region;
  std::vector<std::vector<std::uint64_t>>& digests;
  std::vector<std::string>& violations;
  bool window_needed = false;
  std::size_t max_wslot = 0;
  bool rma_barrier_needed = false;

  void viol(std::size_t round, int rank, const std::string& msg) {
    std::ostringstream os;
    os << "round " << round << " rank " << rank << ": " << msg;
    violations.push_back(os.str());
  }
};

void run_xfer_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                    const RoundSpec& round, unrlib::MemHandle& mh,
                    std::uint64_t& dig) {
  using unrlib::kNoSig;
  const int self = r.id();
  auto& mine = c.region[static_cast<std::size_t>(self)];
  const std::size_t nops = round.ops.size();

  // Two fresh signals, armed with the oracle's exact expected counts — the
  // MMAS accounting identity makes "counter == 0 after the waits" the check.
  const Oracle::Events ev = c.oracle.expected_events(ri, self);
  const unrlib::SigId sig_in =
      ev.arrivals > 0 ? c.unr.sig_init(self, ev.arrivals, c.spec.sig_n_bits)
                      : kNoSig;
  const unrlib::SigId sig_loc =
      ev.locals > 0 ? c.unr.sig_init(self, ev.locals, c.spec.sig_n_bits)
                    : kNoSig;

  // Fill every slot this rank sources (PUT: at a; GET: at b). The corrupt
  // mutation flips one transmitted byte AFTER the fill — the oracle keeps
  // the clean expectation, so the flip must surface at the lander.
  for (const OpSpec& op : round.ops) {
    if (op.kind == OpSpec::Kind::kSend || op.size == 0) continue;
    const int src_rank = op.kind == OpSpec::Kind::kPut ? op.a : op.b;
    if (src_rank != self) continue;
    const std::span<std::byte> s(mine.data() + op.src_off, op.size);
    Oracle::fill(s, op.pattern);
    if (op.corrupt) s[op.size / 2] ^= std::byte{0x20};
  }

  // Blk exchange: the peer side (b) builds the remote Blk — binding its own
  // arrival signal when the op is notified — and ships it to the issuer.
  // Two-sided recvs are posted up front so sends never wait on matching.
  std::vector<runtime::RequestPtr> pre;   // Blk handles; gate op issue
  std::vector<runtime::RequestPtr> post;  // two-sided payloads
  std::vector<unrlib::Blk> owned(nops), needed(nops);
  std::vector<std::vector<std::byte>> sbuf(nops), rbuf(nops);
  for (std::size_t i = 0; i < nops; ++i) {
    const OpSpec& op = round.ops[i];
    if (op.kind == OpSpec::Kind::kSend) {
      if (op.b == self) {
        rbuf[i].assign(op.size, std::byte{0});
        post.push_back(r.irecv(op.a, send_tag(ri, i), rbuf[i].data(), op.size));
      }
      continue;
    }
    if (op.b == self) {
      const std::uint64_t off =
          op.kind == OpSpec::Kind::kPut ? op.dst_off : op.src_off;
      owned[i] = c.unr.blk_init(self, mh, off, op.size,
                                op.remote_notify ? sig_in : kNoSig);
      pre.push_back(r.isend(op.a, blk_tag(ri, i), &owned[i],
                            sizeof(unrlib::Blk)));
    }
    if (op.a == self) {
      pre.push_back(r.irecv(op.b, blk_tag(ri, i), &needed[i],
                            sizeof(unrlib::Blk)));
    }
  }
  r.wait_all(pre);

  // Issue in spec order.
  for (std::size_t i = 0; i < nops; ++i) {
    const OpSpec& op = round.ops[i];
    if (op.a != self) continue;
    if (op.kind == OpSpec::Kind::kSend) {
      sbuf[i].assign(op.size, std::byte{0});
      Oracle::fill(sbuf[i], op.pattern);
      if (op.corrupt && op.size > 0) sbuf[i][op.size / 2] ^= std::byte{0x20};
      post.push_back(r.isend(op.b, send_tag(ri, i), sbuf[i].data(), op.size));
      continue;
    }
    unrlib::XferOptions xo;
    xo.use_local_blk_sig = false;
    if (op.local_notify) xo.local_sig = sig_loc;
    xo.force_split = op.force_split;
    xo.nic = op.nic;
    if (op.kind == OpSpec::Kind::kPut) {
      const unrlib::Blk lblk = c.unr.blk_init(self, mh, op.src_off, op.size);
      c.unr.put(self, lblk, needed[i], xo);
    } else {
      const unrlib::Blk lblk = c.unr.blk_init(self, mh, op.dst_off, op.size);
      c.unr.get(self, lblk, needed[i], xo);
    }
  }

  // Waits. sig_wait_for turns a wedged transfer into a shrinkable violation
  // instead of a hang.
  if (sig_in != kNoSig && !c.unr.sig_wait_for(self, sig_in, c.opt.wait_timeout)) {
    c.viol(ri, self, "arrival-signal timeout, counter=" +
                         std::to_string(c.unr.sig_counter(self, sig_in)));
  }
  if (sig_loc != kNoSig &&
      !c.unr.sig_wait_for(self, sig_loc, c.opt.wait_timeout)) {
    c.viol(ri, self, "local-signal timeout, counter=" +
                         std::to_string(c.unr.sig_counter(self, sig_loc)));
  }
  r.wait_all(post);

  // Mutation hook: one stray single-op addend after the waits; the counter
  // check below must flag the signal sitting at -1.
  if (round.stray_sig_rank == self) {
    const unrlib::SigId tgt = sig_in != kNoSig ? sig_in : sig_loc;
    if (tgt != kNoSig) c.unr.apply_notification(r.node_id(), tgt, 0);
  }

  // The barrier orders every verifiable landing (each is covered by a signal
  // wait on some rank) before anyone reads the landed bytes.
  r.barrier();

  std::size_t bad = 0;
  for (std::size_t i = 0; i < nops; ++i) {
    const OpSpec& op = round.ops[i];
    if (op.kind == OpSpec::Kind::kSend && op.b == self) {
      if (!Oracle::check(rbuf[i], op.pattern, bad)) {
        c.viol(ri, self, op_desc(i, op) + ": recv payload mismatch at byte " +
                             std::to_string(bad));
      }
      fnv(dig, rbuf[i].data(), rbuf[i].size());
    } else if (op.kind == OpSpec::Kind::kPut && op.b == self &&
               Oracle::verifiable(op)) {
      const std::span<const std::byte> s(mine.data() + op.dst_off, op.size);
      if (!Oracle::check(s, op.pattern, bad)) {
        c.viol(ri, self, op_desc(i, op) + ": PUT landing mismatch at byte " +
                             std::to_string(bad));
      }
      fnv(dig, s.data(), s.size());
    } else if (op.kind == OpSpec::Kind::kGet && op.a == self &&
               Oracle::verifiable(op)) {
      const std::span<const std::byte> s(mine.data() + op.dst_off, op.size);
      if (!Oracle::check(s, op.pattern, bad)) {
        c.viol(ri, self, op_desc(i, op) + ": GET landing mismatch at byte " +
                             std::to_string(bad));
      }
      fnv(dig, s.data(), s.size());
    }
    // Wild-write detector: a source slot must come back byte-identical
    // (skip slots we corrupted ourselves).
    if (op.kind != OpSpec::Kind::kSend && !op.corrupt && op.size > 0) {
      const int src_rank = op.kind == OpSpec::Kind::kPut ? op.a : op.b;
      if (src_rank == self) {
        const std::span<const std::byte> s(mine.data() + op.src_off, op.size);
        if (!Oracle::check(s, op.pattern, bad)) {
          c.viol(ri, self, op_desc(i, op) + ": SOURCE slot modified at byte " +
                               std::to_string(bad));
        }
      }
    }
  }

  const auto check_sig = [&](unrlib::SigId sig, const char* which) {
    if (sig == kNoSig) return;
    const std::int64_t ctr = c.unr.sig_counter(self, sig);
    if (ctr != 0) {
      c.viol(ri, self, std::string(which) + "-signal counter " +
                           std::to_string(ctr) + " after waits (expected 0)");
    }
    const std::uint64_t warn = c.unr.sig_at(r.node_id(), sig).warnings();
    if (warn != 0) {
      c.viol(ri, self, std::string(which) + "-signal raised " +
                           std::to_string(warn) + " overflow warning(s)");
    }
    fnv_u64(dig, static_cast<std::uint64_t>(ctr));
  };
  check_sig(sig_in, "arrival");
  check_sig(sig_loc, "local");
}

// --- Scenario-pack rounds (distributed-AI + scalable-sync traffic) ---
//
// Shared discipline: every protocol below allocates its own staging arena
// (registered for the round, deregistered after the closing barrier), arms
// fresh signals with the oracle's exact expected counts, and only reads a
// landed buffer after ITS OWN signal wait — so verification is ordered on
// every channel level and the digests stay differential-safe. Source buffers
// are snapshots never modified after issue, so delivery-time reads can never
// race buffer reuse.

/// sig_wait_for that converts a wedge into a violation (hang detection).
void wait_sig(runtime::Rank& r, Ctx& c, std::size_t ri, unrlib::SigId sig,
              const char* what) {
  if (sig == unrlib::kNoSig) return;
  const int self = r.id();
  if (!c.unr.sig_wait_for(self, sig, c.opt.wait_timeout)) {
    c.viol(ri, self, std::string(what) + " timeout, counter=" +
                         std::to_string(c.unr.sig_counter(self, sig)));
  }
}

/// MMAS accounting close-out: counter must sit exactly at 0, no overflow
/// warnings; the counter is folded into the digest.
void fold_sig(runtime::Rank& r, Ctx& c, std::size_t ri, unrlib::SigId sig,
              const char* what, std::uint64_t& dig) {
  if (sig == unrlib::kNoSig) return;
  const int self = r.id();
  const std::int64_t ctr = c.unr.sig_counter(self, sig);
  if (ctr != 0) {
    c.viol(ri, self, std::string(what) + "-signal counter " +
                         std::to_string(ctr) + " after waits (expected 0)");
  }
  const std::uint64_t warn = c.unr.sig_at(r.node_id(), sig).warnings();
  if (warn != 0) {
    c.viol(ri, self, std::string(what) + "-signal raised " +
                         std::to_string(warn) + " overflow warning(s)");
  }
  fnv_u64(dig, static_cast<std::uint64_t>(ctr));
}

/// Chunked ring allreduce (reduce-scatter + allgather) over notified PUTs.
/// 2(P-1) steps; per-step receive slots and arrival signals (armed 1) keep
/// the left neighbor free to run a step ahead — the ring's pipelining.
void run_ar_ring_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                       const RoundSpec& round, std::uint64_t& dig) {
  using unrlib::kNoSig;
  const int self = r.id();
  const int P = r.nranks();
  const std::size_t n = round.size;  // doubles
  const std::size_t chunk = (n + static_cast<std::size_t>(P) - 1) /
                            static_cast<std::size_t>(P);
  const auto cbeg = [&](int ci) {
    return std::min(n, static_cast<std::size_t>(ci) * chunk);
  };
  const auto clen = [&](int ci) {
    return std::min(n, (static_cast<std::size_t>(ci) + 1) * chunk) - cbeg(ci);
  };
  const int right = (self + 1) % P;
  const int left = (self - 1 + P) % P;
  const int steps = 2 * (P - 1);
  const int own = (self + 1) % P;  // chunk this rank owns after reduce-scatter
  // Chunk indices flowing through me at step s (allgather after step P-2).
  const auto recv_chunk = [&](int s) {
    return s < P - 1 ? (self - s - 1 + 2 * P) % P
                     : (own - (s - (P - 1)) - 1 + 2 * P) % P;
  };
  const auto send_chunk = [&](int s) {
    return s < P - 1 ? (self - s + 2 * P) % P
                     : (own - (s - (P - 1)) + 2 * P) % P;
  };

  std::vector<double> acc(n);
  for (std::size_t j = 0; j < n; ++j)
    acc[j] = c.oracle.allreduce_contrib(ri, self, j);

  std::vector<double> rstage(static_cast<std::size_t>(steps) * chunk, 0.0);
  std::vector<double> sstage(static_cast<std::size_t>(steps) * chunk, 0.0);
  const unrlib::MemHandle rmh =
      c.unr.mem_reg(self, rstage.data(), rstage.size() * sizeof(double));
  const unrlib::MemHandle smh =
      c.unr.mem_reg(self, sstage.data(), sstage.size() * sizeof(double));

  std::vector<unrlib::SigId> sig(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s)
    sig[static_cast<std::size_t>(s)] = c.unr.sig_init(self, 1, c.spec.sig_n_bits);

  // Blk exchange: my step-s receive slot (bound to sig[s]) goes to LEFT, who
  // puts into it at step s; I collect RIGHT's slots symmetrically.
  std::vector<unrlib::Blk> owned(static_cast<std::size_t>(steps)),
      needed(static_cast<std::size_t>(steps));
  std::vector<runtime::RequestPtr> pre;
  for (int s = 0; s < steps; ++s) {
    const auto si = static_cast<std::size_t>(s);
    owned[si] = c.unr.blk_init(self, rmh, si * chunk * sizeof(double),
                               clen(recv_chunk(s)) * sizeof(double), sig[si]);
    pre.push_back(r.isend(left, coll_tag(ri, si), &owned[si], sizeof(unrlib::Blk)));
    pre.push_back(r.irecv(right, coll_tag(ri, si), &needed[si], sizeof(unrlib::Blk)));
  }
  r.wait_all(pre);

  for (int s = 0; s < steps; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const int sc = send_chunk(s);
    double* snap = sstage.data() + si * chunk;
    std::memcpy(snap, acc.data() + cbeg(sc), clen(sc) * sizeof(double));
    const unrlib::Blk lblk = c.unr.blk_init(
        self, smh, si * chunk * sizeof(double), clen(sc) * sizeof(double));
    c.unr.put(self, lblk, needed[si]);
    wait_sig(r, c, ri, sig[si], "ar_ring step");
    const int rc = recv_chunk(s);
    const double* got = rstage.data() + si * chunk;
    if (s < P - 1) {
      for (std::size_t k = 0; k < clen(rc); ++k) acc[cbeg(rc) + k] += got[k];
    } else {
      std::memcpy(acc.data() + cbeg(rc), got, clen(rc) * sizeof(double));
    }
  }

  for (std::size_t j = 0; j < n; ++j) {
    const double want = c.ar_expected[ri][j];
    if (acc[j] != want) {
      std::ostringstream os;
      os << "ar_ring[" << j << "] = " << acc[j] << ", oracle " << want;
      c.viol(ri, self, os.str());
    }
  }
  fnv(dig, acc.data(), n * sizeof(double));
  for (int s = 0; s < steps; ++s)
    fold_sig(r, c, ri, sig[static_cast<std::size_t>(s)], "ar_ring", dig);
  r.barrier();
  c.unr.mem_dereg(self, rmh);
  c.unr.mem_dereg(self, smh);
}

/// Binary-tree allreduce: notified-PUT reduce up to the root, then the
/// result broadcast back down the same tree.
void run_ar_tree_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                       const RoundSpec& round, std::uint64_t& dig) {
  using unrlib::kNoSig;
  constexpr int kArity = 2;
  const int self = r.id();
  const int P = r.nranks();
  const std::size_t n = round.size;  // doubles
  const int v = Oracle::vrank_of(self, round.root, P);
  const int pv = Oracle::tree_parent(v, kArity);
  const int parent = pv < 0 ? -1 : Oracle::rank_of(pv, round.root, P);
  std::vector<int> children;
  for (int k = 1; k <= kArity; ++k) {
    const int cv = kArity * v + k;
    if (cv < P) children.push_back(Oracle::rank_of(cv, round.root, P));
  }
  const std::size_t nc = children.size();

  // Arena layout (doubles): [gather slots nc*n][result n][up snapshot n].
  std::vector<double> arena((nc + 2) * n, 0.0);
  double* gather = arena.data();
  double* res = arena.data() + nc * n;
  double* up = arena.data() + (nc + 1) * n;
  const unrlib::MemHandle mh =
      c.unr.mem_reg(self, arena.data(), arena.size() * sizeof(double));
  const unrlib::SigId sig_gather =
      nc > 0 ? c.unr.sig_init(self, static_cast<std::int64_t>(nc),
                              c.spec.sig_n_bits)
             : kNoSig;
  const unrlib::SigId sig_down =
      parent >= 0 ? c.unr.sig_init(self, 1, c.spec.sig_n_bits) : kNoSig;

  // Blk exchange: each child gets its dedicated gather slot at the parent
  // and ships its result slot up for the broadcast-down.
  std::vector<unrlib::Blk> gather_owned(nc), child_res(nc);
  unrlib::Blk res_owned{}, parent_slot{};
  std::vector<runtime::RequestPtr> pre;
  for (std::size_t i = 0; i < nc; ++i) {
    const auto cv = static_cast<std::size_t>(
        Oracle::vrank_of(children[i], round.root, P));
    gather_owned[i] = c.unr.blk_init(self, mh, i * n * sizeof(double),
                                     n * sizeof(double), sig_gather);
    pre.push_back(r.isend(children[i], coll_tag(ri, 2 * cv), &gather_owned[i],
                          sizeof(unrlib::Blk)));
    pre.push_back(r.irecv(children[i], coll_tag(ri, 2 * cv + 1), &child_res[i],
                          sizeof(unrlib::Blk)));
  }
  if (parent >= 0) {
    const auto sv = static_cast<std::size_t>(v);
    res_owned = c.unr.blk_init(self, mh, nc * n * sizeof(double),
                               n * sizeof(double), sig_down);
    pre.push_back(r.isend(parent, coll_tag(ri, 2 * sv + 1), &res_owned,
                          sizeof(unrlib::Blk)));
    pre.push_back(r.irecv(parent, coll_tag(ri, 2 * sv), &parent_slot,
                          sizeof(unrlib::Blk)));
  }
  r.wait_all(pre);

  std::vector<double> acc(n);
  for (std::size_t j = 0; j < n; ++j)
    acc[j] = c.oracle.allreduce_contrib(ri, self, j);
  if (nc > 0) {
    wait_sig(r, c, ri, sig_gather, "ar_tree gather");
    for (std::size_t i = 0; i < nc; ++i)
      for (std::size_t j = 0; j < n; ++j) acc[j] += gather[i * n + j];
  }
  if (parent >= 0) {
    std::memcpy(up, acc.data(), n * sizeof(double));
    const unrlib::Blk up_blk = c.unr.blk_init(
        self, mh, (nc + 1) * n * sizeof(double), n * sizeof(double));
    c.unr.put(self, up_blk, parent_slot);
    wait_sig(r, c, ri, sig_down, "ar_tree down");  // res filled by parent
  } else {
    std::memcpy(res, acc.data(), n * sizeof(double));
  }
  const unrlib::Blk res_src =
      c.unr.blk_init(self, mh, nc * n * sizeof(double), n * sizeof(double));
  for (std::size_t i = 0; i < nc; ++i) c.unr.put(self, res_src, child_res[i]);

  for (std::size_t j = 0; j < n; ++j) {
    const double want = c.ar_expected[ri][j];
    if (res[j] != want) {
      std::ostringstream os;
      os << "ar_tree[" << j << "] = " << res[j] << ", oracle " << want;
      c.viol(ri, self, os.str());
    }
  }
  fnv(dig, res, n * sizeof(double));
  fold_sig(r, c, ri, sig_gather, "ar_tree gather", dig);
  fold_sig(r, c, ri, sig_down, "ar_tree down", dig);
  r.barrier();
  c.unr.mem_dereg(self, mh);
}

/// MoE-style all-to-all with skewed expert routing: every rank puts a
/// deterministic, per-pair-sized payload to every other rank; pairs routed
/// to the hot expert (round.root) carry 4x the base size. One arrival
/// signal armed P-1; slots verified only after the full wait.
void run_alltoall_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                        const RoundSpec& round, std::uint64_t& dig) {
  using unrlib::kNoSig;
  const int self = r.id();
  const int P = r.nranks();
  const auto sp = static_cast<std::size_t>(P);

  std::vector<std::size_t> roff(sp, 0), soff(sp, 0);
  std::size_t rtotal = 0, stotal = 0;
  for (int o = 0; o < P; ++o) {
    roff[static_cast<std::size_t>(o)] = rtotal;
    rtotal += c.oracle.moe_bytes(ri, o, self);
    soff[static_cast<std::size_t>(o)] = stotal;
    stotal += c.oracle.moe_bytes(ri, self, o);
  }
  std::vector<std::byte> rarena(std::max<std::size_t>(rtotal, 1), std::byte{0});
  std::vector<std::byte> sarena(std::max<std::size_t>(stotal, 1), std::byte{0});
  const unrlib::MemHandle rmh = c.unr.mem_reg(self, rarena.data(), rarena.size());
  const unrlib::MemHandle smh = c.unr.mem_reg(self, sarena.data(), sarena.size());
  const unrlib::SigId sig_in = c.unr.sig_init(self, P - 1, c.spec.sig_n_bits);

  std::vector<unrlib::Blk> owned(sp), needed(sp);
  std::vector<runtime::RequestPtr> pre;
  for (int o = 0; o < P; ++o) {
    if (o == self) continue;
    const auto so = static_cast<std::size_t>(o);
    owned[so] = c.unr.blk_init(self, rmh, roff[so],
                               c.oracle.moe_bytes(ri, o, self), sig_in);
    pre.push_back(r.isend(o, coll_tag(ri, 0), &owned[so], sizeof(unrlib::Blk)));
    pre.push_back(r.irecv(o, coll_tag(ri, 0), &needed[so], sizeof(unrlib::Blk)));
  }
  r.wait_all(pre);

  for (int o = 0; o < P; ++o) {
    if (o == self) continue;
    const auto so = static_cast<std::size_t>(o);
    const std::size_t len = c.oracle.moe_bytes(ri, self, o);
    const std::span<std::byte> s(sarena.data() + soff[so], len);
    Oracle::fill(s, c.oracle.moe_pattern(ri, self, o));
    const unrlib::Blk lblk = c.unr.blk_init(self, smh, soff[so], len);
    c.unr.put(self, lblk, needed[so]);
  }
  wait_sig(r, c, ri, sig_in, "alltoall arrivals");

  std::size_t bad = 0;
  for (int o = 0; o < P; ++o) {
    if (o == self) continue;
    const auto so = static_cast<std::size_t>(o);
    const std::span<const std::byte> s(rarena.data() + roff[so],
                                       c.oracle.moe_bytes(ri, o, self));
    if (!Oracle::check(s, c.oracle.moe_pattern(ri, o, self), bad)) {
      c.viol(ri, self, "alltoall slot from " + std::to_string(o) +
                           " mismatch at byte " + std::to_string(bad));
    }
    fnv(dig, s.data(), s.size());
  }
  fold_sig(r, c, ri, sig_in, "alltoall", dig);
  r.barrier();
  c.unr.mem_dereg(self, rmh);
  c.unr.mem_dereg(self, smh);
}

/// Combining fetch-and-add: an arity-d tree where each node waits for its
/// children's combined counts, then forwards its whole subtree total as that
/// many notified 0-byte PUTs — the Ultracomputer combining idiom expressed
/// through MMAS addends. Arming num_event = the exact subtree sum makes the
/// notification width itself the property under test.
void run_faa_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                   const RoundSpec& round, std::uint64_t& dig) {
  using unrlib::kNoSig;
  const int self = r.id();
  const int P = r.nranks();
  const int arity = round.depth;
  const int v = Oracle::vrank_of(self, round.root, P);
  const int pv = Oracle::tree_parent(v, arity);
  const int parent = pv < 0 ? -1 : Oracle::rank_of(pv, round.root, P);
  std::vector<int> children;
  for (int k = 1; k <= arity; ++k) {
    const int cv = arity * v + k;
    if (cv < P) children.push_back(Oracle::rank_of(cv, round.root, P));
  }

  std::byte slot{};
  const unrlib::MemHandle mh = c.unr.mem_reg(self, &slot, 1);
  const std::int64_t arm = c.oracle.faa_arm(ri, self);
  const unrlib::SigId sig =
      children.empty() ? kNoSig : c.unr.sig_init(self, arm, c.spec.sig_n_bits);
  unrlib::Blk owned = c.unr.blk_init(self, mh, 0, 0, sig);
  unrlib::Blk parent_blk{};
  std::vector<runtime::RequestPtr> pre;
  for (int child : children) {
    const auto cv =
        static_cast<std::size_t>(Oracle::vrank_of(child, round.root, P));
    pre.push_back(r.isend(child, coll_tag(ri, cv), &owned, sizeof(unrlib::Blk)));
  }
  if (parent >= 0) {
    pre.push_back(r.irecv(parent, coll_tag(ri, static_cast<std::size_t>(v)),
                          &parent_blk, sizeof(unrlib::Blk)));
  }
  r.wait_all(pre);

  if (!children.empty()) wait_sig(r, c, ri, sig, "faa combine");
  const std::int64_t subtree = c.oracle.faa_subtree_total(ri, self);
  if (parent >= 0) {
    const unrlib::Blk src0 = c.unr.blk_init(self, mh, 0, 0);
    for (std::int64_t i = 0; i < subtree; ++i) c.unr.put(self, src0, parent_blk);
  }
  // Once the subtree wait clears, the combined count is committed knowledge;
  // fold the accounting every rank can derive.
  fnv_u64(dig, static_cast<std::uint64_t>(subtree));
  fnv_u64(dig, static_cast<std::uint64_t>(arm));
  if (parent < 0) fnv_u64(dig, static_cast<std::uint64_t>(c.oracle.faa_total(ri)));
  fold_sig(r, c, ri, sig, "faa", dig);
  r.barrier();
  c.unr.mem_dereg(self, mh);
}

/// Software barrier tree over signals: gather pattern payloads up an
/// arity-d tree (each parent byte-verifies every child's contribution),
/// then release payloads back down (each child verifies its parent's).
void run_barrier_tree_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                            const RoundSpec& round, std::uint64_t& dig) {
  using unrlib::kNoSig;
  constexpr std::size_t kSlot = 8;
  const int self = r.id();
  const int P = r.nranks();
  const int arity = round.depth;
  const int v = Oracle::vrank_of(self, round.root, P);
  const int pv = Oracle::tree_parent(v, arity);
  const int parent = pv < 0 ? -1 : Oracle::rank_of(pv, round.root, P);
  std::vector<int> children;
  for (int k = 1; k <= arity; ++k) {
    const int cv = arity * v + k;
    if (cv < P) children.push_back(Oracle::rank_of(cv, round.root, P));
  }
  const std::size_t nc = children.size();

  // Arena bytes: [gather slots nc*8][release slot 8][up src 8][down src 8].
  std::vector<std::byte> arena((nc + 3) * kSlot, std::byte{0});
  const unrlib::MemHandle mh = c.unr.mem_reg(self, arena.data(), arena.size());
  const unrlib::SigId sig_gather =
      nc > 0 ? c.unr.sig_init(self, static_cast<std::int64_t>(nc),
                              c.spec.sig_n_bits)
             : kNoSig;
  const unrlib::SigId sig_release =
      parent >= 0 ? c.unr.sig_init(self, 1, c.spec.sig_n_bits) : kNoSig;

  std::vector<unrlib::Blk> gather_owned(nc), child_release(nc);
  unrlib::Blk release_owned{}, parent_gather{};
  std::vector<runtime::RequestPtr> pre;
  for (std::size_t i = 0; i < nc; ++i) {
    const auto cv = static_cast<std::size_t>(
        Oracle::vrank_of(children[i], round.root, P));
    gather_owned[i] = c.unr.blk_init(self, mh, i * kSlot, kSlot, sig_gather);
    pre.push_back(r.isend(children[i], coll_tag(ri, 2 * cv), &gather_owned[i],
                          sizeof(unrlib::Blk)));
    pre.push_back(r.irecv(children[i], coll_tag(ri, 2 * cv + 1),
                          &child_release[i], sizeof(unrlib::Blk)));
  }
  if (parent >= 0) {
    const auto sv = static_cast<std::size_t>(v);
    release_owned = c.unr.blk_init(self, mh, nc * kSlot, kSlot, sig_release);
    pre.push_back(r.isend(parent, coll_tag(ri, 2 * sv + 1), &release_owned,
                          sizeof(unrlib::Blk)));
    pre.push_back(r.irecv(parent, coll_tag(ri, 2 * sv), &parent_gather,
                          sizeof(unrlib::Blk)));
  }
  r.wait_all(pre);

  std::byte* up_src = arena.data() + (nc + 1) * kSlot;
  std::byte* down_src = arena.data() + (nc + 2) * kSlot;
  Oracle::fill({up_src, kSlot}, c.oracle.bt_pattern(ri, self, 0));
  std::size_t bad = 0;
  if (nc > 0) {
    wait_sig(r, c, ri, sig_gather, "barrier_tree gather");
    for (std::size_t i = 0; i < nc; ++i) {
      const std::span<const std::byte> s(arena.data() + i * kSlot, kSlot);
      if (!Oracle::check(s, c.oracle.bt_pattern(ri, children[i], 0), bad)) {
        c.viol(ri, self, "barrier_tree gather from " +
                             std::to_string(children[i]) + " mismatch at byte " +
                             std::to_string(bad));
      }
      fnv(dig, s.data(), s.size());
    }
  }
  if (parent >= 0) {
    const unrlib::Blk up_blk =
        c.unr.blk_init(self, mh, (nc + 1) * kSlot, kSlot);
    c.unr.put(self, up_blk, parent_gather);
    wait_sig(r, c, ri, sig_release, "barrier_tree release");
    const std::span<const std::byte> s(arena.data() + nc * kSlot, kSlot);
    if (!Oracle::check(s, c.oracle.bt_pattern(ri, parent, 1), bad)) {
      c.viol(ri, self, "barrier_tree release from " + std::to_string(parent) +
                           " mismatch at byte " + std::to_string(bad));
    }
    fnv(dig, s.data(), s.size());
  }
  Oracle::fill({down_src, kSlot}, c.oracle.bt_pattern(ri, self, 1));
  const unrlib::Blk down_blk =
      c.unr.blk_init(self, mh, (nc + 2) * kSlot, kSlot);
  for (std::size_t i = 0; i < nc; ++i)
    c.unr.put(self, down_blk, child_release[i]);

  fold_sig(r, c, ri, sig_gather, "barrier_tree gather", dig);
  fold_sig(r, c, ri, sig_release, "barrier_tree release", dig);
  r.barrier();
  c.unr.mem_dereg(self, mh);
}

/// Work-queue steal traffic: every rank owns `count` items and performs
/// `count` steals from the oracle's deterministic schedule — a notified GET
/// of the victim's item (reader-side signal orders the landing), then a
/// 0-byte notified PUT telling the victim it was robbed. The victim's
/// robbery signal is armed with the schedule's exact count against it.
void run_steal_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                     const RoundSpec& round, std::uint64_t& dig) {
  using unrlib::kNoSig;
  const int self = r.id();
  const int P = r.nranks();
  const int k = round.count;
  const std::size_t B = round.size;
  const auto sk = static_cast<std::size_t>(k);

  // Arena: [items k*B][steal landings k*B][flag byte].
  std::vector<std::byte> arena(2 * sk * B + 1, std::byte{0});
  const unrlib::MemHandle mh = c.unr.mem_reg(self, arena.data(), arena.size());
  const std::int64_t robberies = c.oracle.steal_robberies(ri, self);
  const unrlib::SigId sig_rob =
      robberies > 0 ? c.unr.sig_init(self, robberies, c.spec.sig_n_bits)
                    : kNoSig;
  const unrlib::SigId sig_get = c.unr.sig_init(self, k, c.spec.sig_n_bits);

  for (int i = 0; i < k; ++i) {
    const std::span<std::byte> s(arena.data() + static_cast<std::size_t>(i) * B, B);
    Oracle::fill(s, c.oracle.item_pattern(ri, self, i));
  }

  // The schedule is global knowledge: as a victim, ship each thief the
  // stolen item's Blk plus the robbery-flag Blk; as a thief, collect them.
  struct BlkPair {
    unrlib::Blk item, flag;
  };
  const unrlib::Blk flag_owned = c.unr.blk_init(self, mh, 2 * sk * B, 0, sig_rob);
  std::vector<BlkPair> sent;
  // Pending isends hold pointers into `sent`: reserve the exact count so
  // push_back can never reallocate under them.
  sent.reserve(static_cast<std::size_t>(std::max<std::int64_t>(robberies, 1)));
  std::vector<BlkPair> loot(sk);
  std::vector<runtime::RequestPtr> pre;
  for (int t = 0; t < P; ++t) {
    if (t == self) continue;
    for (int j = 0; j < k; ++j) {
      if (c.oracle.steal_victim(ri, t, j) != self) continue;
      const int item = c.oracle.steal_item(ri, t, j);
      sent.push_back({c.unr.blk_init(self, mh,
                                     static_cast<std::size_t>(item) * B, B),
                      flag_owned});
      pre.push_back(r.isend(t, coll_tag(ri, static_cast<std::size_t>(t * k + j)),
                            &sent.back(), sizeof(BlkPair)));
    }
  }
  for (int j = 0; j < k; ++j) {
    pre.push_back(r.irecv(c.oracle.steal_victim(ri, self, j),
                          coll_tag(ri, static_cast<std::size_t>(self * k + j)),
                          &loot[static_cast<std::size_t>(j)], sizeof(BlkPair)));
  }
  r.wait_all(pre);

  unrlib::XferOptions xo;
  xo.use_local_blk_sig = false;
  xo.local_sig = sig_get;
  for (int j = 0; j < k; ++j) {
    const unrlib::Blk land = c.unr.blk_init(
        self, mh, (sk + static_cast<std::size_t>(j)) * B, B);
    c.unr.get(self, land, loot[static_cast<std::size_t>(j)].item, xo);
  }
  wait_sig(r, c, ri, sig_get, "steal GETs");

  std::size_t bad = 0;
  for (int j = 0; j < k; ++j) {
    const int victim = c.oracle.steal_victim(ri, self, j);
    const int item = c.oracle.steal_item(ri, self, j);
    const std::span<const std::byte> s(
        arena.data() + (sk + static_cast<std::size_t>(j)) * B, B);
    if (!Oracle::check(s, c.oracle.item_pattern(ri, victim, item), bad)) {
      c.viol(ri, self, "stolen item " + std::to_string(item) + " from " +
                           std::to_string(victim) + " mismatch at byte " +
                           std::to_string(bad));
    }
    fnv(dig, s.data(), s.size());
  }
  const unrlib::Blk src0 = c.unr.blk_init(self, mh, 2 * sk * B, 0);
  for (int j = 0; j < k; ++j)
    c.unr.put(self, src0, loot[static_cast<std::size_t>(j)].flag);
  wait_sig(r, c, ri, sig_rob, "steal robberies");

  // Wild-write detector: GETs are reads; the queue must come back intact.
  for (int i = 0; i < k; ++i) {
    const std::span<const std::byte> s(
        arena.data() + static_cast<std::size_t>(i) * B, B);
    if (!Oracle::check(s, c.oracle.item_pattern(ri, self, i), bad)) {
      c.viol(ri, self, "work-queue item " + std::to_string(i) +
                           " modified at byte " + std::to_string(bad));
    }
  }
  fold_sig(r, c, ri, sig_get, "steal get", dig);
  fold_sig(r, c, ri, sig_rob, "steal robbery", dig);
  r.barrier();
  c.unr.mem_dereg(self, mh);
}

/// Pipeline-parallel chain 0 -> 1 -> ... -> P-1: `count` micro-batches of
/// `size` bytes relay through every stage; each stage verifies and forwards
/// a micro-batch as soon as ITS arrival signal fires, and a sender may keep
/// at most `depth` micro-batches in flight (the overlap window), gated on
/// per-micro-batch local-completion signals.
void run_pipeline_round(runtime::Rank& r, Ctx& c, std::size_t ri,
                        const RoundSpec& round, std::uint64_t& dig) {
  using unrlib::kNoSig;
  const int self = r.id();
  const int P = r.nranks();
  const int M = round.count;
  const int D = round.depth;
  const std::size_t B = round.size;
  const auto sm = static_cast<std::size_t>(M);
  const bool has_prev = self > 0;
  const bool has_next = self < P - 1;

  // Arena: [recv slots M*B (if has_prev)][forward slots M*B (if has_next)].
  const std::size_t recv_base = 0;
  const std::size_t fwd_base = has_prev ? sm * B : 0;
  std::vector<std::byte> arena(
      std::max<std::size_t>((static_cast<std::size_t>(has_prev) +
                             static_cast<std::size_t>(has_next)) * sm * B, 1),
      std::byte{0});
  const unrlib::MemHandle mh = c.unr.mem_reg(self, arena.data(), arena.size());

  std::vector<unrlib::SigId> sig_in(sm, kNoSig), sig_loc(sm, kNoSig);
  for (std::size_t m = 0; m < sm; ++m) {
    if (has_prev) sig_in[m] = c.unr.sig_init(self, 1, c.spec.sig_n_bits);
    if (has_next) sig_loc[m] = c.unr.sig_init(self, 1, c.spec.sig_n_bits);
  }

  std::vector<unrlib::Blk> owned(sm), needed(sm);
  std::vector<runtime::RequestPtr> pre;
  for (std::size_t m = 0; m < sm; ++m) {
    if (has_prev) {
      owned[m] = c.unr.blk_init(self, mh, recv_base + m * B, B, sig_in[m]);
      pre.push_back(r.isend(self - 1, coll_tag(ri, m), &owned[m],
                            sizeof(unrlib::Blk)));
    }
    if (has_next) {
      pre.push_back(r.irecv(self + 1, coll_tag(ri, m), &needed[m],
                            sizeof(unrlib::Blk)));
    }
  }
  r.wait_all(pre);

  std::size_t bad = 0;
  for (int m = 0; m < M; ++m) {
    const auto im = static_cast<std::size_t>(m);
    if (has_prev) {
      wait_sig(r, c, ri, sig_in[im], "pipeline arrival");
      const std::span<const std::byte> s(arena.data() + recv_base + im * B, B);
      if (!Oracle::check(s, c.oracle.pipe_pattern(ri, m), bad)) {
        c.viol(ri, self, "pipeline micro-batch " + std::to_string(m) +
                             " mismatch at byte " + std::to_string(bad));
      }
      fnv(dig, s.data(), s.size());
    }
    if (has_next) {
      if (m >= D) wait_sig(r, c, ri, sig_loc[im - static_cast<std::size_t>(D)],
                           "pipeline overlap window");
      const std::span<std::byte> f(arena.data() + fwd_base + im * B, B);
      if (has_prev) {
        std::memcpy(f.data(), arena.data() + recv_base + im * B, B);
      } else {
        Oracle::fill(f, c.oracle.pipe_pattern(ri, m));
      }
      unrlib::XferOptions xo;
      xo.use_local_blk_sig = false;
      xo.local_sig = sig_loc[im];
      const unrlib::Blk lblk = c.unr.blk_init(self, mh, fwd_base + im * B, B);
      c.unr.put(self, lblk, needed[im], xo);
    }
  }
  if (has_next) {
    for (std::size_t m = 0; m < sm; ++m)
      wait_sig(r, c, ri, sig_loc[m], "pipeline drain");
  }
  for (std::size_t m = 0; m < sm; ++m) {
    fold_sig(r, c, ri, sig_in[m], "pipeline arrival", dig);
    fold_sig(r, c, ri, sig_loc[m], "pipeline local", dig);
  }
  r.barrier();
  c.unr.mem_dereg(self, mh);
}

void run_rank(runtime::Rank& r, Ctx& c) {
  const int self = r.id();
  const int P = r.nranks();
  auto& mine = c.region[static_cast<std::size_t>(self)];
  unrlib::MemHandle mh = c.unr.mem_reg(self, mine.data(), mine.size());

  // Persistent structures any round might need (collective construction).
  std::vector<std::byte> expose;
  std::shared_ptr<runtime::Window> win;
  if (c.window_needed) {
    expose.assign(static_cast<std::size_t>(P) * c.max_wslot, std::byte{0});
    win = runtime::Window::create(r.comm(), self, expose.data(), expose.size());
  }
  std::optional<unrlib::RmaBarrier> rbar;
  if (c.rma_barrier_needed) rbar.emplace(c.unr, r);

  for (std::size_t ri = 0; ri < c.spec.rounds.size(); ++ri) {
    const RoundSpec& round = c.spec.rounds[ri];
    std::uint64_t& dig = c.digests[ri][static_cast<std::size_t>(self)];
    std::size_t bad = 0;
    switch (round.kind) {
      case RoundSpec::Kind::kXfer:
        run_xfer_round(r, c, ri, round, mh, dig);
        break;
      case RoundSpec::Kind::kBarrier:
        r.barrier();
        break;
      case RoundSpec::Kind::kRmaBarrier:
        rbar->run();
        break;
      case RoundSpec::Kind::kBcast: {
        std::vector<std::byte> buf(round.size);
        const std::uint64_t pat = c.oracle.coll_pattern(ri, round.root);
        if (self == round.root) Oracle::fill(buf, pat);
        r.bcast(round.root, buf.data(), buf.size());
        if (!Oracle::check(buf, pat, bad)) {
          c.viol(ri, self,
                 "bcast payload mismatch at byte " + std::to_string(bad));
        }
        fnv(dig, buf.data(), buf.size());
        break;
      }
      case RoundSpec::Kind::kAllgather: {
        std::vector<std::byte> one(round.size);
        std::vector<std::byte> all(static_cast<std::size_t>(P) * round.size);
        Oracle::fill(one, c.oracle.coll_pattern(ri, self));
        r.allgather(one.data(), all.data(), round.size);
        for (int o = 0; o < P; ++o) {
          const std::span<const std::byte> s(
              all.data() + static_cast<std::size_t>(o) * round.size,
              round.size);
          if (!Oracle::check(s, c.oracle.coll_pattern(ri, o), bad)) {
            c.viol(ri, self, "allgather slot " + std::to_string(o) +
                                 " mismatch at byte " + std::to_string(bad));
          }
        }
        fnv(dig, all.data(), all.size());
        break;
      }
      case RoundSpec::Kind::kAllreduce: {
        std::vector<double> v(round.size);
        for (std::size_t j = 0; j < v.size(); ++j) {
          v[j] = c.oracle.allreduce_contrib(ri, self, j);
        }
        r.allreduce_sum(v.data(), v.size());
        for (std::size_t j = 0; j < v.size(); ++j) {
          const double want = c.ar_expected[ri][j];
          if (v[j] != want) {
            std::ostringstream os;
            os << "allreduce[" << j << "] = " << v[j] << ", oracle " << want;
            c.viol(ri, self, os.str());
          }
        }
        fnv(dig, v.data(), v.size() * sizeof(double));
        break;
      }
      case RoundSpec::Kind::kWindow: {
        // Shifted ring: each origin puts into slot 0 of exactly one target,
        // so epochs can reuse the exposure buffer (fences order them).
        const std::size_t slot = round.size;
        const int target = (self + round.root) % P;
        const int origin = (self - round.root + P) % P;
        std::vector<std::byte> src(slot);
        Oracle::fill(src, c.oracle.window_pattern(ri, self));
        win->fence(self);
        win->put(self, target, 0, src.data(), slot);
        win->fence(self);
        // Safe to read before the next epoch: its opening fence cannot
        // complete without this rank's participation.
        const std::span<const std::byte> got(expose.data(), slot);
        if (!Oracle::check(got, c.oracle.window_pattern(ri, origin), bad)) {
          c.viol(ri, self, "window epoch: data from origin " +
                               std::to_string(origin) + " mismatch at byte " +
                               std::to_string(bad));
        }
        fnv(dig, got.data(), got.size());
        break;
      }
      case RoundSpec::Kind::kAllreduceRing:
        run_ar_ring_round(r, c, ri, round, dig);
        break;
      case RoundSpec::Kind::kAllreduceTree:
        run_ar_tree_round(r, c, ri, round, dig);
        break;
      case RoundSpec::Kind::kAlltoall:
        run_alltoall_round(r, c, ri, round, dig);
        break;
      case RoundSpec::Kind::kFaaCombine:
        run_faa_round(r, c, ri, round, dig);
        break;
      case RoundSpec::Kind::kBarrierTree:
        run_barrier_tree_round(r, c, ri, round, dig);
        break;
      case RoundSpec::Kind::kSteal:
        run_steal_round(r, c, ri, round, dig);
        break;
      case RoundSpec::Kind::kPipeline:
        run_pipeline_round(r, c, ri, round, dig);
        break;
    }
  }

  // Drain: unverifiable fire-and-forget tails (non-notified ops, companion
  // messages, rendezvous acks) must land before the pool-conservation
  // checks read the teardown state.
  r.barrier();
  r.kernel().sleep_for(2 * kMs);
  r.barrier();
}

}  // namespace

std::string validate(const WorkloadSpec& spec) {
  const auto err = [](const std::string& m) { return m; };
  if (spec.nodes < 1 || spec.ranks_per_node < 1) return err("bad topology");
  const int P = spec.nranks();
  if (P < 2) return err("need at least 2 ranks");
  if (P > 256) return err("more than 256 ranks");
  if (spec.nics < 1 || spec.nics > 64) return err("bad NIC count");
  if (spec.nic_death && spec.nics < 2) return err("nic_death needs >= 2 NICs");
  if (spec.sig_n_bits < 1 || spec.sig_n_bits > 61) return err("sig_n_bits out of [1, 61]");
  if (spec.region_bytes == 0 || spec.region_bytes > 64 * MiB) return err("bad region size");
  if (spec.rounds.size() > 4096) return err("more than 4096 rounds");
  Oracle oracle(spec);
  // Signal-width capacity: every armed num_event must fit the event field.
  const std::int64_t cap = std::int64_t{1}
                           << (spec.sig_n_bits < 62 ? spec.sig_n_bits : 61);
  for (std::size_t ri = 0; ri < spec.rounds.size(); ++ri) {
    const RoundSpec& round = spec.rounds[ri];
    const auto rerr = [&](const std::string& m) {
      return "round " + std::to_string(ri) + ": " + m;
    };
    if (round.stray_sig_rank < -1 || round.stray_sig_rank >= P) {
      return rerr("stray_sig_rank out of range");
    }
    switch (round.kind) {
      case RoundSpec::Kind::kXfer: {
        if (round.ops.size() > 256) return rerr("more than 256 ops");
        for (std::size_t i = 0; i < round.ops.size(); ++i) {
          const OpSpec& op = round.ops[i];
          const auto oerr = [&](const std::string& m) {
            return rerr("op " + std::to_string(i) + ": " + m);
          };
          if (op.a < 0 || op.a >= P || op.b < 0 || op.b >= P) {
            return oerr("rank out of range");
          }
          if (op.a == op.b) return oerr("self-targeted op");
          if (op.kind == OpSpec::Kind::kSend) {
            if (op.size > 16 * MiB) return oerr("send too large");
          } else {
            if (op.src_off + op.size > spec.region_bytes ||
                op.dst_off + op.size > spec.region_bytes) {
              return oerr("slot outside the registered region");
            }
            if (op.force_split < 0 || op.force_split > 64) {
              return oerr("bad force_split");
            }
            if (op.nic < -1 || op.nic >= spec.nics) return oerr("bad nic pin");
          }
        }
        // Signal capacity: the armed counts must fit the event field.
        for (int rank = 0; rank < P; ++rank) {
          const Oracle::Events ev = oracle.expected_events(ri, rank);
          if (ev.arrivals >= cap || ev.locals >= cap) {
            return rerr("expected events overflow sig_n_bits");
          }
        }
        break;
      }
      case RoundSpec::Kind::kBarrier:
      case RoundSpec::Kind::kRmaBarrier:
        break;
      case RoundSpec::Kind::kBcast:
        if (round.root < 0 || round.root >= P) return rerr("bcast root out of range");
        if (round.size < 1 || round.size > 16 * MiB) return rerr("bad bcast size");
        break;
      case RoundSpec::Kind::kAllgather:
        if (round.size < 1 || round.size > 1 * MiB) return rerr("bad allgather size");
        break;
      case RoundSpec::Kind::kAllreduce:
        if (round.size < 1 || round.size > 64 * KiB) return rerr("bad allreduce count");
        break;
      case RoundSpec::Kind::kWindow:
        if (round.root < 1 || round.root >= P) return rerr("window shift out of [1, P)");
        if (round.size < 1 || round.size > 64 * KiB) return rerr("bad window slot size");
        break;
      case RoundSpec::Kind::kAllreduceRing:
        if (round.size < 1 || round.size > 4096) return rerr("bad ar_ring count");
        break;
      case RoundSpec::Kind::kAllreduceTree:
        if (round.root < 0 || round.root >= P) return rerr("ar_tree root out of range");
        if (round.size < 1 || round.size > 4096) return rerr("bad ar_tree count");
        if (cap <= 2) return rerr("sig_n_bits too narrow for ar_tree gather");
        break;
      case RoundSpec::Kind::kAlltoall:
        if (round.root < 0 || round.root >= P) return rerr("alltoall hot rank out of range");
        if (round.size < 1 || round.size > 4096) return rerr("bad alltoall base size");
        if (P - 1 >= cap) return rerr("alltoall arrivals overflow sig_n_bits");
        break;
      case RoundSpec::Kind::kFaaCombine: {
        if (round.root < 0 || round.root >= P) return rerr("faa root out of range");
        if (round.depth < 2 || round.depth > 8) return rerr("faa arity out of [2, 8]");
        if (round.count < 1 || round.count > 64) return rerr("faa addend cap out of [1, 64]");
        if (oracle.faa_total(ri) > 4096) return rerr("faa grand total too large");
        for (int rank = 0; rank < P; ++rank) {
          if (oracle.faa_arm(ri, rank) >= cap) {
            return rerr("faa combined count overflows sig_n_bits");
          }
        }
        break;
      }
      case RoundSpec::Kind::kBarrierTree:
        if (round.root < 0 || round.root >= P) return rerr("barrier_tree root out of range");
        if (round.depth < 2 || round.depth > 8) return rerr("barrier_tree arity out of [2, 8]");
        if (round.depth >= cap) return rerr("barrier_tree fan-in overflows sig_n_bits");
        break;
      case RoundSpec::Kind::kSteal:
        if (round.size < 1 || round.size > 4096) return rerr("bad steal item size");
        if (round.count < 1 || round.count > 16) return rerr("steal count out of [1, 16]");
        if (P * round.count > 4096) return rerr("too many steal events");
        if (round.count >= cap) return rerr("steal GET count overflows sig_n_bits");
        for (int rank = 0; rank < P; ++rank) {
          if (oracle.steal_robberies(ri, rank) >= cap) {
            return rerr("steal robberies overflow sig_n_bits");
          }
        }
        break;
      case RoundSpec::Kind::kPipeline:
        if (round.size < 1 || round.size > 64 * KiB) return rerr("bad pipeline micro-batch size");
        if (round.count < 1 || round.count > 64) return rerr("pipeline micro-batches out of [1, 64]");
        if (round.depth < 1 || round.depth > 32) return rerr("pipeline overlap depth out of [1, 32]");
        break;
    }
  }
  return "";
}

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& opt) {
  RunResult out;
  if (const std::string verr = validate(spec); !verr.empty()) {
    out.violations.push_back("invalid spec: " + verr);
    return out;
  }

  // Fault runs exercise warn paths on purpose; keep the console quiet but
  // let genuine errors through.
  const LogLevel prev_level = log_level();
  set_log_level(LogLevel::kError);

  const int P = spec.nranks();
  const std::size_t R = spec.rounds.size();
  const Oracle oracle(spec);
  std::vector<std::vector<double>> ar_expected(R);
  for (std::size_t ri = 0; ri < R; ++ri) {
    const RoundSpec::Kind k = spec.rounds[ri].kind;
    if (k != RoundSpec::Kind::kAllreduce && k != RoundSpec::Kind::kAllreduceRing &&
        k != RoundSpec::Kind::kAllreduceTree)
      continue;
    ar_expected[ri].resize(spec.rounds[ri].size);
    for (std::size_t j = 0; j < ar_expected[ri].size(); ++j)
      ar_expected[ri][j] = oracle.allreduce_expected(ri, j);
  }
  std::vector<std::string> violations;
  std::vector<std::vector<std::byte>> region(static_cast<std::size_t>(P));
  for (auto& v : region) v.assign(spec.region_bytes, std::byte{0});
  std::vector<std::vector<std::uint64_t>> digests(
      R, std::vector<std::uint64_t>(static_cast<std::size_t>(P), kFnvBasis));

  {
    runtime::World::Config wc;
    wc.nodes = spec.nodes;
    wc.ranks_per_node = spec.ranks_per_node;
    wc.profile = system_profile(spec.profile);
    wc.profile.iface = spec.iface;
    wc.profile.nics_per_node = spec.nics;
    wc.seed = spec.seed;
    if (spec.faults) {
      wc.faults.drop_rate = 0.02;
      wc.faults.delay_rate = 0.05;
      wc.faults.delay_max = 5 * kUs;
      if (spec.nic_death) {
        wc.faults.nic_faults.push_back({spec.nodes - 1, spec.nics - 1, 40 * kUs});
      }
    }
    wc.shards = opt.shards;
    if (opt.trace_out) {
      wc.telemetry.trace.enabled = true;
      wc.telemetry.trace.ring_capacity = opt.trace_ring;
    }
    runtime::World w(wc);

    unrlib::Unr::Config uc;
    uc.channel = opt.channel;
    uc.split_threshold = spec.split_threshold;
    uc.shm_intra_node = spec.shm_intra_node;
    uc.enable_hw_offload = opt.channel == unrlib::ChannelKind::kLevel4;
    unrlib::Unr unr(w, uc);

    Ctx ctx{spec, opt, oracle, ar_expected, unr, region, digests, violations};
    for (const RoundSpec& round : spec.rounds) {
      if (round.kind == RoundSpec::Kind::kWindow) {
        ctx.window_needed = true;
        if (round.size > ctx.max_wslot) ctx.max_wslot = round.size;
      }
      if (round.kind == RoundSpec::Kind::kRmaBarrier) {
        ctx.rma_barrier_needed = true;
      }
    }

    try {
      w.run([&ctx](runtime::Rank& r) { run_rank(r, ctx); });
    } catch (const std::exception& e) {
      // Fail-loud invariants (UNR_CHECK in the kernel/fabric/signals) and
      // deadlock detection surface here.
      violations.push_back(std::string("run aborted: ") + e.what());
    }

    if (opt.check_invariants) {
      const sim::Kernel::PoolDebug kp = w.kernel().pool_debug();
      if (kp.leaked() != 0) {
        std::ostringstream os;
        os << "EventNode pool leak: total=" << kp.total << " free=" << kp.free
           << " pending=" << kp.pending;
        violations.push_back(os.str());
      }
      // Coroutine-frame conservation: every actor fiber must have completed
      // and returned its stack to the pool by the time run() exits — on the
      // abort path too. A live stack here is a fiber the scheduler lost.
      if (kp.live_stacks() != 0) {
        std::ostringstream os;
        os << "fiber stack leak: " << kp.live_stacks() << " of "
           << kp.stacks_total << " coroutine frame(s) never released";
        violations.push_back(os.str());
      }
      const fabric::Fabric::PoolDebug fp = w.fabric().pool_debug();
      if (fp.live_flights() != 0) {
        violations.push_back("fragment conservation: " +
                             std::to_string(fp.live_flights()) +
                             " Flight(s) never released");
      }
      if (fp.live_am_flights() != 0) {
        violations.push_back("fragment conservation: " +
                             std::to_string(fp.live_am_flights()) +
                             " AmFlight(s) never released");
      }
    }

    out.events = w.kernel().event_count();
    out.end_time = w.elapsed();

    // In-memory telemetry capture (the service's streaming path) — read
    // before the World tears the kernel down.
    if (opt.trace_out) {
      std::ostringstream ts;
      w.kernel().telemetry().tracer().write_json(ts);
      *opt.trace_out = ts.str();
    }
    if (opt.metrics_out) {
      std::ostringstream ms;
      w.kernel().telemetry().registry().write_json(ms);
      *opt.metrics_out = ms.str();
    }
  }

  set_log_level(prev_level);

  // Fold per-(round, rank) digests in a fixed order; timing never enters.
  std::uint64_t d = kFnvBasis;
  fnv_u64(d, static_cast<std::uint64_t>(P));
  fnv_u64(d, static_cast<std::uint64_t>(R));
  for (const auto& per_rank : digests) {
    for (const std::uint64_t v : per_rank) fnv_u64(d, v);
  }
  out.digest = d;
  out.violations = std::move(violations);
  out.ok = out.violations.empty();
  return out;
}

std::span<const unrlib::ChannelKind> differential_channels() {
  static constexpr unrlib::ChannelKind kDiff[] = {
      unrlib::ChannelKind::kNative,
      unrlib::ChannelKind::kLevel0,
      unrlib::ChannelKind::kMpiFallback,
  };
  return kDiff;
}

const char* channel_token(unrlib::ChannelKind k) {
  switch (k) {
    case unrlib::ChannelKind::kAuto: return "auto";
    case unrlib::ChannelKind::kNative: return "native";
    case unrlib::ChannelKind::kLevel0: return "level0";
    case unrlib::ChannelKind::kLevel4: return "level4";
    case unrlib::ChannelKind::kMpiFallback: return "fallback";
  }
  return "?";
}

bool channel_from_token(const std::string& s, unrlib::ChannelKind& out) {
  if (s == "auto") out = unrlib::ChannelKind::kAuto;
  else if (s == "native") out = unrlib::ChannelKind::kNative;
  else if (s == "level0") out = unrlib::ChannelKind::kLevel0;
  else if (s == "level4") out = unrlib::ChannelKind::kLevel4;
  else if (s == "fallback") out = unrlib::ChannelKind::kMpiFallback;
  else return false;
  return true;
}

DiffResult run_differential(const WorkloadSpec& spec,
                            std::span<const unrlib::ChannelKind> channels,
                            const RunOptions& base) {
  DiffResult out;
  for (const unrlib::ChannelKind ch : channels) {
    RunOptions o = base;
    o.channel = ch;
    RunResult r = run_workload(spec, o);
    for (const std::string& v : r.violations) {
      out.violations.push_back(std::string(channel_token(ch)) + ": " + v);
    }
    out.runs.emplace_back(ch, std::move(r));
  }
  // Application-visible results must not depend on the notification
  // transport: compare every digest against the first channel's.
  for (std::size_t i = 1; i < out.runs.size(); ++i) {
    if (out.runs[i].second.digest != out.runs[0].second.digest) {
      std::ostringstream os;
      os << "digest mismatch: " << channel_token(out.runs[0].first) << "=0x"
         << std::hex << out.runs[0].second.digest << " vs "
         << channel_token(out.runs[i].first) << "=0x"
         << out.runs[i].second.digest;
      out.violations.push_back(os.str());
    }
  }
  out.ok = out.violations.empty();
  return out;
}

}  // namespace unr::check
