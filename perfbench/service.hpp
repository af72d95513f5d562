// Loopback client for svc::Server and the spec pool the service workloads
// and probes submit.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "svc/frame.hpp"
#include "svc/json.hpp"
#include "svc/runspec.hpp"

namespace perfbench {

/// One client session: a connected loopback socket, closed on destruction.
class Client {
 public:
  explicit Client(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Send one frame and read its reply into `last`; with `first`, read two
  /// frames (a submit's status, then its result).
  bool call(const std::string& frame, std::string& last, std::string* first = nullptr) {
    using unr::svc::FrameStatus;
    if (unr::svc::write_frame(fd_, frame) != FrameStatus::kOk) return false;
    if (first != nullptr && unr::svc::read_frame(fd_, *first) != FrameStatus::kOk)
      return false;
    return unr::svc::read_frame(fd_, last) == FrameStatus::kOk;
  }

  bool hello() {
    std::string reply;
    return call("{\"op\":\"hello\"}", reply) &&
           reply.find("\"type\":\"hello\"") != std::string::npos;
  }

 private:
  int fd_;
};

inline std::string submit_frame(const unr::svc::RunSpec& spec) {
  return "{\"op\":\"submit\",\"spec\":\"" + unr::svc::json_escape(unr::svc::to_text(spec)) +
         "\"}";
}

/// The result body (the cached payload) inside a result frame; "" if absent.
inline std::string body_of(const std::string& result_frame) {
  const std::size_t i = result_frame.find("\"body\":");
  if (i == std::string::npos || result_frame.size() < i + 8) return "";
  return result_frame.substr(i + 7, result_frame.size() - (i + 7) - 1);
}

/// Unsigned integer member `key` of a flat JSON text (0 when absent).
inline std::uint64_t u64_field(const std::string& json, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t i = json.find(k);
  return i == std::string::npos ? 0 : std::strtoull(json.c_str() + i + k.size(), nullptr, 10);
}

/// Spec `index` of `session`'s pool: five small scenario kinds whose cost
/// does not depend on the seed, and a run seed that makes every (seed,
/// session, index) a distinct cache key.
inline unr::svc::RunSpec pool_spec(std::uint64_t seed, int session, int index) {
  unr::svc::RunSpec s;
  s.seed = seed * 1000000 + static_cast<std::uint64_t>(session) * 1000 +
           static_cast<std::uint64_t>(index) + 1;
  switch (index % 5) {
    case 0:
      s.scenario = "pingpong";
      s.params["size"] = 256;
      s.params["iters"] = 50;
      break;
    case 1:
      s.scenario = "put_stream";
      s.faults.drop_rate = 0.01;
      s.params["size"] = 1024;
      s.params["iters"] = 100;
      break;
    case 2:
      s.scenario = "allreduce";
      s.nodes = 4;
      s.ranks_per_node = 2;
      s.params["count"] = 64;
      s.params["iters"] = 4;
      break;
    case 3:
      s.scenario = "sync_faa_tree";
      s.nodes = 4;
      s.ranks_per_node = 2;
      s.params["rounds"] = 2;
      break;
    default:
      s.scenario = "ai_moe_alltoall";
      s.nodes = 4;
      s.ranks_per_node = 2;
      s.params["rounds"] = 1;
      break;
  }
  return s;
}

}  // namespace perfbench
