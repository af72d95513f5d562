// Shared types of the end-to-end benchmark harness (bench_e2e).
//
// The harness measures the library from the outside: it times the calls it
// makes into each module's public functions and reads the counters those
// modules already publish in their obs::Registry. Nothing here reaches into
// src/ internals.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace unr::obs {
class Registry;
}

namespace perfbench {

using Ns = std::int64_t;

inline Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(Ns t0) { return 1e-9 * static_cast<double>(now_ns() - t0); }

/// Wall time and minor page faults, read together so a phase can be
/// measured as the difference of two readings.
struct Usage {
  Ns wall_ns = 0;
  double minor_faults = 0;

  static Usage now() {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return {now_ns(), static_cast<double>(ru.ru_minflt)};
  }
  double wall_s() const { return 1e-9 * static_cast<double>(wall_ns); }
  Usage operator-(const Usage& o) const {
    return {wall_ns - o.wall_ns, minor_faults - o.minor_faults};
  }
  Usage& operator+=(const Usage& o) {
    wall_ns += o.wall_ns;
    minor_faults += o.minor_faults;
    return *this;
  }
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// The simulated outputs of one rep. A simulator-speed change must leave
/// them identical, so every rep of one seed must reproduce them exactly.
struct Fingerprint {
  std::uint64_t events = 0;      ///< kernel events dispatched
  std::uint64_t virtual_ns = 0;  ///< simulated completion time(s), summed
  std::uint64_t digest = 0;      ///< fold of the application-visible results

  bool operator==(const Fingerprint&) const = default;
};

/// FNV-1a, the hash the library's own digests use.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
inline std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}
template <class T>
std::uint64_t fnv_value(std::uint64_t h, const T& v) {
  return fnv(h, &v, sizeof v);
}
/// The same fold a 64-bit word at a time: cheap enough for whole solver
/// fields.
inline std::uint64_t fnv_doubles(std::uint64_t h, const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, p + i, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

/// Registry metric name -> value, summed over labels and over the rep's
/// simulations. Histograms contribute "<name>.count".
using Counts = std::map<std::string, double>;

/// Add an "unr-metrics-v1" dump (Registry::write_json) into `c`; with
/// `member`, the dump is that member of the JSON object `json` (a service
/// result body). False when no such dump is found.
bool add_metrics_json(Counts& c, const std::string& json, const char* member = nullptr);
/// Dump `reg` and add it into `c`.
void add_registry(Counts& c, const unr::obs::Registry& reg);

/// One run of a workload (its set-up is timed separately).
struct RepResult {
  Usage run;  ///< the measured run
  Fingerprint fp;
  Counts counts;
  std::uint64_t attempted = 1;      ///< verified operations in this rep
  std::vector<std::string> errors;  ///< one entry per failed verification
};

/// Global grid of a PowerLLEL run (the 1-rank step probe reuses it).
struct Grid {
  std::size_t nx = 0, ny = 0, nz = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Make the calls a rep makes before its first simulated event and
  /// return their host seconds; what they built is torn down untimed.
  virtual double setup() = 0;
  /// Set up, run and verify once. `counts` must be filled when asked for;
  /// collecting them happens after the run and is not timed.
  virtual RepResult rep(bool want_counts) = 0;
  /// The PowerLLEL grid this workload solves, if any.
  virtual std::optional<Grid> solver_grid() const { return std::nullopt; }
};

struct WorkloadInfo {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool quick);
};

/// Every workload, in BENCHMARK.json order.
std::span<const WorkloadInfo> workloads();

/// A named per-layer measurement.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Layer probes: timed loops over one public call each, independent of the
/// workload except where `grid` sizes the PowerLLEL step.
std::vector<Metric> run_probes(const Grid& grid, bool quick);

// --- Spans ------------------------------------------------------------------
// Recorded only in traced reps: one span per harness call into a module,
// with its parent, lane (OS thread), simulated actor and rep. A span whose
// call can block also covers other fibers' or threads' work; it is tagged
// `wait` and kept out of self-time sums.

class Spans {
 public:
  bool on() const { return on_; }
  void begin_rep(int rep);
  void end_rep();

  int open(const char* name, bool wait);
  void close(int id);

  /// Self time (span minus its children) by layer — the span name up to
  /// its first '.' — summed over every traced rep, in seconds.
  const std::map<std::string, double>& self_s() const { return self_s_; }

  /// Chrome trace JSON of the recorded spans (the first kMaxFileSpans).
  bool write_chrome(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    int parent;  ///< index in cur_, -1 for a root
    bool cross;  ///< parent is on another stack (a fiber under the kernel run)
    bool wait;
    int lane;
    int actor;
    Ns t0, t1, child_ns;
  };
  struct Closed {
    const char* name;
    std::int64_t id, parent;
    int lane, actor, rep;
    bool wait;
    Ns t0, dur, self;
  };
  static constexpr std::size_t kMaxFileSpans = 100000;

  bool on_ = false;
  int rep_ = 0;
  std::int64_t base_id_ = 0;  ///< global id of cur_[0]
  std::mutex mu_;             ///< guards everything below (client threads)
  std::vector<Span> cur_;
  std::vector<Closed> file_;
  std::map<std::string, double> self_s_;
  Ns origin_ = now_ns();
};

Spans& spans();

/// Run `f`, recording it as span `name` when the current rep is traced.
template <class F>
decltype(auto) span(const char* name, bool wait, F&& f) {
  Spans& s = spans();
  if (!s.on()) return f();
  struct Guard {
    Spans& s;
    int id;
    ~Guard() { s.close(id); }
  } g{s, s.open(name, wait)};
  return f();
}

}  // namespace perfbench
