// bench_e2e — the repository's end-to-end benchmark.
//
//   bench_e2e --workload=NAME|all --seed=N [--seconds=S] [--trace=FILE]
//             [--out=FILE] [--spec=BENCHMARK.json] [--quick]
//
// One workload per process, so peak RSS is the workload's own; `all` runs
// each workload as a child process of this binary. A run is one discarded
// warm-up rep, then timed reps until --seconds have passed (at least three),
// each followed by kSetupsPerRep set-ups alone.
// Untraced, it prints the end-to-end metrics; with --trace=FILE it
// alternates traced and untraced reps, runs the layer probes, prints the
// per-layer metrics and writes the spans as Chrome trace JSON to FILE.
// Every rep is verified, and every rep must reproduce the simulated outputs
// (events, virtual time, digest) of the warm-up; at seed 1 they must also
// match the pins below. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// Exit status: 0 when every verification passed, 1 when one failed, 2 on a
// usage error, 3 when --spec lists a metric this harness does not produce.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "svc/json.hpp"

namespace perfbench {
namespace {

/// Simulated outputs at --seed=1 (full scale). A change that only makes the
/// simulator faster must leave all of them identical.
struct Pin {
  const char* workload;
  Fingerprint fp;
};
constexpr Pin kPins[] = {
    {"ring_allreduce_256n", {1192710, 3115745, 0xef9543ca5191ea4bull}},
    {"powerllel_16n", {82704, 1325859, 0x07cbe3d98f89747eull}},
    {"p2p_faults_2n", {2556084, 82045890, 0xe9bfd0107fcb67c5ull}},
    {"service_mixed", {30676, 51520712, 0x65a5afa6bb4fb2dbull}},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  std::string trace;
  std::string out;
  std::string spec;
  bool quick = false;
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "bench_e2e: " << why << "\n"
            << "usage: bench_e2e --workload=NAME|all --seed=N [--seconds=S] [--trace=FILE]\n"
            << "                 [--out=FILE] [--spec=BENCHMARK.json] [--quick]\nworkloads:";
  for (const WorkloadInfo& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      o.workload = v;
    } else if (const char* v = val("--seed=")) {
      const auto [p, ec] = std::from_chars(v, v + std::strlen(v), o.seed);
      if (ec != std::errc() || *p != '\0') usage_error("bad --seed");
    } else if (const char* v = val("--seconds=")) {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds >= 0)) usage_error("bad --seconds");
    } else if (const char* v = val("--trace=")) {
      o.trace = v;
    } else if (const char* v = val("--out=")) {
      o.out = v;
    } else if (const char* v = val("--spec=")) {
      o.spec = v;
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      usage_error("unknown flag " + a);
    }
  }
  if (o.workload.empty()) usage_error("--workload is required");
  return o;
}

/// Shortest decimal that reads back as `v` (all its digits, nothing more).
std::string num(double v) {
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, p) : "0";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string quote(const std::string& s) {
  std::string q = "\"";
  q += unr::svc::json_escape(s);
  q += '"';
  return q;
}

// --- Host record --------------------------------------------------------------

std::string& shards_env() {
  static std::string v;
  return v;
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      if (c != std::string::npos) cpu = line.substr(c + 2);
      break;
    }
  }
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << quote(cpu) << ", \"build_type\": " << quote(UNR_BENCH_BUILD_TYPE)
     << ", \"compiler\": " << quote(UNR_BENCH_COMPILER)
     << ", \"unr_shards_env\": " << quote(shards_env()) << "}";
  return os.str();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// --- One workload -------------------------------------------------------------

/// Operations attempted and failed (a simulation rep or a service
/// submission each), with the first few failure messages.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void note(const std::string& why) {
    if (errors.size() < 20) errors.push_back(why);
  }
  /// A failure of the run itself (a probe, an output file).
  void fail(const std::string& why) {
    ++failed;
    note(why);
  }
  /// Count one rep; `extra` is a failure the harness found on top of the
  /// workload's own checks.
  void count(const RepResult& r, const std::string& label, const std::string& extra = "") {
    attempted += r.attempted;
    std::uint64_t bad = r.errors.size() + (extra.empty() ? 0 : 1);
    failed += std::min(bad, r.attempted);
    for (const std::string& e : r.errors) note(label + ": " + e);
    if (!extra.empty()) note(label + ": " + extra);
  }
};

/// Registry counters reported per layer: (metric name, registry name, unit).
struct CountMetric {
  const char* name;
  const char* source;
  const char* unit;
};
constexpr CountMetric kCountMetrics[] = {
    {"fabric.puts", "fabric.puts", "count"},
    {"fabric.put_bytes", "fabric.put_bytes", "B"},
    {"fabric.ams", "fabric.ams", "count"},
    {"fabric.cq_retries", "fabric.cq_retries", "count"},
    {"fabric.retransmits", "fabric.resilience.retransmits", "count"},
    {"fabric.injected_drops", "fabric.resilience.injected_drops", "count"},
    {"fabric.backoff_ns", "fabric.resilience.backoff_ns", "virt_ns"},
    {"unr.puts", "unr.puts", "count"},
    {"unr.fragments", "unr.fragments", "count"},
    {"unr.companions", "unr.companions", "count"},
    {"unr.engine.drains", "unr.engine.drains", "count"},
    {"unr.engine.cqes", "unr.engine.cqes", "count"},
    {"comm.eager_sends", "comm.eager_sends", "count"},
    {"comm.rts_sends", "comm.rts_sends", "count"},
    {"comm.unexpected_msgs", "comm.unexpected_msgs", "count"},
    {"powerllel.steps", "powerllel.steps", "count"},
    {"svc.runs", "svc.runs", "count"},
    {"svc.cache_hits", "svc.cache_hits", "count"},
    {"svc.cache_misses", "svc.cache_misses", "count"},
};

constexpr int kSetupsPerRep = 5;

/// Layers of the span names, for the self-time shares.
constexpr const char* kLayers[] = {"bench", "scenarios", "check", "sim",
                                   "runtime", "unr", "powerllel", "svc"};

int run_one(const WorkloadInfo& info, const Options& o) {
  const bool traced_mode = !o.trace.empty();
  std::unique_ptr<Workload> wl = info.make(o.seed, o.quick);
  Outcome out;

  const Ns w0 = now_ns();
  RepResult warm = wl->rep(true);
  const double warmup_s = seconds_since(w0);
  out.count(warm, "warm-up");
  const Fingerprint fp = warm.fp;

  std::vector<double> run_u, run_t, setup, faults;
  const Ns start = now_ns();
  for (int rep = 0;; ++rep) {
    const bool traced = traced_mode && rep % 2 == 1;
    if (traced) spans().begin_rep(rep);
    const RepResult r =
        traced ? span("bench.rep", false, [&] { return wl->rep(false); }) : wl->rep(false);
    if (traced) spans().end_rep();
    out.count(r, "rep " + std::to_string(rep),
              r.fp == fp ? "" : "simulated outputs differ from the warm-up");
    if (traced) {
      run_t.push_back(r.run.wall_s());
    } else {
      run_u.push_back(r.run.wall_s());
      faults.push_back(r.run.minor_faults);
    }
    // Set-up alone, a few times after every rep, so its median samples the
    // same stretch of time as the reps' and does not rest on one cold call.
    for (int i = 0; i < kSetupsPerRep; ++i) setup.push_back(wl->setup());
    if (rep + 1 >= (traced_mode ? 4 : 3) && seconds_since(start) >= o.seconds) break;
  }

  if (!o.quick && o.seed == 1) {
    const Pin* pin = nullptr;
    for (const Pin& p : kPins)
      if (info.name == std::string(p.workload)) pin = &p;
    // Every rep reproduced the warm-up, so a wrong pin fails them all.
    if (pin == nullptr || !(pin->fp == fp)) {
      out.failed = out.attempted;
      out.note("seed-1 outputs do not match the pin (events " + std::to_string(fp.events) +
               ", virtual_ns " + std::to_string(fp.virtual_ns) + ", digest " + hex(fp.digest) + ")");
    }
  }

  // Every rep repeats the same deterministic work, so the spread between
  // reps is the host's: neighbours slow the CPU for seconds at a time and
  // never speed it up. The fastest rep is the program's own cost.
  const double run_s = *std::min_element(run_u.begin(), run_u.end());
  std::vector<Metric> metrics;
  if (!traced_mode) {
    metrics = {{"run_s", run_s, "s"},
               {"setup_s", median(setup), "s"},
               {"peak_rss_mib", peak_rss_mib(), "MiB"}};
  } else {
    Counts& c = warm.counts;
    const bool service = c.count("svc.runs") > 0;  // before c[...] inserts zeros
    const double events = static_cast<double>(fp.events);
    metrics.push_back({"sim.events", events, "count"});
    metrics.push_back({"sim.virtual_ns", static_cast<double>(fp.virtual_ns), "virt_ns"});
    metrics.push_back({"sim.events_per_s", run_s > 0 ? events / run_s : 0, "1/s"});
    metrics.push_back({"sim.host_ns_per_event", events > 0 ? 1e9 * run_s / events : 0, "ns"});
    for (const CountMetric& m : kCountMetrics) metrics.push_back({m.name, c[m.source], m.unit});
    const double drains = c["unr.engine.drains"];
    metrics.push_back({"unr.engine.cqes_per_drain", drains > 0 ? c["unr.engine.cqes"] / drains : 0, "ratio"});
    metrics.push_back({"svc.submits_per_s", service && run_s > 0 ? warm.attempted / run_s : 0, "1/s"});

    const Grid default_grid{128, 128, 64};
    const std::vector<Metric> probes = run_probes(wl->solver_grid().value_or(default_grid), o.quick);
    for (const Metric& p : probes) {
      if (!(p.value > 0)) out.fail("probe " + p.name + " failed");
      metrics.push_back(p);
      if (p.name == "powerllel.step_1rank_ms")
        metrics.push_back({"powerllel.app_share_est",
                           run_s > 0 ? c["powerllel.steps"] * 1e-3 * p.value / run_s : 0, "frac"});
    }

    double self_total = 0;
    for (const auto& [layer, s] : spans().self_s()) self_total += s;
    for (const char* layer : kLayers) {
      const auto it = spans().self_s().find(layer);
      const double s = it == spans().self_s().end() ? 0 : it->second;
      metrics.push_back({std::string("trace.self_frac.") + layer, self_total > 0 ? s / self_total : 0, "frac"});
    }
    metrics.push_back({"obs.bench_trace_overhead",
                       run_s > 0 ? *std::min_element(run_t.begin(), run_t.end()) / run_s - 1 : 0, "frac"});
    metrics.push_back({"bench.warmup_s", warmup_s, "s"});
    metrics.push_back({"bench.run_max_s", *std::max_element(run_u.begin(), run_u.end()), "s"});
    metrics.push_back({"bench.reps", static_cast<double>(run_u.size() + run_t.size()), "count"});
    metrics.push_back({"proc.minor_faults", median(faults), "count"});
    if (!spans().write_chrome(o.trace, info.name)) out.fail("cannot write " + o.trace);
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }

  // With --spec, print exactly the metrics BENCHMARK.json lists for this mode.
  if (!o.spec.empty()) {
    std::ifstream in(o.spec);
    std::stringstream text;
    text << in.rdbuf();
    unr::svc::Json doc;
    std::string err;
    if (!in || !unr::svc::Json::parse(text.str(), doc, &err)) {
      std::cerr << "bench_e2e: cannot read " << o.spec << " " << err << "\n";
      return 3;
    }
    const unr::svc::Json* list = doc.find(traced_mode ? "per_layer" : "end_to_end");
    if (list == nullptr) {
      std::cerr << "bench_e2e: " << o.spec << " has no metric list\n";
      return 3;
    }
    std::vector<Metric> listed;
    for (const unr::svc::Json& want : list->items) {
      const auto it = std::find_if(metrics.begin(), metrics.end(),
                                   [&](const Metric& m) { return m.name == want.str("name"); });
      if (it == metrics.end() || it->unit != want.str("unit")) {
        std::cerr << "bench_e2e: metric " << want.str("name") << " [" << want.str("unit")
                  << "] is not produced\n";
        return 3;
      }
      listed.push_back(*it);
    }
    metrics = std::move(listed);
  }

  std::cout << "workload " << info.name << "  seed " << o.seed << (o.quick ? "  (quick)" : "")
            << "  reps " << run_u.size() + run_t.size() << " + 1 warm-up\n";
  std::cout << "host " << host_json() << "\n";
  std::cout << "outputs events=" << fp.events << " virtual_ns=" << fp.virtual_ns
            << " digest=" << hex(fp.digest) << "\n";
  for (const Metric& m : metrics) std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  for (const std::string& e : out.errors) std::cout << "FAILED: " << e << "\n";

  std::ostringstream ms;
  ms << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    ms << (i ? ", " : "") << quote(metrics[i].name) << ": {\"value\": " << num(metrics[i].value)
       << ", \"unit\": " << quote(metrics[i].unit) << "}";
  ms << "}";

  if (!o.out.empty()) {
    std::ofstream f(o.out);
    f << "{\"workload\": " << quote(info.name) << ", \"seed\": " << o.seed
      << ", \"quick\": " << (o.quick ? "true" : "false") << ", \"host\": " << host_json()
      << ", \"outputs\": {\"events\": " << fp.events << ", \"virtual_ns\": " << fp.virtual_ns
      << ", \"digest\": " << quote(hex(fp.digest)) << "}, \"errors\": [";
    for (std::size_t i = 0; i < out.errors.size(); ++i) f << (i ? ", " : "") << quote(out.errors[i]);
    f << "], \"untraced_run_s\": [";
    for (std::size_t i = 0; i < run_u.size(); ++i) f << (i ? ", " : "") << num(run_u[i]);
    f << "], \"metrics\": " << ms.str() << "}\n";
    if (!f) out.fail("cannot write " + o.out);
  }

  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << ms.str() << "}" << std::endl;
  return out.failed == 0 ? 0 : 1;
}

// --- Every workload, one child process each -----------------------------------

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) q += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return q + "'";
}

int run_all(const Options& o) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) {
    std::cerr << "bench_e2e: cannot locate its own executable\n";
    return 2;
  }
  exe[n] = '\0';
  std::cout << "host " << host_json() << "\n";
  bool ok = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string merged, results;
  for (const WorkloadInfo& w : workloads()) {
    std::string cmd = shell_quote(exe) + " --workload=" + w.name + " --seed=" + std::to_string(o.seed) +
                      " --seconds=" + num(o.seconds);
    if (o.quick) cmd += " --quick";
    if (!o.spec.empty()) cmd += " " + shell_quote("--spec=" + o.spec);
    if (!o.trace.empty()) cmd += " " + shell_quote("--trace=" + o.trace + "." + w.name + ".json");
    std::FILE* child = popen(cmd.c_str(), "r");
    if (child == nullptr) {
      std::cerr << "bench_e2e: cannot start " << w.name << "\n";
      return 2;
    }
    std::string line, last;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, child) != nullptr) {
      line += buf;
      if (line.back() != '\n') continue;
      std::cout << line;
      last = line.substr(0, line.size() - 1);
      line.clear();
    }
    const int status = pclose(child);
    unr::svc::Json res;
    if (status != 0) ok = false;
    if (!unr::svc::Json::parse(last, res, nullptr) || res.find("metrics") == nullptr) {
      std::cout << "FAILED: workload " << w.name << " printed no result (exit status " << status
                << ")\n";
      ++failed;
      continue;
    }
    attempted += static_cast<std::uint64_t>(res.num("attempted"));
    failed += static_cast<std::uint64_t>(res.num("failed"));
    results += std::string(results.empty() ? "" : ", ") + quote(w.name) + ": " + last;
    for (const auto& [name, v] : res.find("metrics")->members) {
      const unr::svc::Json* value = v.find("value");
      merged += std::string(merged.empty() ? "" : ", ") + quote(std::string(w.name) + "." + name) +
                ": {\"value\": " + num(value ? value->number : 0) + ", \"unit\": " +
                quote(v.str("unit")) + "}";
    }
  }
  if (!o.out.empty()) {
    std::ofstream f(o.out);
    f << "{\"seed\": " << o.seed << ", \"host\": " << host_json() << ", \"workloads\": {" << results
      << "}}\n";
  }
  ok = ok && failed == 0;
  std::cout << "{\"correct\": " << (ok ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {" << merged << "}}" << std::endl;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  // Runs use the code's default shard count, whatever the caller's shell
  // asks for; the host record says whether it asked.
  if (const char* e = std::getenv("UNR_SHARDS")) shards_env() = e;
  unsetenv("UNR_SHARDS");
  if (o.workload == "all") return run_all(o);
  for (const WorkloadInfo& w : workloads())
    if (o.workload == w.name) return run_one(w, o);
  usage_error("unknown workload " + o.workload);
}
