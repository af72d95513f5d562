#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/registry.hpp"
#include "sim/kernel.hpp"
#include "svc/json.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool add_metrics_json(Counts& c, const std::string& json, const char* member) {
  unr::svc::Json doc;
  if (!unr::svc::Json::parse(json, doc, nullptr)) return false;
  const unr::svc::Json* dump = member ? doc.find(member) : &doc;
  if (dump == nullptr) return false;
  const unr::svc::Json* list = dump->find("metrics");
  if (list == nullptr || list->type != unr::svc::Json::Type::kArray) return false;
  for (const unr::svc::Json& m : list->items) {
    const std::string name = m.str("name");
    if (m.str("type") == "histogram") {
      c[name + ".count"] += static_cast<double>(m.num("count"));
    } else if (const unr::svc::Json* v = m.find("value")) {
      c[name] += v->number;
    }
  }
  return true;
}

void add_registry(Counts& c, const unr::obs::Registry& reg) {
  std::ostringstream os;
  reg.write_json(os);
  add_metrics_json(c, os.str());
}

// --- Spans ------------------------------------------------------------------

namespace {

/// Per-thread span stacks, one per simulated actor (-1 = not in a fiber).
struct Lane {
  int id = -1;
  std::unordered_map<int, std::vector<int>> stacks;
};

Lane& lane() {
  static std::atomic<int> next{0};
  thread_local Lane l;
  if (l.id < 0) l.id = next.fetch_add(1);
  return l;
}

}  // namespace

Spans& spans() {
  static Spans s;
  return s;
}

void Spans::begin_rep(int rep) {
  std::lock_guard<std::mutex> lk(mu_);
  rep_ = rep;
  cur_.clear();
  on_ = true;
}

void Spans::end_rep() {
  std::lock_guard<std::mutex> lk(mu_);
  on_ = false;
  base_id_ += static_cast<std::int64_t>(cur_.size());
  cur_.clear();
}

int Spans::open(const char* name, bool wait) {
  Lane& l = lane();
  const int actor = unr::sim::Kernel::current_actor_id();
  std::vector<int>& stack = l.stacks[actor];
  int parent = -1;
  bool cross = false;
  if (!stack.empty()) {
    parent = stack.back();
  } else if (actor >= 0) {
    // A fiber's outermost call: its parent is the kernel run on this
    // thread's own stack.
    const std::vector<int>& main = l.stacks[-1];
    if (!main.empty()) {
      parent = main.back();
      cross = true;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  const int id = static_cast<int>(cur_.size());
  cur_.push_back({name, parent, cross, wait, l.id, actor, now_ns(), 0, 0});
  stack.push_back(id);
  return id;
}

void Spans::close(int id) {
  const Ns t1 = now_ns();
  Lane& l = lane();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = cur_[static_cast<std::size_t>(id)];
  l.stacks[s.actor].pop_back();
  s.t1 = t1;
  const Ns dur = t1 - s.t0;
  // A child on the same stack always ran inside its parent. A fiber's span
  // under the kernel run did too unless it blocks, in which case the other
  // fibers' spans it overlaps are already being subtracted.
  if (s.parent >= 0 && !(s.cross && s.wait))
    cur_[static_cast<std::size_t>(s.parent)].child_ns += dur;
  const Ns self = dur - s.child_ns;
  if (!s.wait) {
    const std::string n = s.name;
    self_s_[n.substr(0, n.find('.'))] += 1e-9 * static_cast<double>(self);
  }
  if (file_.size() < kMaxFileSpans) {
    file_.push_back({s.name, base_id_ + id, s.parent < 0 ? -1 : base_id_ + s.parent,
                     s.lane, s.actor, rep_, s.wait, s.t0 - origin_, dur, self});
  }
}

bool Spans::write_chrome(const std::string& path, const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const Closed& c : file_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << c.name << "\",\"cat\":\"" << (c.wait ? "wait" : "call")
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << c.lane * 100000 + c.actor + 1
        << ",\"ts\":" << 1e-3 * static_cast<double>(c.t0)
        << ",\"dur\":" << 1e-3 * static_cast<double>(c.dur) << ",\"args\":{\"id\":" << c.id
        << ",\"parent\":" << c.parent << ",\"workload\":\"" << workload
        << "\",\"rep\":" << c.rep << ",\"actor\":" << c.actor
        << ",\"wait\":" << (c.wait ? "true" : "false")
        << ",\"self_us\":" << 1e-3 * static_cast<double>(c.self) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
