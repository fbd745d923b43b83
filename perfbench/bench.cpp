#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <malloc.h>
#include <numeric>
#include <sched.h>
#include <string_view>

namespace pb {

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

bool Samples::supports(double q, std::size_t min_beyond) const {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values_.size())));
  return values_.size() >= rank + min_beyond;
}

Samples Samples::within(const BusyQuarter& busy) const {
  Samples out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (busy.contains(at_[i])) out.add(values_[i], at_[i]);
  }
  return out;
}

BusyQuarter::BusyQuarter(const Samples& ops) {
  if (ops.at_.empty()) return;
  origin_ = *std::min_element(ops.at_.begin(), ops.at_.end());
  std::vector<Samples> windows;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t w = window_of(ops.at_[i]);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].add(ops.values_[i]);
  }
  // Windows the run spent elsewhere (checks, scheduler) hold no operation.
  std::vector<std::pair<double, std::size_t>> medians;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].size() > 0) {
      medians.emplace_back(windows[w].percentile(0.5), w);
    }
  }
  std::sort(medians.begin(), medians.end(), std::greater<>());
  busy_.assign(windows.size(), false);
  const std::size_t skip = medians.size() / 5;
  const std::size_t keep = (medians.size() + 3) / 4;
  for (std::size_t i = skip; i < skip + keep && i < medians.size(); ++i) {
    busy_[medians[i].second] = true;
  }
}

std::size_t BusyQuarter::window_of(Clock::time_point at) const {
  return static_cast<std::size_t>(seconds_between(origin_, at) /
                                  kWindowSeconds);
}

bool BusyQuarter::contains(Clock::time_point at) const {
  if (at < origin_) return false;
  const std::size_t w = window_of(at);
  return w < busy_.size() && busy_[w];
}

double BusyQuarter::rate_per_s(const Samples& work, const Samples& us) const {
  std::vector<double> work_sum(busy_.size(), 0.0);
  std::vector<double> us_sum(busy_.size(), 0.0);
  const auto add = [this](const Samples& s, std::vector<double>& sums) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (contains(s.at_[i])) sums[window_of(s.at_[i])] += s.values_[i];
    }
  };
  add(work, work_sum);
  add(us, us_sum);
  Samples rates;
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    if (us_sum[w] > 0) rates.add(work_sum[w] * 1e6 / us_sum[w]);
  }
  return rates.percentile(0.5);
}

namespace {

cpu_set_t affinity_mask(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) cpus_.clear();
}

CpuRotation::~CpuRotation() {
  if (!started_ || cpus_.empty()) return;
  const cpu_set_t set = affinity_mask(cpus_);
  static_cast<void>(sched_setaffinity(0, sizeof set, &set));
}

void CpuRotation::step(Clock::time_point now) {
  if (cpus_.empty()) return;
  std::size_t window = 0;
  if (!started_) {
    origin_ = now;
    started_ = true;
  } else {
    window = static_cast<std::size_t>(seconds_between(origin_, now) /
                                      kWindowSeconds);
    if (window == window_) return;
  }
  window_ = window;
  const cpu_set_t set = affinity_mask({cpus_[window % cpus_.size()]});
  if (sched_setaffinity(0, sizeof set, &set) != 0) cpus_.clear();
}

void Result::fail_check(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Result::set_percentiles(const std::string& prefix, const Samples& all,
                             const BusyQuarter& busy, bool with_p90) {
  std::fprintf(stderr,
               "perfbench: %s whole run n=%zu p50=%.1f p90=%.1f us\n",
               prefix.c_str(), all.size(), all.percentile(0.5),
               all.percentile(0.9));
  const Samples s = all.within(busy);
  const double top = with_p90 ? 0.9 : 0.5;
  if (!s.supports(top)) {
    // Too short a run for this percentile; the run_seconds of
    // BENCHMARK.json always leaves enough (spread.py reports this line).
    std::cerr << "perfbench: warning: " << prefix << ": " << s.size()
              << " samples leave fewer than ten beyond the reported "
                 "percentile\n";
  }
  std::fprintf(stderr,
               "perfbench: %s busy quarter n=%zu p10=%.1f p25=%.1f p50=%.1f "
               "p75=%.1f p90=%.1f us\n",
               prefix.c_str(), s.size(), s.percentile(0.1), s.percentile(0.25),
               s.percentile(0.5), s.percentile(0.75), s.percentile(0.9));
  set(prefix + "_p50_us", s.percentile(0.5));
  if (with_p90) set(prefix + "_p90_us", s.percentile(0.9));
}

const std::vector<MetricDecl> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},       {"op_p50_us", "us"},
    {"op_p90_us", "us"},        {"fresh_p50_us", "us"},
    {"fresh_p90_us", "us"},     {"replace_p50_us", "us"},
    {"util_peak", "fraction"},
};

const std::vector<MetricDecl> kPerLayer = {
    {"svc.apply_us", "us"},
    {"svc.coalesce_us", "us"},
    {"svc.tile_mask_us", "us"},
    {"svc.snapshot_next_us", "us"},
    {"svc.first_answer_us", "us"},
    {"svc.pages_copied", "count/epoch"},
    {"svc.pages_shared", "count/epoch"},
    {"svc.coalesced", "count"},
    {"svc.status_ns", "ns"},
    {"svc.region_ns", "ns"},
    {"routing.route_hit_ns", "ns"},
    {"routing.route_miss_us", "us"},
    {"routing.cache_hit_frac", "fraction"},
    {"routing.cache_entries", "count"},
    {"routing.routes_carried", "count/epoch"},
    {"routing.routes_invalidated", "count/epoch"},
    {"core.relabel_us", "us"},
    {"core.dirty_cells", "count/event"},
    {"core.build_s", "s"},
    {"core.phase1_ms", "ms"},
    {"core.phase2_ms", "ms"},
    {"core.extract_ms", "ms"},
    {"simkernel.rounds", "count/machine"},
    {"simkernel.messages", "count/machine"},
    {"alloc.decide_us", "us"},
    {"alloc.view_us", "us"},
    {"alloc.observe_us", "us"},
    {"alloc.cells_patched", "count"},
    {"alloc.tick_us", "us"},
    {"alloc.evicted", "count"},
    {"alloc.replaced", "count"},
    {"alloc.requeued", "count"},
    {"alloc.shed", "count"},
    {"alloc.replace_frac", "fraction"},
    {"trace.apply_coverage", "fraction"},
    {"trace.overhead", "fraction"},
};

void print_result(const Result& r, bool traced) {
  const auto declared = [](const std::vector<MetricDecl>& decls,
                           const std::string& name) {
    return std::any_of(decls.begin(), decls.end(),
                       [&name](const MetricDecl& d) { return name == d.name; });
  };
  std::string digests = "digests:";
  for (const auto& [name, value] : r.digests) {
    digests += " " + name + "=" + std::to_string(value);
  }
  std::printf("%s\n", digests.c_str());

  bool correct = r.correct;
  for (const auto& entry : r.metrics) {
    if (!declared(kEndToEnd, entry.first) && !declared(kPerLayer, entry.first)) {
      std::cerr << "perfbench: undeclared metric " << entry.first << "\n";
      correct = false;
    }
  }
  std::string metrics;
  for (const MetricDecl& d : traced ? kPerLayer : kEndToEnd) {
    const auto it = r.metrics.find(d.name);
    double value = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    // End-to-end metrics are never 0; a missing one is a benchmark bug.
    if (!traced && !(value > 0)) {
      std::cerr << "perfbench: end-to-end metric " << d.name
                << " was not measured\n";
      correct = false;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
               ", \"unit\": \"" + d.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

void Tracer::summarize() {
  totals_.clear();
  for (const obs::Event& e : sink_.events()) {
    if (e.kind != obs::EventKind::SpanEnd) continue;
    SpanTotal& t = totals_[e.name];
    t.ns += static_cast<double>(e.value);
    ++t.count;
  }
}

double Tracer::total_ns(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.ns;
}

double Tracer::mean_ns(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() || it->second.count == 0
             ? 0.0
             : it->second.ns / static_cast<double>(it->second.count);
}

void Tracer::write(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os(p);
  sink_.write_jsonl(os);
}

}  // namespace pb

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload churn_1024|label_cold "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed heap memory mapped and serve large blocks from the heap, so
  // the per-epoch planes the engines allocate reuse resident pages instead
  // of faulting in fresh ones. In a virtual machine a page fault costs what
  // the host's load makes it: on a 4-vCPU KVM guest (Xeon, Sapphire Rapids)
  // a label_cold run with glibc's defaults took ~125K minor faults and its
  // op_p50_us swung 25% between runs of one seed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stoi(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value;
      } else {
        usage("unknown argument");
      }
    } catch (const std::exception&) {
      usage("bad numeric value");
    }
  }
  if (opt.seconds < 1) usage("--seconds must be at least 1");
  pb::Result r;
  if (opt.workload == "churn_1024") {
    pb::run_churn_1024(opt, r);
  } else if (opt.workload == "label_cold") {
    pb::run_label_cold(opt, r);
  } else {
    usage("unknown workload");
  }
  pb::print_result(r, opt.trace);
  return 0;
}
