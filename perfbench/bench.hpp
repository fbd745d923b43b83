// Shared plumbing of the repository benchmark: clocks, seeded input
// generation, latency samples, the metric catalogue and the one-line JSON
// result every run ends with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pb {

namespace obs = ocp::obs;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// splitmix64: the only source of randomness. Every input is drawn from it
/// before the engines see anything, so one seed fixes one operation sequence.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Independent child stream.
  Rng fork() { return Rng(next() ^ 0x5851f42d4c957f2dULL); }

 private:
  std::uint64_t state_;
};

class BusyQuarter;

/// Samples, each stamped with the start of the operation it belongs to;
/// percentiles by nearest rank.
class Samples {
 public:
  void add(double v, Clock::time_point at = {}) {
    values_.push_back(v);
    at_.push_back(at);
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double sum() const;
  /// True when at least `min_beyond` samples lie above the q-th percentile
  /// rank (the rule every reported percentile must satisfy).
  [[nodiscard]] bool supports(double q, std::size_t min_beyond = 10) const;
  /// The samples stamped inside the busy windows of `busy`.
  [[nodiscard]] Samples within(const BusyQuarter& busy) const;

 private:
  friend class BusyQuarter;
  std::vector<double> values_;
  std::vector<Clock::time_point> at_;
};

/// The timed phase is cut into windows of this length (see BusyQuarter).
inline constexpr double kWindowSeconds = 1.0;

/// The busy quarter of a run. The host this benchmark was tuned on (a
/// 4-vCPU KVM guest) runs each vCPU in a quiet and a busy state that
/// alternate every few seconds, independently per vCPU; busy, one labeling
/// or batch takes 1.35-1.45x as long. A whole-run median lands on whichever
/// state the run happened to see more of, so it jumps between runs. With
/// the thread visiting every CPU (CpuRotation), runs were busy in more than
/// half of their windows, so latencies are taken over a busy quarter,
/// which reads the same state on every run: the timed phase is cut into
/// windows of kWindowSeconds, ranked by the median latency of their
/// operations, and the quarter of them that follows the slowest fifth is
/// kept. The slowest fifth is left out because the host now and then runs
/// a vCPU slower still, for a few seconds, which would otherwise decide the
/// p90.
class BusyQuarter {
 public:
  explicit BusyQuarter(const Samples& ops);
  [[nodiscard]] bool contains(Clock::time_point at) const;
  /// Throughput: per busy window, the summed `work` over the summed `us`
  /// (in 1/s); the median over the busy windows, so that a window slower
  /// still does not pull it as it would pull one mean over the quarter.
  [[nodiscard]] double rate_per_s(const Samples& work, const Samples& us) const;

 private:
  [[nodiscard]] std::size_t window_of(Clock::time_point at) const;

  Clock::time_point origin_;
  std::vector<bool> busy_;
};

/// Moves the driver thread to the next CPU of its affinity mask at every
/// window of the timed phase, so a run samples every vCPU's states instead
/// of the history of the one it started on (see BusyQuarter). The thread
/// stays the only one running. The original mask is restored on
/// destruction; with a single CPU, or where the mask cannot be set, it does
/// nothing.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Call before each timed operation.
  void step(Clock::time_point now);

 private:
  std::vector<int> cpus_;
  Clock::time_point origin_{};
  std::size_t window_ = 0;
  bool started_ = false;
};

/// One run's outcome: the contract's result line plus diagnostics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Replay fingerprints (label and placement digests), printed on their
  /// own line before the result so the determinism test can compare them.
  std::map<std::string, std::uint64_t> digests;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Marks the run incorrect and says why on stderr.
  void fail_check(const std::string& why);
  /// Sets `<prefix>_p50_us`/`<prefix>_p90_us` (or only p50) over the busy
  /// quarter and warns when fewer than ten samples lie beyond a reported
  /// percentile. The whole-run percentiles go to stderr.
  void set_percentiles(const std::string& prefix, const Samples& s,
                       const BusyQuarter& busy, bool with_p90 = true);
};

struct MetricDecl {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric; a `--trace 0` run prints exactly these.
extern const std::vector<MetricDecl> kEndToEnd;
/// Every per-layer metric; a `--trace 1` run prints exactly these. Layers a
/// workload does not exercise report 0.
extern const std::vector<MetricDecl> kPerLayer;

/// Prints the digest line and then the result JSON as the last line of
/// stdout, restricted to (and completed over) the declared metric set.
void print_result(const Result& r, bool traced);

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Span and counter collection for the traced run: an `obs::TraceSink` fed
/// only by benchmark code, summarised per span name and exported as
/// ocpmesh-trace-v1 JSON lines.
class Tracer {
 public:
  Tracer() : config_{&sink_, obs::TraceLevel::Phase} {}
  [[nodiscard]] const obs::TraceConfig& config() const { return config_; }
  /// Sums the closed spans per name; call once the traced pass is over.
  void summarize();
  /// Summed duration of the spans named `name`, in ns (0 when none).
  [[nodiscard]] double total_ns(const std::string& name) const;
  /// Mean duration of the spans named `name`, in ns (0 when none).
  [[nodiscard]] double mean_ns(const std::string& name) const;
  /// Writes the JSON-lines export to `path` (directories created).
  void write(const std::string& path) const;

 private:
  struct SpanTotal {
    double ns = 0;
    std::uint64_t count = 0;
  };
  obs::TraceSink sink_;
  obs::TraceConfig config_;
  std::map<std::string, SpanTotal> totals_;
};

/// Command line of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

/// Workload entry points (each fills `r`).
void run_churn_1024(const Options& opt, Result& r);
void run_label_cold(const Options& opt, Result& r);

}  // namespace pb
