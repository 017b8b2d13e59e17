// Shared pieces of the repository benchmark: clocks, order statistics, the
// in-memory span recorder, the metric report and the phase entry points.
//
// The benchmark drives the engine only through its public API. Spans are
// recorded by the benchmark around the calls it makes into each layer;
// nothing inside the engine is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "serve/scoring_service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        Clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; +inf entries
/// (failed requests) sort last. 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Process CPU seconds (all threads) and the calling thread's CPU seconds.
double process_cpu_seconds();
double thread_cpu_seconds();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// input it generates.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// A child stream for an independent purpose.
  Rng fork(std::uint64_t salt) { return Rng(next() ^ (salt * 0x9E3779B97F4A7C15ull)); }

 private:
  std::uint64_t state_;
};

// --- spans -------------------------------------------------------------------

/// One span: a call into a layer. `parent` is the index of the causing span
/// in the same SpanLog (-1 for a root); spans of one request share
/// `request`.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans recorded by one thread. Not thread-safe: every recording thread
/// owns its own log (Tracer::new_log).
class SpanLog {
 public:
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t request);
  void close(std::int64_t id);
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction. A null log
/// (tracing off) records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t parent = -1, std::uint64_t request = 0)
      : log_(log), id_(log ? log->open(name, parent, request) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::int64_t id_;
};

/// Per-span-name aggregates over every log.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double median_us = 0.0;
  double median_self_us = 0.0;
  double total_self_s = 0.0;
};

/// Owns the span logs of a traced run. Disabled tracers hand out null logs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }
  /// A fresh log for one thread (nullptr when disabled). Stable address.
  SpanLog* new_log();
  std::vector<SpanSummary> summarize() const;
  /// Share of the time under root spans named `root` that their child
  /// spans cover (1 - root self time / root duration).
  double coverage(const std::string& root) const;
  /// One JSON object per line: name, start/end ns, parent, request, log.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// --- report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured. `metrics` is what the last output line
/// carries; `notes` are extra report-only fields (stamp, coverage residuals).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> ungated;
  std::vector<std::pair<std::string, std::string>> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A figure that is measured and reported but is not one of the metrics
  /// BENCHMARK.json gates on (README.md says which and why).
  void add_ungated(const std::string& name, double value, const std::string& unit) {
    ungated.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) { notes.emplace_back(key, value); }
  /// A note listing every value, space-separated.
  void note(const std::string& key, const std::vector<double>& values) {
    std::string text;
    for (const double v : values) text += (text.empty() ? "" : " ") + std::to_string(v);
    note(key, text);
  }
  /// Counts one correctness check; records `what` when it failed.
  void check(bool ok, const std::string& what);
  bool correct() const noexcept { return check_failures.empty(); }
};

/// Verdict equality, bit for bit on every double (the property the mesh
/// promises: a routed verdict is the in-process verdict).
bool verdicts_equal(const goodones::serve::ScoreResponse& a,
                    const goodones::serve::ScoreResponse& b);

// --- open-loop generator -----------------------------------------------------

/// A seeded arrival schedule: request i is due at start + due_ns[i].
struct Schedule {
  std::vector<std::uint64_t> due_ns;
  std::vector<std::uint32_t> entity;
  std::vector<std::uint32_t> window;
};

/// Poisson arrivals at `rate` per second for `seconds`, each naming a
/// uniformly drawn entity and window index.
Schedule make_schedule(Rng& rng, double rate, double seconds, std::size_t entities,
                       std::size_t windows_per_entity);

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< due -> reply decoded; +inf when failed
  std::vector<double> lag_us;      ///< due -> send started (generator lag)
  std::size_t failed = 0;
  double offered_rate = 0.0;   ///< requests / schedule span
  double achieved_rate = 0.0;  ///< completed / (last completion - start)
  bool backlog = false;        ///< sends fell ever further behind schedule
};

/// Runs `schedule` open loop over `connections` sender threads. A sender
/// takes the next request, sleeps until `spin_ns` before it is due, spins
/// to the due time, then calls send(connection, index); a false return or
/// an exception is a failure. Latency counts from the due time, so a stall
/// is charged to every request due while it lasts. Spinning keeps the
/// sender's own wake-up delay out of the latency at the price of CPU time.
OpenLoopResult run_open_loop(const Schedule& schedule, std::size_t connections,
                             const std::function<bool(std::size_t, std::size_t)>& send,
                             std::uint64_t spin_ns = 0);

// --- phases ------------------------------------------------------------------

/// A fleet the benchmark profiles and serves.
struct Fleet {
  std::string name;
  std::shared_ptr<const goodones::core::DomainAdapter> domain;
  goodones::core::FrameworkConfig config;
  std::vector<goodones::detect::DetectorKind> step5;
  /// The paper's Table II / Fig. 7 checks apply (BGMS fast preset).
  bool paper_checks = false;
};

Fleet synthtel_fleet();
Fleet bgms_fleet();

/// The offline phase: every repetition runs steps 1-5 on a fresh framework
/// and the pipeline's checks. Untraced, `profile_cpu_s` is the median CPU
/// time of the repetitions and `profile_s` their lower-quartile wall time.
/// Traced, every repetition is a pair of an untraced and a traced pipeline,
/// and the first traced one gives the layer breakdown.
class Profiler {
 public:
  Profiler(const Fleet& fleet, Tracer& tracer, Report& report)
      : fleet_(fleet), tracer_(tracer), report_(report) {}
  /// Runs `reps` repetitions.
  void run(std::size_t reps);
  /// Reports `profile_cpu_s` and `profile_s`, or the profile coverage and
  /// tracing overhead.
  void finish();

 private:
  void run_once(bool traced);

  const Fleet& fleet_;
  Tracer& tracer_;
  Report& report_;
  std::vector<double> untraced_s_;
  std::vector<double> untraced_cpu_s_;  ///< process CPU seconds
  std::vector<double> traced_s_;
  std::vector<std::string> first_less_vulnerable_;
};

struct ServingBudget {
  double interactive_s = 0.0;  ///< light + loaded + rate ladder
  double stream_s = 0.0;
};

/// Sets the serving stack up for `fleet` and runs the interactive and
/// stream phases against it. Every set-up trains the fleet's bundle from
/// scratch. Untraced, every measuring round starts with a set-up of a
/// throwaway stack and `between_rounds`; `setup_s` is the median over the
/// timed set-ups (a few untimed ones warm the process up first). Traffic is generated from the fleet's domain and `seed`.
void run_serving_phases(const Fleet& fleet, const std::filesystem::path& scratch,
                        std::uint64_t seed, const ServingBudget& budget,
                        const std::function<void()>& between_rounds, Tracer& tracer,
                        Report& report);

/// Cost of one counter update with 1 and with `threads` threads, ns.
void measure_counters(std::size_t threads, Report& report);

}  // namespace perfbench
