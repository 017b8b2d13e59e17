#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <thread>

#include <sys/resource.h>
#include <time.h>

#include "bench.hpp"
#include "core/metrics.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi]) || lo == hi) return values[std::isinf(values[hi]) ? hi : lo];
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {
double cpu_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_seconds() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::int64_t SpanLog::open(const char* name, std::int64_t parent, std::uint64_t request) {
  spans_.push_back({name, now_ns(), 0, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::close(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

SpanLog* Tracer::new_log() {
  if (!enabled_) return nullptr;
  const std::scoped_lock lock(mutex_);
  logs_.push_back(std::make_unique<SpanLog>());
  return logs_.back().get();
}

namespace {
/// Self time of every span of one log: duration minus the part of it that
/// its direct children cover (children of one span never overlap: a
/// benchmark thread makes one call at a time).
std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
    }
  }
  return self;
}
}  // namespace

std::vector<SpanSummary> Tracer::summarize() const {
  const std::scoped_lock lock(mutex_);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (const auto& log : logs_) {
    const std::vector<double> self = self_times_us(log->spans());
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& span = log->spans()[i];
      auto& [durations, selfs] = by_name[span.name];
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
      selfs.push_back(self[i]);
    }
  }
  std::vector<SpanSummary> out;
  for (const auto& [name, samples] : by_name) {
    SpanSummary summary;
    summary.name = name;
    summary.count = samples.first.size();
    summary.median_us = median(samples.first);
    summary.median_self_us = median(samples.second);
    for (const double s : samples.second) summary.total_self_s += s * 1e-6;
    out.push_back(std::move(summary));
  }
  return out;
}

double Tracer::coverage(const std::string& root) const {
  const std::scoped_lock lock(mutex_);
  double total = 0.0;
  double uncovered = 0.0;
  for (const auto& log : logs_) {
    const std::vector<double> self = self_times_us(log->spans());
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& span = log->spans()[i];
      if (span.parent >= 0 || root != span.name) continue;
      total += static_cast<double>(span.end_ns - span.start_ns) * 1e-3;
      uncovered += self[i];
    }
  }
  return total > 0.0 ? 1.0 - uncovered / total : 0.0;
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
  const std::scoped_lock lock(mutex_);
  std::ofstream out(path);
  for (std::size_t l = 0; l < logs_.size(); ++l) {
    for (const Span& span : logs_[l]->spans()) {
      out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << ",\"log\":" << l << "}\n";
    }
  }
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (check_failures.size() < 20) check_failures.push_back(what);
}

bool verdicts_equal(const goodones::serve::ScoreResponse& a,
                    const goodones::serve::ScoreResponse& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (a.cluster != b.cluster || a.generation != b.generation ||
      a.windows.size() != b.windows.size()) {
    return false;
  }
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    const auto& x = a.windows[w];
    const auto& y = b.windows[w];
    if (!same(x.forecast, y.forecast) || !same(x.residual, y.residual) ||
        x.observed_state != y.observed_state || x.predicted_state != y.predicted_state ||
        !same(x.anomaly_score, y.anomaly_score) || x.flagged != y.flagged ||
        !same(x.risk, y.risk)) {
      return false;
    }
  }
  return true;
}

Schedule make_schedule(Rng& rng, double rate, double seconds, std::size_t entities,
                       std::size_t windows_per_entity) {
  Schedule schedule;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    schedule.due_ns.push_back(static_cast<std::uint64_t>(t * 1e9));
    schedule.entity.push_back(static_cast<std::uint32_t>(rng.below(entities)));
    schedule.window.push_back(static_cast<std::uint32_t>(rng.below(windows_per_entity)));
  }
  return schedule;
}

OpenLoopResult run_open_loop(const Schedule& schedule, std::size_t connections,
                             const std::function<bool(std::size_t, std::size_t)>& send,
                             std::uint64_t spin_ns) {
  const std::size_t n = schedule.due_ns.size();
  OpenLoopResult result;
  result.latency_us.assign(n, std::numeric_limits<double>::infinity());
  result.lag_us.assign(n, 0.0);
  std::vector<std::uint64_t> done_ns(n, 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{0};
  // A short lead so every sender is parked before the first request is due.
  const std::uint64_t start = now_ns() + 2'000'000;

  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        const std::uint64_t due = start + schedule.due_ns[i];
        if (now_ns() + spin_ns < due) {
          std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due - spin_ns)));
        }
        while (now_ns() < due) {
        }
        const std::uint64_t sent = now_ns();
        result.lag_us[i] = static_cast<double>(sent - due) * 1e-3;
        bool ok = false;
        try {
          ok = send(c, i);
        } catch (const std::exception&) {
          ok = false;
        }
        const std::uint64_t done = now_ns();
        done_ns[i] = done;
        if (ok) {
          result.latency_us[i] = static_cast<double>(done - due) * 1e-3;
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& sender : senders) sender.join();

  result.failed = failed.load();
  if (n > 0) {
    const double span_s = static_cast<double>(schedule.due_ns.back()) * 1e-9;
    result.offered_rate = span_s > 0.0 ? static_cast<double>(n) / span_s : 0.0;
    const std::uint64_t last = *std::max_element(done_ns.begin(), done_ns.end());
    result.achieved_rate =
        static_cast<double>(n - result.failed) / seconds_between(start, last);
    // A growing backlog shows as send lag that keeps climbing: compare the
    // last tenth of the schedule with the first.
    const std::size_t tenth = std::max<std::size_t>(1, n / 10);
    const std::vector<double> head(result.lag_us.begin(), result.lag_us.begin() + tenth);
    const std::vector<double> tail(result.lag_us.end() - tenth, result.lag_us.end());
    result.backlog = median(tail) > std::max(1000.0, 4.0 * median(head));
  }
  return result;
}

void measure_counters(std::size_t threads, Report& report) {
  auto& counters = goodones::core::counters();
  constexpr std::size_t kAdds = 200000;
  const auto per_add_ns = [&](std::size_t t) {
    std::vector<std::thread> workers;
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<double> elapsed(t);
    for (std::size_t w = 0; w < t; ++w) {
      workers.emplace_back([&, w] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        const std::uint64_t begin = now_ns();
        for (std::size_t i = 0; i < kAdds; ++i) counters.add("perfbench.counter", 1);
        elapsed[w] = static_cast<double>(now_ns() - begin) / static_cast<double>(kAdds);
      });
    }
    while (ready.load() < t) std::this_thread::yield();
    go.store(true);
    for (auto& worker : workers) worker.join();
    return median(elapsed);
  };
  report.add("core.counters.add_ns.t1", per_add_ns(1), "ns");
  report.add("core.counters.add_ns.tN", per_add_ns(threads), "ns");
  report.note("core.counters.add_ns.tN.threads", std::to_string(threads));
}

}  // namespace perfbench
