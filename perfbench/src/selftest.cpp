// The benchmark's own checks on its machinery (run.py --self-test also
// checks that every metric BENCHMARK.json names is emitted with its unit).
#include <bit>
#include <cmath>
#include <iostream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

goodones::serve::ScoreResponse sample_response() {
  goodones::serve::ScoreResponse response;
  response.generation = 3;
  for (int w = 0; w < 2; ++w) {
    goodones::serve::WindowScore score;
    score.forecast = 101.25 + w;
    score.residual = -0.5;
    score.anomaly_score = 0.75;
    score.risk = 12.5;
    score.flagged = w == 1;
    response.windows.push_back(score);
  }
  return response;
}

/// A perturbed verdict must fail the bitwise comparison the correctness
/// checks rely on, down to one ulp.
void perturbed_verdicts_fail() {
  const auto reference = sample_response();
  expect(verdicts_equal(reference, sample_response()), "identical verdicts compare equal");
  auto ulp = sample_response();
  ulp.windows[1].forecast = std::bit_cast<double>(std::bit_cast<std::uint64_t>(
                                                      ulp.windows[1].forecast) + 1);
  expect(!verdicts_equal(ulp, reference), "a forecast one ulp off fails the check");
  auto flag = sample_response();
  flag.windows[0].flagged = !flag.windows[0].flagged;
  expect(!verdicts_equal(flag, reference), "a flipped flag fails the check");
  auto generation = sample_response();
  generation.generation += 1;
  expect(!verdicts_equal(generation, reference), "another generation fails the check");
  auto signed_zero = sample_response();
  signed_zero.windows[0].residual = -0.0;
  auto positive_zero = sample_response();
  positive_zero.windows[0].residual = 0.0;
  expect(!verdicts_equal(signed_zero, positive_zero), "-0.0 and +0.0 differ bitwise");
}

/// One request stalls the only connection for 30 ms: every request due
/// during the stall must be charged the wait from its due time, and the
/// generator must report the lag.
void stall_is_charged_to_later_requests() {
  Schedule schedule;
  for (std::uint32_t i = 0; i < 200; ++i) {
    schedule.due_ns.push_back(static_cast<std::uint64_t>(i) * 1'000'000);  // 1 kHz
    schedule.entity.push_back(0);
    schedule.window.push_back(0);
  }
  const OpenLoopResult result = run_open_loop(schedule, 1, [](std::size_t, std::size_t i) {
    if (i == 50) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return i != 190;  // one refused request
  });
  expect(result.latency_us[50] >= 30000.0, "the stalled request is charged its stall");
  // Request 60 was due 10 ms into the stall, so it waited at least 20 ms.
  expect(result.latency_us[60] >= 19000.0, "a request due during the stall is charged the wait");
  expect(result.lag_us[60] >= 19000.0, "generator lag shows the late send");
  expect(result.latency_us[10] < 5000.0, "requests before the stall are not charged");
  expect(result.failed == 1 && std::isinf(result.latency_us[190]),
         "a refused request counts as failed and misses every latency limit");
  expect(quantile(result.latency_us, 1.0) == result.latency_us[190],
         "failed requests sort last in the latency quantiles");
}

void spans_give_self_time_and_coverage() {
  Tracer tracer(true);
  SpanLog* log = tracer.new_log();
  {
    Scope root(log, "root");
    {
      Scope child(log, "child", root.id());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double coverage = tracer.coverage("root");
  expect(coverage > 0.3 && coverage < 0.7, "coverage is the child's share of the root");
  bool self_ok = false;
  for (const auto& summary : tracer.summarize()) {
    if (summary.name == "root") {
      self_ok = summary.median_self_us > 15000.0 && summary.median_self_us < 35000.0;
    }
  }
  expect(self_ok, "root self time excludes the child");
  Tracer off(false);
  expect(off.new_log() == nullptr, "a disabled tracer records nothing");
}

}  // namespace

int run_self_test() {
  perturbed_verdicts_fail();
  stall_is_charged_to_later_requests();
  spans_give_self_time_and_coverage();
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
