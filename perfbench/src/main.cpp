// goodones_perfbench — the repository benchmark.
//
//   goodones_perfbench --workload stream|profile --seed N
//                      --seconds S --trace 0|1 [--scratch DIR] [--reports DIR]
//                      [--stamp KEY=VALUE]...
//   goodones_perfbench --self-test
//
// Every workload profiles a fleet (steps 1-5) and then serves it through
// the mesh and the streaming daemon; the workload decides which fleet and
// how the measured seconds are shared (see README.md). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
// the end-to-end metrics untraced and the per-layer metrics traced.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "common/logging.hpp"
#include "nn/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
int run_self_test();
}

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

int usage() {
  std::cerr << "usage: goodones_perfbench --workload stream|profile --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--reports DIR] [--stamp K=V]...\n"
               "       goodones_perfbench --self-test\n";
  return 2;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

void write_report(const fs::path& path, const Report& report, const Tracer& tracer) {
  std::ofstream out(path);
  out << "{\n  \"correct\": " << (report.correct() ? "true" : "false")
      << ",\n  \"attempted\": " << report.attempted << ",\n  \"failed\": " << report.failed
      << ",\n  \"metrics\": " << metrics_json(report.metrics)
      << ",\n  \"ungated_metrics\": " << metrics_json(report.ungated) << ",\n  \"notes\": {";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    out << (i ? ", " : "") << "\n    " << json_string(report.notes[i].first) << ": "
        << json_string(report.notes[i].second);
  }
  out << "\n  },\n  \"check_failures\": [";
  for (std::size_t i = 0; i < report.check_failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.check_failures[i]);
  }
  out << "],\n  \"spans\": [";
  const auto spans = tracer.summarize();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i ? "," : "") << "\n    {\"name\": " << json_string(spans[i].name)
        << ", \"count\": " << spans[i].count
        << ", \"median_us\": " << json_number(spans[i].median_us)
        << ", \"median_self_us\": " << json_number(spans[i].median_self_us)
        << ", \"total_self_s\": " << json_number(spans[i].total_self_s) << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  fs::path scratch = ".bench_build/run";
  fs::path reports = ".bench_build/reports";
  std::vector<std::pair<std::string, std::string>> stamp;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return run_self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--scratch") {
        scratch = value;
      } else if (arg == "--reports") {
        reports = value;
      } else if (arg == "--stamp" && value.find('=') != std::string::npos) {
        stamp.emplace_back(value.substr(0, value.find('=')), value.substr(value.find('=') + 1));
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if ((workload != "stream" && workload != "profile") ||
      !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage();
  }
  goodones::common::set_log_level(goodones::common::LogLevel::kWarn);

  Report report;
  Tracer tracer(trace == 1);
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  stamp.emplace_back("nproc", std::to_string(cores));
  stamp.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  stamp.emplace_back("isa", goodones::nn::simd::isa_name(goodones::nn::simd::active_isa()));
  stamp.emplace_back("workload", workload);
  stamp.emplace_back("seed", std::to_string(seed));
  stamp.emplace_back("seconds", json_number(seconds));
  stamp.emplace_back("trace", std::to_string(trace));
  for (const auto& [key, value] : stamp) report.note("stamp." + key, value);

  const fs::path run_dir = scratch / ("run-" + std::to_string(::getpid()));
  int status = 0;
  try {
    fs::create_directories(run_dir);
    // Every workload profiles a fleet and serves the synthtel fleet, so
    // every run yields every end-to-end metric. Stream profiles synthtel
    // and spreads its pipeline repetitions over the serving rounds. Profile
    // serves first, for less time, and then runs the paper's BGMS preset
    // three times (two pairs when traced).
    const bool profile = workload == "profile";
    const Fleet served = synthtel_fleet();
    const Fleet profiled = profile ? bgms_fleet() : served;
    Profiler profiler(profiled, tracer, report);
    if (!profile) profiler.run(5);
    const ServingBudget budget = profile ? ServingBudget{0.4 * seconds, 0.3 * seconds}
                                         : ServingBudget{0.4 * seconds, 0.6 * seconds};
    run_serving_phases(served, run_dir, seed, budget,
                       [&] {
                         if (!profile) profiler.run(2);
                       },
                       tracer, report);
    if (profile) profiler.run(tracer.enabled() ? 2 : 3);
    profiler.finish();
    if (tracer.enabled()) {
      measure_counters(cores, report);
    } else {
      report.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
  } catch (const std::exception& error) {
    std::cerr << "goodones_perfbench: " << error.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(run_dir, ignored);
  if (status != 0) return status;

  fs::create_directories(reports);
  const std::string stem = workload + "-seed" + std::to_string(seed) + "-trace" +
                           std::to_string(trace);
  write_report(reports / (stem + ".json"), report, tracer);
  if (tracer.enabled()) tracer.write_jsonl(reports / (stem + ".spans.jsonl"));

  for (const auto& [key, value] : stamp) std::cout << "stamp " << key << " = " << value << "\n";
  for (const Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const Metric& m : report.ungated) {
    std::cout << "ungated " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const auto& [key, value] : report.notes) {
    if (key.rfind("stamp.", 0) != 0) std::cout << "note " << key << " = " << value << "\n";
  }
  for (const auto& failure : report.check_failures) std::cout << "FAILED " << failure << "\n";
  std::cout << "report " << (reports / (stem + ".json")).string() << "\n";
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metrics_json(report.metrics) << "}" << std::endl;
  return 0;
}
