// Kernel microbenchmarks across the substrate: the nn::simd dispatch lanes
// (scalar vs the best vector lane, per kernel), pack_step_major, LSTM
// forward/backward, BiLSTM forecaster inference and training, glucose
// simulation, window extraction, scaling, matrix multiplication and the kNN
// detector's scan.
// One place to watch for performance regressions in the primitives every
// experiment depends on.
// Lane-comparison records land in BENCH_kernels.json.
#include "bench_common.hpp"

#include <chrono>
#include <span>

#include "common/rng.hpp"
#include "data/scaler.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "detect/knn.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "predict/bilstm_forecaster.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"

namespace {

using namespace goodones;
using Clock = std::chrono::steady_clock;

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& x : m.row(r)) x = rng.uniform(-1.0, 1.0);
  }
  return m;
}

void BM_MatMul(benchmark::State& state) {
  common::Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const nn::Matrix a = random_matrix(n, n, rng);
  const nn::Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128);

void BM_LstmForward(benchmark::State& state) {
  common::Rng rng(5);
  const nn::Lstm lstm(4, static_cast<std::size_t>(state.range(0)), rng);
  const nn::Matrix x = random_matrix(12, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.forward(x));
  }
}
BENCHMARK(BM_LstmForward)->Arg(24)->Arg(64);

void BM_LstmForwardBackward(benchmark::State& state) {
  common::Rng rng(7);
  nn::Lstm lstm(4, static_cast<std::size_t>(state.range(0)), rng);
  const nn::Matrix x = random_matrix(12, 4, rng);
  const nn::Matrix grad = random_matrix(12, static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    nn::Lstm::Cache cache;
    lstm.forward_cached(x, cache);
    benchmark::DoNotOptimize(lstm.backward(grad, cache));
    nn::zero_all_grads(lstm.parameters());
  }
}
BENCHMARK(BM_LstmForwardBackward)->Arg(24)->Arg(64);

void BM_ForecasterPredict(benchmark::State& state) {
  bgms::CohortConfig cohort_config;
  cohort_config.train_steps = 600;
  cohort_config.test_steps = 60;
  const auto trace = bgms::generate_patient({bgms::Subset::kA, 0}, cohort_config);
  const auto series = bgms::to_series(trace.train);

  predict::ForecasterConfig config;
  config.hidden = static_cast<std::size_t>(state.range(0));
  config.epochs = 1;
  predict::BiLstmForecaster model(config, predict::fit_forecaster_scaler(series.values, bgms::kCgm,
                                                           bgms::kMinGlucose, bgms::kMaxGlucose));
  const auto windows = data::make_windows(series, {});
  model.train({windows.begin(), windows.begin() + 50});

  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(windows.front().features));
  }
}
BENCHMARK(BM_ForecasterPredict)->Arg(24)->Arg(32);

void BM_ForecasterInputGradient(benchmark::State& state) {
  bgms::CohortConfig cohort_config;
  cohort_config.train_steps = 600;
  cohort_config.test_steps = 60;
  const auto trace = bgms::generate_patient({bgms::Subset::kB, 1}, cohort_config);
  const auto series = bgms::to_series(trace.train);
  predict::ForecasterConfig config;
  config.hidden = 24;
  config.epochs = 1;
  predict::BiLstmForecaster model(config, predict::fit_forecaster_scaler(series.values, bgms::kCgm,
                                                           bgms::kMinGlucose, bgms::kMaxGlucose));
  const auto windows = data::make_windows(series, {});
  model.train({windows.begin(), windows.begin() + 50});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.input_gradient(windows.front().features));
  }
}
BENCHMARK(BM_ForecasterInputGradient);

void BM_GlucoseSimulation(benchmark::State& state) {
  const auto params = bgms::patient_parameters({bgms::Subset::kA, 3});
  for (auto _ : state) {
    bgms::GlucoseSimulator simulator(params, 42);
    benchmark::DoNotOptimize(simulator.run(static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GlucoseSimulation)->Arg(1000)->Arg(10000);

void BM_WindowExtraction(benchmark::State& state) {
  bgms::CohortConfig config;
  config.train_steps = static_cast<std::size_t>(state.range(0));
  config.test_steps = 20;
  const auto trace = bgms::generate_patient({bgms::Subset::kB, 0}, config);
  const auto series = bgms::to_series(trace.train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::make_windows(series, {}));
  }
}
BENCHMARK(BM_WindowExtraction)->Arg(2000)->Arg(10000);

void BM_ScalerTransform(benchmark::State& state) {
  common::Rng rng(13);
  const nn::Matrix data = random_matrix(static_cast<std::size_t>(state.range(0)), 4, rng);
  data::MinMaxScaler scaler;
  scaler.fit(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scaler.transform(data));
  }
}
BENCHMARK(BM_ScalerTransform)->Arg(1000);

void BM_PackStepMajor(benchmark::State& state) {
  common::Rng rng(17);
  const auto blocks_n = static_cast<std::size_t>(state.range(0));
  std::vector<nn::Matrix> blocks;
  for (std::size_t i = 0; i < blocks_n; ++i) blocks.push_back(random_matrix(24, 4, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::pack_step_major(std::span<const nn::Matrix>(blocks), 0, 24));
  }
  state.SetItemsProcessed(state.iterations() * blocks_n * 24);
}
// Arg(1) hits the contiguous single-memcpy fast path; Arg(32) the
// step-major interleave.
BENCHMARK(BM_PackStepMajor)->Arg(1)->Arg(32);

// --- dispatch-lane records (BENCH_kernels.json) ------------------------------
//
// Hand-timed scalar-vs-vector comparisons of the hot kernels on the shapes
// the forecaster actually runs: the input projection GEMM (rows x 4 times
// 4 x 4h), the recurrent GEMM (batch x h times h x 4h), and the per-row
// LSTM gate math. One record per (kernel, lane) so the JSON trail shows the
// lane speedup directly.

template <typename Fn>
bench::BenchRecord time_kernel(const std::string& name, std::size_t reps, Fn&& fn) {
  const auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) fn();
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  bench::BenchRecord record;
  record.name = name;
  record.iters = reps;
  record.ns_per_op = seconds * 1e9 / static_cast<double>(reps);
  return record;
}

void record_kernel_lanes(std::vector<bench::BenchRecord>& records) {
  namespace simd = nn::simd;
  common::Rng rng(23);
  constexpr std::size_t h = 24;      // forecaster hidden size
  constexpr std::size_t rows = 128;  // packed batch*time rows
  constexpr std::size_t batch = 8;
  const nn::Matrix x = random_matrix(rows, 4, rng);
  const nn::Matrix wx = random_matrix(4, 4 * h, rng);
  const nn::Matrix hs = random_matrix(batch, h, rng);
  const nn::Matrix wh = random_matrix(h, 4 * h, rng);
  const nn::Matrix bias = random_matrix(1, 4 * h, rng);
  const nn::Matrix pre = random_matrix(batch, 4 * h, rng);

  std::vector<simd::Isa> lanes{simd::Isa::kScalar};
  if (simd::active_isa() != simd::Isa::kScalar) lanes.push_back(simd::active_isa());

  for (const simd::Isa isa : lanes) {
    const simd::KernelTable& kt = *simd::table_for(isa);
    const std::string lane = simd::isa_name(isa);
    const std::size_t reps = bench::bench_reps(20000);

    nn::Matrix proj(rows, 4 * h);
    records.push_back(time_kernel("matmul_bias_128x4x96_" + lane, reps, [&] {
      kt.matmul_bias(x.data(), wx.data(), bias.data(), proj.data(), rows, 4, 4 * h);
      benchmark::DoNotOptimize(proj.data());
    }));

    nn::Matrix acc = pre;
    records.push_back(time_kernel("matmul_acc_8x24x96_" + lane, reps, [&] {
      kt.matmul_acc(hs.data(), wh.data(), acc.data(), batch, h, 4 * h);
      benchmark::DoNotOptimize(acc.data());
    }));

    std::vector<double> gate_pre(pre.row(0).begin(), pre.row(0).end());
    std::vector<double> cell(h, 0.1);
    std::vector<double> hidden(h, 0.1);
    records.push_back(time_kernel("lstm_gates_h24_" + lane, reps, [&] {
      kt.lstm_gates(gate_pre.data(), h, cell.data(), hidden.data());
      benchmark::DoNotOptimize(hidden.data());
    }));

    // The same fused gate row-step through the fast-math lane: this pair of
    // records is the per-row-step cost the exp/tanh budget in
    // docs/BENCHMARKS.md quotes.
    records.push_back(time_kernel("lstm_gates_fast_h24_" + lane, reps, [&] {
      kt.lstm_gates_fast(gate_pre.data(), h, cell.data(), hidden.data());
      benchmark::DoNotOptimize(hidden.data());
    }));

    // Transcendental microbench over one gate row-step's worth of inputs
    // (4h = 96 pre-activations): the vectorized polynomial kernels per lane.
    std::vector<double> trans_out(4 * h);
    records.push_back(time_kernel("fast_exp_96_" + lane, reps, [&] {
      kt.fast_exp_n(gate_pre.data(), trans_out.data(), 4 * h);
      benchmark::DoNotOptimize(trans_out.data());
    }));
    records.push_back(time_kernel("fast_tanh_96_" + lane, reps, [&] {
      kt.fast_tanh_n(gate_pre.data(), trans_out.data(), 4 * h);
      benchmark::DoNotOptimize(trans_out.data());
    }));
  }

  // The kNN detector's exact scan on the active lane: one query against
  // 800 and 6000 reference points of dim 5 (the mini fleet's and the
  // per-class cap's sizes), i.e. the per-window cost of a served kNN
  // score_batch.
  for (const std::size_t n : {std::size_t{800}, std::size_t{6000}}) {
    common::Rng knn_rng(31);
    std::vector<nn::Matrix> benign;
    std::vector<nn::Matrix> malicious;
    for (std::size_t i = 0; i < n / 2; ++i) {
      benign.push_back(random_matrix(1, 5, knn_rng));
      malicious.push_back(random_matrix(1, 5, knn_rng));
    }
    detect::KnnDetector knn;
    knn.fit(benign, malicious);
    std::vector<nn::Matrix> queries;
    for (std::size_t i = 0; i < 16; ++i) queries.push_back(random_matrix(1, 5, knn_rng));
    std::size_t next = 0;
    records.push_back(time_kernel("knn_scan_" + std::to_string(n) + "x5",
                                  bench::bench_reps(4000), [&] {
      benchmark::DoNotOptimize(knn.anomaly_score(queries[next++ % queries.size()]));
    }));
  }

  // The glibc baseline the fast lane is measured against: scalar libm
  // exp/tanh over the same 96 inputs (what every exact lane pays per gate
  // row-step, since exact kernels always call scalar libm transcendentals).
  {
    const nn::Matrix pre_row = random_matrix(1, 4 * h, rng);
    std::vector<double> out(4 * h);
    const std::size_t reps = bench::bench_reps(20000);
    records.push_back(time_kernel("exp_glibc_96", reps, [&] {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::exp(pre_row.data()[i]);
      benchmark::DoNotOptimize(out.data());
    }));
    records.push_back(time_kernel("tanh_glibc_96", reps, [&] {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::tanh(pre_row.data()[i]);
      benchmark::DoNotOptimize(out.data());
    }));
  }

  // One forecaster training window-epoch on the active lane at the BGMS
  // fast-preset shape (H = 24, head 16, D = 4, T = 12, minibatch 32): a
  // one-epoch train() over 256 windows — batched forward, batched BPTT and
  // the optimizer steps — divided by the windows it consumed.
  {
    bgms::CohortConfig cohort_config;
    cohort_config.train_steps = 600;
    cohort_config.test_steps = 60;
    const auto trace = bgms::generate_patient({bgms::Subset::kA, 0}, cohort_config);
    const auto series = bgms::to_series(trace.train);
    predict::ForecasterConfig config;
    config.hidden = 24;
    config.head_hidden = 16;
    config.batch_size = 32;
    config.epochs = 1;
    predict::BiLstmForecaster model(
        config, predict::fit_forecaster_scaler(series.values, bgms::kCgm, bgms::kMinGlucose,
                                               bgms::kMaxGlucose));
    const auto all = data::make_windows(series, {});
    const std::vector<data::Window> windows(all.begin(), all.begin() + 256);
    bench::BenchRecord record = time_kernel("forecaster_train_window_epoch",
                                            bench::bench_reps(20), [&] {
      benchmark::DoNotOptimize(model.train(windows));
    });
    record.ns_per_op /= static_cast<double>(windows.size());
    records.push_back(record);
  }

  // pack_step_major: the contiguous single-block memcpy fast path vs the
  // 32-way step-major interleave the batched forward uses.
  common::Rng pack_rng(29);
  std::vector<nn::Matrix> one{random_matrix(24, 4, pack_rng)};
  std::vector<nn::Matrix> many;
  for (std::size_t i = 0; i < 32; ++i) many.push_back(random_matrix(24, 4, pack_rng));
  const std::size_t pack_reps = bench::bench_reps(20000);
  records.push_back(time_kernel("pack_step_major_1x24x4_contiguous", pack_reps, [&] {
    benchmark::DoNotOptimize(nn::pack_step_major(std::span<const nn::Matrix>(one), 0, 24));
  }));
  records.push_back(time_kernel("pack_step_major_32x24x4", pack_reps, [&] {
    benchmark::DoNotOptimize(nn::pack_step_major(std::span<const nn::Matrix>(many), 0, 24));
  }));
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "goodones kernel bench — active SIMD lane: "
            << nn::simd::isa_name(nn::simd::active_isa()) << "\n";
  std::vector<bench::BenchRecord> records;
  record_kernel_lanes(records);
  goodones::bench::save_bench_json(records, "kernels");
  return goodones::bench::run_microbenchmarks(argc, argv);
}
