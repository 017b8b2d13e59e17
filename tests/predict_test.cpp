#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "attack/evasion.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "predict/batch_planner.hpp"
#include "predict/bilstm_forecaster.hpp"
#include "predict/registry.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"

namespace goodones::predict {
namespace {

bgms::CohortConfig tiny_cohort_config() {
  bgms::CohortConfig config;
  config.train_steps = 900;
  config.test_steps = 200;
  config.seed = 11;
  return config;
}

ForecasterConfig tiny_forecaster_config() {
  ForecasterConfig config;
  config.hidden = 10;
  config.head_hidden = 8;
  config.epochs = 4;
  config.seed = 21;
  return config;
}

struct Fixture {
  bgms::PatientTrace trace;
  data::TelemetrySeries train_series;
  data::TelemetrySeries test_series;
  std::vector<data::Window> train_windows;
  std::vector<data::Window> test_windows;

  Fixture() {
    trace = bgms::generate_patient({bgms::Subset::kA, 0}, tiny_cohort_config());
    train_series = bgms::to_series(trace.train);
    test_series = bgms::to_series(trace.test);
    data::WindowConfig window;
    window.step = 2;
    train_windows = data::make_windows(train_series, window);
    test_windows = data::make_windows(test_series, window);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(ForecasterScaler, PinsTargetRange) {
  const auto scaler = fit_forecaster_scaler(fixture().train_series.values, bgms::kCgm,
                                            bgms::kMinGlucose, bgms::kMaxGlucose);
  EXPECT_DOUBLE_EQ(scaler.column_min(bgms::kCgm), bgms::kMinGlucose);
  EXPECT_DOUBLE_EQ(scaler.column_max(bgms::kCgm), bgms::kMaxGlucose);
}

TEST(Forecaster, PredictsWithinPhysiologicalRange) {
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose));
  model.train(f.train_windows);
  for (std::size_t i = 0; i < 20; ++i) {
    const double pred = model.predict(f.test_windows[i].features);
    EXPECT_GT(pred, 0.0);
    EXPECT_LT(pred, 600.0);
  }
}

TEST(Forecaster, TrainingBeatsUntrainedModel) {
  const auto& f = fixture();
  const auto scaler = fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose);
  BiLstmForecaster untrained(tiny_forecaster_config(), scaler);
  BiLstmForecaster trained(tiny_forecaster_config(), scaler);
  trained.train(f.train_windows);
  EXPECT_LT(trained.evaluate_rmse(f.test_windows),
            untrained.evaluate_rmse(f.test_windows));
}

TEST(Forecaster, BeatsGlobalMeanBaseline) {
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose));
  model.train(f.train_windows);

  double mean_target = 0.0;
  for (const auto& w : f.train_windows) mean_target += w.target_value;
  mean_target /= static_cast<double>(f.train_windows.size());
  double baseline_sq = 0.0;
  for (const auto& w : f.test_windows) {
    baseline_sq += (mean_target - w.target_value) * (mean_target - w.target_value);
  }
  const double baseline_rmse =
      std::sqrt(baseline_sq / static_cast<double>(f.test_windows.size()));
  EXPECT_LT(model.evaluate_rmse(f.test_windows), baseline_rmse);
}

TEST(Forecaster, DeterministicAcrossInstances) {
  const auto& f = fixture();
  const auto scaler = fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose);
  BiLstmForecaster a(tiny_forecaster_config(), scaler);
  BiLstmForecaster b(tiny_forecaster_config(), scaler);
  a.train(f.train_windows);
  b.train(f.train_windows);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_DOUBLE_EQ(a.predict(f.test_windows[i].features),
                     b.predict(f.test_windows[i].features));
  }
}

TEST(Forecaster, InputGradientMatchesFiniteDifferences) {
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose));
  model.train(f.train_windows);

  const nn::Matrix& x = f.test_windows[3].features;
  const nn::Matrix grad = model.input_gradient(x);
  const double eps = 1e-3;  // raw units (mg/dL, grams)
  for (const auto [t, c] : {std::pair<std::size_t, std::size_t>{11, 0}, {5, 0}, {11, 3}}) {
    nn::Matrix plus = x;
    nn::Matrix minus = x;
    plus(t, c) += eps;
    minus(t, c) -= eps;
    const double numeric = (model.predict(plus) - model.predict(minus)) / (2 * eps);
    ASSERT_NEAR(grad(t, c), numeric, std::max(1e-4, std::abs(numeric) * 1e-3))
        << "t=" << t << " c=" << c;
  }
}

TEST(Forecaster, RecentCgmDominatesGradient) {
  // The forecast should respond more to the latest CGM reading than to the
  // oldest one (temporal locality of glucose dynamics).
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose));
  model.train(f.train_windows);
  double newest = 0.0;
  double oldest = 0.0;
  for (std::size_t i = 0; i < 30; ++i) {
    const nn::Matrix grad = model.input_gradient(f.test_windows[i].features);
    newest += std::abs(grad(grad.rows() - 1, bgms::kCgm));
    oldest += std::abs(grad(0, bgms::kCgm));
  }
  EXPECT_GT(newest, oldest);
}

TEST(Forecaster, SaveLoadRoundTrip) {
  const auto& f = fixture();
  const auto scaler = fit_forecaster_scaler(f.train_series.values, bgms::kCgm, bgms::kMinGlucose,
                                           bgms::kMaxGlucose);
  BiLstmForecaster trained(tiny_forecaster_config(), scaler);
  trained.train(f.train_windows);
  const auto path = std::filesystem::temp_directory_path() / "goodones_forecaster.bin";
  trained.save(path);

  BiLstmForecaster restored(tiny_forecaster_config(), scaler);
  ASSERT_TRUE(restored.load(path));
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_DOUBLE_EQ(restored.predict(f.test_windows[i].features),
                     trained.predict(f.test_windows[i].features));
  }
  std::filesystem::remove(path);
}

/// Minimal Forecaster that only implements the scalar interface, so the
/// predict_batch default (loop over predict) is what gets exercised.
class SumModel final : public Forecaster {
 public:
  double predict(const nn::Matrix& x) const override {
    double sum = 0.0;
    for (std::size_t t = 0; t < x.rows(); ++t) {
      for (const double v : x.row(t)) sum += v;
    }
    return sum;
  }
  nn::Matrix input_gradient(const nn::Matrix& x) const override {
    return nn::Matrix(x.rows(), x.cols(), 1.0);
  }
};

nn::Matrix random_window(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : m.row(r)) v = rng.uniform(40.0, 400.0);
  }
  return m;
}

TEST(PredictBatch, DefaultImplementationLoopsOverPredict) {
  const SumModel model;
  common::Rng rng(3);
  std::vector<nn::Matrix> windows;
  for (std::size_t i = 0; i < 5; ++i) windows.push_back(random_window(4, 3, rng));
  windows.push_back(nn::Matrix(2, 3, 1.0));  // mixed shapes are fine by default

  const auto batched = model.predict_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], model.predict(windows[i]));
  }
}

TEST(PredictBatch, DefaultImplementationHandlesEmptyBatch) {
  const SumModel model;
  // Spelled out: `{}` would be ambiguous between the value-span adapter and
  // the pointer-span virtual.
  EXPECT_TRUE(model.predict_batch(std::span<const nn::Matrix>{}).empty());
}

TEST(PredictBatch, BiLstmParityOnRandomWindows) {
  // Unstructured random windows: the planner finds no shared rows, so this
  // exercises the pure packed-batch path against scalar predict().
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
  model.train(f.train_windows);

  common::Rng rng(17);
  std::vector<nn::Matrix> windows;
  for (std::size_t i = 0; i < 16; ++i) {
    windows.push_back(random_window(12, bgms::kNumChannels, rng));
  }
  const auto batched = model.predict_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(batched[i], model.predict(windows[i])) << "window " << i;
  }
}

TEST(PredictBatch, BiLstmParityAcrossMixedShapes) {
  // Heterogeneous batch: two sequence lengths interleaved. group_probes must
  // split them and scatter results back to the original order.
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
  model.train(f.train_windows);

  common::Rng rng(29);
  std::vector<nn::Matrix> windows;
  for (std::size_t i = 0; i < 10; ++i) {
    windows.push_back(random_window(i % 2 == 0 ? 12 : 8, bgms::kNumChannels, rng));
  }
  const auto batched = model.predict_batch(windows);
  ASSERT_EQ(batched.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(batched[i], model.predict(windows[i])) << "window " << i;
  }
}

TEST(PredictBatch, BiLstmRejectsZeroRowWindowLikePredict) {
  const auto& f = fixture();
  const BiLstmForecaster model(tiny_forecaster_config(),
                               fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                                     bgms::kMinGlucose, bgms::kMaxGlucose));
  const nn::Matrix empty(0, bgms::kNumChannels);
  EXPECT_THROW((void)model.predict(empty), common::PreconditionError);
  const std::vector<nn::Matrix> batch{f.test_windows.front().features, empty};
  EXPECT_THROW((void)model.predict_batch(batch), common::PreconditionError);
}

// --- The head-only pass against the full BiLstm ----------------------------

/// The forecaster's network run the long way, as it was before training and
/// input_gradient computed only what the dense head reads: both cells over
/// every row (nn::BiLstm::forward_cached/backward, whose backward cell gets
/// zero upstream gradient on all but its first reversed step) and BPTT per
/// window. The reference the head-only pass must reproduce.
struct ReferenceNet {
  common::Rng init_rng{1};  // shapes only: load_from overwrites every weight
  nn::BiLstm lstm;
  nn::Dense head1;
  nn::Dense head2;

  explicit ReferenceNet(const BiLstmForecaster& model)
      : lstm(model.num_channels(), model.config().hidden, init_rng),
        head1(2 * model.config().hidden, model.config().head_hidden, nn::Activation::kTanh,
              init_rng),
        head2(model.config().head_hidden, 1, nn::Activation::kLinear, init_rng) {
    load_from(model);
  }

  nn::ParamRefs parameters() {
    nn::ParamRefs params = lstm.parameters();
    for (auto* p : head1.parameters()) params.push_back(p);
    for (auto* p : head2.parameters()) params.push_back(p);
    return params;
  }

  void load_from(const BiLstmForecaster& model) {
    const auto path = std::filesystem::temp_directory_path() /
                      ("goodones_reference_" + std::to_string(::getpid()) + ".bin");
    model.save(path);
    const bool loaded = nn::load_parameters(parameters(), path);
    std::filesystem::remove(path);
    if (!loaded) throw std::runtime_error("reference: no saved parameters");
  }

  double forward(const nn::Matrix& scaled, nn::BiLstm::Cache& lstm_cache,
                 nn::Dense::Cache& c1, nn::Dense::Cache& c2) const {
    const nn::Matrix hidden = lstm.forward_cached(scaled, lstm_cache);
    nn::Matrix last(1, hidden.cols());
    const auto src = hidden.row(hidden.rows() - 1);
    std::copy(src.begin(), src.end(), last.row(0).begin());
    return head2.forward_cached(head1.forward_cached(last, c1), c2)(0, 0);
  }

  /// Full backward (parameter gradients accumulate); returns dLoss/dx.
  nn::Matrix backward(double grad, std::size_t steps, const nn::BiLstm::Cache& lstm_cache,
                      const nn::Dense::Cache& c1, const nn::Dense::Cache& c2) {
    const nn::Matrix g1 = head2.backward(nn::Matrix(1, 1, grad), c2);
    const nn::Matrix g_last = head1.backward(g1, c1);
    nn::Matrix grad_hidden(steps, lstm.output_dim());
    std::copy(g_last.row(0).begin(), g_last.row(0).end(), grad_hidden.row(steps - 1).begin());
    return lstm.backward(grad_hidden, lstm_cache);
  }

  /// The training loop, per window: forward, backward, step per minibatch.
  double train(const BiLstmForecaster& model, const std::vector<data::Window>& windows) {
    const ForecasterConfig& config = model.config();
    const data::MinMaxScaler& scaler = model.scaler();
    std::vector<nn::Matrix> scaled;
    std::vector<double> targets;
    for (const auto& w : windows) {
      scaled.push_back(scaler.transform(w.features));
      targets.push_back(scaler.transform_value(w.target_value, config.target_channel));
    }
    const nn::ParamRefs params = parameters();
    nn::Adam optimizer(config.learning_rate);
    common::Rng shuffle_rng(config.seed ^ 0xA5A5A5A5DEADBEEFULL);
    std::vector<std::size_t> order(windows.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    double final_epoch_loss = 0.0;
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
      shuffle_rng.shuffle(order);
      double epoch_loss = 0.0;
      std::size_t in_batch = 0;
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const std::size_t i = order[pos];
        nn::BiLstm::Cache lstm_cache;
        nn::Dense::Cache c1;
        nn::Dense::Cache c2;
        const double diff = forward(scaled[i], lstm_cache, c1, c2) - targets[i];
        epoch_loss += diff * diff;
        backward(2.0 * diff, scaled[i].rows(), lstm_cache, c1, c2);
        if (++in_batch == config.batch_size || pos + 1 == order.size()) {
          const double inv = 1.0 / static_cast<double>(in_batch);
          for (auto* p : params) p->grad *= inv;
          nn::clip_global_grad_norm(params, config.grad_clip);
          optimizer.step_and_zero(params);
          in_batch = 0;
        }
      }
      final_epoch_loss = epoch_loss / static_cast<double>(order.size());
    }
    return final_epoch_loss;
  }

  /// dPrediction/dInput in raw units, through the full BiLstm.
  nn::Matrix input_gradient(const BiLstmForecaster& model, const nn::Matrix& raw) {
    const data::MinMaxScaler& scaler = model.scaler();
    const nn::Matrix scaled = scaler.transform(raw);
    nn::BiLstm::Cache lstm_cache;
    nn::Dense::Cache c1;
    nn::Dense::Cache c2;
    forward(scaled, lstm_cache, c1, c2);
    const nn::Matrix dx = backward(1.0, scaled.rows(), lstm_cache, c1, c2);
    const std::size_t target = model.config().target_channel;
    const double target_range = scaler.column_max(target) - scaler.column_min(target);
    nn::Matrix out(dx.rows(), dx.cols());
    for (std::size_t c = 0; c < dx.cols(); ++c) {
      const double range = scaler.column_max(c) - scaler.column_min(c);
      const double factor = range > 0.0 ? target_range / range : 0.0;
      for (std::size_t t = 0; t < dx.rows(); ++t) out(t, c) = dx(t, c) * factor;
    }
    return out;
  }
};

/// Every weight of `model` equals the reference's bitwise, or both are zero
/// (the skipped steps only ever added +-0, which can flip an exact zero's
/// sign and nothing else).
void expect_same_weights(ReferenceNet& reference, const BiLstmForecaster& model,
                         const std::string& label) {
  ReferenceNet trained(model);
  const nn::ParamRefs want = reference.parameters();
  const nn::ParamRefs got = trained.parameters();
  ASSERT_EQ(want.size(), got.size());
  std::size_t mismatches = 0;
  for (std::size_t p = 0; p < want.size(); ++p) {
    for (std::size_t i = 0; i < want[p]->value.size(); ++i) {
      const double a = want[p]->value.data()[i];
      const double b = got[p]->value.data()[i];
      if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
          (a == 0.0 && b == 0.0)) {
        continue;
      }
      if (mismatches++ == 0) {
        ADD_FAILURE() << label << ": param " << p << " entry " << i << " reference " << a
                      << " trained " << b;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

std::vector<data::Window> random_training_windows(std::size_t count, std::size_t steps,
                                                  common::Rng& rng) {
  std::vector<data::Window> windows(count);
  for (auto& w : windows) {
    w.features = random_window(steps, bgms::kNumChannels, rng);
    w.target_value = rng.uniform(40.0, 400.0);
  }
  return windows;
}

TEST(ForecasterTraining, HeadOnlyPassTrainsTheFullBiLstmsWeights) {
  const auto scaler = fit_forecaster_scaler(fixture().train_series.values, bgms::kCgm,
                                            bgms::kMinGlucose, bgms::kMaxGlucose);
  for (const std::uint64_t seed : {3u, 17u, 2024u}) {
    for (const std::size_t steps : {1u, 2u, 12u}) {
      ForecasterConfig config;
      config.hidden = 6;
      config.head_hidden = 5;
      config.epochs = 2;
      config.batch_size = 8;
      config.seed = seed;
      common::Rng rng(seed * 31 + steps);
      // 75 windows: nine full minibatches of 8 and a partial one of 3.
      const auto windows = random_training_windows(75, steps, rng);

      BiLstmForecaster model(config, scaler);
      ReferenceNet reference(model);
      const double loss = model.train(windows);
      const std::string label = "seed " + std::to_string(seed) + " steps " +
                                std::to_string(steps);
      EXPECT_EQ(loss, reference.train(model, windows)) << label;
      expect_same_weights(reference, model, label);
    }
  }
}

TEST(ForecasterTraining, RequiresOneNonEmptyWindowLengthPerCall) {
  const auto scaler = fit_forecaster_scaler(fixture().train_series.values, bgms::kCgm,
                                            bgms::kMinGlucose, bgms::kMaxGlucose);
  BiLstmForecaster model(tiny_forecaster_config(), scaler);
  common::Rng rng(5);
  auto mixed = random_training_windows(4, 12, rng);
  mixed.push_back(random_training_windows(1, 8, rng).front());
  EXPECT_THROW(model.train(mixed), common::PreconditionError);
  EXPECT_THROW(model.train(random_training_windows(3, 0, rng)), common::PreconditionError);
}

TEST(Forecaster, InputGradientEqualsTheFullBiLstmGradient) {
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
  model.train(f.train_windows);
  ReferenceNet reference(model);
  common::Rng rng(41);
  for (const std::size_t steps : {1u, 2u, 12u}) {
    for (std::size_t trial = 0; trial < 8; ++trial) {
      const nn::Matrix x = random_window(steps, bgms::kNumChannels, rng);
      const nn::Matrix got = model.input_gradient(x);
      const nn::Matrix want = reference.input_gradient(model, x);
      ASSERT_TRUE(got.same_shape(want));
      for (std::size_t t = 0; t < steps; ++t) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
          EXPECT_EQ(got(t, c), want(t, c)) << "steps " << steps << " t " << t << " c " << c;
        }
      }
    }
  }
}

/// `model`'s predictions steered by the full-BiLstm reference gradient.
class ReferenceGradientModel final : public Forecaster {
 public:
  explicit ReferenceGradientModel(const BiLstmForecaster& model)
      : model_(model), reference_(model) {}
  double predict(const nn::Matrix& x) const override { return model_.predict(x); }
  nn::Matrix input_gradient(const nn::Matrix& x) const override {
    return reference_.input_gradient(model_, x);
  }

 private:
  const BiLstmForecaster& model_;
  mutable ReferenceNet reference_;  // backward accumulates unread grads
};

TEST(Forecaster, GradientGuidedAttacksMatchTheFullBiLstmGradient) {
  const auto& f = fixture();
  BiLstmForecaster model(tiny_forecaster_config(),
                         fit_forecaster_scaler(f.train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
  model.train(f.train_windows);
  const ReferenceGradientModel reference(model);
  attack::AttackConfig config;
  config.search = attack::SearchKind::kGradientGuided;
  config.target_channel = bgms::kCgm;
  config.batched_probes = false;
  const attack::EvasionAttack attack(config);
  std::size_t edited = 0;
  for (std::size_t i = 0; i < 40; i += 2) {
    const attack::AttackResult got = attack.attack_window(model, f.test_windows[i]);
    const attack::AttackResult want = attack.attack_window(reference, f.test_windows[i]);
    EXPECT_EQ(got.success, want.success) << "window " << i;
    EXPECT_EQ(got.edits, want.edits) << "window " << i;
    EXPECT_EQ(got.benign_prediction, want.benign_prediction) << "window " << i;
    EXPECT_EQ(got.adversarial_prediction, want.adversarial_prediction) << "window " << i;
    ASSERT_TRUE(got.adversarial_features.same_shape(want.adversarial_features));
    for (std::size_t t = 0; t < got.adversarial_features.rows(); ++t) {
      for (std::size_t c = 0; c < got.adversarial_features.cols(); ++c) {
        EXPECT_EQ(got.adversarial_features(t, c), want.adversarial_features(t, c))
            << "window " << i << " t " << t << " c " << c;
      }
    }
    edited += got.edits > 0 ? 1 : 0;
  }
  EXPECT_GT(edited, 0u);
}

/// The planner takes windows by pointer, as predict_batch hands them over.
std::vector<const nn::Matrix*> pointers(const std::vector<nn::Matrix>& windows) {
  std::vector<const nn::Matrix*> out;
  for (const nn::Matrix& w : windows) out.push_back(&w);
  return out;
}

TEST(BatchPlanner, FindsSharedPrefixAndSuffixOfProbeBatch) {
  common::Rng rng(41);
  const nn::Matrix base = random_window(12, 4, rng);
  std::vector<nn::Matrix> probes(5, base);
  for (std::size_t vi = 0; vi < probes.size(); ++vi) {
    probes[vi](7, 0) = 500.0 + static_cast<double>(vi);
  }
  const auto plan = plan_shared_rows(pointers(probes));
  EXPECT_EQ(plan.shared_prefix, 7u);
  EXPECT_EQ(plan.shared_suffix, 4u);
}

TEST(BatchPlanner, IdenticalWindowsAreAllPrefix) {
  common::Rng rng(43);
  const nn::Matrix base = random_window(6, 3, rng);
  const std::vector<nn::Matrix> copies(4, base);
  const auto plan = plan_shared_rows(pointers(copies));
  EXPECT_EQ(plan.shared_prefix, 6u);
  EXPECT_EQ(plan.shared_suffix, 0u);  // prefix already covers every row
}

TEST(BatchPlanner, SingleWindowIsFullyShared) {
  common::Rng rng(47);
  const std::vector<nn::Matrix> one{random_window(5, 2, rng)};
  const auto plan = plan_shared_rows(pointers(one));
  EXPECT_EQ(plan.shared_prefix, 5u);
  EXPECT_EQ(plan.shared_suffix, 0u);
}

TEST(BatchPlanner, GroupsByShapePreservingOrder) {
  common::Rng rng(53);
  std::vector<nn::Matrix> windows;
  windows.push_back(random_window(12, 4, rng));
  windows.push_back(random_window(8, 4, rng));
  windows.push_back(random_window(12, 4, rng));
  windows.push_back(random_window(8, 4, rng));
  const auto groups = group_probes(pointers(windows));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].indices, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(groups[1].indices, (std::vector<std::size_t>{1, 3}));
}

TEST(Registry, TrainsPersonalizedAndAggregate) {
  bgms::CohortConfig cohort_config = tiny_cohort_config();
  const auto cohort = bgms::generate_cohort(cohort_config);

  RegistryConfig config;
  config.forecaster = tiny_forecaster_config();
  config.forecaster.epochs = 2;
  config.train_window_step = 6;
  config.aggregate_window_step = 30;
  config.target_channel = bgms::kCgm;
  config.target_min = bgms::kMinGlucose;
  config.target_max = bgms::kMaxGlucose;

  std::vector<data::TelemetrySeries> series_storage;
  std::vector<std::string> names;
  series_storage.reserve(cohort.size());
  for (const auto& trace : cohort) {
    series_storage.push_back(bgms::to_series(trace.train));
    names.push_back(bgms::to_string(trace.params.id));
  }
  std::vector<const data::TelemetrySeries*> train_series;
  for (const auto& series : series_storage) train_series.push_back(&series);

  common::ThreadPool pool(8);
  const ModelRegistry registry = ModelRegistry::train(train_series, names, config, pool);
  EXPECT_EQ(registry.num_personalized(), 12u);

  data::WindowConfig window;
  window.step = 40;
  const auto series = bgms::to_series(cohort[0].test);
  const auto windows = data::make_windows(series, window);
  ASSERT_FALSE(windows.empty());
  // Both model kinds produce finite, plausible outputs.
  for (const auto& w : windows) {
    EXPECT_TRUE(std::isfinite(registry.personalized(0).predict(w.features)));
    EXPECT_TRUE(std::isfinite(registry.aggregate().predict(w.features)));
  }
}

TEST(Registry, OutOfRangeIndexThrows) {
  ModelRegistry registry;
  EXPECT_THROW((void)registry.personalized(0), common::PreconditionError);
}

}  // namespace
}  // namespace goodones::predict
