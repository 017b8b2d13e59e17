#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "detect/factory.hpp"
#include "detect/knn.hpp"
#include "detect/madgan.hpp"
#include "detect/ocsvm.hpp"

namespace goodones::detect {
namespace {

/// Synthetic telemetry windows: benign = flat traces near `level` with small
/// noise; malicious = traces pushed into a far-away band (mimicking the CGM
/// manipulation, which forces values >= 125/180 while benign sits ~0.15 in
/// scaled units).
nn::Matrix make_window(common::Rng& rng, double level, double noise, std::size_t steps = 12,
                       std::size_t channels = 4) {
  nn::Matrix w(steps, channels);
  for (std::size_t t = 0; t < steps; ++t) {
    w(t, 0) = level + rng.normal(0.0, noise);
    w(t, 1) = 0.5;
    w(t, 2) = 0.0;
    w(t, 3) = 0.0;
  }
  return w;
}

std::vector<nn::Matrix> make_windows(common::Rng& rng, std::size_t n, double level,
                                     double noise) {
  std::vector<nn::Matrix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(make_window(rng, level, noise));
  return out;
}

TEST(Knn, SeparatesWellSeparatedClasses) {
  common::Rng rng(5);
  const auto benign = make_windows(rng, 120, 0.15, 0.02);
  const auto malicious = make_windows(rng, 120, 0.8, 0.02);
  KnnDetector detector;
  detector.fit(benign, malicious);

  common::Rng test_rng(6);
  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    correct += detector.flags(make_window(test_rng, 0.8, 0.02)) ? 1 : 0;
    correct += !detector.flags(make_window(test_rng, 0.15, 0.02)) ? 1 : 0;
  }
  EXPECT_GE(correct, 78);  // ~100% on this trivially separable data
}

TEST(Knn, ScoreIsNeighborFraction) {
  common::Rng rng(7);
  const auto benign = make_windows(rng, 50, 0.1, 0.01);
  const auto malicious = make_windows(rng, 50, 0.9, 0.01);
  KnnDetector detector;
  detector.fit(benign, malicious);
  common::Rng test_rng(8);
  const double benign_score = detector.anomaly_score(make_window(test_rng, 0.1, 0.01));
  const double malicious_score = detector.anomaly_score(make_window(test_rng, 0.9, 0.01));
  EXPECT_GE(benign_score, 0.0);
  EXPECT_LE(benign_score, 1.0);
  EXPECT_LT(benign_score, 0.5);
  EXPECT_GT(malicious_score, 0.5);
}

TEST(Knn, SubsamplingCapsTrainingSet) {
  common::Rng rng(9);
  KnnConfig config;
  config.max_points_per_class = 30;
  KnnDetector detector(config);
  detector.fit(make_windows(rng, 100, 0.2, 0.05), make_windows(rng, 80, 0.8, 0.05));
  EXPECT_EQ(detector.train_size(), 60u);
}

TEST(Knn, RequiresBothClasses) {
  common::Rng rng(11);
  KnnDetector detector;
  const auto benign = make_windows(rng, 10, 0.2, 0.02);
  EXPECT_THROW(detector.fit(benign, {}), common::PreconditionError);
  EXPECT_THROW(detector.fit({}, benign), common::PreconditionError);
}

TEST(Knn, RejectsBadConfig) {
  KnnConfig config;
  config.k = 0;
  EXPECT_THROW(KnnDetector{config}, common::PreconditionError);
}

TEST(Knn, NameMatchesPaper) {
  EXPECT_EQ(KnnDetector{}.name(), "kNN");
}

// --- kNN scan property ------------------------------------------------------
//
// The detector's pruned column-major scan against a plain reference scan:
// row-major points, one full distance per point, a std::pair
// (distance, label) max-heap. Seeded trials draw dim 1-8, k 1-9 and a
// log-distributed 2-7000 reference points (some trials tiny, so k > n);
// quantized grids force exact distance ties and duplicate points.

double reference_minkowski(const std::vector<double>& a, std::span<const double> b, double p) {
  double sum = 0.0;
  if (p == 2.0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      sum += d * d;
    }
    return std::sqrt(sum);
  }
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::pow(std::abs(a[i] - b[i]), p);
  return std::pow(sum, 1.0 / p);
}

double reference_knn_score(const std::vector<std::vector<double>>& points,
                           const std::vector<std::uint8_t>& labels, const KnnConfig& config,
                           const std::vector<double>& query) {
  const std::size_t k = std::min(config.k, points.size());
  std::vector<std::pair<double, std::uint8_t>> heap;
  for (std::size_t r = 0; r < points.size(); ++r) {
    const double dist = reference_minkowski(query, points[r], config.minkowski_p);
    if (heap.size() < k) {
      heap.emplace_back(dist, labels[r]);
      std::push_heap(heap.begin(), heap.end());
    } else if (dist < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist, labels[r]};
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::size_t malicious = 0;
  for (const auto& [dist, label] : heap) malicious += label;
  return static_cast<double>(malicious) / static_cast<double>(heap.size());
}

class KnnScanProperty : public ::testing::Test {
 protected:
  common::Rng rng_{0x4B4E4E5C};

  /// Log-uniform integer in [lo, hi]: small sizes are as likely as large.
  std::size_t random_size_log(std::size_t lo, std::size_t hi) {
    const double v = std::exp(rng_.uniform(std::log(lo + 1.0), std::log(hi + 1.0))) - 1.0;
    return std::clamp(static_cast<std::size_t>(v), lo, hi);
  }

  /// A window of `dim` values, either continuous or on a coarse grid.
  nn::Matrix random_point(std::size_t dim, bool grid) {
    nn::Matrix w(dim % 2 == 0 ? 2 : 1, dim % 2 == 0 ? dim / 2 : dim);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.data()[i] = grid ? 0.25 * static_cast<double>(rng_.uniform_int(0, 3))
                         : rng_.uniform(-1.0, 1.0);
    }
    return w;
  }
};

TEST_F(KnnScanProperty, MatchesReferenceScanOnEveryPath) {
  for (int trial = 0; trial < 40; ++trial) {
    const auto dim = static_cast<std::size_t>(rng_.uniform_int(1, 8));
    const std::size_t per_class = trial % 8 == 7 ? 4 : 3500;  // some trials have k > n
    const std::size_t n_benign = random_size_log(1, per_class);
    const std::size_t n_malicious = random_size_log(1, per_class);
    const bool grid = trial % 3 == 0;
    KnnConfig config;
    config.k = static_cast<std::size_t>(rng_.uniform_int(1, 9));
    config.minkowski_p = trial % 4 == 1 ? 1.5 : 2.0;
    config.max_points_per_class = 0;

    std::vector<nn::Matrix> benign;
    std::vector<nn::Matrix> malicious;
    std::vector<std::vector<double>> points;
    std::vector<std::uint8_t> labels;
    for (std::size_t i = 0; i < n_benign + n_malicious; ++i) {
      const bool is_malicious = i >= n_benign;
      (is_malicious ? malicious : benign).push_back(random_point(dim, grid));
      const nn::Matrix& w = is_malicious ? malicious.back() : benign.back();
      points.emplace_back(w.data(), w.data() + w.size());
      labels.push_back(is_malicious ? 1 : 0);
    }
    KnnDetector detector(config);
    detector.fit(benign, malicious);

    std::vector<nn::Matrix> queries;
    for (int q = 0; q < 6; ++q) queries.push_back(random_point(dim, grid));
    queries.push_back(benign.front());  // exact zero distances
    queries.push_back(malicious.back());

    std::stringstream artifact;
    detector.save(artifact);
    KnnDetector loaded;
    loaded.load(artifact);

    const auto batched = detector.score_batch(queries);
    const auto reloaded = loaded.score_batch(queries);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::vector<double> flat(queries[q].data(), queries[q].data() + dim);
      const double expected = reference_knn_score(points, labels, config, flat);
      SCOPED_TRACE(::testing::Message() << "trial=" << trial << " q=" << q << " dim=" << dim
                                        << " n=" << points.size() << " k=" << config.k
                                        << " p=" << config.minkowski_p << " grid=" << grid);
      EXPECT_EQ(detector.anomaly_score(queries[q]), expected);
      EXPECT_EQ(batched[q], expected);
      EXPECT_EQ(reloaded[q], expected);
      EXPECT_EQ(detector.flags(queries[q]), expected > 0.5);
      EXPECT_EQ(loaded.flags(queries[q]), expected > 0.5);
    }
  }
}

class OcsvmKernelSweep : public ::testing::TestWithParam<Kernel> {};

TEST_P(OcsvmKernelSweep, FlagsFarOutliers) {
  common::Rng rng(13);
  const auto benign = make_windows(rng, 200, 0.2, 0.03);
  OcsvmConfig config;
  config.kernel = GetParam();
  config.coef0 = 0.25;  // non-saturating for sigmoid
  config.nu = 0.1;
  OneClassSvm detector(config);
  detector.fit(benign, {});

  common::Rng test_rng(14);
  int flagged_outliers = 0;
  for (int i = 0; i < 25; ++i) {
    flagged_outliers += detector.flags(make_window(test_rng, 0.95, 0.01)) ? 1 : 0;
  }
  EXPECT_GE(flagged_outliers, 22) << "kernel " << static_cast<int>(GetParam());
}

// Only the kernels the reproduction uses are expected to discriminate:
// linear/poly one-class SVMs are degenerate on z-scored (centered) data
// because the learned direction collapses toward the near-zero data mean.
INSTANTIATE_TEST_SUITE_P(Kernels, OcsvmKernelSweep,
                         ::testing::Values(Kernel::kRbf, Kernel::kSigmoid));

class OcsvmDegenerateKernelSweep : public ::testing::TestWithParam<Kernel> {};

TEST_P(OcsvmDegenerateKernelSweep, FitsAndScoresFinitely) {
  common::Rng rng(13);
  OcsvmConfig config;
  config.kernel = GetParam();
  config.coef0 = 0.25;
  config.nu = 0.1;
  OneClassSvm detector(config);
  detector.fit(make_windows(rng, 150, 0.2, 0.03), {});
  common::Rng test_rng(14);
  EXPECT_TRUE(std::isfinite(detector.anomaly_score(make_window(test_rng, 0.95, 0.01))));
  EXPECT_GT(detector.num_support_vectors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(DegenerateKernels, OcsvmDegenerateKernelSweep,
                         ::testing::Values(Kernel::kLinear, Kernel::kPoly));

TEST(Ocsvm, NuControlsTrainingOutlierFraction) {
  // Schölkopf's nu-property: at most a nu fraction of training points end up
  // outside the learned region (approximately, for separable-ish data).
  common::Rng rng(17);
  const auto benign = make_windows(rng, 400, 0.3, 0.05);
  OcsvmConfig config;
  config.kernel = Kernel::kRbf;
  config.nu = 0.5;  // the paper's setting
  OneClassSvm detector(config);
  detector.fit(benign, {});

  std::size_t flagged = 0;
  for (const auto& w : benign) flagged += detector.flags(w) ? 1 : 0;
  const double fraction = static_cast<double>(flagged) / static_cast<double>(benign.size());
  EXPECT_NEAR(fraction, 0.5, 0.12);
}

TEST(Ocsvm, ProducesSupportVectors) {
  common::Rng rng(19);
  OcsvmConfig config;
  config.kernel = Kernel::kRbf;
  config.nu = 0.3;
  OneClassSvm detector(config);
  detector.fit(make_windows(rng, 150, 0.25, 0.04), {});
  EXPECT_GT(detector.num_support_vectors(), 0u);
  EXPECT_LE(detector.num_support_vectors(), 150u);
  EXPECT_GT(detector.iterations_used(), 0u);
}

TEST(Ocsvm, ScoreSignMatchesDecision) {
  common::Rng rng(23);
  OcsvmConfig config;
  config.kernel = Kernel::kRbf;
  config.nu = 0.2;
  OneClassSvm detector(config);
  detector.fit(make_windows(rng, 150, 0.2, 0.03), {});
  common::Rng test_rng(24);
  for (int i = 0; i < 20; ++i) {
    const auto w = make_window(test_rng, test_rng.uniform(0.0, 1.0), 0.05);
    EXPECT_EQ(detector.flags(w), detector.anomaly_score(w) > 0.0);
  }
}

TEST(Ocsvm, RequiresAtLeastTwoPoints) {
  common::Rng rng(29);
  OneClassSvm detector;
  EXPECT_THROW(detector.fit(make_windows(rng, 1, 0.2, 0.02), {}), common::PreconditionError);
}

TEST(Ocsvm, RejectsBadNu) {
  OcsvmConfig config;
  config.nu = 0.0;
  EXPECT_THROW(OneClassSvm{config}, common::PreconditionError);
  config.nu = 1.5;
  EXPECT_THROW(OneClassSvm{config}, common::PreconditionError);
}

TEST(Ocsvm, PaperConfigSigmoidCoef10StillRuns) {
  // Appendix-B parameters verbatim: the sigmoid kernel saturates (see
  // ocsvm.hpp) but fitting and scoring must remain well-defined.
  common::Rng rng(31);
  OcsvmConfig config;  // kernel=sigmoid, coef0=10, nu=0.5 are the defaults
  OneClassSvm detector(config);
  detector.fit(make_windows(rng, 100, 0.3, 0.05), {});
  common::Rng test_rng(32);
  EXPECT_TRUE(std::isfinite(detector.anomaly_score(make_window(test_rng, 0.9, 0.01))));
}

MadGanConfig tiny_madgan_config() {
  MadGanConfig config;
  config.epochs = 6;
  config.hidden = 12;
  config.latent_dim = 3;
  config.max_train_windows = 220;
  config.calibration_windows = 64;
  config.inversion_steps = 10;
  config.seed = 77;
  return config;
}

TEST(MadGan, MaliciousScoresExceedBenign) {
  common::Rng rng(37);
  const auto benign = make_windows(rng, 300, 0.2, 0.03);
  MadGan detector(tiny_madgan_config());
  detector.fit(benign, {});

  common::Rng test_rng(38);
  double benign_mean = 0.0;
  double malicious_mean = 0.0;
  const int n = 15;
  for (int i = 0; i < n; ++i) {
    benign_mean += detector.anomaly_score(make_window(test_rng, 0.2, 0.03));
    malicious_mean += detector.anomaly_score(make_window(test_rng, 0.85, 0.02));
  }
  EXPECT_GT(malicious_mean / n, benign_mean / n);
}

TEST(MadGan, FlagsFarOutliersAfterCalibration) {
  common::Rng rng(41);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 300, 0.2, 0.03), {});
  common::Rng test_rng(42);
  int flagged = 0;
  for (int i = 0; i < 20; ++i) {
    flagged += detector.flags(make_window(test_rng, 0.9, 0.01)) ? 1 : 0;
  }
  EXPECT_GE(flagged, 16);
}

TEST(MadGan, BenignFalsePositiveRateNearQuantile) {
  common::Rng rng(43);
  const auto benign = make_windows(rng, 300, 0.2, 0.03);
  auto config = tiny_madgan_config();
  config.threshold_quantile = 0.95;
  MadGan detector(config);
  detector.fit(benign, {});
  common::Rng test_rng(44);
  int flagged = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    flagged += detector.flags(make_window(test_rng, 0.2, 0.03)) ? 1 : 0;
  }
  EXPECT_LE(static_cast<double>(flagged) / n, 0.25);  // ~5% nominal, generous bound
}

TEST(MadGan, ScoringIsDeterministic) {
  common::Rng rng(47);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 200, 0.25, 0.03), {});
  common::Rng test_rng(48);
  const auto w = make_window(test_rng, 0.6, 0.02);
  EXPECT_DOUBLE_EQ(detector.anomaly_score(w), detector.anomaly_score(w));
}

TEST(MadGan, SeededScoresArePinnedBitwise) {
  // Bits of a seeded fit + inversion: training (including the generator
  // update, which needs parameter gradients only) and scoring must keep
  // producing exactly these scores on every SIMD lane.
  common::Rng rng(81);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 200, 0.25, 0.03), {});
  common::Rng test_rng(82);
  const double expected[] = {0x1.7e97f7b079117p-1, 0x1.5a91fc9c954c4p-1, 0x1.5cc025b5e6f3ep-1,
                             0x1.8d83539d7cddep-1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(detector.anomaly_score(make_window(test_rng, 0.15 + 0.2 * i, 0.03)), expected[i])
        << "window " << i;
  }
}

TEST(MadGan, GeneratorOutputHasSignalShapeAndRange) {
  common::Rng rng(53);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 150, 0.3, 0.05), {});
  common::Rng gen_rng(54);
  const auto synthetic = detector.generate(gen_rng);
  EXPECT_EQ(synthetic.rows(), 12u);
  EXPECT_EQ(synthetic.cols(), 4u);
  for (std::size_t t = 0; t < synthetic.rows(); ++t) {
    for (const double v : synthetic.row(t)) {
      ASSERT_GE(v, 0.0);  // sigmoid output head
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(MadGan, ScoreRequiresFit) {
  MadGan detector(tiny_madgan_config());
  common::Rng rng(55);
  EXPECT_THROW((void)detector.anomaly_score(make_window(rng, 0.5, 0.01)),
               common::PreconditionError);
}

TEST(MadGan, DrLambdaBlendsComponents) {
  common::Rng rng(59);
  const auto benign = make_windows(rng, 200, 0.25, 0.03);
  auto config = tiny_madgan_config();
  config.dr_lambda = 1.0;  // pure discrimination
  MadGan disc_only(config);
  disc_only.fit(benign, {});
  common::Rng test_rng(60);
  const auto w = make_window(test_rng, 0.5, 0.02);
  EXPECT_NEAR(disc_only.anomaly_score(w), disc_only.discrimination_score(w), 1e-12);
}

// --- score_batch parity -----------------------------------------------------
//
// The serving path makes ONE score_batch call per (entity, request); the
// contract is that batching is purely an execution strategy — every batched
// score must be BITWISE identical to the per-window anomaly_score, for
// MAD-GAN's batched inversion and the base-class fallback (OneClassSVM)
// alike. kNN's batch path is covered by KnnScanProperty above.

template <typename Detector>
void expect_batched_scores_bitwise_identical(const Detector& detector,
                                             const std::vector<nn::Matrix>& queries) {
  const std::vector<double> batched =
      detector.score_batch(std::span<const nn::Matrix>(queries));
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double scalar = detector.anomaly_score(queries[i]);
    EXPECT_EQ(batched[i], scalar) << "window " << i << " drifted";
    EXPECT_EQ(detector.flags_from_score(queries[i], batched[i]), detector.flags(queries[i]))
        << "window " << i;
  }
  EXPECT_TRUE(detector.score_batch(std::span<const nn::Matrix>()).empty());
}

TEST(ScoreBatchParity, OcsvmDefaultLoopIsBitwiseIdentical) {
  common::Rng rng(73);
  OneClassSvm detector;
  detector.fit(make_windows(rng, 120, 0.3, 0.05), {});
  common::Rng test_rng(74);
  std::vector<nn::Matrix> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(make_window(test_rng, 0.2 + 0.12 * i, 0.03));
  expect_batched_scores_bitwise_identical(detector, queries);
}

TEST(ScoreBatchParity, MadGanBatchedInversionIsBitwiseIdentical) {
  common::Rng rng(75);
  MadGan detector(tiny_madgan_config());
  detector.fit(make_windows(rng, 200, 0.25, 0.03), {});
  common::Rng test_rng(76);
  std::vector<nn::Matrix> queries;
  for (int i = 0; i < 7; ++i) queries.push_back(make_window(test_rng, 0.1 + 0.12 * i, 0.03));
  expect_batched_scores_bitwise_identical(detector, queries);
  // Batch of one is the degenerate case the packing must also get right.
  expect_batched_scores_bitwise_identical(
      detector, std::vector<nn::Matrix>{queries.front()});
}

TEST(Factory, BuildsAllKindsWithMatchingNames) {
  const DetectorSuiteConfig config;
  EXPECT_EQ(make_detector(DetectorKind::kKnn, config)->name(), "kNN");
  EXPECT_EQ(make_detector(DetectorKind::kOcsvm, config)->name(), "OneClassSVM");
  EXPECT_EQ(make_detector(DetectorKind::kMadGan, config)->name(), "MAD-GAN");
  EXPECT_STREQ(to_string(DetectorKind::kMadGan), "MAD-GAN");
}

}  // namespace
}  // namespace goodones::detect
