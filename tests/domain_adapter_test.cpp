// Tests for the engine/domain seam: the synthetic sensor-fleet domain runs
// the full five-step pipeline end to end (living proof the seam is real),
// the domain registry resolves both built-in domains, and a regression pin
// holds the BGMS adapter numerically to the pre-refactor pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/framework.hpp"
#include "domains/bgms/adapter.hpp"
#include "domains/registry.hpp"
#include "domains/synthtel/adapter.hpp"

namespace goodones::core {
namespace {

// --- registry ---------------------------------------------------------------

TEST(DomainRegistry, ResolvesBuiltInDomains) {
  const auto names = domains::available_domains();
  ASSERT_EQ(names.size(), 3u);  // bgms, synthtel, av
  for (const auto& name : names) {
    const auto domain = domains::make_domain(name);
    ASSERT_NE(domain, nullptr);
    EXPECT_EQ(domain->spec().name, name);
    EXPECT_GT(domain->spec().num_channels, 0u);
    EXPECT_LT(domain->spec().target_channel, domain->spec().num_channels);
  }
  EXPECT_THROW((void)domains::make_domain("no_such_domain"), common::PreconditionError);
}

TEST(DomainRegistry, PrepareStampsDomainSemantics) {
  const auto domain = domains::make_domain("synthtel");
  const FrameworkConfig config = domain->prepare(FrameworkConfig::fast());
  const auto& spec = domain->spec();
  EXPECT_EQ(config.registry.target_channel, spec.target_channel);
  EXPECT_DOUBLE_EQ(config.registry.target_max, spec.target_max);
  EXPECT_DOUBLE_EQ(config.profiling_campaign.attack.thresholds.high_baseline,
                   spec.thresholds.high_baseline);
  EXPECT_DOUBLE_EQ(config.evaluation_campaign.attack.box_max, spec.attack_box_max);
  EXPECT_DOUBLE_EQ(config.profiling_campaign.attack.harm_threshold,
                   spec.attack_harm_threshold);
}

TEST(DomainRegistry, FrameworkRejectsUnpreparedConfig) {
  const auto domain = domains::make_domain("synthtel");
  // FrameworkConfig::fast() without prepare(): registry scaling disagrees
  // with the synthtel spec, which the constructor must reject.
  EXPECT_THROW(RiskProfilingFramework(domain, FrameworkConfig::fast()),
               common::PreconditionError);
}

// --- synthtel end to end (steps 1-5) ---------------------------------------

std::shared_ptr<const DomainAdapter> tiny_fleet() {
  static const auto domain = std::make_shared<synthtel::SynthtelDomain>(3);
  return domain;
}

FrameworkConfig tiny_fleet_config() {
  FrameworkConfig config = tiny_fleet()->prepare(FrameworkConfig::fast());
  config.population.train_steps = 1500;
  config.population.test_steps = 500;
  config.population.seed = 99;
  config.registry.forecaster.hidden = 8;
  config.registry.forecaster.head_hidden = 6;
  config.registry.forecaster.epochs = 2;
  config.registry.train_window_step = 8;
  config.registry.aggregate_window_step = 50;
  config.profiling_campaign.window_step = 12;
  config.evaluation_campaign.window_step = 12;
  config.detector_benign_stride = 12;
  config.detectors.knn.max_points_per_class = 500;
  config.random_runs = 2;
  config.random_victims = 2;
  config.seed = 31337;
  return config;
}

RiskProfilingFramework& fleet_framework() {
  static RiskProfilingFramework framework(tiny_fleet(), tiny_fleet_config());
  return framework;
}

TEST(SynthtelDomain, GeneratesTwoSubsetFleet) {
  const auto& entities = fleet_framework().entities();
  ASSERT_EQ(entities.size(), 6u);  // 3 nodes per subset
  EXPECT_EQ(entities[0].name, "SA_0");
  EXPECT_EQ(entities[3].name, "SB_0");
  EXPECT_EQ(entities[0].subset, 0u);
  EXPECT_EQ(entities[3].subset, 1u);
  for (const auto& e : entities) {
    EXPECT_EQ(e.train.num_channels(), synthtel::kNumChannels);
    EXPECT_EQ(e.train.steps(), 1500u);
    EXPECT_EQ(e.test.steps(), 500u);
  }
}

TEST(SynthtelDomain, Steps1Through4ProduceProfilesAndClusters) {
  const auto& profiling = fleet_framework().profiling();
  ASSERT_EQ(profiling.profiles.size(), 6u);
  for (const auto& profile : profiling.profiles) {
    EXPECT_FALSE(profile.values.empty());
    for (const double r : profile.values) {
      ASSERT_GE(r, 0.0);
      ASSERT_TRUE(std::isfinite(r));
    }
  }
  // Step 4: one dendrogram per subset, clusters partition the fleet.
  ASSERT_EQ(profiling.dendrograms.size(), 2u);
  EXPECT_EQ(profiling.dendrograms[0].num_leaves(), 3u);
  std::set<std::size_t> all;
  for (const auto n : profiling.clusters.less_vulnerable) all.insert(n);
  for (const auto n : profiling.clusters.more_vulnerable) all.insert(n);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_FALSE(profiling.clusters.less_vulnerable.empty());
  EXPECT_FALSE(profiling.clusters.more_vulnerable.empty());
  // Benign normal ratios are probabilities.
  for (const double r : profiling.benign_normal_ratio) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(SynthtelDomain, Step5TrainsAndEvaluatesDetectors) {
  auto& framework = fleet_framework();
  const auto eval = framework.evaluate_strategy(
      detect::DetectorKind::kKnn, framework.profiling().clusters.less_vulnerable);
  EXPECT_EQ(eval.per_victim.size(), 6u);
  EXPECT_GT(eval.pooled.total(), 0u);
  EXPECT_GT(eval.train_benign, 0u);
  EXPECT_GT(eval.train_malicious, 0u);
  // Metrics are well-defined probabilities.
  EXPECT_GE(eval.pooled.recall(), 0.0);
  EXPECT_LE(eval.pooled.recall(), 1.0);
  EXPECT_GE(eval.pooled.precision(), 0.0);
  EXPECT_LE(eval.pooled.precision(), 1.0);
}

TEST(SynthtelDomain, SampleFeaturesUseDomainContextChannels) {
  auto& framework = fleet_framework();
  const auto samples = framework.benign_train_samples(0);
  ASSERT_FALSE(samples.empty());
  // 3 channels + 1 rolling context sum (the event channel).
  EXPECT_EQ(samples.front().cols(), synthtel::kNumChannels + 1);
}

// --- BGMS regression pin ----------------------------------------------------

/// Pins the BGMS adapter against the pre-refactor pipeline: same seeds must
/// keep producing the same step-1/2/3 numbers. The constants below were
/// produced by the miniature configuration at the refactor boundary; any
/// drift means the adapter no longer reproduces the original pipeline.
constexpr double kPinnedAttackRateA2 = 1.0;
constexpr double kPinnedAttackRateA5 = 0.022222222222222223;
constexpr double kPinnedProfileMeanA2 = 3888479.5126297241;
constexpr double kPinnedNormalRatioA5 = 0.83250000000000002;
/// FNV-1a-64 over the concatenated save_artifact bytes of the 13 trained
/// forecasters (personalized in entity order, then aggregate): pins
/// training itself, not only the numbers derived from it.
constexpr std::uint64_t kPinnedModelsHash = 0x292fdbbf3f7cd227ULL;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(BgmsRegression, ProfilingNumbersAreStable) {
  const auto domain = std::make_shared<bgms::BgmsDomain>();
  FrameworkConfig config = domain->prepare(FrameworkConfig::fast());
  config.population.train_steps = 900;
  config.population.test_steps = 300;
  config.population.seed = 2025;
  config.registry.forecaster.hidden = 8;
  config.registry.forecaster.head_hidden = 6;
  config.registry.forecaster.epochs = 2;
  config.registry.train_window_step = 12;
  config.registry.aggregate_window_step = 60;
  config.profiling_campaign.window_step = 15;
  config.profiling_campaign.attack.harm_threshold = 220.0;
  config.seed = 2025;

  RiskProfilingFramework framework(domain, config);
  const auto& profiling = framework.profiling();
  ASSERT_EQ(profiling.profiles.size(), 12u);

  // Values pinned at the refactor boundary (see CHANGES.md, PR 1).
  EXPECT_EQ(profiling.train_attack_rates[2].overall_rate(), kPinnedAttackRateA2);
  EXPECT_EQ(profiling.train_attack_rates[5].overall_rate(), kPinnedAttackRateA5);
  EXPECT_EQ(profiling.profiles[2].mean(), kPinnedProfileMeanA2);
  EXPECT_EQ(profiling.benign_normal_ratio[5], kPinnedNormalRatioA5);

  const predict::ModelRegistry& models = framework.models();
  ASSERT_EQ(models.num_personalized(), 12u);
  std::ostringstream artifacts;
  for (std::size_t i = 0; i < models.num_personalized(); ++i) {
    models.personalized(i).save_artifact(artifacts);
  }
  models.aggregate().save_artifact(artifacts);
  EXPECT_EQ(fnv1a64(artifacts.str()), kPinnedModelsHash);
}

}  // namespace
}  // namespace goodones::core
