// MAD-GAN: multivariate time-series anomaly detection with an LSTM GAN
// (Li et al., ICANN 2019), as used by the paper's third defense.
//
// Generator: per-step latent noise -> LSTM -> time-distributed dense ->
// synthetic telemetry window. Discriminator: LSTM -> dense -> P(real).
// Anomaly score is the paper's DR-score: a convex combination of the
// discrimination score (1 - D(x)) and the reconstruction error after
// inverting the generator in latent space by gradient descent — both made
// possible by our LSTM's exact input gradients.
//
// Paper Appendix-B settings carried over: epochs = 100, signals = 4,
// sequence length = 12, step = 1.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "detect/detector.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"

namespace goodones::detect {

struct MadGanConfig {
  std::size_t epochs = 100;          ///< paper Appendix B
  std::size_t num_signals = 4;       ///< paper Appendix B
  std::size_t seq_len = 12;          ///< paper Appendix B
  std::size_t latent_dim = 4;
  std::size_t hidden = 32;
  std::size_t batch_size = 32;
  double learning_rate = 1e-3;
  double grad_clip = 2.0;

  // DR-score.
  double dr_lambda = 0.5;            ///< weight of the discrimination term
  std::size_t inversion_steps = 25;  ///< latent gradient-descent iterations
  double inversion_lr = 0.15;
  double threshold_quantile = 0.95;  ///< benign-score quantile -> decision threshold

  // Budget caps (deterministic stride subsampling).
  std::size_t max_train_windows = 3000;
  std::size_t calibration_windows = 256;

  std::uint64_t seed = 99;
};

class MadGan final : public AnomalyDetector {
 public:
  explicit MadGan(MadGanConfig config = {});

  /// Unsupervised: trains the GAN on `benign` only, then calibrates the
  /// DR-score threshold on a benign subsample.
  void fit(const std::vector<nn::Matrix>& benign,
           const std::vector<nn::Matrix>& malicious) override;

  /// DR-score: lambda * (1 - D(x)) + (1 - lambda) * normalized reconstruction.
  double anomaly_score(const nn::Matrix& window) const override;

  bool flags(const nn::Matrix& window) const override;

  /// Batched DR-scores for a request's windows. The discrimination term
  /// runs the whole batch through one nn::Lstm::run_batch; the latent
  /// inversion batches every gradient step's forward and backward pass
  /// across windows (reconstruction_errors) — the per-window path runs the
  /// same inversion over a batch of one. Scores are bitwise-identical to
  /// anomaly_score.
  std::vector<double> score_batch(std::span<const nn::Matrix> windows) const override;

  bool flags_from_score(const nn::Matrix& /*window*/, double score) const override {
    return score > threshold_;
  }

  std::string name() const override { return "MAD-GAN"; }

  /// Persists config, both nets' parameters, the fixed inversion start and
  /// the calibration scalars; a reloaded detector's DR-scores are
  /// bit-identical (the latent inversion is deterministic).
  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  /// Multivariate time-series windows (paper Appendix B: seq_len 12).
  InputGranularity granularity() const override { return InputGranularity::kWindow; }

  double threshold() const noexcept { return threshold_; }

  /// Window channel count (num_signals; known from construction).
  std::size_t input_width() const noexcept override { return config_.num_signals; }

  /// Score components, exposed for tests and diagnostics.
  double discrimination_score(const nn::Matrix& window) const;
  double reconstruction_error(const nn::Matrix& window) const;

  /// Generates one synthetic window from noise (diagnostics / examples).
  nn::Matrix generate(common::Rng& rng) const;

 private:
  struct Generator {
    nn::Lstm lstm;
    nn::Dense projection;
    Generator(const MadGanConfig& config, common::Rng& rng);
  };
  struct Discriminator {
    nn::Lstm lstm;
    nn::Dense head;
    Discriminator(const MadGanConfig& config, common::Rng& rng);
  };

  nn::Matrix sample_latent(common::Rng& rng) const;
  /// Latent-inversion reconstruction error of each window (seq_len x
  /// num_signals): gradient descent in latent space from the fixed start,
  /// batched across windows; each value is that window's alone.
  std::vector<double> reconstruction_errors(std::span<const nn::Matrix> windows) const;
  /// Both nets' parameters in a stable order (generator LSTM, generator
  /// projection, discriminator LSTM, discriminator head).
  nn::ParamRefs gan_parameters();
  static nn::Matrix generator_forward(const Generator& g, const nn::Matrix& z,
                                      nn::Lstm::Cache& lstm_cache,
                                      nn::Dense::Cache& proj_cache);
  static double discriminator_forward(const Discriminator& d, const nn::Matrix& x,
                                      nn::Lstm::Cache& lstm_cache,
                                      nn::Dense::Cache& head_cache);

  MadGanConfig config_;
  common::Rng init_rng_;  // declared before the nets: deterministic init order
  Generator generator_;
  Discriminator discriminator_;
  nn::Matrix inversion_z0_;   // fixed inversion start -> deterministic scores
  double recon_reference_ = 1.0;
  double threshold_ = 0.5;
  bool fitted_ = false;
};

}  // namespace goodones::detect
