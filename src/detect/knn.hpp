// k-nearest-neighbors anomaly classifier.
//
// Mirrors the paper's scikit-learn KNeighborsClassifier configuration
// (Appendix B): 7 neighbors, uniform weights, Minkowski metric with p = 2.
// Supervised: trained on benign windows plus malicious windows from the
// simulated attack; a window is flagged when the majority of its k nearest
// training points are malicious.
//
// Queries are an exact brute-force scan. The reference points are stored
// once, column-major (dim x n), so the dispatched squared-distance kernel
// (nn::simd KernelTable::squared_distances) streams each column and
// computes many points per instruction; every point's sum still adds its
// coordinates in ascending order, bit-identical to a per-point loop. The
// neighbor heap orders by (distance, label), but for p = 2 a point only
// pays its sqrt and heap test while the heap is not yet full or when its
// squared distance is below the heap front's. IEEE sqrt is correctly
// rounded and hence monotone, so every skipped point would have failed the
// distance test anyway: the heap passes through exactly the states of an
// unfiltered scan and every vote is bitwise the same. Other orders p
// compute every distance.
#pragma once

#include <cstdint>

#include "detect/detector.hpp"

namespace goodones::detect {

struct KnnConfig {
  std::size_t k = 7;
  double minkowski_p = 2.0;
  /// Caps per-class training points (deterministic stride subsampling);
  /// 0 = unlimited. Brute-force queries are O(train size).
  std::size_t max_points_per_class = 6000;
};

class KnnDetector final : public AnomalyDetector {
 public:
  explicit KnnDetector(KnnConfig config = {});

  void fit(const std::vector<nn::Matrix>& benign,
           const std::vector<nn::Matrix>& malicious) override;

  /// Fraction of the k nearest neighbors that are malicious.
  double anomaly_score(const nn::Matrix& window) const override;

  /// Majority vote of the k nearest neighbors.
  bool flags(const nn::Matrix& window) const override;

  /// One scan per window with a neighbor heap shared across the batch;
  /// bitwise-identical to per-window anomaly_score.
  std::vector<double> score_batch(std::span<const nn::Matrix> windows) const override;

  bool flags_from_score(const nn::Matrix& /*window*/, double score) const override {
    return score > 0.5;
  }

  std::string name() const override { return "kNN"; }

  /// Persists config + training points (row-major, one point per row, so
  /// the artifact bytes do not depend on the in-memory layout); a reloaded
  /// detector votes bit-identically on every query.
  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  /// Per-sample classification, as in the paper's Fig. 5.
  InputGranularity granularity() const override { return InputGranularity::kSample; }

  std::size_t train_size() const noexcept { return labels_.size(); }

  /// Flattened training-point width (0 before fit).
  std::size_t input_width() const noexcept override { return columns_.rows(); }

 private:
  struct Neighbor {
    double key;   // what the scan filters on: squared distance for p = 2
    double dist;  // Minkowski distance; the heap orders by (dist, label)
    std::uint8_t label;
  };

  /// The one scan: k nearest reference points of `window`, read in place
  /// as its row-major flattening. `heap` is caller-owned scratch so a batch
  /// allocates it once.
  double malicious_neighbor_fraction(const nn::Matrix& window,
                                     std::vector<Neighbor>& heap) const;

  KnnConfig config_;
  nn::Matrix columns_;  // train points column-major: dim x n, column j = point j
  std::vector<std::uint8_t> labels_;  // 1 = malicious
};

}  // namespace goodones::detect
