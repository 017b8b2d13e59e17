#include "detect/knn.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <tuple>

#include "common/error.hpp"
#include "nn/serialize.hpp"
#include "nn/simd.hpp"

namespace goodones::detect {

namespace {

constexpr std::uint32_t kKnnTag = 0x4B4E4E44;  // "KNND"

/// Reference points scored per kernel call: the chunk's keys stay in L1
/// between the distance pass and the heap pass.
constexpr std::size_t kChunkRows = 256;

/// Minkowski distances of order p (p != 2) from `query` to n column-major
/// points, each summed in ascending coordinate order.
void minkowski_distances(const double* query, const double* cols, std::size_t ld,
                         std::size_t n, std::size_t dim, double p, double* out) {
  std::fill(out, out + n, 0.0);
  for (std::size_t c = 0; c < dim; ++c) {
    const double* col = cols + c * ld;
    for (std::size_t r = 0; r < n; ++r) out[r] += std::pow(std::abs(query[c] - col[r]), p);
  }
  for (std::size_t r = 0; r < n; ++r) out[r] = std::pow(out[r], 1.0 / p);
}

/// Deterministic stride subsample of `windows` down to at most `cap` rows.
std::vector<const nn::Matrix*> subsample(const std::vector<nn::Matrix>& windows,
                                         std::size_t cap) {
  std::vector<const nn::Matrix*> out;
  if (cap == 0 || windows.size() <= cap) {
    out.reserve(windows.size());
    for (const auto& w : windows) out.push_back(&w);
    return out;
  }
  out.reserve(cap);
  const double stride = static_cast<double>(windows.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(&windows[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

}  // namespace

KnnDetector::KnnDetector(KnnConfig config) : config_(config) {
  GO_EXPECTS(config_.k >= 1);
  GO_EXPECTS(config_.minkowski_p > 0.0);
}

void KnnDetector::fit(const std::vector<nn::Matrix>& benign,
                      const std::vector<nn::Matrix>& malicious) {
  GO_EXPECTS(!benign.empty());
  GO_EXPECTS(!malicious.empty());  // kNN is supervised: needs both classes

  const auto benign_sample = subsample(benign, config_.max_points_per_class);
  const auto malicious_sample = subsample(malicious, config_.max_points_per_class);

  const std::size_t dim = benign_sample.front()->size();
  const std::size_t n = benign_sample.size() + malicious_sample.size();
  columns_ = nn::Matrix(dim, n);
  labels_.assign(n, 0);

  std::size_t j = 0;
  const auto append = [&](const std::vector<const nn::Matrix*>& sample, std::uint8_t label) {
    for (const nn::Matrix* w : sample) {
      GO_EXPECTS(w->size() == dim);
      for (std::size_t c = 0; c < dim; ++c) columns_(c, j) = w->data()[c];
      labels_[j++] = label;
    }
  };
  append(benign_sample, 0);
  append(malicious_sample, 1);
}

double KnnDetector::malicious_neighbor_fraction(const nn::Matrix& window,
                                                std::vector<Neighbor>& heap) const {
  const std::size_t n = labels_.size();
  const std::size_t dim = columns_.rows();
  GO_EXPECTS(n > 0);
  GO_EXPECTS(window.size() == dim);
  const std::size_t k = std::min(config_.k, n);
  const bool euclidean = config_.minkowski_p == 2.0;
  const nn::simd::KernelTable& kernels = nn::simd::active();

  // Max-heap of the best k seen so far, ordered lexicographically by
  // (dist, label): equal distances break ties by label.
  const auto closer = [](const Neighbor& a, const Neighbor& b) {
    return std::tie(a.dist, a.label) < std::tie(b.dist, b.label);
  };
  heap.clear();
  heap.reserve(k);
  double keys[kChunkRows];
  for (std::size_t first = 0; first < n; first += kChunkRows) {
    const std::size_t rows = std::min(kChunkRows, n - first);
    if (euclidean) {
      kernels.squared_distances(window.data(), columns_.data() + first, n, rows, dim, keys);
    } else {
      minkowski_distances(window.data(), columns_.data() + first, n, rows, dim,
                          config_.minkowski_p, keys);
    }
    std::size_t i = 0;
    for (; i < rows && heap.size() < k; ++i) {
      const double key = keys[i];
      heap.push_back({key, euclidean ? std::sqrt(key) : key, labels_[first + i]});
      std::push_heap(heap.begin(), heap.end(), closer);
    }
    // The heap is full from here on. A key >= the front's key has
    // sqrt(key) >= front.dist (sqrt is monotone), which the distance test
    // would reject, so only smaller keys pay the sqrt and the test.
    double bound = heap.front().key;
    for (; i < rows; ++i) {
      const double key = keys[i];
      if (!(key < bound)) continue;
      const double dist = euclidean ? std::sqrt(key) : key;
      if (dist < heap.front().dist) {
        std::pop_heap(heap.begin(), heap.end(), closer);
        heap.back() = {key, dist, labels_[first + i]};
        std::push_heap(heap.begin(), heap.end(), closer);
        bound = heap.front().key;
      }
    }
  }
  std::size_t malicious = 0;
  for (const Neighbor& neighbor : heap) malicious += neighbor.label;
  return static_cast<double>(malicious) / static_cast<double>(heap.size());
}

void KnnDetector::save(std::ostream& out) const {
  nn::write_u32(out, kKnnTag);
  nn::write_u64(out, config_.k);
  nn::write_f64(out, config_.minkowski_p);
  nn::write_u64(out, config_.max_points_per_class);
  nn::write_matrix(out, columns_.transposed());
  nn::write_u8_vector(out, labels_);
}

void KnnDetector::load(std::istream& in) {
  nn::expect_u32(in, kKnnTag, "kNN detector tag");
  KnnConfig config;
  config.k = nn::read_u64(in, "kNN k");
  config.minkowski_p = nn::read_f64(in, "kNN minkowski p");
  config.max_points_per_class = nn::read_u64(in, "kNN max points per class");
  nn::Matrix points = nn::read_matrix(in);
  std::vector<std::uint8_t> labels = nn::read_u8_vector(in, "kNN labels");
  if (labels.size() != points.rows()) {
    throw common::SerializationError("kNN artifact label/point count mismatch");
  }
  // k = 0 would make every vote 0/0 = NaN; enforce the constructor's
  // preconditions on artifact-supplied config too.
  if (config.k < 1 || !(config.minkowski_p > 0.0)) {
    throw common::SerializationError("kNN artifact carries an invalid config");
  }
  config_ = config;
  columns_ = points.transposed();
  labels_ = std::move(labels);
}

double KnnDetector::anomaly_score(const nn::Matrix& window) const {
  std::vector<Neighbor> heap;
  return malicious_neighbor_fraction(window, heap);
}

std::vector<double> KnnDetector::score_batch(std::span<const nn::Matrix> windows) const {
  std::vector<double> scores;
  scores.reserve(windows.size());
  std::vector<Neighbor> heap;
  for (const nn::Matrix& window : windows) {
    scores.push_back(malicious_neighbor_fraction(window, heap));
  }
  return scores;
}

bool KnnDetector::flags(const nn::Matrix& window) const {
  return anomaly_score(window) > 0.5;
}

}  // namespace goodones::detect
