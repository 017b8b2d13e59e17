// Gradient checking for all layers: analytic backward vs central finite
// differences. These tests are the foundation the forecaster, MAD-GAN and
// the gradient-guided attack all rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/loss.hpp"
#include "nn/simd.hpp"

namespace goodones::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& x : m.row(r)) x = rng.uniform(-scale, scale);
  }
  return m;
}

/// Scalar loss used for gradient checks: weighted sum of outputs (weights
/// fixed per test so dLoss/dOutput is known exactly).
double weighted_sum(const Matrix& out, const Matrix& weights) {
  double sum = 0.0;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) sum += out(r, c) * weights(r, c);
  }
  return sum;
}

/// Every entry's bit pattern, so EXPECT_EQ compares bitwise (signed zeros
/// included).
std::vector<std::uint64_t> bits(const Matrix& m) {
  std::vector<std::uint64_t> out(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) out[i] = std::bit_cast<std::uint64_t>(m.data()[i]);
  return out;
}

constexpr double kEps = 1e-5;
constexpr double kTol = 1e-6;

TEST(Activations, SigmoidSymmetryAndRange) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(5.0) + sigmoid(-5.0), 1.0, 1e-12);
  EXPECT_GT(sigmoid(100.0), 0.999);
  EXPECT_LT(sigmoid(-100.0), 0.001);
  EXPECT_TRUE(std::isfinite(sigmoid(1000.0)));
  EXPECT_TRUE(std::isfinite(sigmoid(-1000.0)));
}

TEST(Activations, DerivativesFromOutputs) {
  const double y = sigmoid(0.7);
  EXPECT_NEAR(sigmoid_grad_from_output(y), y * (1 - y), 1e-15);
  const double t = tanh_act(0.3);
  EXPECT_NEAR(tanh_grad_from_output(t), 1 - t * t, 1e-15);
  EXPECT_DOUBLE_EQ(relu_grad_from_output(relu(2.0)), 1.0);
  EXPECT_DOUBLE_EQ(relu_grad_from_output(relu(-2.0)), 0.0);
}

class DenseGradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseGradientCheck, ParameterAndInputGradientsMatchFiniteDifferences) {
  common::Rng rng(101);
  Dense layer(4, 3, GetParam(), rng);
  const Matrix x = random_matrix(5, 4, rng);
  const Matrix loss_weights = random_matrix(5, 3, rng);

  Dense::Cache cache;
  layer.forward_cached(x, cache);
  const Matrix dx = layer.backward(loss_weights, cache);

  // Input gradient check.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      Matrix plus = x;
      Matrix minus = x;
      plus(r, c) += kEps;
      minus(r, c) -= kEps;
      const double numeric =
          (weighted_sum(layer.forward(plus), loss_weights) -
           weighted_sum(layer.forward(minus), loss_weights)) /
          (2 * kEps);
      ASSERT_NEAR(dx(r, c), numeric, kTol);
    }
  }

  // Weight gradient check (sampled entries).
  for (const auto [wr, wc] : {std::pair<std::size_t, std::size_t>{0, 0}, {3, 2}, {1, 1}}) {
    const double original = layer.weight().value(wr, wc);
    layer.weight().value(wr, wc) = original + kEps;
    const double up = weighted_sum(layer.forward(x), loss_weights);
    layer.weight().value(wr, wc) = original - kEps;
    const double down = weighted_sum(layer.forward(x), loss_weights);
    layer.weight().value(wr, wc) = original;
    ASSERT_NEAR(layer.weight().grad(wr, wc), (up - down) / (2 * kEps), kTol);
  }

  // Bias gradient check.
  for (std::size_t c = 0; c < 3; ++c) {
    const double original = layer.bias().value(0, c);
    layer.bias().value(0, c) = original + kEps;
    const double up = weighted_sum(layer.forward(x), loss_weights);
    layer.bias().value(0, c) = original - kEps;
    const double down = weighted_sum(layer.forward(x), loss_weights);
    layer.bias().value(0, c) = original;
    ASSERT_NEAR(layer.bias().grad(0, c), (up - down) / (2 * kEps), kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DenseGradientCheck,
                         ::testing::Values(Activation::kLinear, Activation::kTanh,
                                           Activation::kSigmoid, Activation::kRelu));

TEST(Lstm, ForwardShapesAndDeterminism) {
  common::Rng rng(55);
  const Lstm lstm(3, 8, rng);
  common::Rng data_rng(56);
  const Matrix x = random_matrix(10, 3, data_rng);
  const Matrix h1 = lstm.forward(x);
  const Matrix h2 = lstm.forward(x);
  EXPECT_EQ(h1.rows(), 10u);
  EXPECT_EQ(h1.cols(), 8u);
  for (std::size_t t = 0; t < 10; ++t) {
    for (std::size_t j = 0; j < 8; ++j) ASSERT_DOUBLE_EQ(h1(t, j), h2(t, j));
  }
}

TEST(Lstm, HiddenValuesBounded) {
  common::Rng rng(57);
  const Lstm lstm(2, 6, rng);
  common::Rng data_rng(58);
  const Matrix x = random_matrix(20, 2, data_rng, 5.0);
  const Matrix h = lstm.forward(x);
  for (std::size_t t = 0; t < h.rows(); ++t) {
    for (const double v : h.row(t)) {
      ASSERT_LT(std::abs(v), 1.0);  // |h| = |o * tanh(c)| < 1
    }
  }
}

TEST(Lstm, InputGradientMatchesFiniteDifferences) {
  common::Rng rng(59);
  Lstm lstm(3, 5, rng);
  common::Rng data_rng(60);
  const Matrix x = random_matrix(6, 3, data_rng);
  const Matrix loss_weights = random_matrix(6, 5, data_rng);

  Lstm::Cache cache;
  lstm.forward_cached(x, cache);
  const Matrix dx = lstm.backward(loss_weights, cache);

  for (std::size_t t = 0; t < x.rows(); ++t) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      Matrix plus = x;
      Matrix minus = x;
      plus(t, c) += kEps;
      minus(t, c) -= kEps;
      const double numeric = (weighted_sum(lstm.forward(plus), loss_weights) -
                              weighted_sum(lstm.forward(minus), loss_weights)) /
                             (2 * kEps);
      ASSERT_NEAR(dx(t, c), numeric, kTol) << "t=" << t << " c=" << c;
    }
  }
}

TEST(Lstm, ParameterGradientsMatchFiniteDifferences) {
  common::Rng rng(61);
  Lstm lstm(2, 4, rng);
  common::Rng data_rng(62);
  const Matrix x = random_matrix(5, 2, data_rng);
  const Matrix loss_weights = random_matrix(5, 4, data_rng);

  Lstm::Cache cache;
  lstm.forward_cached(x, cache);
  lstm.backward(loss_weights, cache);

  const auto check_param = [&](ParamBuffer& p, std::size_t r, std::size_t c) {
    const double original = p.value(r, c);
    p.value(r, c) = original + kEps;
    const double up = weighted_sum(lstm.forward(x), loss_weights);
    p.value(r, c) = original - kEps;
    const double down = weighted_sum(lstm.forward(x), loss_weights);
    p.value(r, c) = original;
    ASSERT_NEAR(p.grad(r, c), (up - down) / (2 * kEps), kTol)
        << "param entry (" << r << "," << c << ")";
  };

  // Sample entries across all three parameter tensors and all four gates.
  for (std::size_t gate = 0; gate < 4; ++gate) {
    check_param(lstm.weight_input(), 0, gate * 4 + 1);
    check_param(lstm.weight_input(), 1, gate * 4 + 3);
    check_param(lstm.weight_hidden(), 2, gate * 4 + 0);
    check_param(lstm.bias(), 0, gate * 4 + 2);
  }
}

TEST(Lstm, BackwardParamsIsBackwardWithoutTheInputGemm) {
  // backward_params must accumulate bitwise the same parameter gradients as
  // backward(), and backward()'s dX must be its pre-activation gradients
  // times Wx^T, over several shapes and a sparse (last-row-only) upstream.
  // backward_input_batch runs its own recurrence loop: its dX must agree.
  for (const std::size_t steps : {1u, 2u, 7u}) {
    for (const bool last_row_only : {false, true}) {
      common::Rng init_a(71);
      common::Rng init_b(71);
      Lstm full(3, 5, init_a);
      Lstm split(3, 5, init_b);
      common::Rng data_rng(72 + steps);
      const Matrix x = random_matrix(steps, 3, data_rng);
      Matrix grad_hidden = random_matrix(steps, 5, data_rng);
      if (last_row_only) {
        for (std::size_t t = 0; t + 1 < steps; ++t) {
          for (double& g : grad_hidden.row(t)) g = 0.0;
        }
      }

      Lstm::Cache cache;
      full.forward_cached(x, cache);
      const Matrix dx = full.backward(grad_hidden, cache);
      const Matrix grad_pre =
          split.backward_params(std::span(&grad_hidden, 1), std::span(&cache, 1)).front();
      EXPECT_EQ(bits(matmul_trans_b(grad_pre, split.weight_input().value)), bits(dx));
      EXPECT_EQ(bits(split.backward_input_batch(std::span(&grad_hidden, 1),
                                                std::span(&cache, 1))
                         .front()),
                bits(dx));
      const ParamRefs a = full.parameters();
      const ParamRefs b = split.parameters();
      for (std::size_t p = 0; p < a.size(); ++p) {
        EXPECT_EQ(bits(a[p]->grad), bits(b[p]->grad))
            << "param " << p << " steps " << steps << " last_row_only " << last_row_only;
      }
    }
  }
}

/// Test-local copy of the single-window BPTT that the span backward_params
/// replaced: per step the dh_next GEMV (matmul_tb_acc against Wh), then
/// dWx, db and T-1 rank-1 dWh updates for this one window. Accumulates into
/// `lstm`'s gradients and returns dLoss/d(pre-activations) (T x 4H).
Matrix reference_backward_params(Lstm& lstm, const Matrix& grad_hidden,
                                 const Lstm::Cache& cache) {
  const std::size_t steps = cache.input.rows();
  const std::size_t h = lstm.hidden_dim();
  Matrix grad_pre_all(steps, 4 * h);
  std::vector<double> dh_next(h, 0.0);
  std::vector<double> dc_next(h, 0.0);
  const simd::KernelTable& kt = simd::active();

  for (std::size_t t = steps; t-- > 0;) {
    const auto gi = cache.gate_i.row(t);
    const auto gf = cache.gate_f.row(t);
    const auto gg = cache.gate_g.row(t);
    const auto go = cache.gate_o.row(t);
    const auto ctt = cache.cell_tanh.row(t);
    const auto gh = grad_hidden.row(t);
    auto dpre = grad_pre_all.row(t);
    for (std::size_t j = 0; j < h; ++j) {
      const double dh = gh[j] + dh_next[j];
      const double dct = dh * go[j] * tanh_grad_from_output(ctt[j]) + dc_next[j];
      const double c_prev = t > 0 ? cache.cell(t - 1, j) : 0.0;
      dpre[j] = dct * gg[j] * sigmoid_grad_from_output(gi[j]);
      dpre[h + j] = dct * c_prev * sigmoid_grad_from_output(gf[j]);
      dpre[2 * h + j] = dct * gi[j] * tanh_grad_from_output(gg[j]);
      dpre[3 * h + j] = dh * ctt[j] * sigmoid_grad_from_output(go[j]);
      dc_next[j] = dct * gf[j];
    }
    if (t == 0) break;
    std::fill(dh_next.begin(), dh_next.end(), 0.0);
    kt.matmul_tb_acc(dpre.data(), lstm.weight_hidden().value.data(), dh_next.data(), 1, 4 * h,
                     h);
  }

  matmul_trans_a_accumulate(cache.input, grad_pre_all, lstm.weight_input().grad);
  for (std::size_t t = 0; t < steps; ++t) {
    axpy(1.0, grad_pre_all.row(t), lstm.bias().grad.row(0));
  }
  for (std::size_t t = 1; t < steps; ++t) {
    kt.matmul_ta_acc(cache.hidden.row(t - 1).data(), grad_pre_all.row(t).data(),
                     lstm.weight_hidden().grad.data(), 1, h, 4 * h);
  }
  return grad_pre_all;
}

TEST(Lstm, SpanBackwardParamsMatchesThePerWindowLoopBitwise) {
  // The batched BPTT (one recurrence over the span, then the parameter
  // gradients in window order) against B sequential single-window passes
  // of the reference loop: every parameter gradient and every returned
  // dpre must agree bit for bit. The gradient buffers start from the same
  // random values, so any change in the order the windows' contributions
  // are added shows up. backward_input_batch's dX and backward() (params
  // and dX) are checked against the same reference.
  common::Rng shape_rng(0x5BA7C4);
  for (int trial = 0; trial < 40; ++trial) {
    const auto batch =
        static_cast<std::size_t>(std::exp(shape_rng.uniform(0.0, std::log(64.0))) + 0.5);
    const auto steps = static_cast<std::size_t>(shape_rng.uniform_int(1, 12));
    const std::size_t hidden_choices[] = {1, 3, 8, 24};
    const std::size_t h = hidden_choices[shape_rng.uniform_int(0, 3)];
    const auto d = static_cast<std::size_t>(shape_rng.uniform_int(1, 5));
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " B=" << batch << " T=" << steps
                                      << " H=" << h << " D=" << d);

    common::Rng data_rng(1000 + static_cast<std::uint64_t>(trial));
    std::vector<Matrix> xs;
    std::vector<Matrix> grads;
    const bool last_row_only = trial % 3 == 0;  // the forecaster's training pattern
    for (std::size_t k = 0; k < batch; ++k) {
      xs.push_back(random_matrix(steps, d, data_rng));
      Matrix g = random_matrix(steps, h, data_rng);
      for (std::size_t t = 0; t < steps; ++t) {
        const bool zero_row = last_row_only ? t + 1 < steps : data_rng.uniform() < 0.3;
        if (zero_row) std::fill(g.row(t).begin(), g.row(t).end(), 0.0);
      }
      grads.push_back(std::move(g));
    }

    // Three identical cells with identical non-zero starting gradients.
    const auto make_cell = [&] {
      common::Rng init(77 + static_cast<std::uint64_t>(trial));
      Lstm cell(d, h, init);
      common::Rng grad_rng(88 + static_cast<std::uint64_t>(trial));
      for (ParamBuffer* p : cell.parameters()) {
        for (std::size_t i = 0; i < p->grad.size(); ++i) p->grad.data()[i] = grad_rng.uniform();
      }
      return cell;
    };
    Lstm reference = make_cell();
    Lstm batched = make_cell();
    Lstm single = make_cell();

    std::vector<Lstm::Cache> caches;
    reference.forward_batch_cached(xs, caches);

    std::vector<Matrix> ref_dpre;
    std::vector<Matrix> ref_dx;
    for (std::size_t k = 0; k < batch; ++k) {
      ref_dpre.push_back(reference_backward_params(reference, grads[k], caches[k]));
      ref_dx.push_back(matmul_trans_b(ref_dpre.back(), reference.weight_input().value));
    }

    const std::vector<Matrix> dpre = batched.backward_params(grads, caches);
    const std::vector<Matrix> dx = batched.backward_input_batch(grads, caches);
    ASSERT_EQ(dpre.size(), batch);
    ASSERT_EQ(dx.size(), batch);
    for (std::size_t k = 0; k < batch; ++k) {
      EXPECT_EQ(bits(dpre[k]), bits(ref_dpre[k])) << "dpre of window " << k;
      EXPECT_EQ(bits(dx[k]), bits(ref_dx[k])) << "backward_input_batch dX of window " << k;
      EXPECT_EQ(bits(single.backward(grads[k], caches[k])), bits(ref_dx[k]))
          << "backward() dX of window " << k;
    }
    const ParamRefs want = reference.parameters();
    const ParamRefs got_batched = batched.parameters();
    const ParamRefs got_single = single.parameters();
    for (std::size_t p = 0; p < want.size(); ++p) {
      EXPECT_EQ(bits(got_batched[p]->grad), bits(want[p]->grad)) << "backward_params param " << p;
      EXPECT_EQ(bits(got_single[p]->grad), bits(want[p]->grad)) << "backward() param " << p;
    }
  }
}

TEST(ReverseTime, ReversesAndIsInvolution) {
  const Matrix x{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix r = reverse_time(x);
  EXPECT_DOUBLE_EQ(r(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(r(2, 1), 2.0);
  const Matrix rr = reverse_time(r);
  for (std::size_t t = 0; t < x.rows(); ++t) {
    for (std::size_t c = 0; c < x.cols(); ++c) ASSERT_DOUBLE_EQ(rr(t, c), x(t, c));
  }
}

TEST(BiLstm, OutputConcatenatesBothDirections) {
  common::Rng rng(63);
  const BiLstm bilstm(3, 4, rng);
  common::Rng data_rng(64);
  const Matrix x = random_matrix(7, 3, data_rng);
  const Matrix out = bilstm.forward(x);
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 8u);

  // First half equals the forward cell's output directly.
  const Matrix fwd = bilstm.forward_cell().forward(x);
  for (std::size_t t = 0; t < 7; ++t) {
    for (std::size_t j = 0; j < 4; ++j) ASSERT_DOUBLE_EQ(out(t, j), fwd(t, j));
  }
  // Second half equals the backward cell run on reversed input, re-reversed.
  const Matrix bwd = reverse_time(bilstm.backward_cell().forward(reverse_time(x)));
  for (std::size_t t = 0; t < 7; ++t) {
    for (std::size_t j = 0; j < 4; ++j) ASSERT_DOUBLE_EQ(out(t, 4 + j), bwd(t, j));
  }
}

TEST(BiLstm, InputGradientMatchesFiniteDifferences) {
  common::Rng rng(65);
  BiLstm bilstm(2, 3, rng);
  common::Rng data_rng(66);
  const Matrix x = random_matrix(5, 2, data_rng);
  const Matrix loss_weights = random_matrix(5, 6, data_rng);

  BiLstm::Cache cache;
  bilstm.forward_cached(x, cache);
  const Matrix dx = bilstm.backward(loss_weights, cache);

  for (std::size_t t = 0; t < x.rows(); ++t) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      Matrix plus = x;
      Matrix minus = x;
      plus(t, c) += kEps;
      minus(t, c) -= kEps;
      const double numeric = (weighted_sum(bilstm.forward(plus), loss_weights) -
                              weighted_sum(bilstm.forward(minus), loss_weights)) /
                             (2 * kEps);
      ASSERT_NEAR(dx(t, c), numeric, kTol);
    }
  }
}

TEST(BiLstm, ParameterListCoversBothCells) {
  common::Rng rng(67);
  BiLstm bilstm(2, 3, rng);
  EXPECT_EQ(bilstm.parameters().size(), 6u);  // 3 tensors per direction
}

}  // namespace
}  // namespace goodones::nn
