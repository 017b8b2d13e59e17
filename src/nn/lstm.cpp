#include "nn/lstm.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/simd.hpp"

namespace goodones::nn {

Lstm::Lstm(std::size_t input_dim, std::size_t hidden_dim, common::Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_x_(input_dim, 4 * hidden_dim),
      w_h_(hidden_dim, 4 * hidden_dim),
      b_(1, 4 * hidden_dim) {
  GO_EXPECTS(input_dim > 0 && hidden_dim > 0);
  w_x_.init_xavier(rng, input_dim, hidden_dim);
  w_h_.init_xavier(rng, hidden_dim, hidden_dim);
  // Forget-gate bias = 1 so cells retain state early in training.
  for (std::size_t j = 0; j < hidden_dim_; ++j) b_.value(0, hidden_dim_ + j) = 1.0;
}

Matrix Lstm::forward(const Matrix& x) const {
  Cache scratch;
  return forward_cached(x, scratch);
}

Matrix Lstm::forward_cached(const Matrix& x, Cache& cache) const {
  GO_EXPECTS(x.cols() == input_dim_);
  GO_EXPECTS(x.rows() > 0);
  const std::size_t steps = x.rows();
  const std::size_t h = hidden_dim_;

  cache.input = x;
  cache.gate_i = Matrix(steps, h);
  cache.gate_f = Matrix(steps, h);
  cache.gate_g = Matrix(steps, h);
  cache.gate_o = Matrix(steps, h);
  cache.cell = Matrix(steps, h);
  cache.cell_tanh = Matrix(steps, h);
  cache.hidden = Matrix(steps, h);

  // Precompute x * Wx for all timesteps at once (the big matmul).
  const Matrix x_proj = matmul(x, w_x_.value);
  const simd::KernelTable& kt = simd::active();

  std::vector<double> h_prev(h, 0.0);
  std::vector<double> c_prev(h, 0.0);
  std::vector<double> pre(4 * h);

  for (std::size_t t = 0; t < steps; ++t) {
    // pre = x_proj[t] + b + h_prev * Wh. The recurrent term is skipped on
    // the first step (h_prev is zero), matching forward_batch_cached.
    const auto xp = x_proj.row(t);
    for (std::size_t j = 0; j < 4 * h; ++j) pre[j] = xp[j] + b_.value(0, j);
    if (t > 0) kt.matmul_acc(h_prev.data(), w_h_.value.data(), pre.data(), 1, h, 4 * h);

    kt.lstm_gates_cached(pre.data(), h, cache.gate_i.row(t).data(),
                         cache.gate_f.row(t).data(), cache.gate_g.row(t).data(),
                         cache.gate_o.row(t).data(), cache.cell.row(t).data(),
                         cache.cell_tanh.row(t).data(), cache.hidden.row(t).data(),
                         c_prev.data(), h_prev.data());
  }
  return cache.hidden;
}

Lstm::PrefixState Lstm::initial_state() const {
  PrefixState state;
  state.hidden.assign(hidden_dim_, 0.0);
  state.cell.assign(hidden_dim_, 0.0);
  return state;
}

template <typename GateRow>
void Lstm::recur(const Matrix& packed, std::size_t batch, double* hs, double* cs,
                 bool started, GateRow&& gate_row) const {
  const std::size_t h = hidden_dim_;
  const simd::KernelTable& kt = simd::active();
  // One GEMM projects every (step, sequence) input row plus bias; rows
  // [t*B, (t+1)*B) of the result are timestep t's contiguous batch block,
  // and the recurrent term accumulates into that block in place.
  Matrix proj(packed.rows(), 4 * h);
  kt.matmul_bias(packed.data(), w_x_.value.data(), b_.value.data(), proj.data(),
                 packed.rows(), input_dim_, 4 * h);
  for (std::size_t t = 0; t * batch < packed.rows(); ++t) {
    double* pre = proj.data() + t * batch * 4 * h;
    // From an all-zero start the first step has no recurrent term — the same
    // skip as forward_cached's t == 0.
    if (t > 0 || started) kt.matmul_acc(hs, w_h_.value.data(), pre, batch, h, 4 * h);
    for (std::size_t i = 0; i < batch; ++i) {
      gate_row(t, i, pre + i * 4 * h, cs + i * h, hs + i * h);
    }
  }
}

namespace {

/// Gate step of the inference-only callers: no caches, lane per `precision`
/// (kFast keeps the double GEMMs and swaps only the gate transcendentals).
auto inference_gates(Precision precision, std::size_t h) {
  const simd::KernelTable& kt = simd::active();
  const auto gates = precision == Precision::kFast ? kt.lstm_gates_fast : kt.lstm_gates;
  return [gates, h](std::size_t, std::size_t, const double* pre, double* c, double* hs) {
    gates(pre, h, c, hs);
  };
}

}  // namespace

void Lstm::advance(PrefixState& state, const Matrix& x) const {
  GO_EXPECTS(x.cols() == input_dim_);
  GO_EXPECTS(state.hidden.size() == hidden_dim_ && state.cell.size() == hidden_dim_);
  // A single sequence is its own step-major pack.
  recur(x, 1, state.hidden.data(), state.cell.data(), state.steps > 0,
        inference_gates(Precision::kDouble, hidden_dim_));
  state.steps += x.rows();
}

void Lstm::advance_recording(PrefixState& state, const Matrix& x,
                             std::vector<PrefixState>& trail) const {
  GO_EXPECTS(x.cols() == input_dim_);
  GO_EXPECTS(state.hidden.size() == hidden_dim_ && state.cell.size() == hidden_dim_);
  const auto gates = inference_gates(Precision::kDouble, hidden_dim_);
  recur(x, 1, state.hidden.data(), state.cell.data(), state.steps > 0,
        [&](std::size_t t, std::size_t i, const double* pre, double* c, double* hs) {
          gates(t, i, pre, c, hs);
          trail.push_back(PrefixState{state.steps + t + 1, state.hidden, state.cell});
        });
  state.steps += x.rows();
}

Matrix Lstm::run_batch(std::span<const Matrix> sequences, const PrefixState& start,
                       std::size_t first_row, Precision precision) const {
  // Every sequence resumes from the same snapshot: the single-cluster
  // special case of run_batch_multi.
  std::vector<const Matrix*> seq_ptrs;
  seq_ptrs.reserve(sequences.size());
  for (const Matrix& s : sequences) seq_ptrs.push_back(&s);
  const std::vector<const PrefixState*> start_ptrs(sequences.size(), &start);
  return run_batch_multi(seq_ptrs, start_ptrs, first_row, precision);
}

Matrix Lstm::run_batch(std::span<const Matrix> sequences) const {
  return run_batch(sequences, initial_state());
}

Matrix Lstm::run_batch_multi(std::span<const Matrix* const> sequences,
                             std::span<const PrefixState* const> starts,
                             std::size_t first_row, Precision precision) const {
  GO_EXPECTS(!sequences.empty());
  GO_EXPECTS(starts.size() == sequences.size());
  const std::size_t batch = sequences.size();
  GO_EXPECTS(first_row <= sequences.front()->rows());
  const std::size_t steps = sequences.front()->rows() - first_row;
  for (const Matrix* s : sequences) {
    GO_EXPECTS(s->rows() == first_row + steps && s->cols() == input_dim_);
  }
  const std::size_t h = hidden_dim_;
  Matrix h_state(batch, h);
  Matrix c_state(batch, h);
  bool started = false;
  for (std::size_t i = 0; i < batch; ++i) {
    const PrefixState& start = *starts[i];
    GO_EXPECTS(start.hidden.size() == h && start.cell.size() == h);
    std::copy(start.hidden.begin(), start.hidden.end(), h_state.row(i).begin());
    std::copy(start.cell.begin(), start.cell.end(), c_state.row(i).begin());
    started = started || start.steps > 0;
  }
  recur(pack_step_major(sequences, first_row, steps), batch, h_state.data(), c_state.data(),
        started, inference_gates(precision, h));
  return h_state;
}

Matrix Lstm::first_step_batch(const Matrix& rows, Precision precision) const {
  GO_EXPECTS(rows.cols() == input_dim_);
  // N one-step sequences: `rows` is already their step-major pack.
  Matrix h_state(rows.rows(), hidden_dim_);
  Matrix c_state(rows.rows(), hidden_dim_);
  recur(rows, rows.rows(), h_state.data(), c_state.data(), false,
        inference_gates(precision, hidden_dim_));
  return h_state;
}

void Lstm::forward_batch_cached(std::span<const Matrix> sequences, std::vector<Cache>& caches,
                                Precision precision) const {
  GO_EXPECTS(!sequences.empty());
  const std::size_t batch = sequences.size();
  const std::size_t steps = sequences.front().rows();
  GO_EXPECTS(steps > 0);
  for (const Matrix& s : sequences) {
    GO_EXPECTS(s.rows() == steps && s.cols() == input_dim_);
  }
  const std::size_t h = hidden_dim_;

  caches.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    Cache& cache = caches[i];
    cache.input = sequences[i];
    // Reuse the buffers across calls when the shape is unchanged: an
    // inversion loop calls this every gradient step with identical shapes,
    // and the realloc churn would otherwise eat the batching win.
    if (cache.hidden.rows() != steps || cache.hidden.cols() != h) {
      cache.gate_i = Matrix(steps, h);
      cache.gate_f = Matrix(steps, h);
      cache.gate_g = Matrix(steps, h);
      cache.gate_o = Matrix(steps, h);
      cache.cell = Matrix(steps, h);
      cache.cell_tanh = Matrix(steps, h);
      cache.hidden = Matrix(steps, h);
    }
  }

  const simd::KernelTable& kt = simd::active();
  const auto gates_cached =
      precision == Precision::kFast ? kt.lstm_gates_cached_fast : kt.lstm_gates_cached;
  Matrix h_state(batch, h);
  Matrix c_state(batch, h);
  recur(pack_step_major(sequences, 0, steps), batch, h_state.data(), c_state.data(), false,
        [&](std::size_t t, std::size_t i, const double* pre, double* c, double* hs) {
          Cache& cache = caches[i];
          gates_cached(pre, h, cache.gate_i.row(t).data(), cache.gate_f.row(t).data(),
                       cache.gate_g.row(t).data(), cache.gate_o.row(t).data(),
                       cache.cell.row(t).data(), cache.cell_tanh.row(t).data(),
                       cache.hidden.row(t).data(), c, hs);
        });
}

Matrix Lstm::backward(const Matrix& grad_hidden, const Cache& cache) {
  // dX = dpre * Wx^T.
  return matmul_trans_b(
      backward_params(std::span(&grad_hidden, 1), std::span(&cache, 1)).front(), w_x_.value);
}

std::vector<Matrix> Lstm::bptt(std::span<const Matrix> grad_hidden,
                               std::span<const Cache> caches) const {
  GO_EXPECTS(!caches.empty());
  GO_EXPECTS(grad_hidden.size() == caches.size());
  const std::size_t batch = caches.size();
  const std::size_t steps = caches.front().input.rows();
  const std::size_t h = hidden_dim_;
  for (std::size_t i = 0; i < batch; ++i) {
    GO_EXPECTS(caches[i].input.rows() == steps);
    GO_EXPECTS(grad_hidden[i].rows() == steps && grad_hidden[i].cols() == h);
  }

  std::vector<Matrix> grad_pre(batch, Matrix(steps, 4 * h));
  Matrix dpre_t(batch, 4 * h);  // this timestep's pre-activation grads, packed
  Matrix dh_next(batch, h);     // zero: nothing flows in after the last step
  Matrix dc_next(batch, h);
  // Wh^T (4H x H), so dh_next = dpre_t * Wh^T runs as a plain GEMM; a
  // one-step sequence never reads dh_next and skips the transpose.
  const Matrix w_h_t = steps > 1 ? w_h_.value.transposed() : Matrix();

  for (std::size_t t = steps; t-- > 0;) {
    for (std::size_t i = 0; i < batch; ++i) {
      const Cache& cache = caches[i];
      const auto gi = cache.gate_i.row(t);
      const auto gf = cache.gate_f.row(t);
      const auto gg = cache.gate_g.row(t);
      const auto go = cache.gate_o.row(t);
      const auto ctt = cache.cell_tanh.row(t);
      const auto gh = grad_hidden[i].row(t);
      auto dpre = dpre_t.row(i);
      auto dhn = dh_next.row(i);
      auto dcn = dc_next.row(i);

      for (std::size_t j = 0; j < h; ++j) {
        const double dh = gh[j] + dhn[j];
        const double dct = dh * go[j] * tanh_grad_from_output(ctt[j]) + dcn[j];
        const double c_prev = t > 0 ? cache.cell(t - 1, j) : 0.0;

        dpre[j] = dct * gg[j] * sigmoid_grad_from_output(gi[j]);
        dpre[h + j] = dct * c_prev * sigmoid_grad_from_output(gf[j]);
        dpre[2 * h + j] = dct * gi[j] * tanh_grad_from_output(gg[j]);
        dpre[3 * h + j] = dh * ctt[j] * sigmoid_grad_from_output(go[j]);

        dcn[j] = dct * gf[j];
      }
      std::copy(dpre.begin(), dpre.end(), grad_pre[i].row(t).begin());
    }
    // dh_next = dpre * Wh^T (contribution to the previous hidden state) for
    // the whole batch in one GEMM. Step 0 has no previous state, so nothing
    // reads its dh_next.
    if (t == 0) break;
    dh_next.set_zero();
    matmul_accumulate(dpre_t, w_h_t, dh_next);
  }
  return grad_pre;
}

std::vector<Matrix> Lstm::backward_params(std::span<const Matrix> grad_hidden,
                                          std::span<const Cache> caches) {
  std::vector<Matrix> grad_pre = bptt(grad_hidden, caches);
  const std::size_t steps = grad_pre.front().rows();
  const std::size_t h = hidden_dim_;
  const simd::KernelTable& kt = simd::active();
  // Parameter gradients in window order, each batched over time:
  //   dWx += x^T * dpre ; db += rows of dpre ;
  //   dWh += h_{t-1}^T * dpre_t over t >= 1 (hidden shifted by one step) —
  //   one r = T-1 call, bitwise the T-1 rank-1 updates it replaces.
  for (std::size_t i = 0; i < caches.size(); ++i) {
    const Matrix& dpre = grad_pre[i];
    matmul_trans_a_accumulate(caches[i].input, dpre, w_x_.grad);
    for (std::size_t t = 0; t < steps; ++t) axpy(1.0, dpre.row(t), b_.grad.row(0));
    if (steps > 1) {
      kt.matmul_ta_acc(caches[i].hidden.data(), dpre.row(1).data(), w_h_.grad.data(),
                       steps - 1, h, 4 * h);
    }
  }
  return grad_pre;
}

std::vector<Matrix> Lstm::backward_input_batch(std::span<const Matrix> grad_hidden,
                                               std::span<const Cache> caches) const {
  std::vector<Matrix> grad_input;
  grad_input.reserve(caches.size());
  for (const Matrix& dpre : bptt(grad_hidden, caches)) {
    grad_input.push_back(matmul_trans_b(dpre, w_x_.value));
  }
  return grad_input;
}

BiLstm::BiLstm(std::size_t input_dim, std::size_t hidden_dim, common::Rng& rng)
    : fwd_(input_dim, hidden_dim, rng), bwd_(input_dim, hidden_dim, rng) {}

Matrix reverse_time(const Matrix& x) {
  Matrix out(x.rows(), x.cols());
  for (std::size_t t = 0; t < x.rows(); ++t) {
    const auto src = x.row(x.rows() - 1 - t);
    auto dst = out.row(t);
    for (std::size_t c = 0; c < x.cols(); ++c) dst[c] = src[c];
  }
  return out;
}

Matrix BiLstm::forward(const Matrix& x) const {
  Cache scratch;
  return forward_cached(x, scratch);
}

Matrix BiLstm::forward_cached(const Matrix& x, Cache& cache) const {
  const Matrix h_fwd = fwd_.forward_cached(x, cache.fwd);
  const Matrix h_bwd_rev = bwd_.forward_cached(reverse_time(x), cache.bwd);
  const Matrix h_bwd = reverse_time(h_bwd_rev);  // re-align to forward time

  Matrix out(x.rows(), output_dim());
  const std::size_t h = hidden_dim();
  for (std::size_t t = 0; t < x.rows(); ++t) {
    auto dst = out.row(t);
    const auto f = h_fwd.row(t);
    const auto b = h_bwd.row(t);
    for (std::size_t j = 0; j < h; ++j) {
      dst[j] = f[j];
      dst[h + j] = b[j];
    }
  }
  return out;
}

Matrix BiLstm::backward(const Matrix& grad_output, const Cache& cache) {
  const std::size_t steps = cache.fwd.input.rows();
  const std::size_t h = hidden_dim();
  GO_EXPECTS(grad_output.rows() == steps && grad_output.cols() == 2 * h);

  Matrix grad_fwd(steps, h);
  Matrix grad_bwd_aligned(steps, h);
  for (std::size_t t = 0; t < steps; ++t) {
    const auto g = grad_output.row(t);
    auto gf = grad_fwd.row(t);
    auto gb = grad_bwd_aligned.row(t);
    for (std::size_t j = 0; j < h; ++j) {
      gf[j] = g[j];
      gb[j] = g[h + j];
    }
  }

  const Matrix dx_fwd = fwd_.backward(grad_fwd, cache.fwd);
  // The backward cell ran on reversed input, so its hidden-grad must be
  // reversed into its own time order, and its dX reversed back.
  const Matrix dx_bwd_rev = bwd_.backward(reverse_time(grad_bwd_aligned), cache.bwd);
  const Matrix dx_bwd = reverse_time(dx_bwd_rev);

  Matrix dx = dx_fwd;
  dx += dx_bwd;
  return dx;
}

ParamRefs BiLstm::parameters() {
  ParamRefs params = fwd_.parameters();
  const ParamRefs bwd_params = bwd_.parameters();
  params.insert(params.end(), bwd_params.begin(), bwd_params.end());
  return params;
}

}  // namespace goodones::nn
