#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/transpose.hpp"
#include "tensor/ops.hpp"

namespace onesa::nn {

namespace {

/// In-place numerically stable row softmax of scale * s: each element is
/// scaled, then exp(v - row max) over the row sum, summed in ascending
/// column order and divided (not multiplied by a reciprocal).
void softmax_rows_scaled(tensor::Matrix& s, double scale) {
  for (std::size_t i = 0; i < s.rows(); ++i) {
    double* row = s.data().data() + i * s.cols();
    for (std::size_t j = 0; j < s.cols(); ++j) row[j] *= scale;
    double mx = row[0];
    for (std::size_t j = 1; j < s.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < s.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (std::size_t j = 0; j < s.cols(); ++j) row[j] /= sum;
  }
}

/// Backward through a row softmax: dx = a .* (dy - rowsum(dy .* a)).
tensor::Matrix softmax_rows_backward(const tensor::Matrix& attn,
                                     const tensor::Matrix& grad) {
  tensor::Matrix dx(attn.rows(), attn.cols());
  for (std::size_t i = 0; i < attn.rows(); ++i) {
    double dot = 0.0;
    for (std::size_t j = 0; j < attn.cols(); ++j) dot += grad(i, j) * attn(i, j);
    for (std::size_t j = 0; j < attn.cols(); ++j)
      dx(i, j) = attn(i, j) * (grad(i, j) - dot);
  }
  return dx;
}

/// Copies columns [h*d, (h+1)*d) of m into out (m.rows() x d).
void copy_cols(const tensor::Matrix& m, std::size_t h, std::size_t d, tensor::Matrix& out) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < d; ++j) out(i, j) = m(i, h * d + j);
}

/// Columns [h*d, (h+1)*d) of m.
tensor::Matrix slice_cols(const tensor::Matrix& m, std::size_t h, std::size_t d) {
  tensor::Matrix out(m.rows(), d, tensor::kUninitialized);
  copy_cols(m, h, d, out);
  return out;
}

void paste_cols(tensor::Matrix& dst, const tensor::Matrix& src, std::size_t h,
                std::size_t d) {
  for (std::size_t i = 0; i < src.rows(); ++i)
    for (std::size_t j = 0; j < d; ++j) dst(i, h * d + j) = src(i, j);
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t d_model, std::size_t num_heads,
                                               Rng& rng)
    : d_model_(d_model), heads_(num_heads), d_head_(d_model / num_heads) {
  ONESA_CHECK(d_model % num_heads == 0,
              "d_model " << d_model << " not divisible by heads " << num_heads);
  const double bound = std::sqrt(6.0 / static_cast<double>(d_model));
  wq_ = Param(tensor::random_uniform(d_model, d_model, rng, -bound, bound));
  wk_ = Param(tensor::random_uniform(d_model, d_model, rng, -bound, bound));
  wv_ = Param(tensor::random_uniform(d_model, d_model, rng, -bound, bound));
  wo_ = Param(tensor::random_uniform(d_model, d_model, rng, -bound, bound));
}

tensor::Matrix MultiHeadSelfAttention::project(const tensor::Matrix& x, const Param& w,
                                               const PackedWeightCache& cache,
                                               bool use_packed) const {
  if (!use_packed) return tensor::matmul(x, w.value);
  const std::shared_ptr<const tensor::kernels::PackedB> packed = cache.get(w);
  tensor::Matrix y(x.rows(), w.value.cols(), tensor::kUninitialized);
  tensor::kernels::gemm_packed(x.data().data(), *packed, y.data().data(), x.rows());
  return y;
}

tensor::Matrix MultiHeadSelfAttention::attend(const tensor::Matrix& x,
                                              std::vector<HeadCache>* cache_out,
                                              tensor::Matrix* concat_out,
                                              bool use_packed) const {
  ONESA_CHECK_SHAPE(x.cols() == d_model_, "attention d_model " << x.cols());
  const std::size_t seq = x.rows();
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  const tensor::Matrix q = project(x, wq_, packed_q_, use_packed);
  const tensor::Matrix k = project(x, wk_, packed_k_, use_packed);
  const tensor::Matrix v = project(x, wv_, packed_v_, use_packed);
  // K transposed once for every head: head h's keys are the contiguous
  // d_head x seq block of rows [h*d_head, (h+1)*d_head).
  const tensor::Matrix kt = tensor::transpose(k);

  // Every head reuses the same contiguous operand, score and context
  // buffers, and the scale is folded into the in-place softmax; the products
  // go through gemm() exactly as the slice/matmul/scale/softmax/paste
  // composition did, so the bits are unchanged.
  tensor::Matrix qh(seq, d_head_, tensor::kUninitialized);
  tensor::Matrix vh(seq, d_head_, tensor::kUninitialized);
  tensor::Matrix scores(seq, seq, tensor::kUninitialized);
  tensor::Matrix context(seq, d_head_, tensor::kUninitialized);
  tensor::Matrix concat(seq, d_model_, tensor::kUninitialized);
  for (std::size_t h = 0; h < heads_; ++h) {
    copy_cols(q, h, d_head_, qh);
    copy_cols(v, h, d_head_, vh);
    tensor::kernels::gemm(qh.data().data(), kt.data().data() + h * d_head_ * seq,
                          scores.data().data(), seq, d_head_, seq);
    softmax_rows_scaled(scores, scale);
    tensor::kernels::gemm(scores.data().data(), vh.data().data(), context.data().data(), seq,
                          seq, d_head_);
    paste_cols(concat, context, h, d_head_);
    if (cache_out != nullptr) {
      HeadCache& cache = (*cache_out)[h];
      cache.q = qh;
      cache.k = slice_cols(k, h, d_head_);
      cache.v = vh;
      cache.attn = scores;
    }
  }
  tensor::Matrix out = project(concat, wo_, packed_o_, use_packed);
  if (concat_out != nullptr) *concat_out = std::move(concat);
  return out;
}

tensor::Matrix MultiHeadSelfAttention::forward(const tensor::Matrix& x) {
  cached_input_ = x;
  seq_len_ = x.rows();
  head_cache_.assign(heads_, {});
  return attend(x, &head_cache_, &cached_concat_, /*use_packed=*/false);
}

tensor::Matrix MultiHeadSelfAttention::infer(const tensor::Matrix& x) const {
  return attend(x, nullptr, nullptr, /*use_packed=*/true);
}

void MultiHeadSelfAttention::prepack() const {
  packed_q_.get(wq_);
  packed_k_.get(wk_);
  packed_v_.get(wv_);
  packed_o_.get(wo_);
}

tensor::Matrix MultiHeadSelfAttention::backward(const tensor::Matrix& grad_out) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  // Output projection.
  tensor::add_inplace(wo_.grad,
                      tensor::matmul(tensor::transpose(cached_concat_), grad_out));
  const tensor::Matrix grad_concat =
      tensor::matmul(grad_out, tensor::transpose(wo_.value));

  tensor::Matrix grad_q_full(seq_len_, d_model_, 0.0);
  tensor::Matrix grad_k_full(seq_len_, d_model_, 0.0);
  tensor::Matrix grad_v_full(seq_len_, d_model_, 0.0);
  for (std::size_t h = 0; h < heads_; ++h) {
    const HeadCache& cache = head_cache_[h];
    const tensor::Matrix grad_head = slice_cols(grad_concat, h, d_head_);
    // out_h = attn * v.
    const tensor::Matrix grad_attn =
        tensor::matmul(grad_head, tensor::transpose(cache.v));
    const tensor::Matrix grad_v = tensor::matmul(tensor::transpose(cache.attn), grad_head);
    // Through softmax and the 1/sqrt(d_k) scale.
    const tensor::Matrix grad_scores =
        tensor::scale(softmax_rows_backward(cache.attn, grad_attn), scale);
    // scores = q k^T.
    const tensor::Matrix grad_q = tensor::matmul(grad_scores, cache.k);
    const tensor::Matrix grad_k =
        tensor::matmul(tensor::transpose(grad_scores), cache.q);
    paste_cols(grad_q_full, grad_q, h, d_head_);
    paste_cols(grad_k_full, grad_k, h, d_head_);
    paste_cols(grad_v_full, grad_v, h, d_head_);
  }

  // Projection weights and input gradient.
  tensor::add_inplace(wq_.grad,
                      tensor::matmul(tensor::transpose(cached_input_), grad_q_full));
  tensor::add_inplace(wk_.grad,
                      tensor::matmul(tensor::transpose(cached_input_), grad_k_full));
  tensor::add_inplace(wv_.grad,
                      tensor::matmul(tensor::transpose(cached_input_), grad_v_full));

  tensor::Matrix grad_in = tensor::matmul(grad_q_full, tensor::transpose(wq_.value));
  tensor::add_inplace(grad_in, tensor::matmul(grad_k_full, tensor::transpose(wk_.value)));
  tensor::add_inplace(grad_in, tensor::matmul(grad_v_full, tensor::transpose(wv_.value)));
  return grad_in;
}

tensor::FixMatrix MultiHeadSelfAttention::forward_accel(OneSaAccelerator& accel,
                                                        const tensor::FixMatrix& x) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));
  const std::size_t seq = x.rows();

  const auto q = accel.gemm(x, tensor::to_fixed(wq_.value)).y;
  const auto k = accel.gemm(x, tensor::to_fixed(wk_.value)).y;
  const auto v = accel.gemm(x, tensor::to_fixed(wv_.value)).y;

  auto slice_fix = [&](const tensor::FixMatrix& m, std::size_t h) {
    tensor::FixMatrix out(m.rows(), d_head_);
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < d_head_; ++j) out(i, j) = m(i, h * d_head_ + j);
    return out;
  };
  auto transpose_fix = [](const tensor::FixMatrix& m) {
    tensor::FixMatrix out(m.cols(), m.rows(), tensor::kUninitialized);
    tensor::kernels::transpose_blocked(m.data().data(), out.data().data(), m.rows(),
                                       m.cols());
    return out;
  };

  tensor::FixMatrix concat(seq, d_model_);
  for (std::size_t h = 0; h < heads_; ++h) {
    const auto qh = slice_fix(q, h);
    const auto kh = slice_fix(k, h);
    const auto vh = slice_fix(v, h);
    // scores = (q k^T) * scale — GEMM then a broadcast-scale MHP.
    auto scores = accel.gemm(qh, transpose_fix(kh));
    auto scaled = accel.mhp(scores.y, tensor::constant_fix(seq, seq, scale),
                            tensor::constant_fix(seq, seq, 0.0));
    auto attn = accel.softmax_rows(scaled.y);
    auto head_out = accel.gemm(attn.y, vh);
    for (std::size_t i = 0; i < seq; ++i)
      for (std::size_t j = 0; j < d_head_; ++j)
        concat(i, h * d_head_ + j) = head_out.y(i, j);
  }
  return accel.gemm(concat, tensor::to_fixed(wo_.value)).y;
}

void MultiHeadSelfAttention::count_ops(OpCensus& census, std::size_t batch) const {
  const double s = static_cast<double>(seq_len_ == 0 ? 16 : seq_len_);
  const double d = static_cast<double>(d_model_);
  const double b = static_cast<double>(batch);
  // Four projections + two score/value GEMMs per head (d_head sums to d).
  census.gemm += b * (4.0 * 2.0 * s * d * d + 2.0 * 2.0 * s * s * d);
  // Scale multiply on the score matrix.
  census.multiply += b * s * s * static_cast<double>(heads_);
  // Softmax: ~5 ops per score element (max, sub, exp, sum, div).
  census.softmax += b * 5.0 * s * s * static_cast<double>(heads_);
}

}  // namespace onesa::nn
