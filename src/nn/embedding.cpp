#include "nn/embedding.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace onesa::nn {

Embedding::Embedding(std::size_t vocab, std::size_t d_model, Rng& rng, bool positional)
    : vocab_(vocab), d_model_(d_model), positional_(positional) {
  table_ = Param(tensor::random_normal(vocab, d_model, rng, 0.0, 0.25));
}

double Embedding::positional_term(std::size_t pos, std::size_t dim) const {
  // Standard sinusoidal encoding, scaled down so INT16 activations stay
  // within the CPWL domain.
  const double angle = static_cast<double>(pos) /
                       std::pow(10000.0, 2.0 * static_cast<double>(dim / 2) /
                                             static_cast<double>(d_model_));
  return 0.25 * (dim % 2 == 0 ? std::sin(angle) : std::cos(angle));
}

std::shared_ptr<const std::vector<double>> Embedding::positional_rows(
    std::size_t seq) const {
  std::shared_ptr<const std::vector<double>> cached;
  {
    std::lock_guard<std::mutex> lock(positions_mutex_);
    if (positions_ != nullptr && positions_->size() >= seq * d_model_) return positions_;
    cached = positions_;
  }
  // Grow outside the lock, so requests that fit the published table never
  // wait on the rebuild: copy the cached rows and compute only the new ones.
  auto rows = std::make_shared<std::vector<double>>();
  rows->reserve(seq * d_model_);
  std::size_t have = 0;
  if (cached != nullptr) {
    rows->assign(cached->begin(), cached->end());
    have = cached->size() / d_model_;
  }
  for (std::size_t p = have; p < seq; ++p)
    for (std::size_t j = 0; j < d_model_; ++j) rows->push_back(positional_term(p, j));
  std::lock_guard<std::mutex> lock(positions_mutex_);
  // A racing request may have published a longer table meanwhile; keep it.
  if (positions_ == nullptr || positions_->size() < rows->size()) positions_ = std::move(rows);
  return positions_;
}

tensor::Matrix Embedding::gather(const tensor::Matrix& ids,
                                 std::vector<std::size_t>* ids_out) const {
  ONESA_CHECK_SHAPE(ids.rows() == 1, "embedding expects a 1 x seq id row");
  const std::size_t seq = ids.cols();
  const std::shared_ptr<const std::vector<double>> positions =
      positional_ ? positional_rows(seq) : nullptr;
  tensor::Matrix out(seq, d_model_, tensor::kUninitialized);
  for (std::size_t p = 0; p < seq; ++p) {
    const auto id = static_cast<std::size_t>(ids(0, p));
    ONESA_CHECK(id < vocab_, "token id " << id << " out of vocab " << vocab_);
    if (ids_out != nullptr) (*ids_out)[p] = id;
    const double* pos = positions ? positions->data() + p * d_model_ : nullptr;
    for (std::size_t j = 0; j < d_model_; ++j) {
      out(p, j) = table_.value(id, j) + (pos != nullptr ? pos[j] : 0.0);
    }
  }
  return out;
}

tensor::Matrix Embedding::forward(const tensor::Matrix& ids) {
  cached_ids_.assign(ids.cols(), 0);
  return gather(ids, &cached_ids_);
}

tensor::Matrix Embedding::infer(const tensor::Matrix& ids) const {
  return gather(ids, nullptr);
}

tensor::Matrix Embedding::backward(const tensor::Matrix& grad_out) {
  for (std::size_t p = 0; p < cached_ids_.size(); ++p)
    for (std::size_t j = 0; j < d_model_; ++j)
      table_.grad(cached_ids_[p], j) += grad_out(p, j);
  // Token ids are not differentiable; return an empty-shaped gradient.
  return tensor::Matrix(1, cached_ids_.size(), 0.0);
}

tensor::FixMatrix Embedding::forward_accel(OneSaAccelerator&,
                                           const tensor::FixMatrix& ids) {
  ONESA_CHECK_SHAPE(ids.rows() == 1, "embedding expects a 1 x seq id row");
  const std::size_t seq = ids.cols();
  const std::shared_ptr<const std::vector<double>> positions =
      positional_ ? positional_rows(seq) : nullptr;
  tensor::FixMatrix out(seq, d_model_);
  for (std::size_t p = 0; p < seq; ++p) {
    const auto id = static_cast<std::size_t>(ids(0, p).to_double());
    ONESA_CHECK(id < vocab_, "token id " << id << " out of vocab " << vocab_);
    const double* pos = positions ? positions->data() + p * d_model_ : nullptr;
    for (std::size_t j = 0; j < d_model_; ++j) {
      out(p, j) = fixed::Fix16::from_double(table_.value(id, j) + (pos != nullptr ? pos[j] : 0.0));
    }
  }
  return out;
}

void Embedding::count_ops(OpCensus& census, std::size_t batch) const {
  // Positional add only; the gather is data movement.
  census.add += static_cast<double>(batch) * static_cast<double>(d_model_);
}

tensor::Matrix SequenceMeanPool::forward(const tensor::Matrix& x) {
  cached_seq_ = x.rows();
  return infer(x);
}

tensor::Matrix SequenceMeanPool::infer(const tensor::Matrix& x) const {
  tensor::Matrix out(1, x.cols(), 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j) out(0, j) += x(i, j);
  for (std::size_t j = 0; j < x.cols(); ++j) out(0, j) /= static_cast<double>(x.rows());
  return out;
}

tensor::Matrix SequenceMeanPool::backward(const tensor::Matrix& grad_out) {
  tensor::Matrix grad_in(cached_seq_, grad_out.cols());
  for (std::size_t i = 0; i < cached_seq_; ++i)
    for (std::size_t j = 0; j < grad_out.cols(); ++j)
      grad_in(i, j) = grad_out(0, j) / static_cast<double>(cached_seq_);
  return grad_in;
}

tensor::FixMatrix SequenceMeanPool::forward_accel(OneSaAccelerator& accel,
                                                  const tensor::FixMatrix& x) {
  return accel
      .gemm(tensor::constant_fix(1, x.rows(), 1.0 / static_cast<double>(x.rows())), x)
      .y;
}

void SequenceMeanPool::count_ops(OpCensus& census, std::size_t batch) const {
  census.add += static_cast<double>(batch) * static_cast<double>(cached_seq_);
}

}  // namespace onesa::nn
