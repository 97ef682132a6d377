// Token embedding with fixed sinusoidal positional encoding, plus the
// sequence mean-pool head used by the transformer classifier.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "nn/layer.hpp"

namespace onesa::nn {

/// Maps a row of token ids (1 x seq_len, ids stored as doubles) to the
/// (seq_len x d_model) embedded sequence. The lookup itself is a DMA gather
/// (no array cycles); the positional encodings it adds are computed once per
/// position and reused (see positional_rows).
class Embedding : public Layer {
 public:
  Embedding(std::size_t vocab, std::size_t d_model, Rng& rng,
            bool positional = true);

  std::string name() const override { return "embedding"; }

  tensor::Matrix forward(const tensor::Matrix& ids) override;
  tensor::Matrix backward(const tensor::Matrix& grad_out) override;
  tensor::Matrix infer(const tensor::Matrix& ids) const override;
  std::vector<Param*> params() override { return {&table_}; }

  tensor::FixMatrix forward_accel(OneSaAccelerator& accel,
                                  const tensor::FixMatrix& ids) override;
  void count_ops(OpCensus& census, std::size_t batch) const override;

  /// The sinusoidal encoding of position `pos`, dimension `dim`, computed on
  /// the spot. gather adds exactly these values, read from positional_rows.
  double positional_term(std::size_t pos, std::size_t dim) const;

 private:
  /// At least `seq` rows of positional terms (row-major, d_model each).
  /// Built on first use and grown, to exactly `seq` rows, only when a
  /// longer sequence arrives (the cached rows are copied, only the new ones
  /// computed), so memory stays bounded by the longest sequence seen. The
  /// mutex guards only the pointer and is not held while rows are computed:
  /// a published table is immutable, and concurrent infer() calls keep
  /// theirs alive through the shared_ptr across a regrow (same scheme as
  /// PackedWeightCache).
  std::shared_ptr<const std::vector<double>> positional_rows(std::size_t seq) const;
  /// Shared forward/infer gather; records the ids for backward only when
  /// requested (ids_out sized to the sequence by the caller).
  tensor::Matrix gather(const tensor::Matrix& ids,
                        std::vector<std::size_t>* ids_out) const;

  std::size_t vocab_;
  std::size_t d_model_;
  bool positional_;
  Param table_;  // vocab x d_model
  std::vector<std::size_t> cached_ids_;
  mutable std::mutex positions_mutex_;
  mutable std::shared_ptr<const std::vector<double>> positions_;
};

/// Mean over sequence positions: (seq x d) -> (1 x d). On the accelerator
/// this is a GEMM with a 1/seq row vector (linear work).
class SequenceMeanPool : public Layer {
 public:
  SequenceMeanPool() = default;

  std::string name() const override { return "seq_mean_pool"; }

  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& grad_out) override;
  tensor::Matrix infer(const tensor::Matrix& x) const override;

  tensor::FixMatrix forward_accel(OneSaAccelerator& accel,
                                  const tensor::FixMatrix& x) override;
  void count_ops(OpCensus& census, std::size_t batch) const override;

 private:
  std::size_t cached_seq_ = 0;
};

}  // namespace onesa::nn
