// Multi-head self-attention (the BERT-style block's core).
//
// Processes one sequence at a time: input is (seq_len x d_model). On the
// accelerator the projections and score/value products are GEMMs, the
// 1/sqrt(d_k) scaling is a parameterized MHP, and the row softmax is the
// decomposed CPWL pipeline (max-subtract, exp, sum, reciprocal, multiply).
#pragma once

#include "nn/layer.hpp"
#include "nn/pack_cache.hpp"

namespace onesa::nn {

class MultiHeadSelfAttention : public Layer {
 public:
  MultiHeadSelfAttention(std::size_t d_model, std::size_t num_heads, Rng& rng);

  std::string name() const override { return "self_attention"; }

  tensor::Matrix forward(const tensor::Matrix& x) override;
  tensor::Matrix backward(const tensor::Matrix& grad_out) override;
  tensor::Matrix infer(const tensor::Matrix& x) const override;
  std::vector<Param*> params() override {
    return {&wq_, &wk_, &wv_, &wo_};
  }

  tensor::FixMatrix forward_accel(OneSaAccelerator& accel,
                                  const tensor::FixMatrix& x) override;
  void count_ops(OpCensus& census, std::size_t batch) const override;

  /// Pack the four projection weights (Wq/Wk/Wv/Wo) now so a served model's
  /// attention blocks never pack on the request path (the serving registry
  /// calls this at registration, like Linear/Conv2d).
  void prepack() const override;

  /// Drop all four packed projection caches. Only needed after assigning a
  /// projection Param's value directly (the optimizers bump Param::version
  /// instead) — same escape hatch as Linear::invalidate_packed.
  void invalidate_packed() const {
    packed_q_.invalidate();
    packed_k_.invalidate();
    packed_v_.invalidate();
    packed_o_.invalidate();
  }

  std::size_t d_model() const { return d_model_; }
  std::size_t num_heads() const { return heads_; }

  /// Sequence length of the last forward (needed for op counting).
  void set_seq_len(std::size_t seq) { seq_len_ = seq; }

 private:
  struct HeadCache {
    tensor::Matrix q, k, v;  // seq x d_head
    tensor::Matrix attn;     // seq x seq (post-softmax)
  };

  /// Shared forward/infer arithmetic; writes the backward caches only when
  /// the out-params are non-null (forward), so infer stays const and the two
  /// paths cannot diverge (the serving tier's bit-exactness contract).
  /// `use_packed` sends the four weight projections through the cached
  /// PackedB form (infer); forward keeps the raw weights, same rationale as
  /// Linear. Both produce identical bits (the gemm_packed contract). The
  /// per-head score and context products multiply activations, so they run
  /// through plain gemm(), which packs their B on every call once a head is
  /// wide enough for the blocked path.
  tensor::Matrix attend(const tensor::Matrix& x, std::vector<HeadCache>* cache_out,
                        tensor::Matrix* concat_out, bool use_packed) const;

  /// x @ w.value, through the version-keyed packed cache when requested.
  tensor::Matrix project(const tensor::Matrix& x, const Param& w,
                         const PackedWeightCache& cache, bool use_packed) const;

  std::size_t d_model_;
  std::size_t heads_;
  std::size_t d_head_;
  std::size_t seq_len_ = 0;
  Param wq_, wk_, wv_, wo_;  // each d_model x d_model
  tensor::Matrix cached_input_;
  tensor::Matrix cached_concat_;  // seq x d_model (pre-output-projection)
  std::vector<HeadCache> head_cache_;
  // Packed projection weights for the inference path, keyed on each Param's
  // version (see nn/pack_cache.hpp).
  PackedWeightCache packed_q_, packed_k_, packed_v_, packed_o_;
};

}  // namespace onesa::nn
