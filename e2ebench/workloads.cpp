#include "workloads.hpp"

#include <cmath>

#include "cpwl/segment_table.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/quantized.hpp"
#include "net/protocol.hpp"

namespace e2e {

using namespace onesa;

namespace {

std::unique_ptr<nn::Sequential> mlp(std::size_t in, std::size_t hidden, std::size_t out,
                                    std::uint64_t weight_seed) {
  Rng rng(weight_seed);
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(in, hidden, rng));
  model->add(nn::make_relu());
  model->add(std::make_unique<nn::Linear>(hidden, out, rng));
  return model;
}

/// The GELU table the INT16 FFN evaluates; models borrow it, so it lives for
/// the whole process.
const cpwl::SegmentTable& gelu_table() {
  static const cpwl::SegmentTable table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  return table;
}

std::unique_ptr<nn::Sequential> bert_ffn() {
  Rng rng(53);
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(768, 3072, rng));
  auto act = std::make_unique<nn::Activation>(cpwl::FunctionKind::kGelu);
  act->use_table(&gelu_table());
  model->add(std::move(act));
  model->add(std::make_unique<nn::Linear>(3072, 768, rng));
  return model;
}

constexpr std::size_t kEncoderVocab = 1024;
constexpr std::size_t kEncoderSeq = 32;

std::unique_ptr<nn::Sequential> encoder_block() {
  Rng rng(0xE7C0);
  nn::TransformerSpec spec;
  spec.vocab = kEncoderVocab;
  spec.seq_len = kEncoderSeq;
  spec.d_model = 768;
  spec.num_heads = 12;
  spec.num_layers = 1;
  spec.ffn_hidden = 3072;
  spec.classes = 4;
  return nn::make_transformer_classifier(spec, rng);
}

ServedModel mlp_model(std::string name, std::size_t in, std::size_t hidden, std::size_t out,
                      std::uint64_t weight_seed) {
  ServedModel m;
  m.name = std::move(name);
  m.options.batchable = true;
  m.build = [=] { return mlp(in, hidden, out, weight_seed); };
  m.make_input = [in](Rng& rng) { return tensor::random_uniform(1, in, rng, -1.0, 1.0); };
  return m;
}

std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> out;

  WorkloadSpec front;
  front.name = "front-door";
  front.models.push_back(mlp_model("mlp", 4, 16, 4, 0x10AD));
  front.models.push_back(mlp_model("mlp-wide", 8, 32, 8, 0x10AE));
  front.interactive_share = 0.3;
  front.nominal_rps = 8000.0;
  front.ladder_base_rps = 30000.0;
  front.ladder_step = 1.07;
  front.limit_ms = 25.0;
  front.pool_size = 512;
  front.setups = 31;
  // Tiny models: one core is plenty, and keeping the reactor and workers on
  // one core keeps cross-core wake-ups of a virtualized host out of a
  // microsecond-scale latency.
  front.server_cpus = 1;
  out.push_back(std::move(front));

  WorkloadSpec ffn;
  ffn.name = "ffn-int16";
  ServedModel ffn_model;
  ffn_model.name = "bert-ffn";
  ffn_model.options.batchable = true;
  ffn_model.options.precision = serve::Precision::kInt16;
  ffn_model.build = bert_ffn;
  ffn_model.make_input = [](Rng& rng) { return tensor::random_uniform(16, 768, rng, -1.0, 1.0); };
  ffn.models.push_back(std::move(ffn_model));
  // Nominal rates sit far below the capacity of a busy period, so the
  // nominal latency is service plus transport, not queueing: a host that
  // runs 3x slower for a while moves p50 by 3x, not by the 10x a
  // near-saturated queue would.
  ffn.nominal_rps = 60.0;
  // Capacity ranged 400-2500 rps here between busy and quiet periods, so
  // the ladder spans 200-2650 rps.
  ffn.ladder_base_rps = 200.0;
  ffn.ladder_step = 1.09;
  ffn.limit_ms = 50.0;
  ffn.pool_size = 32;
  ffn.setups = 5;
  out.push_back(std::move(ffn));

  WorkloadSpec enc;
  enc.name = "encoder";
  ServedModel enc_model;
  enc_model.name = "bert-encoder";
  enc_model.build = encoder_block;
  enc_model.make_input = [](Rng& rng) {
    tensor::Matrix ids(1, kEncoderSeq);
    for (std::size_t i = 0; i < kEncoderSeq; ++i)
      ids.at_flat(i) = static_cast<double>(rng.integer(0, kEncoderVocab - 1));
    return ids;
  };
  enc.models.push_back(std::move(enc_model));
  enc.nominal_rps = 15.0;
  // This host's encoder capacity ranged 30-170 rps between busy and quiet
  // periods, so its ladder spans 25-332 rps.
  enc.ladder_base_rps = 25.0;
  enc.ladder_step = 1.09;
  enc.limit_ms = 200.0;
  enc.pool_size = 32;
  enc.setups = 5;
  out.push_back(std::move(enc));
  return out;
}

}  // namespace

double WorkloadSpec::ladder_rps(int rung) const {
  return ladder_base_rps * std::pow(ladder_step, static_cast<double>(rung));
}

RequestPool make_pool(const WorkloadSpec& spec, std::uint64_t seed,
                      const std::vector<serve::ModelHandle>& handles) {
  RequestPool pool;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  for (std::size_t i = 0; i < spec.pool_size; ++i) {
    const auto m = static_cast<std::uint32_t>(rng.integer(0, static_cast<std::int64_t>(spec.models.size()) - 1));
    const ServedModel& model = spec.models[m];
    net::InferRequest req;
    req.model = model.name;
    req.priority = rng.bernoulli(spec.interactive_share) ? serve::Priority::kInteractive
                                                          : serve::Priority::kNormal;
    req.input = model.make_input(rng);

    EncodedRequest frame;
    net::encode_infer(frame, 0, req);

    const serve::ModelEntry& entry = *handles.at(m);
    pool.double_ref.push_back(entry.model->infer(req.input));
    pool.lane_ref.push_back(entry.quantized ? entry.quantized->infer(req.input)
                                            : pool.double_ref.back());
    pool.requests.push_back(std::move(frame));
    pool.model.push_back(m);
    pool.priority.push_back(req.priority);
    pool.inputs.push_back(std::move(req.input));
  }
  return pool;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = build_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace e2e
