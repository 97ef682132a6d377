#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "cpwl/segment_table.hpp"
#include "fixed/fixed16.hpp"
#include "net/protocol.hpp"
#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/linear.hpp"
#include "nn/quantized.hpp"
#include "stats.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/gemm_int16.hpp"
#include "tensor/ops.hpp"

namespace e2e {

using namespace onesa;
using tensor::Matrix;
using tensor::kernels::EpilogueInt16;

namespace {

constexpr std::size_t kMaxReps = 2000;
constexpr std::size_t kMinReps = 5;

/// Median per-call time of fn(rep) over about `budget_ms`, every call a span
/// under `parent`. The first call warms caches and is not counted.
template <typename F>
double median_call_ms(SpanRecorder& spans, const char* name, std::uint64_t parent,
                      double budget_ms, F&& fn) {
  fn(std::size_t{0});
  std::vector<double> times;
  const double end = monotonic_ms() + budget_ms;
  for (std::size_t rep = 1; times.size() < kMaxReps && (times.size() < kMinReps || monotonic_ms() < end);
       ++rep) {
    times.push_back(spans.time(name, parent, [&] { fn(rep); }));
  }
  return median(std::move(times));
}

// ------------------------------------------------------------------- nn layers

/// Op class of a leaf layer, as the Fig. 1 breakdown groups them.
enum Kind { kLinear, kActivation, kAttention, kLayerNorm, kOther, kKinds };
constexpr const char* kKindName[kKinds] = {"linear", "activation", "attention", "layernorm",
                                           "other"};
constexpr const char* kKindSpan[kKinds] = {"layer.linear", "layer.activation",
                                           "layer.attention", "layer.layernorm",
                                           "layer.other"};

Kind classify(const nn::Layer& layer) {
  if (dynamic_cast<const nn::Linear*>(&layer) != nullptr) return kLinear;
  if (dynamic_cast<const nn::Activation*>(&layer) != nullptr) return kActivation;
  if (dynamic_cast<const nn::MultiHeadSelfAttention*>(&layer) != nullptr) return kAttention;
  if (layer.name() == "layernorm") return kLayerNorm;
  return kOther;
}

struct DoubleGemm {
  GemmShape shape;
  std::shared_ptr<const tensor::kernels::PackedB> weight;
};

/// Run `layer` leaf by leaf (residual adds count as "other"), adding each
/// leaf's time to `t`. With `gemms`, also collect the packed GEMMs it runs.
Matrix walk(nn::Layer& layer, const Matrix& x, double* t, SpanRecorder& spans,
            std::uint64_t parent, std::vector<DoubleGemm>* gemms) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer)) {
    Matrix y = x;
    for (std::size_t i = 0; i < seq->size(); ++i) y = walk(seq->at(i), y, t, spans, parent, gemms);
    return y;
  }
  if (auto* res = dynamic_cast<nn::Residual*>(&layer)) {
    const Matrix inner = walk(res->inner(), x, t, spans, parent, gemms);
    Matrix out;
    t[kOther] += spans.time("layer.other", parent, [&] { out = tensor::add(inner, x); });
    return out;
  }
  const Kind kind = classify(layer);
  Matrix y;
  t[kind] += spans.time(kKindSpan[kind], parent, [&] { y = layer.infer(x); });
  if (gemms != nullptr) {
    if (auto* lin = dynamic_cast<const nn::Linear*>(&layer)) {
      gemms->push_back({{x.rows(), x.cols(), y.cols()}, lin->packed_weight()});
    } else if (kind == kAttention) {
      // Q, K, V and output projections: four d x d packed GEMMs. The
      // per-head score/context products run through tensor::matmul and are
      // not part of the packed-kernel figures.
      const std::size_t d = x.cols();
      Rng rng(0xA77E);
      const Matrix w = tensor::random_uniform(d, d, rng, -0.1, 0.1);
      auto packed = std::make_shared<const tensor::kernels::PackedB>(
          tensor::kernels::PackedB::pack(w.data().data(), d, d));
      for (int i = 0; i < 4; ++i) gemms->push_back({{x.rows(), d, d}, packed});
    }
  }
  return y;
}

using QBuf = std::vector<std::int16_t>;

/// One INT16 forward split by op class: the GEMMs with their bias/requantize
/// epilogue are "linear", the CPWL table pass "activation", and input
/// quantization plus logit dequantization "other".
void walk_int16(const nn::QuantizedModel& q, const Matrix& x, double* t, SpanRecorder& spans,
                std::uint64_t parent) {
  const std::size_t rows = x.rows();
  QBuf cur(rows * q.in_features());
  t[kOther] += spans.time("layer.other", parent, [&] {
    for (std::size_t i = 0; i < x.size(); ++i)
      cur[i] = fixed::Fix16::from_double(x.at_flat(i)).raw();
  });
  QBuf next;
  QBuf act;
  for (std::size_t li = 0; li < q.layer_count(); ++li) {
    const nn::QuantizedLayer& l = q.layer(li);
    next.resize(rows * l.out);
    EpilogueInt16 epi;
    epi.kind = l.kind == EpilogueInt16::Kind::kBiasTable ? EpilogueInt16::Kind::kBias : l.kind;
    epi.bias = l.bias.data();
    epi.shift = l.w_frac_bits;
    t[kLinear] += spans.time("layer.linear", parent, [&] {
      tensor::kernels::gemm_packed_int16(cur.data(), l.weight, next.data(), rows, epi);
    });
    if (l.kind == EpilogueInt16::Kind::kBiasTable) {
      act.resize(next.size());
      t[kActivation] += spans.time("layer.activation", parent, [&] {
        nn::segment_table_batch_eval(l.table, next.data(), act.data(), act.size());
      });
      next.swap(act);
    }
    cur.swap(next);
  }
  Matrix out(rows, q.out_features());
  t[kOther] += spans.time("layer.other", parent, [&] {
    for (std::size_t i = 0; i < out.size(); ++i)
      out.at_flat(i) = static_cast<double>(cur[i]) / static_cast<double>(fixed::Fix16::kOne);
  });
}

}  // namespace

ReplayResult replay_layers(const WorkloadSpec& spec, const RequestPool& pool,
                           const std::vector<serve::ModelHandle>& handles, double budget_ms,
                           SpanRecorder& spans) {
  ReplayResult out;
  const std::size_t n = pool.inputs.size();
  const bool int16_lane = handles.front()->quantized != nullptr;
  out.gemm_lane = int16_lane ? "int16" : "double";

  // ---- net: the four payload codecs plus frame extraction, per request.
  {
    std::vector<net::InferRequest> requests(n);
    std::vector<net::InferReply> replies(n);
    for (std::size_t e = 0; e < n; ++e) {
      requests[e].model = spec.models[pool.model[e]].name;
      requests[e].priority = pool.priority[e];
      requests[e].input = pool.inputs[e];
      replies[e].logits = pool.lane_ref[e];
    }
    const std::uint64_t group = spans.open("replay.net.codec");
    std::vector<unsigned char> buf;
    std::vector<net::Frame> frames;
    std::string err;
    const double ms = median_call_ms(spans, "codec", group, 0.1 * budget_ms, [&](std::size_t rep) {
      const std::size_t e = rep % n;
      buf.clear();
      net::encode_infer(buf, rep, requests[e]);
      net::FrameDecoder request_decoder;
      frames.clear();
      net::InferRequest decoded;
      if (!request_decoder.feed(buf.data(), buf.size(), frames) || frames.size() != 1 ||
          !net::decode_infer(frames[0].payload.data(), frames[0].payload.size(), decoded, err))
        throw std::runtime_error("codec replay: request did not round-trip: " + err);
      buf.clear();
      net::encode_infer_reply(buf, rep, replies[e]);
      net::FrameDecoder reply_decoder;
      frames.clear();
      net::InferReply reply;
      if (!reply_decoder.feed(buf.data(), buf.size(), frames) || frames.size() != 1 ||
          !net::decode_infer_reply(frames[0].payload.data(), frames[0].payload.size(), reply, err))
        throw std::runtime_error("codec replay: reply did not round-trip: " + err);
    });
    spans.close(group);
    out.metrics["net.codec_us_per_req"] = ms * 1e3;
  }

  // ---- nn: one request through the served lane's public entry point.
  {
    const std::uint64_t group = spans.open("replay.nn.infer");
    const double ms = median_call_ms(spans, "nn.infer", group, 0.3 * budget_ms, [&](std::size_t rep) {
      const std::size_t e = rep % n;
      const serve::ModelEntry& entry = *handles[pool.model[e]];
      const Matrix y = entry.quantized ? entry.quantized->infer(pool.inputs[e])
                                       : entry.model->infer(pool.inputs[e]);
      if (y.rows() == 0) throw std::runtime_error("nn replay: empty output");
    });
    spans.close(group);
    out.metrics["nn.infer_ms"] = ms;
  }

  // ---- nn layers by op class, and the GEMMs they run.
  std::vector<DoubleGemm> gemms;
  {
    // The double lane is replayed on identical twins of the served models
    // (the walk needs each Residual's inner layer, which the registry's
    // const handle does not expose).
    std::vector<std::unique_ptr<nn::Sequential>> twins;
    if (!int16_lane) {
      for (const ServedModel& m : spec.models) {
        twins.push_back(m.build());
        twins.back()->prepack();
      }
      // One walk per model collects its GEMMs, weighted by the model's share
      // of the request pool.
      for (std::uint32_t m = 0; m < spec.models.size(); ++m) {
        const auto first = std::find(pool.model.begin(), pool.model.end(), m);
        if (first == pool.model.end()) continue;
        const double share = static_cast<double>(std::count(pool.model.begin(), pool.model.end(), m)) /
                             static_cast<double>(n);
        double unused[kKinds] = {};
        SpanRecorder unrecorded;
        std::vector<DoubleGemm> found;
        walk(*twins[m], pool.inputs[static_cast<std::size_t>(first - pool.model.begin())], unused,
             unrecorded, 0, &found);
        for (DoubleGemm& g : found) {
          g.shape.calls_per_request = share;
          gemms.push_back(std::move(g));
        }
      }
    }

    const std::uint64_t group = spans.open("replay.nn.layers");
    std::vector<double> per_kind[kKinds];
    const double end = monotonic_ms() + 0.3 * budget_ms;
    for (std::size_t rep = 0; rep < kMaxReps && (rep < kMinReps + 1 || monotonic_ms() < end); ++rep) {
      const std::size_t e = rep % n;
      double t[kKinds] = {};
      const std::uint64_t req = spans.open("layers", group);
      if (int16_lane)
        walk_int16(*handles[pool.model[e]]->quantized, pool.inputs[e], t, spans, req);
      else
        walk(*twins[pool.model[e]], pool.inputs[e], t, spans, req, nullptr);
      spans.close(req);
      if (rep == 0) continue;  // warm-up
      for (int k = 0; k < kKinds; ++k) per_kind[k].push_back(t[k]);
    }
    spans.close(group);
    for (int k = 0; k < kKinds; ++k)
      out.metrics[std::string("nn.layer_ms.") + kKindName[k]] = median(per_kind[k]);
  }

  // ---- kernels: the workload's own GEMM shapes on its own lane.
  {
    const std::uint64_t group = spans.open("replay.kernels");
    Rng rng(0xC0DE);
    const double per_shape = 0.2 * budget_ms;  // split over the shapes
    if (int16_lane) {
      const nn::QuantizedModel& q = *handles.front()->quantized;
      const std::size_t rows = pool.inputs.front().rows();
      for (std::size_t li = 0; li < q.layer_count(); ++li) {
        const nn::QuantizedLayer& l = q.layer(li);
        QBuf a(rows * l.in);
        for (auto& v : a) v = static_cast<std::int16_t>(rng.integer(-512, 512));
        QBuf c(rows * l.out);
        EpilogueInt16 epi;
        epi.kind = l.kind;
        epi.bias = l.bias.data();
        epi.shift = l.w_frac_bits;
        if (l.kind == EpilogueInt16::Kind::kBiasTable) {
          epi.table_eval = &nn::segment_table_batch_eval;
          epi.table = l.table;
        }
        GemmShape s{rows, l.in, l.out, 1.0, 0.0};
        s.ms_per_call = median_call_ms(spans, "gemm_packed_int16", group,
                                       per_shape / static_cast<double>(q.layer_count()),
                                       [&](std::size_t) {
                                         tensor::kernels::gemm_packed_int16(a.data(), l.weight,
                                                                            c.data(), rows, epi);
                                       });
        out.gemms.push_back(s);
      }
    } else {
      // Merge calls of identical dimensions, then time each shape once.
      std::vector<const DoubleGemm*> timed;
      for (const DoubleGemm& g : gemms) {
        auto it = std::find_if(out.gemms.begin(), out.gemms.end(), [&](const GemmShape& s) {
          return s.m == g.shape.m && s.k == g.shape.k && s.n == g.shape.n;
        });
        if (it != out.gemms.end()) {
          it->calls_per_request += g.shape.calls_per_request;
        } else {
          out.gemms.push_back(g.shape);
          timed.push_back(&g);
        }
      }
      for (std::size_t i = 0; i < out.gemms.size(); ++i) {
        GemmShape& s = out.gemms[i];
        const Matrix a = tensor::random_uniform(s.m, s.k, rng, -1.0, 1.0);
        Matrix c(s.m, s.n);
        s.ms_per_call = median_call_ms(spans, "gemm_packed", group,
                                       per_shape / static_cast<double>(out.gemms.size()),
                                       [&](std::size_t) {
                                         tensor::kernels::gemm_packed(a.data().data(), *timed[i]->weight,
                                                                      c.data().data(), s.m);
                                       });
      }
    }
    spans.close(group);
    const double elem = int16_lane ? 2.0 : 8.0;
    double flops = 0.0, ms = 0.0, bytes = 0.0;
    const GemmShape* largest = nullptr;
    for (const GemmShape& s : out.gemms) {
      flops += s.flops() * s.calls_per_request;
      ms += s.ms_per_call * s.calls_per_request;
      bytes += elem * static_cast<double>(s.m * s.k + s.k * s.n + s.m * s.n) * s.calls_per_request;
      if (largest == nullptr || s.flops() > largest->flops()) largest = &s;
    }
    out.metrics["kernels.gemm_gflops"] = ms > 0.0 ? flops / (ms * 1e6) : 0.0;
    out.metrics["kernels.gemm_gflops.largest"] =
        largest != nullptr && largest->ms_per_call > 0.0 ? largest->flops() / (largest->ms_per_call * 1e6)
                                                        : 0.0;
    out.metrics["kernels.gemm_mflop_per_req"] = flops * 1e-6;
    out.metrics["kernels.gemm_mbytes_per_req"] = bytes * 1e-6;
  }

  // ---- cpwl: the GELU table over rows x 3072 (the BERT FFN hidden width).
  {
    const cpwl::SegmentTable table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
    std::size_t rows = 1;  // rows of the workload's widest activation
    for (const GemmShape& g : out.gemms) rows = std::max(rows, g.m);
    const std::size_t elems = rows * 3072;
    Rng rng(0xC9A1);
    std::vector<double> x(elems), y(elems);
    for (double& v : x) v = rng.uniform(-4.0, 4.0);
    std::vector<fixed::Fix16> xf(elems), yf(elems);
    for (std::size_t i = 0; i < elems; ++i) xf[i] = fixed::Fix16::from_double(x[i]);
    const std::uint64_t group = spans.open("replay.cpwl");
    const double ms = median_call_ms(spans, int16_lane ? "eval_fixed_batch" : "eval_batch", group,
                                     0.1 * budget_ms, [&](std::size_t) {
                                       if (int16_lane)
                                         table.eval_fixed_batch(xf, yf);
                                       else
                                         table.eval_batch(x, y);
                                     });
    spans.close(group);
    out.metrics["cpwl.ns_per_elem"] = ms * 1e6 / static_cast<double>(elems);
  }
  return out;
}

}  // namespace e2e
