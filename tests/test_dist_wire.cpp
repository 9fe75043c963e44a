// Quantized gradient wire battery (dist/compression): fp16 and int8 edge
// values — subnormals, +-inf, the NaN tripwire interplay — the error-feedback
// residual staying bounded (and compensating) over 100 steps, zero-element
// and all-zero shards through the full wire, replica bit-synchrony under a
// lossy wire, and convergence parity of quantized training against the fp32
// wire.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/flags.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "data/synthetic_mnist.hpp"
#include "dist/algorithms.hpp"
#include "dist/compression.hpp"
#include "dist/overlap.hpp"
#include "models/mnist_lstm.hpp"
#include "obs/trace.hpp"
#include "optim/optimizer.hpp"

namespace legw::dist {
namespace {

using core::Rng;
using core::Tensor;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

// ---- fp16 edges -------------------------------------------------------------

TEST(Fp16Wire, SubnormalsInfinitiesAndNans) {
  // Smallest positive subnormal half is 2^-24; halves of it round to zero,
  // and float subnormals far below the half range flush to signed zero.
  EXPECT_EQ(half_to_float(float_to_half(0x1.0p-24f)), 0x1.0p-24f);
  EXPECT_EQ(half_to_float(float_to_half(0x1.0p-26f)), 0.0f);
  EXPECT_EQ(half_to_float(float_to_half(-0x1.0p-26f)), -0.0f);
  EXPECT_TRUE(std::signbit(half_to_float(float_to_half(-0x1.0p-26f))));
  // Largest finite half is 65504; anything above the rounding cutoff
  // overflows to inf — "gradient exploded" survives the wire.
  EXPECT_EQ(half_to_float(float_to_half(65504.0f)), 65504.0f);
  EXPECT_EQ(half_to_float(float_to_half(70000.0f)), kInf);
  EXPECT_EQ(half_to_float(float_to_half(kInf)), kInf);
  EXPECT_EQ(half_to_float(float_to_half(-kInf)), -kInf);
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(kNan))));
}

TEST(Fp16Wire, RoundTripIsExactForRepresentables) {
  // Every half-representable value must survive the round trip bitwise.
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const u16 h = static_cast<u16>(rng.next_u64() & 0xFFFFu);
    const float f = half_to_float(h);
    if (std::isnan(f)) continue;  // NaN payloads may canonicalise
    EXPECT_EQ(half_to_float(float_to_half(f)), f);
  }
}

// ---- int8 edges -------------------------------------------------------------

TEST(Int8Wire, QuantizationErrorBoundedByHalfScale) {
  Rng rng(23);
  Tensor t({257});
  for (i64 i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  std::vector<i8> wire;
  float scale = 0.0f;
  quantize_int8(t, wire, &scale);
  EXPECT_GT(scale, 0.0f);
  Tensor back({257});
  dequantize_int8(wire, scale, back);
  for (i64 i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(back[i] - t[i]), scale * 0.5f + 1e-7f) << i;
  }
}

TEST(Int8Wire, AmaxIsExactAndZeroTensorHasZeroScale) {
  Tensor t({3}, {0.5f, -1.5f, 0.25f});
  std::vector<i8> wire;
  float scale = 0.0f;
  quantize_int8(t, wire, &scale);
  // The extreme element maps to exactly +-127 and decodes back to amax.
  EXPECT_EQ(wire[1], -127);
  Tensor back({3});
  dequantize_int8(wire, scale, back);
  EXPECT_FLOAT_EQ(back[1], -1.5f);

  Tensor zeros({4});
  for (i64 i = 0; i < 4; ++i) zeros[i] = 0.0f;
  quantize_int8(zeros, wire, &scale);
  EXPECT_EQ(scale, 0.0f);
  for (i8 q : wire) EXPECT_EQ(q, 0);
}

TEST(Int8Wire, ScaleIgnoresNonFiniteElements) {
  // An exploded element must not blow up the scale for the finite ones.
  Tensor t({4}, {0.5f, kInf, -1.0f, kNan});
  std::vector<i8> wire;
  float scale = 0.0f;
  quantize_int8(t, wire, &scale);
  EXPECT_FLOAT_EQ(scale, 1.0f / 127.0f);
  EXPECT_EQ(wire[1], 0);  // non-finite encodes as 0 on this path
  EXPECT_EQ(wire[3], 0);
}

TEST(WireRoundtrip, PreservesNanAndInfForTripwires) {
  for (WireFormat format : {WireFormat::kFp16, WireFormat::kInt8}) {
    Tensor t({5}, {1.0f, kNan, -kInf, 0.25f, kInf});
    wire_roundtrip(format, t);
    EXPECT_FLOAT_EQ(t[0], 1.0f);
    EXPECT_TRUE(std::isnan(t[1]));
    EXPECT_EQ(t[2], -kInf);
    EXPECT_EQ(t[4], kInf);
  }
}

TEST(WireRoundtrip, Fp32IsIdentityAndOthersCountRequantize) {
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);  // obs::count is a no-op otherwise
  obs::TraceRecorder::global().clear();
  Tensor t({3}, {0.1f, 0.2f, 0.3f});
  const Tensor before = t;
  wire_roundtrip(WireFormat::kFp32, t);
  for (i64 i = 0; i < 3; ++i) EXPECT_EQ(t[i], before[i]);
  const auto none = obs::TraceRecorder::global().counters();
  EXPECT_EQ(none.find("dist.requantize"), none.end());
  wire_roundtrip(WireFormat::kFp16, t);
  wire_roundtrip(WireFormat::kInt8, t);
  const auto counters = obs::TraceRecorder::global().counters();
  ASSERT_NE(counters.find("dist.requantize"), counters.end());
  EXPECT_EQ(counters.at("dist.requantize"), 2);
  obs::TraceRecorder::global().clear();
  obs::set_tracing_enabled(was_tracing);
}

// ---- error feedback ---------------------------------------------------------

std::vector<std::vector<ag::Variable>> one_param_replicas(int n, i64 numel) {
  std::vector<std::vector<ag::Variable>> out;
  for (int r = 0; r < n; ++r) {
    out.push_back({ag::Variable::leaf(Tensor::zeros({numel}), true)});
  }
  return out;
}

TEST(ErrorFeedback, ResidualStaysBoundedOver100Steps) {
  // Error feedback compensates the quantization error step by step; if it
  // accumulated instead, the residual would grow linearly with the step
  // count. 100 steps of fresh gradients must keep it within one scale.
  const i64 numel = 64;
  auto params = one_param_replicas(2, numel);
  WireState state(params);
  Rng rng(31);
  for (int step = 0; step < 100; ++step) {
    std::vector<Tensor> grads;
    for (int r = 0; r < 2; ++r) {
      Tensor g({numel});
      for (i64 i = 0; i < numel; ++i) {
        g[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      grads.push_back(std::move(g));
    }
    std::vector<Tensor*> shards{&grads[0], &grads[1]};
    quantize_contributions(shards, WireFormat::kInt8, &state, nullptr, 0);
  }
  // Per-step quantization error is <= scale/2 with scale ~ amax/127 <~ 2/127;
  // a bounded residual sits within a couple of scales, far from 100x.
  EXPECT_LT(state.max_abs_residual(), 0.05f);
}

TEST(ErrorFeedback, ShipsSmallGradientsEventually) {
  // A gradient far below the quantization step vanishes on a plain int8
  // wire (rounds to 0 forever). With error feedback the residual
  // accumulates until it crosses the step, so the *average* shipped value
  // converges to the true gradient — the EF-SGD property that makes the
  // lossy wire safe for convergence.
  const float tiny = 0.003f;  // < scale/2 = (1.0/127)/2 ~ 0.0039
  auto params = one_param_replicas(1, 2);
  WireState state(params);
  double shipped_plain = 0.0;
  double shipped_ef = 0.0;
  const int steps = 100;
  for (int step = 0; step < steps; ++step) {
    Tensor plain({2}, {1.0f, tiny});
    std::vector<Tensor*> p{&plain};
    quantize_contributions(p, WireFormat::kInt8, nullptr, nullptr, 0);
    shipped_plain += static_cast<double>(plain[1]);

    Tensor ef({2}, {1.0f, tiny});
    std::vector<Tensor*> e{&ef};
    quantize_contributions(e, WireFormat::kInt8, &state, nullptr, 0);
    shipped_ef += static_cast<double>(ef[1]);
  }
  EXPECT_EQ(shipped_plain, 0.0);  // silently erased without feedback
  const double want = static_cast<double>(tiny) * steps;
  EXPECT_NEAR(shipped_ef, want, 0.2 * want);
}

TEST(ErrorFeedback, BroadcastKeepsShardsBitIdentical) {
  Rng rng(41);
  std::vector<Tensor> shards;
  for (int r = 0; r < 4; ++r) {
    Tensor t({33});
    for (i64 i = 0; i < 33; ++i) {
      t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    shards.push_back(std::move(t));
  }
  // Make them identical first (the post-allreduce state), then round-trip.
  for (int r = 1; r < 4; ++r) shards[static_cast<std::size_t>(r)] = shards[0];
  std::vector<Tensor*> ptrs;
  for (Tensor& t : shards) ptrs.push_back(&t);
  quantize_broadcast(ptrs, WireFormat::kInt8);
  for (int r = 1; r < 4; ++r) {
    for (i64 i = 0; i < 33; ++i) {
      ASSERT_EQ(shards[static_cast<std::size_t>(r)][i], shards[0][i]);
    }
  }
}

// One reduction over the lossy wire, as the engine runs it per parameter:
// quantize each contribution, reduce in fp32, quantize the broadcast.
void wire_allreduce(std::vector<Tensor*>& shards, WireFormat format,
                    WireState* state) {
  quantize_contributions(shards, format, state, nullptr, 0);
  tree_allreduce_mean(shards);
  quantize_broadcast(shards, format);
}

TEST(QuantizedWire, EmptyAndAllZeroShards) {
  for (WireFormat format : {WireFormat::kFp16, WireFormat::kInt8}) {
    SCOPED_TRACE(core::wire_format_name(format));
    // Zero-element shards, with and without error feedback: must not crash.
    auto empty_params = one_param_replicas(2, 0);
    WireState empty_state(empty_params);
    for (WireState* state : {static_cast<WireState*>(nullptr), &empty_state}) {
      Tensor a({0}), b({0});
      std::vector<Tensor*> shards = {&a, &b};
      wire_allreduce(shards, format, state);
      EXPECT_EQ(a.numel(), 0);
      EXPECT_EQ(b.numel(), 0);
    }
    EXPECT_EQ(empty_state.max_abs_residual(), 0.0f);

    // All-zero shards stay +0.0 bit for bit, on every shard.
    Tensor z1 = Tensor::zeros({9});
    Tensor z2 = Tensor::zeros({9});
    Tensor z3 = Tensor::zeros({9});
    std::vector<Tensor*> zero_shards = {&z1, &z2, &z3};
    wire_allreduce(zero_shards, format, nullptr);
    for (const Tensor* t : zero_shards) {
      for (i64 i = 0; i < t->numel(); ++i) {
        u32 bits = 0;
        const float v = (*t)[i];
        std::memcpy(&bits, &v, sizeof bits);
        EXPECT_EQ(bits, 0u) << "elem " << i;
      }
    }
  }
}

// ---- end-to-end: quantized training -----------------------------------------

struct TrainOutcome {
  float final_loss = 0.0f;
  std::vector<Tensor> final_params;
};

TrainOutcome train_quantized(core::WireFormat format, bool use_ef) {
  core::set_dist_wire(format);
  const int n = 4;
  const i64 shard = 4;
  models::MnistLstmConfig cfg;
  cfg.transform_dim = 8;
  cfg.hidden_dim = 8;
  std::vector<std::unique_ptr<models::MnistLstm>> models;
  std::vector<std::unique_ptr<optim::Optimizer>> opts;
  std::vector<std::vector<ag::Variable>> params;
  for (int r = 0; r < n; ++r) {
    models.push_back(std::make_unique<models::MnistLstm>(cfg));
    opts.push_back(
        optim::make_optimizer("momentum", models.back()->parameters(), 0.0f));
    params.push_back(models.back()->parameters());
  }
  std::unique_ptr<WireState> state;
  if (use_ef) state = std::make_unique<WireState>(params);

  data::SyntheticMnist dataset(128, 16, 42);
  TrainOutcome out;
  for (int step = 0; step < 6; ++step) {
    ReplicaStepOptions step_opts;
    step_opts.wire_state = state.get();
    const OverlapResult res = replica_backward_ex(
        params,
        [&](int r) {
          std::vector<i64> idx;
          for (i64 i = 0; i < shard; ++i) {
            idx.push_back((step * n + r) * shard + i);
          }
          return models[static_cast<std::size_t>(r)]->loss(
              dataset.gather_images(idx, true),
              dataset.gather_labels(idx, true));
        },
        step_opts);
    EXPECT_TRUE(res.ok) << res.error;
    out.final_loss = res.mean_loss;
    for (auto& opt : opts) {
      opt->set_lr(0.05);
      opt->step();
    }
    // The synchrony invariant must hold under a lossy wire: every replica
    // decodes the identical quantized broadcast.
    EXPECT_EQ(first_divergent_param(params), -1)
        << "step " << step << " format " << core::wire_format_name(format);
  }
  for (const ag::Variable& p : params[0]) out.final_params.push_back(p.value());
  core::set_dist_wire(core::WireFormat::kFp32);
  return out;
}

TEST(QuantizedTraining, ConvergenceParityWithFp32Wire) {
  const TrainOutcome fp32 = train_quantized(core::WireFormat::kFp32, false);
  const TrainOutcome fp16 = train_quantized(core::WireFormat::kFp16, true);
  const TrainOutcome int8 = train_quantized(core::WireFormat::kInt8, true);
  ASSERT_FALSE(std::isnan(fp32.final_loss));
  // Lossy wires follow the fp32 trajectory closely on a short run: the
  // losses agree to a few percent and parameters stay near the fp32 ones.
  EXPECT_NEAR(fp16.final_loss, fp32.final_loss,
              0.05f * std::fabs(fp32.final_loss) + 0.02f);
  EXPECT_NEAR(int8.final_loss, fp32.final_loss,
              0.10f * std::fabs(fp32.final_loss) + 0.05f);
  ASSERT_EQ(fp16.final_params.size(), fp32.final_params.size());
  double max_dev = 0.0;
  for (std::size_t p = 0; p < fp32.final_params.size(); ++p) {
    for (i64 i = 0; i < fp32.final_params[p].numel(); ++i) {
      max_dev = std::max(max_dev,
                         static_cast<double>(std::fabs(
                             fp16.final_params[p][i] - fp32.final_params[p][i])));
    }
  }
  EXPECT_LT(max_dev, 0.1);
}

}  // namespace
}  // namespace legw::dist
