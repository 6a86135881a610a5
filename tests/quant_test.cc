// Coverage of the quantized inference kernels (fast path round two):
// packing round-trips, GEMV parity against the dequantized reference,
// batch-composition invariance, end-to-end accuracy parity of the reduced
// precisions against the double path, shared packed weights, and in-place
// weight swaps through RetirePooledSessions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/neural_router.h"
#include "core/deepst_model.h"
#include "core/infer/session.h"
#include "eval/world.h"
#include "nn/backend.h"
#include "nn/infer/forward.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace deepst {
namespace core {
namespace {

using nn::infer::PackedMatrix;
using nn::infer::Precision;

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "quant-test-world";
    cfg.city.rows = 7;
    cfg.city.cols = 7;
    cfg.generator.num_days = 4;
    cfg.generator.max_route_m = 6000.0;
    cfg.train_days = 2;
    cfg.val_days = 1;
    return new eval::World(cfg);
  }();
  return *world;
}

DeepSTConfig SmallConfig() {
  DeepSTConfig cfg;
  cfg.segment_embedding_dim = 12;
  cfg.gru_hidden = 24;
  cfg.gru_layers = 2;
  cfg.dest_dim = 12;
  cfg.traffic_dim = 8;
  cfg.num_proxies = 8;
  cfg.cnn_channels = 6;
  cfg.mlp_hidden = 24;
  return cfg;
}

// Base test config: DeepST-C (no traffic dependency, deterministic MAP
// beam) at double precision.
DeepSTConfig BaseConfig() { return baselines::DeepStCConfigOf(SmallConfig()); }

std::vector<const traj::TripRecord*> TestTrips(int n) {
  std::vector<const traj::TripRecord*> out;
  for (const auto* rec : TestWorld().split().test) {
    if (static_cast<int>(out.size()) >= n) break;
    if (rec->trip.route.size() >= 3) out.push_back(rec);
  }
  return out;
}

// Reference GEMV through PackedMatrix::Dequant, accumulated sequentially in
// double: the value the kernel approximates.
void ReferenceGemv(const std::vector<double>& x, const PackedMatrix& w,
                   const float* bias, std::vector<float>* out, int64_t m) {
  const int64_t k = w.cols;
  const int64_t n = w.rows;
  out->assign(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += x[static_cast<size_t>(i * k + kk)] * w.Dequant(j, kk);
      }
      float v = static_cast<float>(acc);
      if (bias != nullptr) v += bias[j];
      (*out)[static_cast<size_t>(i * n + j)] = v;
    }
  }
}

TEST(PackingTest, Bf16RoundTripWithinHalfUlp) {
  util::Rng rng(3);
  const int64_t rows = 9, cols = 21;
  nn::Tensor w = nn::Tensor::Uniform({rows, cols}, -4.0, 4.0, &rng);
  const PackedMatrix p = PackedMatrix::Pack(w.data(), rows, cols, cols,
                                            Precision::kBf16);
  EXPECT_EQ(p.PackedBytes(), static_cast<size_t>(rows * cols) * 2);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const double orig = w.data()[r * cols + c];
      // bf16 keeps 8 significand bits; round-to-nearest-even is within half
      // an ulp, i.e. 2^-8 relative.
      EXPECT_NEAR(p.Dequant(r, c), orig, std::fabs(orig) * 0x1p-8 + 1e-30);
    }
  }
}

TEST(PackingTest, Bf16ExactForRepresentableValues) {
  const float vals[] = {0.0f, 1.0f, -2.0f, 0.5f, -0.3125f, 96.0f};
  const PackedMatrix p = PackedMatrix::Pack(vals, 1, 6, 6, Precision::kBf16);
  for (int64_t c = 0; c < 6; ++c) {
    EXPECT_EQ(p.Dequant(0, c), static_cast<double>(vals[c]));
  }
}

TEST(PackingTest, Int8RoundTripWithinOneStep) {
  util::Rng rng(4);
  const int64_t rows = 7, cols = 33;
  nn::Tensor w = nn::Tensor::Uniform({rows, cols}, -2.0, 2.0, &rng);
  const PackedMatrix p = PackedMatrix::Pack(w.data(), rows, cols, cols,
                                            Precision::kInt8);
  EXPECT_EQ(p.PackedBytes(),
            static_cast<size_t>(rows * cols) + static_cast<size_t>(rows) * 8);
  for (int64_t r = 0; r < rows; ++r) {
    const double step = static_cast<double>(p.scale[static_cast<size_t>(r)]);
    for (int64_t c = 0; c < cols; ++c) {
      // Affine quantization over the row range: each value is within one
      // step (round + clamp each contribute at most half).
      EXPECT_NEAR(p.Dequant(r, c), w.data()[r * cols + c], step);
    }
  }
}

TEST(PackingTest, Int8ConstantAndZeroRows) {
  const float vals[] = {0.75f, 0.75f, 0.75f, 0.75f,   // constant row
                        0.0f,  0.0f,  0.0f,  0.0f,    // zero row
                        1.0f,  1.0f,  1.0f,  1.0000001f};  // near-constant
  const PackedMatrix p = PackedMatrix::Pack(vals, 3, 4, 4, Precision::kInt8);
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(p.Dequant(0, c), 0.75, 1e-7);
    EXPECT_EQ(p.Dequant(1, c), 0.0);
    EXPECT_NEAR(p.Dequant(2, c), 1.0, 1e-6);
  }
}

TEST(GemvTest, MatchesDequantReferencePerPrecision) {
  util::Rng rng(5);
  const int64_t m = 5, k = 37, n = 29;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.5, 1.5, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  for (Precision prec :
       {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
    const PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    std::vector<float> got(static_cast<size_t>(m * n));
    nn::infer::GemvForward(x.data(), k, p, bias.data(), nullptr, got.data(),
                           m, n);
    std::vector<float> want;
    ReferenceGemv(x, p, bias.data(), &want, m);
    for (size_t e = 0; e < got.size(); ++e) {
      // The kernel differs from the sequential double reference only in
      // accumulation order (8 double lanes, resp. 16 float lanes); 1e-3
      // bounds the float-lane case with room to spare at these sizes.
      EXPECT_NEAR(got[e], want[e], 1e-3) << nn::infer::PrecisionName(prec)
                                         << " element " << e;
    }
  }
}

TEST(GemvTest, RowBiasMatchesPerRowCalls) {
  util::Rng rng(6);
  const int64_t m = 6, k = 24, n = 17, queries = 3;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({queries, n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const std::vector<int> bias_row = {0, 2, 1, 1, 0, 2};
  for (Precision prec :
       {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
    const PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    std::vector<float> got(static_cast<size_t>(m * n));
    nn::infer::GemvForward(x.data(), k, p, bias.data(), nullptr, got.data(),
                           m, n, bias_row.data());
    for (int64_t i = 0; i < m; ++i) {
      std::vector<float> row(static_cast<size_t>(n));
      nn::infer::GemvForward(x.data() + i * k, k, p,
                             bias.data() + bias_row[static_cast<size_t>(i)] * n,
                             nullptr, row.data(), 1, n);
      for (int64_t j = 0; j < n; ++j) {
        // Bitwise: identical arithmetic per element, only the bias pointer
        // plumbing differs.
        EXPECT_EQ(got[static_cast<size_t>(i * n + j)],
                  row[static_cast<size_t>(j)])
            << nn::infer::PrecisionName(prec);
      }
    }
  }
}

TEST(GemvTest, BatchCompositionIsBitwiseInvariant) {
  util::Rng rng(7);
  const int64_t m = 8, k = 40, n = 23;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  for (Precision prec :
       {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
    const PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    std::vector<float> batched(static_cast<size_t>(m * n));
    nn::infer::GemvForward(x.data(), k, p, nullptr, nullptr, batched.data(),
                           m, n);
    for (int64_t i = 0; i < m; ++i) {
      std::vector<float> single(static_cast<size_t>(n));
      nn::infer::GemvForward(x.data() + i * k, k, p, nullptr, nullptr,
                             single.data(), 1, n);
      EXPECT_EQ(std::memcmp(batched.data() + i * n, single.data(),
                            static_cast<size_t>(n) * sizeof(float)),
                0)
          << nn::infer::PrecisionName(prec) << " row " << i;
    }
  }
}

// -- Register-blocked GEMM (fast path round three) ---------------------------
// BuildPanels() packs a K-major panel sidecar and batched (m > 1) calls then
// route through the blocked micro-kernels. The blocking only reorders work
// ACROSS output elements — each element's accumulation sequence is exactly
// the chunk kernel's — so results must be bitwise identical to the unpacked
// chunk path for every precision, shape and batch composition.

TEST(GemmTest, BlockedMatchesChunkBitwiseAcrossShapes) {
  util::Rng rng(11);
  // k = 43: K-tail for both the 8-wide double panels and the 16-wide
  // reduced-precision panels. n = 23: odd NR=2 tail row. m sweeps partial
  // and full micro-tile bands (MR = 4).
  const int64_t k = 43, n = 23;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.2, 1.2, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({n}, -1.0, 1.0, &rng);
  for (int64_t m : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5},
                    int64_t{16}, int64_t{33}}) {
    std::vector<double> x(static_cast<size_t>(m * k));
    for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
    for (Precision prec :
         {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
      const PackedMatrix bare = PackedMatrix::Pack(wt.data(), n, k, k, prec);
      PackedMatrix blocked = PackedMatrix::Pack(wt.data(), n, k, k, prec);
      blocked.BuildPanels();
      ASSERT_TRUE(blocked.has_panels());
      std::vector<float> chunk(static_cast<size_t>(m * n));
      std::vector<float> gemm(static_cast<size_t>(m * n));
      nn::infer::GemvForward(x.data(), k, bare, bias.data(), nullptr,
                             chunk.data(), m, n);
      nn::infer::GemvForward(x.data(), k, blocked, bias.data(), nullptr,
                             gemm.data(), m, n);
      EXPECT_EQ(std::memcmp(chunk.data(), gemm.data(),
                            chunk.size() * sizeof(float)),
                0)
          << nn::infer::PrecisionName(prec) << " m=" << m;
    }
  }
}

TEST(GemmTest, BlockedDoubleIsBitwiseLinearForward) {
  util::Rng rng(12);
  const int64_t m = 9, k = 50, n = 21;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k, Precision::kDouble);
  p.BuildPanels();
  std::vector<float> gemm(static_cast<size_t>(m * n));
  nn::infer::GemvForward(x.data(), k, p, bias.data(), nullptr, gemm.data(),
                         m, n);
  std::vector<double> wd(static_cast<size_t>(n * k));
  for (int64_t e = 0; e < n * k; ++e)
    wd[static_cast<size_t>(e)] = static_cast<double>(wt.data()[e]);
  std::vector<float> ref(static_cast<size_t>(m * n));
  nn::infer::LinearForward(x.data(), k, wd.data(), k, bias.data(), nullptr,
                           ref.data(), m, k, n);
  EXPECT_EQ(std::memcmp(gemm.data(), ref.data(), ref.size() * sizeof(float)),
            0);
}

TEST(GemmTest, RowBiasBlockedMatchesChunkBitwise) {
  util::Rng rng(13);
  const int64_t m = 7, k = 24, n = 17, queries = 3;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  nn::Tensor bias = nn::Tensor::Uniform({queries, n}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const std::vector<int> bias_row = {0, 2, 1, 1, 0, 2, 1};
  for (Precision prec :
       {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
    const PackedMatrix bare = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    PackedMatrix blocked = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    blocked.BuildPanels();
    std::vector<float> chunk(static_cast<size_t>(m * n));
    std::vector<float> gemm(static_cast<size_t>(m * n));
    nn::infer::GemvForward(x.data(), k, bare, bias.data(), nullptr,
                           chunk.data(), m, n, bias_row.data());
    nn::infer::GemvForward(x.data(), k, blocked, bias.data(), nullptr,
                           gemm.data(), m, n, bias_row.data());
    EXPECT_EQ(
        std::memcmp(chunk.data(), gemm.data(), chunk.size() * sizeof(float)),
        0)
        << nn::infer::PrecisionName(prec);
  }
}

TEST(GemmTest, BatchCompositionThroughBlockedPath) {
  util::Rng rng(14);
  const int64_t m = 11, k = 40, n = 23;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  std::vector<double> x(static_cast<size_t>(m * k));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  for (Precision prec :
       {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
    PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    p.BuildPanels();
    std::vector<float> batched(static_cast<size_t>(m * n));
    nn::infer::GemvForward(x.data(), k, p, nullptr, nullptr, batched.data(),
                           m, n);
    // Single rows take the chunk path (m == 1 never dispatches to the
    // blocked kernels); a blocked batch must reproduce them bitwise.
    for (int64_t i = 0; i < m; ++i) {
      std::vector<float> single(static_cast<size_t>(n));
      nn::infer::GemvForward(x.data() + i * k, k, p, nullptr, nullptr,
                             single.data(), 1, n);
      EXPECT_EQ(std::memcmp(batched.data() + i * n, single.data(),
                            static_cast<size_t>(n) * sizeof(float)),
                0)
          << nn::infer::PrecisionName(prec) << " row " << i;
    }
  }
}

TEST(GemmTest, PanelPackingRoundTrip) {
  util::Rng rng(15);
  const int64_t k = 40, n = 22;
  nn::Tensor wt = nn::Tensor::Uniform({n, k}, -1.0, 1.0, &rng);
  for (Precision prec :
       {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
    PackedMatrix p = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    const PackedMatrix flat = PackedMatrix::Pack(wt.data(), n, k, k, prec);
    p.BuildPanels();
    p.BuildPanels();  // idempotent
    ASSERT_TRUE(p.has_panels());
    const int64_t bw = p.PanelBlock();
    const int64_t np = n / nn::infer::kGemmNr;
    const int64_t kb = k / bw;
    // panel[pn][b][r][lane] holds row-major element
    // (pn * kGemmNr + r, b * bw + lane).
    for (int64_t pn = 0; pn < np; ++pn) {
      for (int64_t b = 0; b < kb; ++b) {
        for (int64_t r = 0; r < nn::infer::kGemmNr; ++r) {
          for (int64_t lane = 0; lane < bw; ++lane) {
            const size_t pe = static_cast<size_t>(
                ((pn * kb + b) * nn::infer::kGemmNr + r) * bw + lane);
            const size_t fe = static_cast<size_t>(
                (pn * nn::infer::kGemmNr + r) * k + b * bw + lane);
            switch (prec) {
              case Precision::kDouble:
                EXPECT_EQ(p.pd[pe], flat.d[fe]);
                break;
              case Precision::kBf16:
                EXPECT_EQ(p.ph[pe], flat.h[fe]);
                break;
              case Precision::kInt8:
                EXPECT_EQ(p.pq[pe], flat.q[fe]);
                break;
            }
          }
        }
      }
    }
  }
}

// End-to-end accuracy parity: the reduced precisions must track the double
// path on route likelihoods and teacher-forced top-1 decisions. Tolerances
// mirror the check_perf gates (bf16 well inside 1e-3 per transition, int8
// inside 5e-3).
TEST(PrecisionParityTest, ReducedPrecisionTracksDouble) {
  auto& world = TestWorld();
  const auto trips = TestTrips(6);
  ASSERT_GE(trips.size(), 3u);
  DeepSTConfig base = BaseConfig();
  DeepSTModel ref(world.net(), base, nullptr);
  const std::vector<nn::NamedTensor> snapshot = nn::SnapshotParameters(ref);

  struct Spec {
    Precision prec;
    double ce_tol;       // per-transition log-lik delta
    double min_agree;    // top-1 agreement fraction
  };
  for (const Spec& spec : {Spec{Precision::kBf16, 1e-3, 0.99},
                           Spec{Precision::kInt8, 5e-3, 0.95}}) {
    DeepSTConfig cfg = base;
    cfg.infer_precision = spec.prec;
    auto model = DeepSTModel::LoadFromParams(world.net(), cfg, nullptr,
                                             snapshot);
    ASSERT_TRUE(model.ok());
    int64_t agree = 0, total = 0;
    util::Rng rng_a(31), rng_b(31);
    for (const auto* rec : trips) {
      const RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext rctx = ref.MakeContext(query, &rng_a);
      PredictionContext qctx = model.value()->MakeContext(query, &rng_b);
      const int64_t transitions =
          static_cast<int64_t>(rec->trip.route.size()) - 1;
      EXPECT_NEAR(model.value()->ScoreRoute(qctx, rec->trip.route),
                  ref.ScoreRoute(rctx, rec->trip.route),
                  spec.ce_tol * static_cast<double>(transitions))
          << nn::infer::PrecisionName(spec.prec);
      const std::vector<int> want = ref.TopSlotsAlongRoute(rctx,
                                                           rec->trip.route);
      const std::vector<int> got =
          model.value()->TopSlotsAlongRoute(qctx, rec->trip.route);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        agree += want[i] == got[i] ? 1 : 0;
      }
      total += static_cast<int64_t>(want.size());
    }
    EXPECT_GE(static_cast<double>(agree),
              spec.min_agree * static_cast<double>(total))
        << nn::infer::PrecisionName(spec.prec) << ": " << agree << "/"
        << total;
  }
}

// Packed weights are built once per model generation and shared (pointer
// identity) across calls; packed_weight_bytes reflects the precision.
TEST(SharedWeightsTest, PackedOncePerGenerationAndShrinkWithPrecision) {
  auto& world = TestWorld();
  DeepSTConfig base = BaseConfig();
  DeepSTModel model(world.net(), base, nullptr);
  const auto first = model.shared_infer_weights();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), model.shared_infer_weights().get());
  model.RetirePooledSessions();
  EXPECT_NE(first.get(), model.shared_infer_weights().get());

  const std::vector<nn::NamedTensor> snapshot = nn::SnapshotParameters(model);
  size_t bytes[3];
  int idx = 0;
  for (Precision prec :
       {Precision::kDouble, Precision::kBf16, Precision::kInt8}) {
    DeepSTConfig cfg = base;
    cfg.infer_precision = prec;
    auto m = DeepSTModel::LoadFromParams(world.net(), cfg, nullptr, snapshot);
    ASSERT_TRUE(m.ok());
    const auto packed = m.value()->shared_infer_weights();
    EXPECT_EQ(packed->precision, prec);
    bytes[idx++] = packed->packed_weight_bytes;
  }
  // packed_weight_bytes includes the always-double context columns and
  // embedding table, so the ratios are weaker than 4x/8x — but the ordering
  // must hold strictly.
  EXPECT_LT(bytes[1], bytes[0]);  // bf16 < double
  EXPECT_LT(bytes[2], bytes[1]);  // int8 < bf16
}

// After an in-place weight mutation plus RetirePooledSessions, contexts,
// predictions and scores must match a freshly built model with the mutated
// weights: no derived inference state (packed weights, pooled session
// scratch, traffic posteriors memoized in the traffic cache) from the old
// weights may survive the retirement.
TEST(RetireSessionsTest, InPlaceWeightSwapMatchesFreshModel) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  DeepSTModel model(world.net(), cfg, world.traffic_cache());

  // Warm the session pool and packed weights under the original weights.
  util::Rng crng(61);
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    PredictionContext ctx = model.MakeContext(query, &crng);
    util::Rng r(3);
    (void)model.PredictRouteBeam(ctx, query.origin, &r);
  }

  // Mutate the logit head and the traffic encoder's mu head in place (scale
  // by -0.5 so argmax decisions and the posterior actually change), then
  // retire the pool -- the documented contract for in-place weight swaps.
  int mutated = 0;
  for (const auto& p : model.Parameters()) {
    if (p.name == "alpha/weight" || p.name == "traffic_encoder/mu/weight") {
      nn::Tensor& t = p.var->value();
      for (int64_t e = 0; e < t.numel(); ++e) t.data()[e] *= -0.5f;
      ++mutated;
    }
  }
  ASSERT_EQ(mutated, 2);
  model.RetirePooledSessions();

  // A fresh model built from the mutated weights is the ground truth.
  const std::vector<nn::NamedTensor> snapshot = nn::SnapshotParameters(model);
  auto fresh = DeepSTModel::LoadFromParams(world.net(), cfg,
                                           world.traffic_cache(), snapshot);
  ASSERT_TRUE(fresh.ok());
  util::Rng crng_a(62), crng_b(62);
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    PredictionContext ctx_m = model.MakeContext(query, &crng_a);
    PredictionContext ctx_f = fresh.value()->MakeContext(query, &crng_b);
    ASSERT_EQ(ctx_m.traffic_repr.numel(), ctx_f.traffic_repr.numel());
    EXPECT_EQ(0, std::memcmp(ctx_m.traffic_repr.data(),
                             ctx_f.traffic_repr.data(),
                             static_cast<size_t>(ctx_m.traffic_repr.numel()) *
                                 sizeof(float)));
    util::Rng r1(4), r2(4);
    EXPECT_EQ(model.PredictRouteBeam(ctx_m, query.origin, &r1),
              fresh.value()->PredictRouteBeam(ctx_f, query.origin, &r2));
    EXPECT_EQ(model.ScoreRoute(ctx_m, rec->trip.route),
              fresh.value()->ScoreRoute(ctx_f, rec->trip.route));
  }
}

}  // namespace
}  // namespace core
}  // namespace deepst
