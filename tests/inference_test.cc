// Coverage of the graph-free inference engine (core/infer): parity with the
// autodiff reference path across every ablation config, beam/greedy
// equivalence, bitwise thread-count invariance, batched-vs-individual
// scoring identity, sampled-stop rng parity through the beam loop, the
// zero-allocation steady state, and concurrent use of the model's session
// pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/neural_router.h"
#include "core/deepst_model.h"
#include "core/infer/session.h"
#include "core/route_ranking.h"
#include "eval/world.h"
#include "nn/backend.h"
#include "nn/variable.h"

namespace deepst {
namespace core {
namespace {

// Fast-path scores accumulate up to ~100 transition terms, each within
// ~1e-7 of the reference (4-lane vs sequential accumulation), so 1e-5
// bounds the end-to-end deviation comfortably.
constexpr double kParityTol = 1e-5;

struct BackendGuard {
  ~BackendGuard() { nn::SetBackendThreads(1); }
};

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "inference-test-world";
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

// The four paper methods as ablation configs of the shared base.
std::vector<std::pair<std::string, DeepSTConfig>> AblationConfigs() {
  const DeepSTConfig base = SmallConfig();
  return {{"deepst", baselines::DeepStConfigOf(base)},
          {"deepst-c", baselines::DeepStCConfigOf(base)},
          {"cssrnn", baselines::CssrnnConfigOf(base)},
          {"rnn", baselines::RnnConfigOf(base)}};
}

traffic::TrafficTensorCache* CacheFor(const DeepSTConfig& cfg) {
  return cfg.use_traffic ? TestWorld().traffic_cache() : nullptr;
}

std::vector<const traj::TripRecord*> TestTrips(int n) {
  std::vector<const traj::TripRecord*> out;
  for (const auto* rec : TestWorld().split().test) {
    if (static_cast<int>(out.size()) >= n) break;
    if (rec->trip.route.size() >= 3) out.push_back(rec);
  }
  return out;
}

TEST(NoGradGuardTest, DisablesAndRestoresTapeRecording) {
  EXPECT_TRUE(nn::GradEnabled());
  {
    nn::NoGradGuard outer;
    EXPECT_FALSE(nn::GradEnabled());
    {
      nn::NoGradGuard inner;
      EXPECT_FALSE(nn::GradEnabled());
    }
    EXPECT_FALSE(nn::GradEnabled());
  }
  EXPECT_TRUE(nn::GradEnabled());
}

TEST(InferenceParityTest, ScoresMatchReferenceAcrossAblations) {
  auto& world = TestWorld();
  const auto trips = TestTrips(6);
  ASSERT_GE(trips.size(), 3u);
  for (const auto& [name, cfg] : AblationConfigs()) {
    DeepSTModel model(world.net(), cfg, CacheFor(cfg));
    util::Rng rng(21);
    for (const auto* rec : trips) {
      RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx = model.MakeContext(query, &rng);
      const double fast = model.ScoreRoute(ctx, rec->trip.route);
      const double ref = model.ScoreRouteReference(ctx, rec->trip.route);
      EXPECT_TRUE(std::isfinite(fast)) << name;
      EXPECT_NEAR(fast, ref, kParityTol) << name;
      // Continuation scoring: split the route into prefix + gap candidate.
      const traj::Route& route = rec->trip.route;
      const size_t cut = route.size() / 2;
      traj::Route prefix(route.begin(), route.begin() + cut + 1);
      traj::Route cont(route.begin() + cut, route.end());
      EXPECT_NEAR(model.ScoreContinuation(ctx, prefix, cont),
                  model.ScoreContinuationReference(ctx, prefix, cont),
                  kParityTol)
          << name;
    }
  }
}

TEST(InferenceParityTest, PredictedRoutesMatchReferenceAcrossAblations) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  for (const auto& [name, cfg] : AblationConfigs()) {
    DeepSTModel model(world.net(), cfg, CacheFor(cfg));
    util::Rng rng(22);
    for (const auto* rec : trips) {
      RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx = model.MakeContext(query, &rng);
      util::Rng rng_fast(7), rng_ref(7);
      const traj::Route fast = model.PredictRoute(ctx, query.origin, &rng_fast);
      const traj::Route ref =
          model.PredictRouteReference(ctx, query.origin, &rng_ref);
      EXPECT_EQ(fast, ref) << name;
    }
  }
}

TEST(InferenceRegressionTest, BeamWidthOneEqualsGreedy) {
  auto& world = TestWorld();
  const auto trips = TestTrips(6);
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  cfg.beam_width = 1;
  DeepSTModel model(world.net(), cfg, nullptr);
  for (uint64_t seed : {3u, 17u, 99u}) {
    util::Rng rng(seed);
    for (const auto* rec : trips) {
      RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx = model.MakeContext(query, &rng);
      util::Rng rng_greedy(seed + 1), rng_beam(seed + 1);
      EXPECT_EQ(model.PredictRoute(ctx, query.origin, &rng_greedy),
                model.PredictRouteBeam(ctx, query.origin, &rng_beam))
          << "fast seed=" << seed;
      util::Rng ref_greedy(seed + 1), ref_beam(seed + 1);
      EXPECT_EQ(model.PredictRouteReference(ctx, query.origin, &ref_greedy),
                model.PredictRouteBeamReference(ctx, query.origin, &ref_beam))
          << "reference seed=" << seed;
    }
  }
}

TEST(InferenceDeterminismTest, ThreadCountInvariant) {
  BackendGuard guard;
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  std::vector<traj::Route> routes_by_threads[2];
  std::vector<double> scores_by_threads[2];
  const int thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    nn::SetBackendThreads(thread_counts[t]);
    util::Rng rng(31);
    for (const auto* rec : trips) {
      RouteQuery query = eval::QueryFor(rec->trip);
      PredictionContext ctx = model.MakeContext(query, &rng);
      util::Rng prng(5);
      routes_by_threads[t].push_back(
          model.PredictRouteBeam(ctx, query.origin, &prng));
      scores_by_threads[t].push_back(model.ScoreRoute(ctx, rec->trip.route));
    }
  }
  EXPECT_EQ(routes_by_threads[0], routes_by_threads[1]);
  ASSERT_EQ(scores_by_threads[0].size(), scores_by_threads[1].size());
  for (size_t i = 0; i < scores_by_threads[0].size(); ++i) {
    // Bitwise, not approximate: the fast path's chunk boundaries and
    // accumulation order are thread-count independent.
    EXPECT_EQ(scores_by_threads[0][i], scores_by_threads[1][i]);
  }
}

TEST(InferenceBatchTest, BatchedScoresBitwiseEqualIndividual) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(41);
  const auto trips = TestTrips(6);
  ASSERT_GE(trips.size(), 3u);
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  PredictionContext ctx = model.MakeContext(query, &rng);
  // Candidate set with deliberately degenerate rows mixed in: a too-short
  // route (scores 0) and a non-contiguous one (scores -inf).
  std::vector<traj::Route> candidates;
  for (const auto* rec : trips) candidates.push_back(rec->trip.route);
  candidates.push_back({trips[0]->trip.route.front()});
  traj::Route bad = {trips[0]->trip.route.front(),
                     trips[0]->trip.route.front()};
  if (!world.net().AreConsecutive(bad[0], bad[1])) candidates.push_back(bad);
  const std::vector<double> batched = model.ScoreRoutes(ctx, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(batched[i], model.ScoreRoute(ctx, candidates[i])) << i;
  }
}

TEST(InferenceBatchTest, BatchedContinuationsBitwiseEqualIndividual) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  DeepSTModel model(world.net(), cfg, nullptr);
  util::Rng rng(42);
  const auto trips = TestTrips(6);
  const traj::Route& route = trips[0]->trip.route;
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  PredictionContext ctx = model.MakeContext(query, &rng);
  const size_t cut = route.size() / 2;
  traj::Route prefix(route.begin(), route.begin() + cut + 1);
  // Candidates: the true tail plus every distinct one-step continuation.
  std::vector<traj::Route> candidates;
  candidates.emplace_back(route.begin() + cut, route.end());
  for (roadnet::SegmentId next : world.net().OutSegments(prefix.back())) {
    candidates.push_back({prefix.back(), next});
  }
  const std::vector<double> batched =
      model.ScoreContinuations(ctx, prefix, candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(batched[i], model.ScoreContinuation(ctx, prefix, candidates[i]))
        << i;
  }
}

TEST(InferenceBatchTest, RankRoutesUsesBatchedScoresConsistently) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(43);
  const auto trips = TestTrips(4);
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  std::vector<traj::Route> candidates;
  for (const auto* rec : trips) candidates.push_back(rec->trip.route);
  util::Rng rng_rank(43);
  const auto ranked = RankRoutes(&model, query, candidates, &rng_rank);
  ASSERT_EQ(ranked.size(), candidates.size());
  util::Rng rng_ctx(43);
  PredictionContext ctx = model.MakeContext(query, &rng_ctx);
  double prob_sum = 0.0;
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].log_likelihood, model.ScoreRoute(ctx, ranked[i].route));
    if (i > 0) {
      EXPECT_GE(ranked[i - 1].log_likelihood, ranked[i].log_likelihood);
    }
    prob_sum += ranked[i].probability;
  }
  EXPECT_NEAR(prob_sum, 1.0, 1e-9);
}

TEST(InferenceArenaTest, ZeroAllocationSteadyState) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(51);
  const auto trips = TestTrips(4);
  infer::InferenceSession session(&model);
  RouteQuery query = eval::QueryFor(trips[0]->trip);
  PredictionContext ctx = model.MakeContext(query, &rng);
  std::vector<traj::Route> candidates;
  for (const auto* rec : trips) candidates.push_back(rec->trip.route);
  // Warmup pass grows the scratch arena to its high-water mark...
  util::Rng r1(9);
  session.PredictRouteBeam(ctx, query.origin, &r1);
  session.ScoreRoutes(ctx, candidates);
  const int64_t warm = session.arena_grow_count();
  const int64_t warm_scratch = session.scratch_grow_count();
  // ...after which identical work allocates nothing: neither the arena
  // slots nor the session-owned step scratch (embedding staging and the
  // per-layer double-precision state mirrors) grow again.
  util::Rng r2(9);
  session.PredictRouteBeam(ctx, query.origin, &r2);
  session.ScoreRoutes(ctx, candidates);
  session.ScoreRoute(ctx, candidates[0]);
  EXPECT_EQ(session.arena_grow_count(), warm);
  EXPECT_EQ(session.scratch_grow_count(), warm_scratch);
  EXPECT_GT(warm_scratch, 0);

  // The multi-query beam grows its per-query hypothesis pools on the first
  // batch of a given size; a second identical batch allocates nothing.
  std::vector<PredictionContext> ctxs;
  std::vector<PredictItem> items(trips.size());
  ctxs.reserve(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    const RouteQuery q = eval::QueryFor(trips[i]->trip);
    ctxs.push_back(model.MakeContext(q, &rng));
    items[i].ctx = &ctxs.back();
    items[i].origin = q.origin;
  }
  session.PredictRoutesBeamMulti(&items);
  const int64_t warm_multi = session.arena_grow_count();
  const int64_t warm_multi_scratch = session.scratch_grow_count();
  EXPECT_GT(warm_multi_scratch, warm_scratch);
  session.PredictRoutesBeamMulti(&items);
  EXPECT_EQ(session.arena_grow_count(), warm_multi);
  EXPECT_EQ(session.scratch_grow_count(), warm_multi_scratch);
}

TEST(InferenceConcurrencyTest, SessionPoolSafeUnderConcurrentCalls) {
  auto& world = TestWorld();
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  DeepSTModel model(world.net(), cfg, nullptr);
  util::Rng rng(61);
  const auto trips = TestTrips(4);
  ASSERT_GE(trips.size(), 2u);
  // Reference results, computed serially.
  std::vector<PredictionContext> ctxs;
  std::vector<traj::Route> expected_routes;
  std::vector<double> expected_scores;
  for (const auto* rec : trips) {
    RouteQuery query = eval::QueryFor(rec->trip);
    ctxs.push_back(model.MakeContext(query, &rng));
    util::Rng prng(3);
    expected_routes.push_back(
        model.PredictRouteBeam(ctxs.back(), query.origin, &prng));
    expected_scores.push_back(model.ScoreRoute(ctxs.back(), rec->trip.route));
  }
  // Hammer the same queries from several threads at once.
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = static_cast<size_t>((w + round) % trips.size());
        RouteQuery query = eval::QueryFor(trips[i]->trip);
        util::Rng prng(3);
        if (model.PredictRouteBeam(ctxs[i], query.origin, &prng) !=
            expected_routes[i]) {
          failures[static_cast<size_t>(w)]++;
        }
        if (model.ScoreRoute(ctxs[i], trips[i]->trip.route) !=
            expected_scores[i]) {
          failures[static_cast<size_t>(w)]++;
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(failures[w], 0) << w;
  // The pool retains one session per peak-concurrent caller at most.
  EXPECT_GE(model.num_pooled_sessions(), 1u);
  EXPECT_LE(model.num_pooled_sessions(), static_cast<size_t>(kThreads));
}

// Lock-step multi-query beam search (the serve daemon's cross-client
// batching substrate) must be bitwise identical, query by query, to running
// each query through the single-query beam.
TEST(InferenceMultiQueryTest, BeamMultiBitwiseEqualsSingleQuery) {
  auto& world = TestWorld();
  const auto trips = TestTrips(5);
  ASSERT_GE(trips.size(), 3u);
  const DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  DeepSTModel model(world.net(), cfg, CacheFor(cfg));
  util::Rng rng(31);
  std::vector<PredictionContext> ctxs;
  std::vector<roadnet::SegmentId> origins;
  std::vector<traj::Route> singles;
  ctxs.reserve(trips.size());
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    ctxs.push_back(model.MakeContext(query, &rng));
    origins.push_back(query.origin);
    util::Rng prng(7);
    singles.push_back(model.PredictRouteBeam(ctxs.back(), query.origin,
                                             &prng));
  }
  std::vector<PredictItem> items(trips.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].ctx = &ctxs[i];
    items[i].origin = origins[i];
  }
  model.PredictRoutesBeamMulti(&items);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].route, singles[i]) << "query " << i;
    EXPECT_FALSE(items[i].budget_hit) << "query " << i;
  }
}

// Multi-query padded scoring with heterogeneous candidate counts -- and the
// single-segment (log-likelihood 0) and broken-route (-inf) conventions --
// must match per-query ScoreRoutes bitwise.
TEST(InferenceMultiQueryTest, ScoreMultiBitwiseEqualsSingleQuery) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  ASSERT_GE(trips.size(), 3u);
  const DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  DeepSTModel model(world.net(), cfg, CacheFor(cfg));
  util::Rng rng(32);
  std::vector<PredictionContext> ctxs;
  std::vector<std::vector<traj::Route>> candidates;
  ctxs.reserve(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    const traj::Route& route = trips[i]->trip.route;
    ctxs.push_back(model.MakeContext(eval::QueryFor(trips[i]->trip), &rng));
    std::vector<traj::Route> cands = {route};
    if (i % 2 == 0) {  // heterogeneous counts across queries
      cands.push_back(traj::Route(route.begin(), route.begin() + 2));
      cands.push_back({route.front()});            // size 1 -> 0.0
      cands.push_back({route.front(), route.front()});  // broken -> -inf
    }
    candidates.push_back(std::move(cands));
  }
  std::vector<ScoreItem> items(trips.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].ctx = &ctxs[i];
    items[i].routes = &candidates[i];
  }
  model.ScoreRoutesMulti(&items);
  for (size_t i = 0; i < items.size(); ++i) {
    const std::vector<double> singles = model.ScoreRoutes(ctxs[i],
                                                          candidates[i]);
    ASSERT_EQ(items[i].scores.size(), singles.size()) << "query " << i;
    for (size_t c = 0; c < singles.size(); ++c) {
      EXPECT_EQ(items[i].scores[c], singles[c])
          << "query " << i << " candidate " << c;
    }
  }
}

// Per-item deadlines inside one lock-step batch: an item with an expired
// budget reports budget_hit with a valid best-so-far route, while its
// co-batched neighbor with no deadline finishes untouched.
TEST(InferenceMultiQueryTest, BeamMultiDeadlinesArePerItem) {
  auto& world = TestWorld();
  const auto trips = TestTrips(2);
  ASSERT_EQ(trips.size(), 2u);
  const DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
  DeepSTModel model(world.net(), cfg, CacheFor(cfg));
  util::Rng rng(33);
  std::vector<PredictionContext> ctxs;
  std::vector<roadnet::SegmentId> origins;
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    ctxs.push_back(model.MakeContext(query, &rng));
    origins.push_back(query.origin);
  }
  util::Rng prng(7);
  const traj::Route unbudgeted =
      model.PredictRouteBeam(ctxs[1], origins[1], &prng);

  std::vector<PredictItem> items(2);
  items[0].ctx = &ctxs[0];
  items[0].origin = origins[0];
  items[0].deadline_ms = 0.005;  // expires at the first between-step check
  items[1].ctx = &ctxs[1];
  items[1].origin = origins[1];
  model.PredictRoutesBeamMulti(&items);

  EXPECT_TRUE(items[0].budget_hit);
  EXPECT_FALSE(items[0].route.empty());
  EXPECT_EQ(items[0].route.front(), origins[0]);
  EXPECT_TRUE(world.net().ValidateRoute(items[0].route).ok());
  EXPECT_FALSE(items[1].budget_hit);
  EXPECT_EQ(items[1].route, unbudgeted);
}

// Sampled stops (config.sample_stop) draw one Bernoulli per expansion, in
// beam order. The single-query beam is the one-query case of the lock-step
// loop with the rng threaded through, so its routes and its rng stream must
// both match the reference beam's exactly.
TEST(InferenceSampledStopTest, BeamMatchesReferenceRouteAndRngStream) {
  auto& world = TestWorld();
  const auto trips = TestTrips(6);
  ASSERT_GE(trips.size(), 3u);
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  cfg.sample_stop = true;
  DeepSTModel model(world.net(), cfg, nullptr);
  util::Rng rng(34);
  util::Rng fast_rng(11), ref_rng(11);
  int multi_step = 0;
  for (const auto* rec : trips) {
    const RouteQuery query = eval::QueryFor(rec->trip);
    const PredictionContext ctx = model.MakeContext(query, &rng);
    const traj::Route fast =
        model.PredictRouteBeam(ctx, query.origin, &fast_rng);
    const traj::Route ref =
        model.PredictRouteBeamReference(ctx, query.origin, &ref_rng);
    EXPECT_EQ(fast, ref);
    EXPECT_TRUE(world.net().ValidateRoute(fast).ok());
    // Same draws consumed: the streams continue in lock step.
    EXPECT_EQ(fast_rng.NextUint64(), ref_rng.NextUint64());
    if (fast.size() > 2) ++multi_step;
  }
  EXPECT_GT(multi_step, 0);  // some beams expanded past the first step
}

// With sampled stops the model's multi-query entry point falls back to
// per-item beams sharing the caller's rng, so the batch must equal the same
// items run one by one through PredictRouteBeam with an identically seeded
// rng, leaving both streams at the same position.
TEST(InferenceSampledStopTest, BeamMultiFallbackEqualsPerItemCalls) {
  auto& world = TestWorld();
  const auto trips = TestTrips(4);
  ASSERT_GE(trips.size(), 3u);
  DeepSTConfig cfg = SmallConfig();
  cfg.sample_stop = true;
  DeepSTModel model(world.net(), cfg, world.traffic_cache());
  util::Rng rng(35);
  std::vector<PredictionContext> ctxs;
  std::vector<PredictItem> items(trips.size());
  ctxs.reserve(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    const RouteQuery query = eval::QueryFor(trips[i]->trip);
    ctxs.push_back(model.MakeContext(query, &rng));
    items[i].ctx = &ctxs.back();
    items[i].origin = query.origin;
  }
  util::Rng multi_rng(12), single_rng(12);
  model.PredictRoutesBeamMulti(&items, &multi_rng);
  for (size_t i = 0; i < items.size(); ++i) {
    bool budget_hit = true;
    const traj::Route single = model.PredictRouteBeam(
        ctxs[i], items[i].origin, &single_rng, 0.0, &budget_hit);
    EXPECT_EQ(items[i].route, single) << "query " << i;
    EXPECT_FALSE(items[i].budget_hit) << "query " << i;
    EXPECT_FALSE(budget_hit) << "query " << i;
  }
  EXPECT_EQ(multi_rng.NextUint64(), single_rng.NextUint64());
}

// A 3x3 lattice of two-way streets (24 directed segments). Every successor
// list contains the U-turn twin, and a walk of more than 24 steps must
// revisit a segment, so routes toward an off-map destination only end once
// every successor of the last segment is already on the route (boxed in).
std::unique_ptr<roadnet::RoadNetwork> LoopGuardNetwork() {
  auto net = std::make_unique<roadnet::RoadNetwork>();
  roadnet::VertexId v[3][3];
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) v[r][c] = net->AddVertex({200.0 * c, 200.0 * r});
  }
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c + 1 < 3) {
        net->AddSegment(v[r][c], v[r][c + 1], 13.9);
        net->AddSegment(v[r][c + 1], v[r][c], 13.9);
      }
      if (r + 1 < 3) {
        net->AddSegment(v[r][c], v[r + 1][c], 13.9);
        net->AddSegment(v[r + 1][c], v[r][c], 13.9);
      }
    }
  }
  net->Finalize();
  return net;
}

bool HasNoRepeats(const traj::Route& route) {
  return std::set<roadnet::SegmentId>(route.begin(), route.end()).size() ==
         route.size();
}

bool BoxedIn(const roadnet::RoadNetwork& net, const traj::Route& route) {
  for (roadnet::SegmentId nxt : net.OutSegments(route.back())) {
    if (std::find(route.begin(), route.end(), nxt) == route.end()) {
      return false;
    }
  }
  return true;
}

// The loop guard (a hypothesis never re-enters a segment on its own route)
// must give every fast path exactly the reference's routes, including
// hypotheses that end boxed in by their own route.
TEST(InferenceLoopGuardTest, RevisitingRoutesMatchReference) {
  const auto net = LoopGuardNetwork();
  ASSERT_EQ(net->num_segments(), 24);
  DeepSTConfig cfg = SmallConfig();
  cfg.use_traffic = false;
  cfg.max_route_steps = 40;  // longer than any loopless walk
  const geo::Point off_map{5000.0, 5000.0};
  const geo::Point on_map{300.0, 200.0};  // middle row, right street
  struct Query {
    roadnet::SegmentId origin;
    geo::Point dest;
  };
  const std::vector<Query> queries = {
      {0, off_map}, {7, off_map}, {13, on_map}, {22, off_map}};

  for (const int width : {1, 4}) {
    for (const bool map : {true, false}) {
      if (width > 1 && !map) continue;  // beam search is MAP-only
      cfg.beam_width = width;
      cfg.map_prediction = map;
      DeepSTModel model(*net, cfg, nullptr);
      util::Rng rng(71);
      std::vector<PredictionContext> ctxs;
      ctxs.reserve(queries.size());
      for (const Query& q : queries) {
        RouteQuery query;
        query.origin = q.origin;
        query.destination = q.dest;
        ctxs.push_back(model.MakeContext(query, &rng));
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        const std::string tag = "width=" + std::to_string(width) +
                                " map=" + std::to_string(map) +
                                " query=" + std::to_string(i);
        util::Rng rf(90 + i), rr(90 + i);
        const traj::Route fast = model.PredictRoute(ctxs[i], queries[i].origin,
                                                    &rf);
        EXPECT_EQ(fast, model.PredictRouteReference(ctxs[i],
                                                    queries[i].origin, &rr))
            << tag;
        EXPECT_TRUE(HasNoRepeats(fast)) << tag;
        EXPECT_TRUE(net->ValidateRoute(fast).ok()) << tag;
        if (queries[i].dest.x == off_map.x) {
          EXPECT_TRUE(BoxedIn(*net, fast)) << tag;
        }
        if (map) {
          util::Rng bf(3), br(3);
          EXPECT_EQ(model.PredictRouteBeam(ctxs[i], queries[i].origin, &bf),
                    model.PredictRouteBeamReference(ctxs[i],
                                                    queries[i].origin, &br))
              << tag;
        }
      }
      if (!map) continue;
      // Mixed lock-step batch: three queries box in, one stops early.
      std::vector<PredictItem> items(queries.size());
      for (size_t i = 0; i < items.size(); ++i) {
        items[i].ctx = &ctxs[i];
        items[i].origin = queries[i].origin;
      }
      model.PredictRoutesBeamMulti(&items);
      for (size_t i = 0; i < items.size(); ++i) {
        util::Rng br(3);
        EXPECT_EQ(items[i].route,
                  model.PredictRouteBeamReference(ctxs[i], queries[i].origin,
                                                  &br))
            << "multi width=" << width << " query=" << i;
        EXPECT_TRUE(HasNoRepeats(items[i].route)) << "multi query=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace deepst
