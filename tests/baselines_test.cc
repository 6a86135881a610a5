#include <gtest/gtest.h>

#include <cmath>

#include "baselines/mmi.h"
#include "baselines/neural_router.h"
#include "baselines/wsp.h"
#include "eval/world.h"

namespace deepst {
namespace baselines {
namespace {

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "baselines-test-world";
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

TEST(MarkovRouterTest, TransitionProbsNormalized) {
  auto& world = TestWorld();
  MarkovRouter mmi(world.net(), core::DeepSTConfig{});
  mmi.Train(world.split().train);
  for (roadnet::SegmentId s = 0; s < world.net().num_segments(); s += 17) {
    double total = 0.0;
    for (roadnet::SegmentId nxt : world.net().OutSegments(s)) {
      const double p = mmi.TransitionProb(s, nxt);
      EXPECT_GT(p, 0.0);  // add-one smoothing
      total += p;
    }
    if (world.net().OutDegree(s) > 0) {
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
  // Non-adjacent transition has probability zero.
  EXPECT_DOUBLE_EQ(mmi.TransitionProb(0, 0), 0.0);
}

TEST(MarkovRouterTest, TrainedProbsReflectData) {
  auto& world = TestWorld();
  MarkovRouter mmi(world.net(), core::DeepSTConfig{});
  mmi.Train(world.split().train);
  // Count the most frequent observed transition and check it dominates its
  // row.
  const auto* rec = world.split().train.front();
  const auto& route = rec->trip.route;
  const double p = mmi.TransitionProb(route[0], route[1]);
  // It was observed at least once, so it beats a never-observed sibling
  // unless all siblings were observed equally.
  EXPECT_GT(p, 0.0);
}

TEST(MarkovRouterTest, PredictRouteConnected) {
  auto& world = TestWorld();
  MarkovRouter mmi(world.net(), core::DeepSTConfig{});
  mmi.Train(world.split().train);
  util::Rng rng(1);
  const auto* rec = world.split().test.front();
  auto route = mmi.PredictRoute(eval::QueryFor(rec->trip), &rng);
  EXPECT_EQ(route.front(), rec->trip.origin_segment());
  EXPECT_TRUE(world.net().ValidateRoute(route).ok());
}

TEST(MarkovRouterTest, ScoreRouteIsLogProb) {
  auto& world = TestWorld();
  MarkovRouter mmi(world.net(), core::DeepSTConfig{});
  mmi.Train(world.split().train);
  util::Rng rng(2);
  const auto* rec = world.split().train.front();
  const double score =
      mmi.ScoreRoute(eval::QueryFor(rec->trip), rec->trip.route, &rng);
  EXPECT_LT(score, 0.0);
  EXPECT_TRUE(std::isfinite(score));
  // Disconnected route -> -inf.
  traj::Route bad = {0, 0};
  if (!world.net().AreConsecutive(0, 0)) {
    EXPECT_TRUE(std::isinf(
        mmi.ScoreRoute(eval::QueryFor(rec->trip), bad, &rng)));
  }
}

TEST(WspRouterTest, PredictsPathTowardSnappedDestination) {
  auto& world = TestWorld();
  WspRouter wsp(world.net(), world.index(), world.segment_stats());
  util::Rng rng(3);
  const auto* rec = world.split().test.front();
  core::RouteQuery query = eval::QueryFor(rec->trip);
  auto route = wsp.PredictRoute(query, &rng);
  ASSERT_GE(route.size(), 1u);
  EXPECT_EQ(route.front(), query.origin);
  EXPECT_TRUE(world.net().ValidateRoute(route).ok());
  // WSP snaps the rough coordinate: the route ends on the segment nearest
  // the destination.
  const auto snapped = world.index().Nearest(query.destination);
  EXPECT_EQ(route.back(), snapped.segment);
}

TEST(WspRouterTest, SnapsRoughDestinationWhenFinalUnknown) {
  auto& world = TestWorld();
  WspRouter wsp(world.net(), world.index(), world.segment_stats());
  util::Rng rng(4);
  const auto* rec = world.split().test.front();
  core::RouteQuery query = eval::QueryFor(rec->trip);
  query.final_segment = roadnet::kInvalidSegment;
  auto route = wsp.PredictRoute(query, &rng);
  ASSERT_GE(route.size(), 2u);
  // Ends near the rough destination.
  const double d = world.net()
                       .ProjectToSegment(query.destination, route.back())
                       .distance;
  EXPECT_LT(d, 500.0);
}

TEST(WspRouterTest, ScoreIsNegatedCost) {
  auto& world = TestWorld();
  WspRouter wsp(world.net(), world.index(), world.segment_stats());
  util::Rng rng(5);
  const auto* rec = world.split().test.front();
  core::RouteQuery query = eval::QueryFor(rec->trip);
  traj::Route longer = rec->trip.route;
  traj::Route shorter(longer.begin(), longer.begin() + longer.size() / 2 + 1);
  EXPECT_GT(wsp.ScoreRoute(query, shorter, &rng),
            wsp.ScoreRoute(query, longer, &rng));
}

TEST(NeuralRouterTest, ConfigFactories) {
  core::DeepSTConfig base;
  base.gru_hidden = 48;
  auto deepst = DeepStConfigOf(base);
  EXPECT_TRUE(deepst.use_traffic);
  EXPECT_EQ(deepst.destination_mode, core::DestinationMode::kProxies);
  EXPECT_EQ(deepst.gru_hidden, 48);
  auto deepst_c = DeepStCConfigOf(base);
  EXPECT_FALSE(deepst_c.use_traffic);
  EXPECT_EQ(deepst_c.destination_mode, core::DestinationMode::kProxies);
  auto cssrnn = CssrnnConfigOf(base);
  EXPECT_EQ(cssrnn.destination_mode, core::DestinationMode::kFinalSegment);
  auto rnn = RnnConfigOf(base);
  EXPECT_EQ(rnn.destination_mode, core::DestinationMode::kNone);
  EXPECT_FALSE(rnn.use_traffic);
}

TEST(NeuralRouterTest, WrapsModel) {
  auto& world = TestWorld();
  core::DeepSTConfig cfg;
  cfg.gru_hidden = 16;
  cfg.gru_layers = 1;
  cfg.segment_embedding_dim = 8;
  cfg.num_proxies = 4;
  cfg.use_traffic = false;
  core::DeepSTModel model(world.net(), cfg, nullptr);
  NeuralRouter router("DeepST-C", &model);
  EXPECT_EQ(router.name(), "DeepST-C");
  util::Rng rng(6);
  const auto* rec = world.split().test.front();
  auto route = router.PredictRoute(eval::QueryFor(rec->trip), &rng);
  EXPECT_TRUE(world.net().ValidateRoute(route).ok());
  const double s =
      router.ScoreRoute(eval::QueryFor(rec->trip), rec->trip.route, &rng);
  EXPECT_TRUE(std::isfinite(s));
}

}  // namespace
}  // namespace baselines
}  // namespace deepst
