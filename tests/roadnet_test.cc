#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "roadnet/grid_city.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "roadnet/spatial_index.h"

namespace deepst {
namespace roadnet {
namespace {

// Builds the paper's Figure 1a-style toy network: a small directed graph
// with a few crossings, used across the roadnet tests.
//
//   v0 --s0--> v1 --s1--> v2
//               |          |
//              s2         s3
//               v          v
//   v3 <------ v4 --s4--> v5
std::unique_ptr<RoadNetwork> BuildToyNetwork() {
  auto net = std::make_unique<RoadNetwork>();
  const VertexId v0 = net->AddVertex({0, 0});
  const VertexId v1 = net->AddVertex({100, 0});
  const VertexId v2 = net->AddVertex({200, 0});
  const VertexId v3 = net->AddVertex({0, -100});
  const VertexId v4 = net->AddVertex({100, -100});
  const VertexId v5 = net->AddVertex({200, -100});
  net->AddSegment(v0, v1, 10.0);  // s0
  net->AddSegment(v1, v2, 10.0);  // s1
  net->AddSegment(v1, v4, 10.0);  // s2
  net->AddSegment(v2, v5, 10.0);  // s3
  net->AddSegment(v4, v5, 10.0);  // s4
  net->AddSegment(v4, v3, 10.0);  // s5
  net->Finalize();
  return net;
}

TEST(RoadNetworkTest, CountsAndGeometry) {
  auto net = BuildToyNetwork();
  EXPECT_EQ(net->num_vertices(), 6);
  EXPECT_EQ(net->num_segments(), 6);
  EXPECT_DOUBLE_EQ(net->segment(0).length_m, 100.0);
  EXPECT_EQ(net->SegmentStart(0), (geo::Point{0, 0}));
  EXPECT_EQ(net->SegmentEnd(0), (geo::Point{100, 0}));
  EXPECT_EQ(net->SegmentMidpoint(0), (geo::Point{50, 0}));
  EXPECT_DOUBLE_EQ(net->FreeFlowTime(0), 10.0);
}

TEST(RoadNetworkTest, AdjacencyAndSlots) {
  auto net = BuildToyNetwork();
  // s0 ends at v1; out of v1: s1, s2.
  const auto& outs = net->OutSegments(0);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0], 1);
  EXPECT_EQ(outs[1], 2);
  EXPECT_EQ(net->NeighborSlot(0, 1), 0);
  EXPECT_EQ(net->NeighborSlot(0, 2), 1);
  EXPECT_EQ(net->NeighborSlot(0, 4), -1);  // not adjacent
  EXPECT_EQ(net->SlotToSegment(0, 1), 2);
  EXPECT_EQ(net->SlotToSegment(0, 5), kInvalidSegment);
  EXPECT_TRUE(net->AreConsecutive(1, 3));
  EXPECT_FALSE(net->AreConsecutive(3, 1));
  EXPECT_GE(net->MaxOutDegree(), 2);
  // In-segments of s4 (v4 -> v5): s2 ends at v4.
  const auto& ins = net->InSegments(4);
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(ins[0], 2);
}

TEST(RoadNetworkTest, ValidateRoute) {
  auto net = BuildToyNetwork();
  EXPECT_TRUE(net->ValidateRoute({0, 2, 4}).ok());
  EXPECT_FALSE(net->ValidateRoute({0, 4}).ok());
  EXPECT_FALSE(net->ValidateRoute({}).ok());
  EXPECT_FALSE(net->ValidateRoute({99}).ok());
  EXPECT_DOUBLE_EQ(net->RouteLength({0, 2, 4}), 300.0);
}

TEST(RoadNetworkTest, ReverseLink) {
  auto net = std::make_unique<RoadNetwork>();
  const VertexId a = net->AddVertex({0, 0});
  const VertexId b = net->AddVertex({10, 0});
  const SegmentId f = net->AddSegment(a, b, 5.0);
  const SegmentId r = net->AddSegment(b, a, 5.0);
  net->LinkReverse(f, r);
  net->Finalize();
  EXPECT_EQ(net->segment(f).reverse, r);
  EXPECT_EQ(net->segment(r).reverse, f);
}

TEST(ShortestPathTest, FindsOptimalRoute) {
  auto net = BuildToyNetwork();
  // From s0 to s4: s0 -> s2 -> s4 (cost 30 with unit-speed weights).
  auto result = ShortestPath(*net, 0, 4, FreeFlowTimeCost(*net));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().path, (std::vector<SegmentId>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(result.value().cost, 30.0);
}

TEST(ShortestPathTest, SourceEqualsTarget) {
  auto net = BuildToyNetwork();
  auto result = ShortestPath(*net, 3, 3, LengthCost(*net));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().path, (std::vector<SegmentId>{3}));
  EXPECT_DOUBLE_EQ(result.value().cost, net->segment(3).length_m);
}

TEST(ShortestPathTest, UnreachableReturnsNotFound) {
  auto net = BuildToyNetwork();
  // s5 ends at v3 which has no outgoing segments; nothing reachable from it.
  auto result = ShortestPath(*net, 5, 0, FreeFlowTimeCost(*net));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::Status::Code::kNotFound);
}

TEST(ShortestPathTest, BannedSegmentsForceDetour) {
  auto net = BuildToyNetwork();
  std::vector<bool> banned(static_cast<size_t>(net->num_segments()), false);
  banned[2] = true;  // forbid the direct middle link
  PathQueryOptions opts;
  opts.banned_segments = &banned;
  auto result = ShortestPath(*net, 0, 3, FreeFlowTimeCost(*net), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().path, (std::vector<SegmentId>{0, 1, 3}));
}

TEST(ShortestPathTest, TurnCostChangesChoice) {
  // Two routes of equal base cost; a turn penalty tips the balance.
  auto net = BuildToyNetwork();
  // s0 -> {s1 (straight), s2 (right turn)}. Penalize s0->s2 heavily.
  PathQueryOptions opts;
  opts.turn_cost = [](SegmentId prev, SegmentId next) {
    return (prev == 0 && next == 2) ? 100.0 : 0.0;
  };
  auto result = ShortestPath(*net, 0, 3, FreeFlowTimeCost(*net), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().path, (std::vector<SegmentId>{0, 1, 3}));
}

TEST(ShortestPathTest, TreeDistances) {
  auto net = BuildToyNetwork();
  auto dist = ShortestPathTree(*net, 0, FreeFlowTimeCost(*net));
  EXPECT_DOUBLE_EQ(dist[0], 10.0);
  EXPECT_DOUBLE_EQ(dist[2], 20.0);
  EXPECT_DOUBLE_EQ(dist[4], 30.0);
  EXPECT_TRUE(std::isinf(dist[5] - 40.0) == false);
}

TEST(KShortestPathsTest, EnumeratesDistinctLooplessPaths) {
  auto net = BuildToyNetwork();
  // s0 to s3 has exactly 1 path (0,1,3). s0 to s4... let's query a pair with
  // two paths: from s0 to v5: either target s3 or s4. Use richer pair: add
  // query from s0 to s3 and from s0 to s4.
  auto paths = KShortestPaths(*net, 0, 3, 5, FreeFlowTimeCost(*net));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].path, (std::vector<SegmentId>{0, 1, 3}));
}

TEST(KShortestPathsTest, OrderedByCostAndDistinct) {
  GridCityConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.removal_prob = 0.0;
  cfg.oneway_prob = 0.0;
  cfg.diagonal_prob = 0.0;
  cfg.seed = 9;
  auto net = BuildGridCity(cfg);
  const SegmentId src = 0;
  // Find some reachable target.
  auto dist = ShortestPathTree(*net, src, FreeFlowTimeCost(*net));
  SegmentId tgt = kInvalidSegment;
  double best = 0.0;
  for (SegmentId s = 0; s < net->num_segments(); ++s) {
    if (std::isfinite(dist[s]) && dist[s] > best) {
      best = dist[s];
      tgt = s;
    }
  }
  ASSERT_NE(tgt, kInvalidSegment);
  auto paths = KShortestPaths(*net, src, tgt, 8, FreeFlowTimeCost(*net));
  ASSERT_GE(paths.size(), 3u);
  std::set<std::vector<SegmentId>> distinct;
  for (size_t i = 0; i < paths.size(); ++i) {
    distinct.insert(paths[i].path);
    EXPECT_TRUE(net->ValidateRoute(paths[i].path).ok());
    EXPECT_EQ(paths[i].path.front(), src);
    EXPECT_EQ(paths[i].path.back(), tgt);
    if (i > 0) {
      EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-9);
    }
    // Loopless: no repeated segments.
    std::set<SegmentId> segs(paths[i].path.begin(), paths[i].path.end());
    EXPECT_EQ(segs.size(), paths[i].path.size());
  }
  EXPECT_EQ(distinct.size(), paths.size());
}

TEST(GridCityTest, BuildsFinalizedConnectedNetwork) {
  auto net = BuildGridCity(ChengduMiniConfig());
  EXPECT_TRUE(net->finalized());
  EXPECT_GT(net->num_segments(), 300);
  EXPECT_LE(net->MaxOutDegree(), 8);
  EXPECT_GE(net->MaxOutDegree(), 3);
  // Most segments reachable from a central one.
  const SegmentId src = net->num_segments() / 2;
  auto dist = ShortestPathTree(*net, src, FreeFlowTimeCost(*net));
  int reachable = 0;
  for (double d : dist) {
    if (std::isfinite(d)) ++reachable;
  }
  EXPECT_GT(reachable, net->num_segments() * 8 / 10);
}

TEST(GridCityTest, PresetsDiffer) {
  auto chengdu = BuildGridCity(ChengduMiniConfig());
  auto harbin = BuildGridCity(HarbinMiniConfig());
  EXPECT_GT(harbin->num_segments(), chengdu->num_segments());
  EXPECT_GT(harbin->bounds().Width(), chengdu->bounds().Width());
}

TEST(GridCityTest, DeterministicForSeed) {
  auto a = BuildGridCity(ChengduMiniConfig());
  auto b = BuildGridCity(ChengduMiniConfig());
  ASSERT_EQ(a->num_segments(), b->num_segments());
  for (SegmentId s = 0; s < a->num_segments(); ++s) {
    EXPECT_EQ(a->segment(s).from, b->segment(s).from);
    EXPECT_EQ(a->segment(s).to, b->segment(s).to);
  }
}

TEST(GridCityTest, HasArterials) {
  auto net = BuildGridCity(ChengduMiniConfig());
  int arterials = 0;
  for (SegmentId s = 0; s < net->num_segments(); ++s) {
    if (net->segment(s).road_class == RoadClass::kArterial) ++arterials;
  }
  EXPECT_GT(arterials, 0);
  EXPECT_LT(arterials, net->num_segments());
}

TEST(SpatialIndexTest, NearestFindsProjection) {
  auto net = BuildToyNetwork();
  SpatialIndex index(*net, 50.0);
  // A point just above the middle of s0.
  auto cand = index.Nearest({50, 10});
  EXPECT_EQ(cand.segment, 0);
  EXPECT_NEAR(cand.projection.distance, 10.0, 1e-9);
  EXPECT_NEAR(cand.projection.point.x, 50.0, 1e-9);
}

TEST(SpatialIndexTest, NearestSegmentsSortedAndK) {
  auto net = BuildToyNetwork();
  SpatialIndex index(*net, 50.0);
  auto cands = index.NearestSegments({100, -50}, 3);
  ASSERT_EQ(cands.size(), 3u);
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i].projection.distance,
              cands[i - 1].projection.distance);
  }
}

TEST(SpatialIndexTest, SegmentsNearRespectsRadius) {
  auto net = BuildToyNetwork();
  SpatialIndex index(*net, 50.0);
  auto cands = index.SegmentsNear({50, 5}, 20.0);
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_LE(c.projection.distance, 20.0);
  }
  // A huge radius returns everything.
  auto all = index.SegmentsNear({100, -50}, 1e6);
  EXPECT_EQ(all.size(), static_cast<size_t>(net->num_segments()));
}

TEST(SpatialIndexTest, ConsistentWithBruteForce) {
  auto net = BuildGridCity(ChengduMiniConfig());
  SpatialIndex index(*net, 200.0);
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    geo::Point p{rng.Uniform(net->bounds().min.x, net->bounds().max.x),
                 rng.Uniform(net->bounds().min.y, net->bounds().max.y)};
    auto cand = index.Nearest(p);
    double brute = 1e18;
    for (SegmentId s = 0; s < net->num_segments(); ++s) {
      brute = std::min(brute, net->ProjectToSegment(p, s).distance);
    }
    EXPECT_NEAR(cand.projection.distance, brute, 1e-6);
  }
}

}  // namespace
}  // namespace roadnet
}  // namespace deepst
