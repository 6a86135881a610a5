#include <gtest/gtest.h>

#include <cmath>

#include "geo/grid.h"
#include "geo/latlng.h"
#include "geo/point.h"
#include "geo/polyline.h"

namespace deepst {
namespace geo {
namespace {

TEST(PointTest, ArithmeticAndNorm) {
  Point a{3, 4}, b{1, 1};
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_DOUBLE_EQ((a - b).x, 2.0);
  EXPECT_DOUBLE_EQ((a + b).y, 5.0);
  EXPECT_DOUBLE_EQ((a * 2).x, 6.0);
  EXPECT_DOUBLE_EQ(a.Dot(b), 7.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), std::sqrt(4.0 + 9.0));
}

TEST(BoundingBoxTest, ExtendAndContains) {
  BoundingBox box;
  box.Extend({0, 0});
  box.Extend({10, 5});
  EXPECT_TRUE(box.Contains({5, 2}));
  EXPECT_FALSE(box.Contains({11, 2}));
  EXPECT_DOUBLE_EQ(box.Width(), 10.0);
  EXPECT_DOUBLE_EQ(box.Height(), 5.0);
}

TEST(HaversineTest, KnownDistance) {
  // 1 degree of latitude is ~111.2 km.
  LatLng a{30.0, 104.0}, b{31.0, 104.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111195.0, 200.0);
  EXPECT_NEAR(HaversineMeters(a, a), 0.0, 1e-6);
}

TEST(LocalProjectionTest, RoundTrip) {
  LocalProjection proj({45.75, 126.63});  // Harbin
  LatLng ll{45.80, 126.70};
  Point p = proj.ToLocal(ll);
  LatLng back = proj.ToLatLng(p);
  EXPECT_NEAR(back.lat, ll.lat, 1e-9);
  EXPECT_NEAR(back.lng, ll.lng, 1e-9);
}

TEST(LocalProjectionTest, DistancesMatchHaversine) {
  LocalProjection proj({30.65, 104.06});  // Chengdu
  LatLng a{30.66, 104.07}, b{30.70, 104.10};
  const double planar = proj.ToLocal(a).DistanceTo(proj.ToLocal(b));
  const double sphere = HaversineMeters(a, b);
  EXPECT_NEAR(planar / sphere, 1.0, 0.01);
}

TEST(PolylineTest, Length) {
  std::vector<Point> pts = {{0, 0}, {3, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(PolylineLength(pts), 7.0);
  const std::vector<Point> single = {{1, 1}};
  EXPECT_DOUBLE_EQ(PolylineLength(single), 0.0);
}

TEST(PolylineTest, ProjectOntoSegmentClamps) {
  const Point a{0, 0}, b{10, 0};
  EXPECT_EQ(ProjectOntoSegment({5, 3}, a, b), (Point{5, 0}));
  EXPECT_EQ(ProjectOntoSegment({-5, 3}, a, b), a);
  EXPECT_EQ(ProjectOntoSegment({15, 3}, a, b), b);
  // Degenerate segment.
  EXPECT_EQ(ProjectOntoSegment({1, 1}, a, a), a);
}

TEST(PolylineTest, ProjectOntoPolylinePicksClosestLeg) {
  std::vector<Point> pts = {{0, 0}, {10, 0}, {10, 10}};
  Projection pr = ProjectOntoPolyline({12, 5}, pts);
  EXPECT_EQ(pr.segment_index, 1);
  EXPECT_NEAR(pr.distance, 2.0, 1e-9);
  EXPECT_NEAR(pr.offset, 15.0, 1e-9);
  EXPECT_NEAR(pr.point.x, 10.0, 1e-9);
  EXPECT_NEAR(pr.point.y, 5.0, 1e-9);
}

TEST(PolylineTest, InterpolateAlong) {
  std::vector<Point> pts = {{0, 0}, {10, 0}, {10, 10}};
  Point p = InterpolateAlong(pts, 5.0);
  EXPECT_NEAR(p.x, 5.0, 1e-9);
  Point q = InterpolateAlong(pts, 15.0);
  EXPECT_NEAR(q.y, 5.0, 1e-9);
  // Clamps.
  EXPECT_EQ(InterpolateAlong(pts, -1.0), pts.front());
  EXPECT_EQ(InterpolateAlong(pts, 100.0), pts.back());
}

TEST(PolylineTest, Headings) {
  std::vector<Point> pts = {{0, 0}, {10, 0}, {10, 10}};
  EXPECT_NEAR(HeadingAtStart(pts), 0.0, 1e-9);
  EXPECT_NEAR(HeadingAtEnd(pts), M_PI / 2, 1e-9);
}

TEST(PolylineTest, AngleDiffWrapsAround) {
  EXPECT_NEAR(AngleDiff(0.1, -0.1), 0.2, 1e-9);
  EXPECT_NEAR(AngleDiff(M_PI - 0.05, -M_PI + 0.05), 0.1, 1e-9);
  EXPECT_NEAR(AngleDiff(0.0, M_PI), M_PI, 1e-9);
}

TEST(GridSpecTest, DimensionsAndClamping) {
  BoundingBox box;
  box.Extend({0, 0});
  box.Extend({1000, 500});
  GridSpec grid(box, 100.0);
  EXPECT_EQ(grid.cols(), 10);
  EXPECT_EQ(grid.rows(), 5);
  EXPECT_EQ(grid.num_cells(), 50);
  EXPECT_EQ(grid.CellOf({-50, -50}), 0);  // clamped
  EXPECT_EQ(grid.RowOf({500, 5000}), 4);
  EXPECT_EQ(grid.CellOf({150, 250}), 2 * 10 + 1);
}

TEST(GridSpecTest, CellCenter) {
  BoundingBox box;
  box.Extend({0, 0});
  box.Extend({200, 200});
  GridSpec grid(box, 100.0);
  Point c = grid.CellCenter(1, 0);
  EXPECT_DOUBLE_EQ(c.x, 50.0);
  EXPECT_DOUBLE_EQ(c.y, 150.0);
}

}  // namespace
}  // namespace geo
}  // namespace deepst
