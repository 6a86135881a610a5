#include "mapmatch/hmm_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace deepst {
namespace mapmatch {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

using roadnet::SegmentCandidate;
using roadnet::SegmentId;

}  // namespace

HmmMapMatcher::HmmMapMatcher(const roadnet::RoadNetwork& net,
                             const roadnet::SpatialIndex& index,
                             const MatcherConfig& config)
    : net_(net), index_(index), config_(config) {}

util::StatusOr<MatchResult> HmmMapMatcher::Match(
    const traj::GpsTrajectory& gps) const {
  if (gps.empty()) {
    return util::Status::InvalidArgument("empty trajectory");
  }
  const size_t n = gps.size();

  // Candidate generation.
  std::vector<std::vector<SegmentCandidate>> candidates(n);
  for (size_t i = 0; i < n; ++i) {
    candidates[i] =
        index_.SegmentsNear(gps[i].pos, config_.candidate_radius_m);
    if (candidates[i].empty()) {
      candidates[i] = index_.NearestSegments(gps[i].pos, 2);
    }
    if (static_cast<int>(candidates[i].size()) > config_.max_candidates) {
      candidates[i].resize(static_cast<size_t>(config_.max_candidates));
    }
    if (candidates[i].empty()) {
      return util::Status::NotFound("no candidate segments for point");
    }
  }

  auto emission = [&](const SegmentCandidate& c) {
    const double d = c.projection.distance / config_.sigma_gps_m;
    return -0.5 * d * d;
  };

  // Viterbi.
  const auto length_cost = roadnet::LengthCost(net_);
  std::vector<std::vector<double>> dp(n);
  std::vector<std::vector<int>> back(n);
  dp[0].resize(candidates[0].size());
  back[0].assign(candidates[0].size(), -1);
  for (size_t c = 0; c < candidates[0].size(); ++c) {
    dp[0][c] = emission(candidates[0][c]);
  }
  for (size_t i = 1; i < n; ++i) {
    dp[i].assign(candidates[i].size(), kNegInf);
    back[i].assign(candidates[i].size(), -1);
    const double straight = gps[i - 1].pos.DistanceTo(gps[i].pos);
    // One shortest-path tree per previous candidate.
    for (size_t a = 0; a < candidates[i - 1].size(); ++a) {
      if (dp[i - 1][a] == kNegInf) continue;
      const SegmentCandidate& ca = candidates[i - 1][a];
      const auto tree = roadnet::ShortestPathTree(net_, ca.segment,
                                                  length_cost);
      for (size_t b = 0; b < candidates[i].size(); ++b) {
        const SegmentCandidate& cb = candidates[i][b];
        double route_dist;
        if (ca.segment == cb.segment) {
          route_dist =
              std::fabs(cb.projection.offset - ca.projection.offset);
        } else {
          const double total = tree[static_cast<size_t>(cb.segment)];
          if (!std::isfinite(total)) continue;
          // Tree distance counts the full length of both endpoint segments;
          // adjust to projection points.
          route_dist = total - ca.projection.offset -
                       (net_.segment(cb.segment).length_m -
                        cb.projection.offset);
          route_dist = std::max(route_dist, 0.0);
        }
        if (route_dist >
            config_.max_detour_factor * std::max(straight, 50.0)) {
          continue;
        }
        const double trans =
            -std::fabs(route_dist - straight) / config_.beta_m;
        const double score = dp[i - 1][a] + trans + emission(cb);
        if (score > dp[i][b]) {
          dp[i][b] = score;
          back[i][b] = static_cast<int>(a);
        }
      }
    }
    bool any = std::any_of(dp[i].begin(), dp[i].end(),
                           [](double v) { return v != kNegInf; });
    if (!any) {
      // HMM break (all transitions pruned, e.g. a GPS outlier or an
      // off-network detour): restart from emissions with a fixed penalty,
      // chaining to the best previous state so backtracking stays valid --
      // the stitching step will reconnect the route.
      size_t best_prev = 0;
      for (size_t a = 1; a < dp[i - 1].size(); ++a) {
        if (dp[i - 1][a] > dp[i - 1][best_prev]) best_prev = a;
      }
      constexpr double kBreakPenalty = -50.0;
      for (size_t b = 0; b < candidates[i].size(); ++b) {
        dp[i][b] = dp[i - 1][best_prev] + kBreakPenalty +
                   emission(candidates[i][b]);
        back[i][b] = static_cast<int>(best_prev);
      }
    }
  }

  // Backtrack.
  MatchResult result;
  result.point_segments.resize(n);
  size_t best = 0;
  for (size_t c = 1; c < dp[n - 1].size(); ++c) {
    if (dp[n - 1][c] > dp[n - 1][best]) best = c;
  }
  result.log_likelihood = dp[n - 1][best];
  int cur = static_cast<int>(best);
  for (size_t i = n; i-- > 0;) {
    result.point_segments[i] = candidates[i][static_cast<size_t>(cur)].segment;
    cur = back[i][static_cast<size_t>(cur)];
  }

  // Stitch matched segments into a connected route.
  result.route.push_back(result.point_segments[0]);
  for (size_t i = 1; i < n; ++i) {
    const SegmentId prev = result.route.back();
    const SegmentId next = result.point_segments[i];
    if (next == prev) continue;
    auto path = roadnet::ShortestPath(net_, prev, next, length_cost);
    if (!path.ok()) {
      return util::Status::NotFound("cannot stitch matched segments");
    }
    for (size_t j = 1; j < path.value().path.size(); ++j) {
      result.route.push_back(path.value().path[j]);
    }
  }
  return result;
}

}  // namespace mapmatch
}  // namespace deepst
