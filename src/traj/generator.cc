#include "traj/generator.h"

#include <algorithm>
#include <cmath>

#include "roadnet/shortest_path.h"
#include "util/logging.h"

namespace deepst {
namespace traj {
namespace {

using roadnet::RoadClass;
using roadnet::SegmentId;

}  // namespace

TripGenerator::TripGenerator(const roadnet::RoadNetwork& net,
                             const traffic::CongestionField& field,
                             const GeneratorConfig& config)
    : net_(net), field_(field), config_(config), index_(net) {
  util::Rng rng(config.seed);
  const geo::BoundingBox& box = net.bounds();
  for (int h = 0; h < config.num_destination_hubs; ++h) {
    hubs_.push_back({box.min.x + box.Width() * rng.Uniform(0.1, 0.9),
                     box.min.y + box.Height() * rng.Uniform(0.1, 0.9)});
    // Zipf-ish popularity.
    hub_weights_.push_back(1.0 / (1.0 + h));
  }
}

double TripGenerator::SampleTimeOfDay(util::Rng* rng) const {
  // Mixture: 35% morning peak, 35% evening peak, 30% uniform daytime.
  const double u = rng->Uniform();
  double tod;
  if (u < 0.35) {
    tod = rng->Gaussian(8.0 * 3600, 1.3 * 3600);
  } else if (u < 0.70) {
    tod = rng->Gaussian(18.0 * 3600, 1.3 * 3600);
  } else {
    tod = rng->Uniform(6.0 * 3600, 23.0 * 3600);
  }
  return std::clamp(tod, 0.0, traffic::kSecondsPerDay - 1.0);
}

TripRecord TripGenerator::GenerateTrip(int day, util::Rng* rng) const {
  TripRecord record;
  for (int attempt = 0; attempt < 20; ++attempt) {
    const double start_time =
        day * traffic::kSecondsPerDay + SampleTimeOfDay(rng);

    // Origin: a uniformly random segment.
    const SegmentId origin =
        static_cast<SegmentId>(rng->UniformInt(
            static_cast<uint64_t>(net_.num_segments())));

    // Destination: hub-clustered or uniform.
    geo::Point dest_point;
    if (rng->Uniform() < config_.p_uniform_dest) {
      const geo::BoundingBox& box = net_.bounds();
      dest_point = {box.min.x + box.Width() * rng->Uniform(0.05, 0.95),
                    box.min.y + box.Height() * rng->Uniform(0.05, 0.95)};
    } else {
      const int h = rng->Categorical(hub_weights_);
      dest_point = hubs_[static_cast<size_t>(h)] +
                   geo::Point{rng->Gaussian(0.0, config_.hub_sigma_m),
                              rng->Gaussian(0.0, config_.hub_sigma_m)};
    }
    const auto dest_cand = index_.Nearest(dest_point);
    if (dest_cand.segment == roadnet::kInvalidSegment) continue;
    const SegmentId dest_segment = dest_cand.segment;
    if (dest_segment == origin) continue;

    // Driver style (whole-trip latent -> long-range dependence).
    const bool arterial_lover = rng->Uniform() < config_.p_arterial_lover;
    const double arterial_factor = arterial_lover
                                       ? config_.arterial_affinity
                                       : config_.arterial_aversion;
    const bool traffic_aware = rng->Uniform() < config_.p_traffic_aware;

    // Per-trip lognormal edge noise, deterministic within the trip.
    const uint64_t trip_salt = rng->NextUint64();
    auto cost = [&, this](SegmentId s) {
      const auto& seg = net_.segment(s);
      double t = traffic_aware ? field_.TravelTime(s, start_time)
                               : net_.FreeFlowTime(s);
      if (seg.road_class != RoadClass::kLocal) t *= arterial_factor;
      const double g =
          util::HashToUnit(trip_salt ^ (static_cast<uint64_t>(s) * 2654435761ULL));
      // Lognormal-ish noise via inverse-transform of a uniform through a
      // symmetric logistic; cheap and deterministic.
      const double z = std::log(g / (1.0 - g + 1e-12)) * 0.55;
      return t * std::exp(config_.route_noise * z);
    };
    auto turn_cost = [this](SegmentId prev, SegmentId next) {
      if (net_.segment(prev).reverse == next) return config_.uturn_penalty_s;
      const double a = geo::HeadingAtEnd(net_.polyline(prev));
      const double b = geo::HeadingAtStart(net_.polyline(next));
      return config_.turn_penalty_s * geo::AngleDiff(a, b) / (M_PI / 2.0);
    };
    roadnet::PathQueryOptions opts;
    opts.turn_cost = turn_cost;
    auto path = roadnet::ShortestPath(net_, origin, dest_segment, cost, opts);
    if (!path.ok()) continue;

    const double len = net_.RouteLength(path.value().path);
    if (len < config_.min_route_m || len > config_.max_route_m) continue;

    record.trip.route = std::move(path.value().path);
    record.trip.start_time_s = start_time;
    record.trip.day = day;
    // Rough destination coordinate: true route endpoint + noise (the paper
    // assumes only an approximate coordinate is available).
    record.trip.destination =
        net_.SegmentEnd(record.trip.final_segment()) +
        geo::Point{rng->Gaussian(0.0, config_.dest_noise_m),
                   rng->Gaussian(0.0, config_.dest_noise_m)};
    record.gps = SimulateGps(record.trip.route, start_time, rng);
    return record;
  }
  return record;  // empty route: caller retries or skips
}

GpsTrajectory TripGenerator::SimulateGps(const Route& route,
                                         double start_time_s,
                                         util::Rng* rng) const {
  GpsTrajectory gps;
  double t = start_time_s;
  double next_sample = start_time_s;
  for (SegmentId s : route) {
    const auto& seg = net_.segment(s);
    // Speed held constant within a segment (traffic state at entry).
    double speed = field_.SpeedAt(s, t) * rng->Uniform(0.9, 1.1);
    speed = std::max(speed, 0.5);
    const double seg_time = seg.length_m / speed;
    // Emit samples while inside this segment.
    while (next_sample < t + seg_time) {
      const double offset = (next_sample - t) * speed;
      geo::Point p = geo::InterpolateAlong(net_.polyline(s), offset);
      p = p + geo::Point{rng->Gaussian(0.0, config_.gps_noise_m),
                         rng->Gaussian(0.0, config_.gps_noise_m)};
      gps.push_back({p, next_sample, speed});
      next_sample += config_.gps_interval_s;
    }
    t += seg_time;
  }
  // Final point at the route end.
  if (!route.empty()) {
    geo::Point p = net_.polyline(route.back()).back() +
                   geo::Point{rng->Gaussian(0.0, config_.gps_noise_m),
                              rng->Gaussian(0.0, config_.gps_noise_m)};
    gps.push_back({p, t, field_.SpeedAt(route.back(), t)});
  }
  return gps;
}

std::vector<TripRecord> TripGenerator::GenerateDataset() {
  util::Rng rng(config_.seed ^ 0x5eed5eedULL);
  std::vector<TripRecord> records;
  records.reserve(static_cast<size_t>(config_.num_days) *
                  config_.trips_per_day);
  for (int day = 0; day < config_.num_days; ++day) {
    int generated = 0;
    int failures = 0;
    while (generated < config_.trips_per_day && failures < 1000) {
      TripRecord rec = GenerateTrip(day, &rng);
      if (rec.trip.route.empty()) {
        ++failures;
        continue;
      }
      records.push_back(std::move(rec));
      ++generated;
    }
  }
  std::sort(records.begin(), records.end(),
            [](const TripRecord& a, const TripRecord& b) {
              return a.trip.start_time_s < b.trip.start_time_s;
            });
  DEEPST_LOG(Info) << "generated " << records.size() << " trips over "
                   << config_.num_days << " days";
  return records;
}

std::vector<traffic::SpeedObservation> CollectObservations(
    const std::vector<TripRecord>& records) {
  std::vector<traffic::SpeedObservation> obs;
  for (const auto& rec : records) {
    for (const auto& p : rec.gps) {
      obs.push_back({p.pos, p.time_s, p.speed_mps});
    }
  }
  return obs;
}

GpsTrajectory DownsampleByInterval(const GpsTrajectory& gps,
                                   double interval_s) {
  GpsTrajectory out;
  if (gps.empty()) return out;
  out.push_back(gps.front());
  for (const auto& p : gps) {
    if (p.time_s >= out.back().time_s + interval_s) {
      out.push_back(p);
    }
  }
  if (!(out.back().time_s == gps.back().time_s)) {
    out.push_back(gps.back());
  }
  return out;
}

}  // namespace traj
}  // namespace deepst
