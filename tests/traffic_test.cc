#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "roadnet/grid_city.h"
#include "traffic/congestion_field.h"
#include "traffic/snapshot.h"

namespace deepst {
namespace traffic {
namespace {

// Stand-in encoder for the posterior memo: a deterministic [2, 2] summary
// of the slot tensor, scaled by the token so entries of different tokens
// differ. Counts its runs in *calls.
nn::Tensor FakeEncode(const nn::Tensor& t, uint64_t token,
                      std::atomic<int>* calls) {
  calls->fetch_add(1);
  nn::Tensor out({2, 2});
  out[0] = static_cast<float>(t.Sum() * static_cast<double>(token));
  out[1] = static_cast<float>(t.numel());
  out[2] = static_cast<float>(token);
  out[3] = t.numel() > 0 ? t[0] : 0.0f;
  return out;
}

bool SameBits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

std::unique_ptr<roadnet::RoadNetwork> SmallCity() {
  roadnet::GridCityConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  cfg.removal_prob = 0.0;
  cfg.oneway_prob = 0.0;
  cfg.seed = 5;
  return roadnet::BuildGridCity(cfg);
}

TEST(CongestionFieldTest, FactorAtLeastOne) {
  auto net = SmallCity();
  CongestionField field(*net, {});
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto s = static_cast<roadnet::SegmentId>(
        rng.UniformInt(static_cast<uint64_t>(net->num_segments())));
    const double t = rng.Uniform(0.0, 10 * kSecondsPerDay);
    EXPECT_GE(field.CongestionFactor(s, t), 1.0);
  }
}

TEST(CongestionFieldTest, RushHourSlowerThanNight) {
  auto net = SmallCity();
  CongestionConfig cfg;
  cfg.noise_level = 0.0;
  cfg.incident_prob = 0.0;
  CongestionField field(*net, cfg);
  // Average factor over all segments at 8am vs 3am, same day.
  double rush = 0.0, night = 0.0;
  for (roadnet::SegmentId s = 0; s < net->num_segments(); ++s) {
    rush += field.CongestionFactor(s, 8 * 3600.0);
    night += field.CongestionFactor(s, 3 * 3600.0);
  }
  EXPECT_GT(rush, night * 1.1);
}

TEST(CongestionFieldTest, RushLevelProfileShape) {
  auto net = SmallCity();
  CongestionField field(*net, {});
  EXPECT_GT(field.RushLevel(8 * 3600.0), field.RushLevel(12 * 3600.0));
  EXPECT_GT(field.RushLevel(18 * 3600.0), field.RushLevel(3 * 3600.0));
  EXPECT_NEAR(field.RushLevel(8 * 3600.0), 1.0, 0.05);
}

TEST(CongestionFieldTest, HotspotsSlowerThanPeriphery) {
  auto net = SmallCity();
  CongestionConfig cfg;
  cfg.noise_level = 0.0;
  cfg.incident_prob = 0.0;
  cfg.num_hotspots = 1;
  CongestionField field(*net, cfg);
  const geo::Point hub = field.hotspot_centers()[0];
  // Closest and farthest segment from the hotspot.
  roadnet::SegmentId close = 0, far = 0;
  double dmin = 1e18, dmax = -1;
  for (roadnet::SegmentId s = 0; s < net->num_segments(); ++s) {
    const double d = net->SegmentMidpoint(s).DistanceTo(hub);
    if (d < dmin) {
      dmin = d;
      close = s;
    }
    if (d > dmax) {
      dmax = d;
      far = s;
    }
  }
  const double t = 8 * 3600.0;
  EXPECT_GT(field.CongestionFactor(close, t),
            field.CongestionFactor(far, t) + 0.2);
}

TEST(CongestionFieldTest, VariesAcrossDaysAtSameTimeOfDay) {
  auto net = SmallCity();
  CongestionConfig cfg;
  cfg.noise_level = 0.0;
  cfg.incident_prob = 0.0;
  CongestionField field(*net, cfg);
  // Same 8am slot on different days must differ somewhere (real-time-ness).
  double max_diff = 0.0;
  for (roadnet::SegmentId s = 0; s < net->num_segments(); ++s) {
    const double a = field.CongestionFactor(s, 8 * 3600.0);
    const double b =
        field.CongestionFactor(s, kSecondsPerDay * 3 + 8 * 3600.0);
    max_diff = std::max(max_diff, std::fabs(a - b));
  }
  EXPECT_GT(max_diff, 0.05);
}

TEST(CongestionFieldTest, SpeedAndTravelTimeConsistent) {
  auto net = SmallCity();
  CongestionField field(*net, {});
  const roadnet::SegmentId s = 3;
  const double t = 9 * 3600.0;
  EXPECT_NEAR(field.TravelTime(s, t),
              net->segment(s).length_m / field.SpeedAt(s, t), 1e-9);
  EXPECT_LE(field.SpeedAt(s, t), net->segment(s).speed_limit_mps + 1e-9);
}

TEST(CongestionFieldTest, DeterministicForSeed) {
  auto net = SmallCity();
  CongestionField a(*net, {});
  CongestionField b(*net, {});
  EXPECT_EQ(a.CongestionFactor(5, 12345.0), b.CongestionFactor(5, 12345.0));
}

TEST(TrafficTensorBuilderTest, ShapeAndEmpty) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({1000, 1000});
  geo::GridSpec grid(box, 250.0);
  TrafficTensorBuilder builder(grid);
  nn::Tensor t = builder.Build({});
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 4);
  EXPECT_EQ(t.dim(2), 4);
  EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
}

TEST(TrafficTensorBuilderTest, AveragesSpeedsPerCell) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({400, 400});
  geo::GridSpec grid(box, 200.0);
  TrafficTensorBuilder builder(grid, /*speed_norm_mps=*/10.0);
  std::vector<SpeedObservation> obs = {
      {{50, 50}, 0.0, 5.0},   // cell (0,0)
      {{60, 40}, 1.0, 15.0},  // cell (0,0)
      {{350, 350}, 2.0, 10.0}  // cell (1,1)
  };
  nn::Tensor t = builder.Build(obs);
  const int cols = grid.cols();
  // Cell (0,0): avg 10 m/s -> 1.0 normalized.
  EXPECT_NEAR(t[0 * cols + 0], 1.0f, 1e-5);
  // Cell (1,1): avg 10 -> 1.0.
  EXPECT_NEAR(t[1 * cols + 1], 1.0f, 1e-5);
  // Count channel nonzero only where observed.
  EXPECT_GT(t[grid.num_cells() + 0], 0.0f);
  EXPECT_FLOAT_EQ(t[grid.num_cells() + 1], 0.0f);  // cell (0,1) empty
}

TEST(TrafficTensorBuilderTest, SpeedChannelSaturates) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({100, 100});
  geo::GridSpec grid(box, 100.0);
  TrafficTensorBuilder builder(grid, 10.0);
  nn::Tensor t = builder.Build({{{50, 50}, 0.0, 1000.0}});
  EXPECT_LE(t[0], 2.0f);
}

TEST(TrafficTensorCacheTest, SlotSharingAndWindow) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({400, 400});
  geo::GridSpec grid(box, 200.0);
  TrafficTensorCache cache(grid, /*slot_seconds=*/1200.0,
                           /*window_seconds=*/1800.0);
  // Observation at t=500 in cell (0,0).
  cache.AddObservations({{{50, 50}, 500.0, 10.0}});
  // Slot of t=1500 is [1200,2400); its window is [-600,1200) -> includes the
  // observation.
  const nn::Tensor& t1 = cache.TensorForTime(1500.0);
  EXPECT_GT(t1.Sum(), 0.0);
  // Two times in the same slot share the same tensor object.
  const nn::Tensor& t2 = cache.TensorForTime(2000.0);
  EXPECT_EQ(&t1, &t2);
  // A much later slot has an empty window.
  const nn::Tensor& t3 = cache.TensorForTime(10 * 3600.0);
  EXPECT_DOUBLE_EQ(t3.Sum(), 0.0);
}

TEST(TrafficTensorCacheTest, CloneBitIdenticalAndIndependent) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({800, 800});
  geo::GridSpec grid(box, 200.0);
  TrafficTensorCache cache(grid, 1200.0, 1800.0);
  cache.AddObservations({{{50, 50}, 500.0, 10.0},
                         {{350, 650}, 900.0, 4.0},
                         {{700, 100}, 2500.0, 12.0}});
  auto clone = cache.Clone();
  EXPECT_EQ(clone->latest_observation_time(),
            cache.latest_observation_time());
  for (double t : {1500.0, 3600.0, 7200.0}) {
    const nn::Tensor& a = cache.TensorForTime(t);
    const nn::Tensor& b = clone->TensorForTime(t);
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) * sizeof(float)));
  }
  // Mutating the clone must not leak into the source: a new observation in
  // a slot the source has not memoized yet only shows up in the clone.
  clone->AddObservations({{{450, 450}, 5000.0, 2.0}});
  EXPECT_GT(clone->TensorForTime(6500.0).Sum(), 0.0);
  EXPECT_DOUBLE_EQ(cache.TensorForTime(6500.0).Sum(), 0.0);

  // Encoded memo: one encode per (slot, token); a new token re-encodes and
  // replaces the entry; clones start empty; AddObservations drops entries.
  std::atomic<int> calls{0};
  auto encode = [&calls](uint64_t token) {
    return [&calls, token](const nn::Tensor& t) {
      return FakeEncode(t, token, &calls);
    };
  };
  const nn::Tensor first = cache.EncodedForTime(3600.0, 7, encode(7));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(SameBits(cache.EncodedForTime(3700.0, 7, encode(7)), first));
  EXPECT_EQ(calls.load(), 1);  // same slot, same token: memo hit
  EXPECT_FALSE(SameBits(cache.EncodedForTime(3600.0, 8, encode(8)), first));
  EXPECT_EQ(calls.load(), 2);
  EXPECT_TRUE(SameBits(cache.EncodedForTime(3600.0, 7, encode(7)), first));
  EXPECT_EQ(calls.load(), 3);  // token 8 replaced token 7's entry
  auto clone2 = cache.Clone();
  EXPECT_TRUE(SameBits(clone2->EncodedForTime(3600.0, 7, encode(7)), first));
  EXPECT_EQ(calls.load(), 4);  // the clone's memo starts empty
  // New rows in the slot's window: the memo entry must not survive them.
  cache.AddObservations({{{650, 650}, 3000.0, 9.0}});
  const nn::Tensor after = cache.EncodedForTime(3600.0, 7, encode(7));
  EXPECT_EQ(calls.load(), 5);
  EXPECT_FALSE(SameBits(after, first));
  EXPECT_TRUE(SameBits(after, FakeEncode(cache.TensorForTime(3600.0), 7,
                                         &calls)));
  // The clone taken before the ingest keeps its own entry.
  const int before = calls.load();
  EXPECT_TRUE(SameBits(clone2->EncodedForTime(3600.0, 7, encode(7)), first));
  EXPECT_EQ(calls.load(), before);
}

// TSan regression for the published-snapshot reader contract: once
// ingestion is done, any number of threads may call the read API
// concurrently -- including racing to lazily build the SAME slot tensor
// for the first time. Run under tools/check_sanitize.sh thread.
TEST(TrafficTensorCacheTest, ConcurrentReadersAreSafe) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({1000, 1000});
  geo::GridSpec grid(box, 125.0);
  TrafficTensorCache cache(grid, 600.0, 1200.0);
  std::vector<SpeedObservation> obs;
  for (int i = 0; i < 500; ++i) {
    const double t = 37.0 * i;
    obs.push_back({{(i * 73) % 1000 + 0.5, (i * 131) % 1000 + 0.5}, t,
                   3.0 + (i % 11)});
  }
  cache.AddObservations(obs);
  constexpr int kThreads = 8;
  std::vector<std::thread> readers;
  std::vector<double> sums(kThreads, 0.0);
  for (int w = 0; w < kThreads; ++w) {
    readers.emplace_back([&cache, &sums, w] {
      double acc = 0.0;
      for (int round = 0; round < 20; ++round) {
        // Every thread walks the same slot sequence, so first builds race.
        for (double t = 700.0; t < 20000.0; t += 600.0) {
          acc += cache.TensorForTime(t).Sum();
          acc += cache.HasObservations(t) ? 1.0 : 0.0;
        }
        acc += cache.latest_observation_time();
      }
      sums[static_cast<size_t>(w)] = acc;
    });
  }
  for (auto& r : readers) r.join();
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_DOUBLE_EQ(sums[0], sums[static_cast<size_t>(w)]);
  }
}

// TSan regression for the encoded-posterior memo: threads race to encode the
// same cold slots under two tokens, so first inserts, memo hits and
// token-mismatch replacements all interleave. Every returned tensor must be
// exactly its token's encoding. Run under tools/check_sanitize.sh thread.
TEST(TrafficTensorCacheTest, ConcurrentEncodersShareSlots) {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({1000, 1000});
  geo::GridSpec grid(box, 125.0);
  TrafficTensorCache cache(grid, 600.0, 1200.0);
  std::vector<SpeedObservation> obs;
  for (int i = 0; i < 500; ++i) {
    obs.push_back({{(i * 73) % 1000 + 0.5, (i * 131) % 1000 + 0.5}, 37.0 * i,
                   3.0 + (i % 11)});
  }
  cache.AddObservations(obs);
  auto reference = cache.Clone();  // expected encodings, built serially
  std::atomic<int> ref_calls{0};
  std::vector<double> times;
  for (double t = 700.0; t < 20000.0; t += 600.0) times.push_back(t);

  constexpr int kThreads = 8;
  std::atomic<int> calls{0};
  std::atomic<int> lookups{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 10; ++round) {
        for (double t : times) {
          // Half the threads use token 1, half token 2, so the two tokens
          // keep replacing each other's entries.
          const uint64_t token = 1 + static_cast<uint64_t>((w + round) % 2);
          const nn::Tensor got =
              cache.EncodedForTime(t, token, [&](const nn::Tensor& c) {
                return FakeEncode(c, token, &calls);
              });
          lookups.fetch_add(1);
          const nn::Tensor want =
              FakeEncode(reference->TensorForTime(t), token, &ref_calls);
          if (!SameBits(got, want)) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(calls.load(), static_cast<int>(times.size()));
  EXPECT_LE(calls.load(), lookups.load());
}

TEST(TrafficTensorCacheTest, ObservationInOwnSlotExcluded) {
  // The window is [slot_start - w, slot_start): observations *inside* the
  // current slot must not leak into its tensor.
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({100, 100});
  geo::GridSpec grid(box, 100.0);
  TrafficTensorCache cache(grid, 1200.0, 1800.0);
  cache.AddObservations({{{50, 50}, 1300.0, 8.0}});
  const nn::Tensor& t = cache.TensorForTime(1500.0);  // same slot [1200,2400)
  EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
}

}  // namespace
}  // namespace traffic
}  // namespace deepst
