#ifndef DEEPST_TRAFFIC_SNAPSHOT_H_
#define DEEPST_TRAFFIC_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "geo/tile_router.h"
#include "nn/tensor.h"
#include "util/status.h"

namespace deepst {
namespace traffic {

// One probe-vehicle speed observation (a GPS sample with derived speed).
struct SpeedObservation {
  geo::Point pos;
  double time_s = 0.0;
  double speed_mps = 0.0;
};

// Builds the paper's raw traffic representation C: the space is partitioned
// into cells and the average observed vehicle speed per cell is computed
// from the (sub-)trajectories in the window [T.s - delta, T.s) (Section
// IV-D). The tensor has 2 channels:
//   channel 0: average speed in the cell, normalized by `speed_norm_mps`
//   channel 1: saturating observation count, log1p(count) / log1p(cap)
// Channel 1 lets the CNN distinguish "free-flowing" from "unobserved" cells,
// addressing the sensitivity to vehicle spatial distribution the paper
// raises as the motivation for the CNN encoder.
class TrafficTensorBuilder {
 public:
  TrafficTensorBuilder(const geo::GridSpec& grid, double speed_norm_mps = 20.0,
                       int count_cap = 50);

  // Builds the [2, rows, cols] tensor from the given observations.
  nn::Tensor Build(const std::vector<SpeedObservation>& observations) const;

  const geo::GridSpec& grid() const { return grid_; }

 private:
  geo::GridSpec grid_;
  double speed_norm_mps_;
  int count_cap_;
};

// Caches one traffic tensor per time slot, shared by every trip whose start
// time falls into the slot (paper Section IV-D: "discretize the temporal
// dimension into slots and let the trips whose start times fall into the
// same slot share one C"). Observations must be added before querying.
// Observation storage is sharded by region tile (geo::TileRouter over the
// traffic grid): each shard holds a flat vector of slot buckets sorted by
// slot index, looked up by binary search. Ingestion routes every observation
// to its tile's shard -- shard-affine routing -- and bulk-reserves each
// touched bucket once. Because a grid cell belongs to exactly one tile, the
// per-cell accumulation order (and hence every tensor, bit for bit) is
// independent of the sharding.
//
// Beside each slot tensor the cache can hold the slot's encoded traffic
// posterior (EncodedForTime): q(c|C) depends only on C and the encoder
// weights, so the trips that share a slot's C share its posterior too.
//
// Thread-safety contract: AddObservations is the only mutator and must not
// run concurrently with anything else on the same instance. Once ingestion
// is done, HasObservations / latest_observation_time / TensorForTime /
// EncodedForTime are safe from any number of concurrent reader threads
// (proven by the TSan regressions in tests/traffic_test.cc). Live pipelines
// never mutate a published instance at all: traffic::SnapshotStore folds new
// observations into a Clone() off-thread and publishes the clone as the next
// immutable generation, so readers and the builder never share a mutable
// cache.
class TrafficTensorCache {
 public:
  TrafficTensorCache(const geo::GridSpec& grid, double slot_seconds,
                     double window_seconds, double speed_norm_mps = 20.0,
                     int target_shards = 16);

  // Registers probe observations (any order). Mutator: must be externally
  // serialized against all other calls (see the class contract above).
  //
  // Deterministic fold: appending a batch only ever appends to bucket tails
  // in arrival order, so ingesting b1 then b2 leaves bit-identical bucket
  // contents (and therefore bit-identical tensors) to ingesting b1+b2
  // concatenated. SnapshotStore's incremental generations and WAL replay
  // both lean on this -- any frame partitioning of the same row sequence
  // rebuilds the same snapshot.
  void AddObservations(const std::vector<SpeedObservation>& observations);

  // Deep copy of the observation store (shards + latest time). The clone's
  // lazy tensor cache and encoded-posterior memo start empty; tensors built
  // from it are bit-identical to the source's. The double-buffered swap
  // folds new observations into a clone so the published generation is
  // never touched.
  std::unique_ptr<TrafficTensorCache> Clone() const;

  // Tensor for the slot containing `time_s`, built lazily from observations
  // in [slot_start - window, slot_start) and memoized. Safe to call from
  // concurrent eval workers; the slot content is independent of build order.
  const nn::Tensor& TensorForTime(double time_s);

  // Encoded form of the slot containing `time_s`: `encode(tensor)` run on
  // TensorForTime(time_s) once per (slot, token) and memoized. `token`
  // names the encoder weights that produced the entry; a lookup with a
  // different token re-encodes and replaces the slot's entry, so the memo
  // holds at most one encoded tensor per slot. Same race rule as
  // TensorForTime: concurrent first encoders of one slot and token run
  // `encode` outside the lock and the first insert wins, so `encode` must be
  // deterministic. Returns a copy (a later token's insert may replace the
  // entry). AddObservations drops every entry with the tensors.
  nn::Tensor EncodedForTime(
      double time_s, uint64_t token,
      const std::function<nn::Tensor(const nn::Tensor&)>& encode);

  // True when the window feeding the slot of `time_s` has at least one
  // observation. Serving uses this to decide between the live tensor and the
  // prior-mean (DeepST-C) fallback. Stops at the first in-window row.
  bool HasObservations(double time_s) const;

  // Latest observation time registered so far, or -inf when empty. Lets the
  // serving layer detect a stale feed (latest << query time).
  double latest_observation_time() const { return latest_time_; }

  int SlotOf(double time_s) const {
    return static_cast<int>(time_s / slot_seconds_);
  }
  double slot_seconds() const { return slot_seconds_; }
  const geo::GridSpec& grid() const { return builder_.grid(); }
  int rows() const { return builder_.grid().rows(); }
  int cols() const { return builder_.grid().cols(); }

  int num_shards() const { return router_.num_shards(); }
  // Shard that observations (and per-region lookups) at `p` route to.
  int ShardOf(const geo::Point& p) const { return router_.ShardOf(p); }

 private:
  // Clone() constructor: copies the observation store, starts with empty
  // tensor and encoded caches (mutexes are not copyable, and clones rebuild
  // lazily).
  struct CloneTag {};
  TrafficTensorCache(const TrafficTensorCache& other, CloneTag);

  // One time slot's observations within a shard, in arrival order.
  struct SlotBucket {
    int slot = 0;
    std::vector<SpeedObservation> obs;
  };
  struct Shard {
    std::vector<SlotBucket> buckets;  // sorted by slot
  };

  // Calls fn(obs) for every stored observation with time in
  // [window_start, window_end), shard by shard, slots ascending, until fn
  // returns false. Returns false when fn stopped the walk.
  template <typename Fn>
  bool ForEachInWindow(double window_start, double window_end, Fn&& fn) const;

  // Encoded memo entry for one slot (token 0 = never filled).
  struct Encoded {
    uint64_t token = 0;
    nn::Tensor value;
  };

  TrafficTensorBuilder builder_;
  double slot_seconds_;
  double window_seconds_;
  geo::TileRouter router_;
  std::vector<Shard> shards_;
  double latest_time_ = -1e300;
  // Guards cache_ and encoded_ (lazily grown; node-based, so references
  // returned by TensorForTime stay valid across later insertions).
  std::mutex cache_mu_;
  std::map<int, nn::Tensor> cache_;
  std::map<int, Encoded> encoded_;
};

// Loads probe observations from a GPS CSV in the ExportGpsCsv layout
// (header `trip_id,time_s,x,y,speed_mps`, one observation per line).
// Malformed rows — wrong field count, non-numeric or non-finite values,
// negative speeds — yield a Status naming the line; nothing is partially
// ingested on error.
util::StatusOr<std::vector<SpeedObservation>> LoadObservationsCsv(
    const std::string& path);

}  // namespace traffic
}  // namespace deepst

#endif  // DEEPST_TRAFFIC_SNAPSHOT_H_
