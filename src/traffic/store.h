#ifndef DEEPST_TRAFFIC_STORE_H_
#define DEEPST_TRAFFIC_STORE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "traffic/snapshot.h"
#include "traffic/wal.h"
#include "util/status.h"

namespace deepst {
namespace traffic {

// One published traffic generation: an immutable TrafficTensorCache plus
// its generation id. Lifetime is the shared_ptr's: the store holds one
// reference for the current generation and every pinned reader holds one,
// so a superseded generation is reclaimed exactly when its last pinned
// reader releases -- never under a live query.
struct TrafficSnapshot {
  uint64_t generation = 0;
  std::shared_ptr<TrafficTensorCache> cache;
};

// Per-ingest-batch accounting; rejected rows are counted, not batch-fatal.
struct IngestReport {
  int64_t accepted = 0;
  int64_t rejected = 0;
};

// Point-in-time counters for the serve stats surface.
struct SnapshotStoreStats {
  uint64_t generation = 0;       // currently published generation id
  int64_t swaps = 0;             // publishes since construction
  double snapshot_age_s = 0.0;   // wall seconds since the last publish
  int64_t rows_accepted = 0;
  int64_t rows_rejected = 0;
  int64_t rows_pending = 0;      // acked but not yet folded into a snapshot
  int64_t wal_bytes = 0;         // durable log size (0 without a WAL)
  int64_t wal_fsyncs = 0;
  int64_t pinned_readers = 0;    // pins currently held
  int64_t pinned_reader_high_water = 0;
};

class SnapshotStore;

// RAII pin of one generation, acquired at query admission and held for the
// whole query. The pinned cache is immutable, so every tensor the query
// reads comes from the same generation no matter how many swaps land while
// it runs -- the epoch-pinning determinism contract.
class SnapshotPin {
 public:
  SnapshotPin() = default;
  SnapshotPin(SnapshotPin&& other) noexcept;
  SnapshotPin& operator=(SnapshotPin&& other) noexcept;
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;
  ~SnapshotPin();

  explicit operator bool() const { return snapshot_ != nullptr; }
  uint64_t generation() const {
    return snapshot_ != nullptr ? snapshot_->generation : 0;
  }
  TrafficTensorCache* cache() const {
    return snapshot_ != nullptr ? snapshot_->cache.get() : nullptr;
  }

  void Release();

 private:
  friend class SnapshotStore;
  SnapshotPin(SnapshotStore* store,
              std::shared_ptr<const TrafficSnapshot> snapshot)
      : store_(store), snapshot_(std::move(snapshot)) {}

  SnapshotStore* store_ = nullptr;
  std::shared_ptr<const TrafficSnapshot> snapshot_;
};

struct SnapshotStoreConfig {
  // Background aggregator cadence; <= 0 disables the thread (swaps happen
  // only via SwapNow, e.g. the serve `swap` command).
  double swap_interval_ms = 0.0;
  // Per-batch row cap (also bounds the WAL frame size).
  int64_t max_rows_per_ingest = 1 << 20;
};

// Generation-counted, double-buffered publisher of TrafficTensorCache
// snapshots. Ingest validates rows, appends them to the WAL (the ack
// point), and queues them as pending; a swap -- background aggregator tick
// or explicit SwapNow -- folds the pending rows into a Clone() of the
// current generation off-thread and publishes the clone with an atomic
// shared_ptr store. Readers never block on the builder and the builder
// never mutates a published cache. Bitwise determinism across restarts
// follows from the cache's deterministic-fold contract: WAL replay feeds
// the same rows in the same order, so any partitioning into swaps rebuilds
// byte-identical tensors.
class SnapshotStore {
 public:
  // `initial` becomes generation 1. `wal` (may be null) receives every
  // accepted ingest batch before it is acked.
  SnapshotStore(std::unique_ptr<TrafficTensorCache> initial,
                std::unique_ptr<ObservationWal> wal,
                const SnapshotStoreConfig& config = {});
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Invoked after every publish with the new generation. Set before Start /
  // the first swap.
  void set_on_swap(std::function<void(uint64_t generation)> fn) {
    on_swap_ = std::move(fn);
  }

  // Validates `rows` (finite fields, non-negative time and speed; bad rows
  // are counted rejected and dropped), appends the accepted rows to the WAL
  // and queues them for the next swap. Returns only after the WAL append --
  // an OK status IS the durability ack. A WAL failure queues nothing.
  util::Status Ingest(const std::vector<SpeedObservation>& rows,
                      IngestReport* report = nullptr);

  // Queues rows replayed from the WAL at startup without re-appending them.
  // Call before Start(), then SwapNow() to fold them into generation 2.
  void QueueRecovered(std::vector<SpeedObservation> rows);

  // Folds all pending rows into the next generation and publishes it,
  // synchronously on the calling thread. No-op (returns the current
  // generation) when nothing is pending. Safe against a concurrent
  // aggregator tick: builds are serialized, publishes are atomic.
  uint64_t SwapNow();

  // Starts / stops the background aggregator (no-op when the configured
  // cadence disables it). Stop is idempotent and runs in the destructor.
  void Start();
  void Stop();

  // Pins the current generation for a reader (see SnapshotPin).
  SnapshotPin Acquire();

  // Forces the WAL tail to stable storage (graceful-shutdown path); OK when
  // no WAL is attached.
  util::Status SyncWal();

  SnapshotStoreStats stats() const;
  uint64_t generation() const;

 private:
  friend class SnapshotPin;
  void ReleasePin();
  void AggregatorLoop();

  const SnapshotStoreConfig config_;
  std::function<void(uint64_t)> on_swap_;

  // Ingest path: serializes WAL appends and guards the pending queue.
  mutable std::mutex ingest_mu_;
  std::unique_ptr<ObservationWal> wal_;
  std::vector<SpeedObservation> pending_;

  // Builder path: serializes clone+fold so concurrent SwapNow calls (CLI
  // `swap` vs. aggregator tick) cannot interleave generations.
  std::mutex build_mu_;

  // Publication: guards the current-snapshot pointer and publish clock.
  mutable std::mutex publish_mu_;
  std::shared_ptr<const TrafficSnapshot> current_;
  std::chrono::steady_clock::time_point published_at_;

  // Counters (guarded by the mutex of the path that writes them; stats()
  // takes all three locks briefly).
  int64_t swaps_ = 0;
  int64_t rows_accepted_ = 0;
  int64_t rows_rejected_ = 0;
  int64_t pins_ = 0;
  int64_t pins_high_water_ = 0;

  std::thread aggregator_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  bool started_ = false;
};

}  // namespace traffic
}  // namespace deepst

#endif  // DEEPST_TRAFFIC_STORE_H_
