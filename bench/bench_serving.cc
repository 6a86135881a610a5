// Serving-throughput gate (docs/serving.md): QPS and tail latency of the
// `deepst serve` core -- bounded queue + cross-client batching workers
// (serve::Server) -- at 1/2/4 workers, against a serial single-caller
// baseline on the same ServingContext. A closed-loop client fleet submits
// beam-search predictions; latency is measured per request at the client
// (submit -> future ready), so queue wait and batching linger are included.
//
// Writes bench_out/BENCH_serving.json; tools/check_perf.sh gates 4 workers
// reaching >= 2x the 1-worker QPS at comparable p99 (skipped below 4 cores,
// where the extra workers have nothing to run on).
//
// A final "server_ingest" scenario (docs/streaming.md) reruns the 4-worker
// fleet against a live SnapshotStore: a concurrent client streams ingest
// batches through the same server while the background aggregator publishes
// swaps. Its p99 is the swap-stall tail a live deployment pays;
// tools/check_perf.sh gates it within 1.5x of the static 4-worker p99.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/neural_router.h"
#include "bench_common.h"
#include "core/deepst_model.h"
#include "core/serving.h"
#include "eval/world.h"
#include "serve/server.h"
#include "traffic/store.h"
#include "traffic/wal.h"
#include "util/stopwatch.h"

namespace {

using namespace deepst;

bool FastMode() {
  const char* v = std::getenv("DEEPST_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Small dedicated world: serving throughput does not depend on parameter
// quality, so the model stays untrained and construction dominates setup.
eval::World& BenchWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "bench-serving-world";
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

core::DeepSTConfig SmallConfig() {
  core::DeepSTConfig cfg;
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

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t ix = static_cast<size_t>(
      std::min(v.size() - 1.0, std::ceil(q * v.size()) - 1.0));
  return v[ix];
}

struct RunStats {
  std::string mode;
  int workers = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double batch_fill = 1.0;  // mean requests per executed batch
  int64_t swaps = 0;        // server_ingest: snapshot generations published
  int64_t rows_ingested = 0;  // server_ingest: observation rows made durable
};

// Serial baseline: one caller, one query at a time, no queue in the way.
RunStats RunSerial(core::ServingContext* serving,
                   const std::vector<core::RouteQuery>& queries, int total) {
  RunStats stats;
  stats.mode = "serial";
  stats.workers = 1;
  std::vector<double> lat;
  lat.reserve(total);
  util::Stopwatch wall;
  for (int i = 0; i < total; ++i) {
    util::Stopwatch sw;
    auto result = serving->Predict(queries[i % queries.size()]);
    if (result.ok()) {
      lat.push_back(sw.ElapsedMillis());
      ++stats.completed;
    } else {
      ++stats.failed;
    }
  }
  const double secs = wall.ElapsedSeconds();
  stats.qps = stats.completed / std::max(secs, 1e-9);
  stats.p50_ms = Quantile(lat, 0.50);
  stats.p99_ms = Quantile(lat, 0.99);
  return stats;
}

// Closed-loop fleet: `clients` threads each submit `per_client` predictions
// and wait for each response before sending the next. With `store` set
// (server_ingest mode) one extra closed-loop client streams ingest batches
// through the same server for the whole run -- observations landing inside
// the fleet's query windows, so every published swap changes tensors the
// predicts actually read. Latency is recorded for predicts only.
RunStats RunServer(core::ServingContext* serving,
                   const std::vector<core::RouteQuery>& queries, int workers,
                   int clients, int per_client,
                   traffic::SnapshotStore* store = nullptr) {
  serve::ServeOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 256;  // closed loop: the fleet itself bounds depth
  opts.max_batch = 8;
  opts.batch_window_us = 200;
  serve::Server server(serving, opts);
  server.Start();

  RunStats stats;
  stats.mode = store != nullptr ? "server_ingest" : "server";
  stats.workers = workers;
  std::mutex mu;
  std::vector<double> lat;
  lat.reserve(static_cast<size_t>(clients) * per_client);
  int64_t completed = 0;
  int64_t failed = 0;

  util::Stopwatch wall;
  std::atomic<bool> stop_ingest{false};
  std::thread ingester;
  if (store != nullptr) {
    ingester = std::thread([&] {
      uint64_t seq = 0;
      while (!stop_ingest.load(std::memory_order_relaxed)) {
        core::ServingRequest req;
        req.kind = core::ServingRequest::Kind::kIngest;
        req.observations.reserve(16);
        for (int r = 0; r < 16; ++r, ++seq) {
          const core::RouteQuery& q = queries[seq % queries.size()];
          traffic::SpeedObservation obs;
          obs.pos = q.destination;
          obs.time_s = std::max(0.0, q.start_time_s - 60.0 * (1 + seq % 20));
          obs.speed_mps = 2.0 + static_cast<double>(seq % 9);
          req.observations.push_back(obs);
        }
        (void)server.Submit(std::move(req)).get();
        // Paced swap churn: publish every second acked batch, with a short
        // gap between batches. Fast enough that the fleet crosses several
        // generation boundaries (clone + fold) per run, slow enough that
        // the builder does not saturate a core -- the live cadence the p99
        // gate is about.
        if (seq % 32 == 0) (void)store->SwapNow();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        core::ServingRequest req;
        req.query = queries[(c * per_client + i) % queries.size()];
        util::Stopwatch sw;
        auto result = server.Submit(std::move(req)).get();
        const double ms = sw.ElapsedMillis();
        std::lock_guard<std::mutex> lock(mu);
        if (result.ok()) {
          lat.push_back(ms);
          ++completed;
        } else {
          ++failed;
        }
      }
    });
  }
  for (auto& t : fleet) t.join();
  const double secs = wall.ElapsedSeconds();
  if (ingester.joinable()) {
    stop_ingest.store(true, std::memory_order_relaxed);
    ingester.join();
  }
  server.Shutdown();
  if (store != nullptr) {
    const traffic::SnapshotStoreStats ss = store->stats();
    stats.swaps = ss.swaps;
    stats.rows_ingested = ss.rows_accepted;
  }

  const serve::MetricsSnapshot snap = server.snapshot();
  stats.completed = completed;
  stats.failed = failed;
  stats.shed = snap.shed_queue_full;
  stats.qps = completed / std::max(secs, 1e-9);
  stats.p50_ms = Quantile(lat, 0.50);
  stats.p99_ms = Quantile(lat, 0.99);
  stats.batch_fill =
      snap.batches > 0
          ? static_cast<double>(snap.batch_requests) / snap.batches
          : 1.0;
  return stats;
}

}  // namespace

int main() {
  const bool fast = FastMode();
  const int clients = fast ? 4 : 8;
  const int per_client = fast ? 6 : 30;

  eval::World& world = BenchWorld();
  core::DeepSTModel model(world.net(),
                          baselines::DeepStConfigOf(SmallConfig()),
                          world.traffic_cache());
  core::ServingContext serving(&model, &world.index());

  std::vector<core::RouteQuery> queries;
  for (const auto* rec : world.split().test) {
    if (rec->trip.route.size() < 3) continue;
    queries.push_back(eval::QueryFor(rec->trip));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no usable test trips\n");
    return 1;
  }

  std::vector<RunStats> rows;
  rows.push_back(RunSerial(&serving, queries, clients * per_client));
  std::fprintf(stderr, "[serving] serial: %.1f qps, p50 %.2f ms, p99 %.2f ms\n",
               rows.back().qps, rows.back().p50_ms, rows.back().p99_ms);
  for (int workers : {1, 2, 4}) {
    rows.push_back(RunServer(&serving, queries, workers, clients, per_client));
    const RunStats& r = rows.back();
    std::fprintf(stderr,
                 "[serving] %d workers: %.1f qps, p50 %.2f ms, p99 %.2f ms, "
                 "batch fill %.2f, shed %lld, failed %lld\n",
                 workers, r.qps, r.p50_ms, r.p99_ms, r.batch_fill,
                 static_cast<long long>(r.shed),
                 static_cast<long long>(r.failed));
    if (r.failed != 0) {
      std::fprintf(stderr, "unexpected failures in healthy run\n");
      return 1;
    }
  }

  // Live-ingest scenario: 4 workers again, but the context serves from a
  // SnapshotStore under concurrent ingest and swap churn (real WAL on disk,
  // background aggregator).
  {
    const std::string wal_path =
        deepst::bench::OutDir() + "/bench_traffic.wal";
    std::remove(wal_path.c_str());
    auto wal = traffic::ObservationWal::Open(
        wal_path, traffic::ObservationWal::Options(), nullptr, nullptr);
    if (!wal.ok()) {
      std::fprintf(stderr, "failed opening bench WAL: %s\n",
                   wal.status().message().c_str());
      return 1;
    }
    // Swaps are driven closed-loop by the ingest client (one per acked
    // batch) rather than on a wall-clock cadence, so even the DEEPST_FAST
    // run crosses many generation boundaries.
    traffic::SnapshotStore store(world.traffic_cache()->Clone(),
                                 std::move(wal).value(), {});
    core::ServingContext live(&model, &world.index(), {}, &store);
    rows.push_back(RunServer(&live, queries, 4, clients, per_client, &store));
    std::remove(wal_path.c_str());
    const RunStats& r = rows.back();
    std::fprintf(stderr,
                 "[serving] live ingest (4 workers): %.1f qps, p50 %.2f ms, "
                 "p99 %.2f ms, %lld swaps, %lld rows ingested\n",
                 r.qps, r.p50_ms, r.p99_ms, static_cast<long long>(r.swaps),
                 static_cast<long long>(r.rows_ingested));
    if (r.failed != 0) {
      std::fprintf(stderr, "unexpected failures in live-ingest run\n");
      return 1;
    }
    if (r.rows_ingested <= 0) {
      std::fprintf(stderr, "live-ingest run ingested nothing\n");
      return 1;
    }
  }

  const std::string json_path = deepst::bench::OutDir() + "/BENCH_serving.json";
  std::ofstream json(json_path);
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunStats& r = rows[i];
    json << "  {\"mode\": \"" << r.mode << "\", \"workers\": " << r.workers
         << ", \"qps\": " << r.qps << ", \"p50_ms\": " << r.p50_ms
         << ", \"p99_ms\": " << r.p99_ms << ", \"completed\": " << r.completed
         << ", \"shed\": " << r.shed << ", \"batch_fill\": " << r.batch_fill
         << ", \"swaps\": " << r.swaps
         << ", \"rows_ingested\": " << r.rows_ingested << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "]\n";
  if (!json.good()) {
    std::fprintf(stderr, "failed writing %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}
