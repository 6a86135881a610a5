// City-scale serving benchmark for the deepst daemon core (serve::Server).
//
//   citybench prepare --data DIR
//   citybench run --data DIR --workload NAME --seed N --seconds S --trace 0|1
//
// `prepare` writes the seed-independent world once: the chengdu-full network
// (format v3 with the spatial index embedded) and a pool of generator trips
// (dataset v3). `run` sets the daemon up several times from those files, draws
// the workload's request stream from the pool with --seed (cached under
// DIR/streams), drives the last set-up through its phases, checks every
// output, and prints one JSON result line last. README.md documents the
// workloads, the metrics and which layer metric should move which end-to-end
// metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "core/deepst_model.h"
#include "core/infer/session.h"
#include "core/serving.h"
#include "eval/world.h"
#include "nn/infer/forward.h"
#include "roadnet/grid_city.h"
#include "roadnet/io.h"
#include "roadnet/spatial_index.h"
#include "serve/server.h"
#include "traffic/congestion_field.h"
#include "traffic/store.h"
#include "traffic/wal.h"
#include "traj/generator.h"
#include "traj/io.h"
#include "util/rng.h"

namespace {

using namespace deepst;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- World and daemon settings ---------------------------------------------

// Bump when the prepared files change shape; old caches are then rebuilt.
constexpr char kWorldVersion[] = "citybench-world-3";
// Bump when the way streams are drawn changes; cached streams then redraw.
constexpr char kStreamVersion[] = "citybench-stream-6";
// Generator trips in the pool. Every query of one run uses a distinct trip,
// so this bounds the queries a run can make (the closed predict phase takes
// what the other phases leave); the generator costs ~0.3 s of one core per
// trip at this city size, which is why the pool is prepared once.
constexpr int kPoolTrips = 3600;
constexpr uint64_t kPoolSeed = 0x0c17b3e7ULL;
// Spatial index cell (LoadCity default) and the traffic grid of `deepst
// serve` (--traffic-cell-m / --traffic-slot-s / --traffic-window-s defaults).
constexpr double kIndexCellM = 250.0;
constexpr double kTrafficCellM = 350.0;
constexpr double kTrafficSlotS = 1200.0;
constexpr double kTrafficWindowS = 1800.0;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
// GPS rows per ingest batch (one simulated probe trip, truncated).
constexpr size_t kMaxIngestRows = 64;
// Raw-coordinate origins are a GPS fix near the trip's first segment.
constexpr double kRawOriginNoiseM = 12.0;
// Every request kind a phase draws appears at least this often, so each
// metric has samples even in short runs.
constexpr int kMinPerKind = 12;
// Untraced runs re-execute this many served reads directly for the bitwise
// check; traced runs re-execute all of them.
constexpr int kSampledChecks = 16;
// In a traced run the untraced phases shrink by this factor, leaving time
// for the replay, which executes every read twice on one thread.
constexpr double kTracedPhaseScale = 0.3;

enum class Kind { kPredict = 0, kScore = 1, kIngest = 2 };

// One phase of a run. Open-loop phases send each kind at its rate (requests
// per second, seeded Poisson arrivals). A closed-loop phase ignores the rates
// and sends `kind` requests as fast as the server answers, on up to `queries`
// distinct queries (0 = every query the other phases leave), with one ingest
// batch after every `ingest_every` of them (0 = none). The end-to-end CPU
// metrics are taken from the closed phases: there the workers stay busy,
// and the CPU the same requests cost moved half as much between runs as in
// an open loop, where each request starts on an idle CPU.
struct PhaseSpec {
  const char* name;
  bool closed;
  double share;  // of --seconds
  double predict_qps;
  double score_qps;
  double ingest_qps;
  Kind kind;
  int queries;
  int ingest_every;
};

// One traffic mix: phases run in order on one set-up. Open-loop rates keep
// the two workers 10-30% busy. The rates, shares and quotas are chosen, not
// measured from a deployment; README.md says why each is what it is.
struct Workload {
  const char* name;
  bool paper_width;          // H=256 x 3 layers instead of the defaults
  double swap_interval_ms;   // SnapshotStore aggregator cadence; 0 = one
                             // swap after the last phase
  double raw_origin_share;   // predicts whose origin needs a snap
  std::vector<PhaseSpec> phases;
};

// city-h64 and city-h256 measure predicts in predict-only phases. Every run
// must still report every metric, so a score phase and an ingest phase
// follow them (and one swap at the end), apart from the predict traffic.
// Open phases send no `kind`; theirs is a placeholder.
const Workload kWorkloads[] = {
    {"city-h64", false, 0.0, 0.25,
     {{"predict", false, 0.22, 20.0, 0.0, 0.0, Kind::kPredict, 0, 0},
      {"closed", true, 0.40, 0.0, 0.0, 0.0, Kind::kPredict, 0, 0},
      {"score", true, 0.26, 0.0, 0.0, 0.0, Kind::kScore, 1000, 0},
      {"ingest", false, 0.12, 0.0, 0.0, 100.0, Kind::kPredict, 0, 0}}},
    {"city-h256", true, 0.0, 0.25,
     {{"predict", false, 0.22, 7.5, 0.0, 0.0, Kind::kPredict, 0, 0},
      {"closed", true, 0.40, 0.0, 0.0, 0.0, Kind::kPredict, 0, 0},
      {"score", true, 0.30, 0.0, 0.0, 0.0, Kind::kScore, 250, 0},
      {"ingest", false, 0.08, 0.0, 0.0, 100.0, Kind::kPredict, 0, 0}}},
    {"city-live", false, 250.0, 0.25,
     {{"mixed", false, 0.30, 15.0, 6.0, 40.0, Kind::kPredict, 0, 0},
      {"closed", true, 0.45, 0.0, 0.0, 0.0, Kind::kPredict, 0, 2},
      {"score", true, 0.25, 0.0, 0.0, 0.0, Kind::kScore, 1000, 2}}},
};

// Mean think time of a closed-loop client. Without it, the replies of one
// lock-step batch come back together, the clients resubmit within one
// batching window, and the server can lock into an arbitrary fixed batch
// pattern for the whole phase, so throughput would depend on which pattern
// the phase happened to start in.
constexpr double kThinkMs = 5.0;

core::DeepSTConfig ModelConfig(const Workload& w) {
  core::DeepSTConfig cfg;  // shipped defaults: double, GEMM blocking, memo
  if (w.paper_width) {     // paper values, see core/config.h
    cfg.gru_hidden = 256;
    cfg.gru_layers = 3;
    cfg.dest_dim = 128;
    cfg.traffic_dim = 256;
    cfg.mlp_hidden = 256;
  }
  return cfg;
}

// ---- Small utilities --------------------------------------------------------

const Clock::time_point g_origin = Clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - g_origin)
      .count();
}

void SleepUntilMs(double ms) {
  std::this_thread::sleep_until(
      g_origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms)));
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "citybench: %s\n", msg.c_str());
  std::exit(2);
}

void CheckOk(const util::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// Linear-interpolated quantile; NaN on an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// The process's peak resident set (VmHWM).
double PeakRssMb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return std::nan("");
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// CPU time of every thread of the process, user and system. A thread that
// waits for a CPU accrues none, and a guest kernel with steal-time accounting
// leaves out time the hypervisor gave its CPUs to other tenants, so this
// moves far less with the host's load than wall time does.
double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 29;
  return x;
}

// ---- Host speed -------------------------------------------------------------

// CPU time of the calling thread.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// The host's per-core speed drifts by tens of percent within an hour (other
// tenants on sibling hyperthreads and shared caches, clock frequency), and
// the CPU clock drifts with it. So a fixed job of the benchmark's own runs on
// a spare CPU for the whole of each closed phase, and its CPU time per round
// says how fast the host ran that phase. The job mixes what a beam step
// does: a dependent integer chain, a dense double dot product, copies of a
// city-sized visited array within and beyond L2, and dependent random reads.
// None of it is the program's code, so no change to the program moves it.
class HostProbe {
 public:
  // CPU time of one round on the host the benchmark was tuned on; the CPU
  // metrics are scaled to this speed.
  static constexpr double kNominalRoundMs = 26.0;

  HostProbe()
      : l2_(512u << 10), l3_(4u << 20), copy_(kBlock), dot_(4096),
        chain_(1u << 20) {
    for (size_t i = 0; i < l2_.size(); ++i) l2_[i] = static_cast<uint8_t>(i);
    for (size_t i = 0; i < l3_.size(); ++i) {
      l3_[i] = static_cast<uint8_t>(i * 131u);
    }
    for (size_t i = 0; i < dot_.size(); ++i) dot_[i] = std::sin(0.01 * i);
    // Sattolo's shuffle: one cycle through every slot.
    std::iota(chain_.begin(), chain_.end(), 0u);
    util::Rng rng(0x7e57);
    for (size_t i = chain_.size() - 1; i > 0; --i) {
      std::swap(chain_[i], chain_[rng.UniformInt(i)]);
    }
  }
  ~HostProbe() {
    if (thread_.joinable()) Stop();
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  void Start() {
    stop_.store(false);
    thread_ = std::thread([this] {
      const double start = ThreadCpuMs();
      int64_t rounds = 0;
      while (!stop_.load(std::memory_order_relaxed)) {
        Round();
        ++rounds;
      }
      rounds_ = rounds;
      cpu_ms_ = ThreadCpuMs() - start;
    });
  }
  // Ends the job after its current round.
  void Stop() {
    stop_.store(true);
    thread_.join();
  }
  int64_t rounds() const { return rounds_; }
  double cpu_ms() const { return cpu_ms_; }

 private:
  static constexpr size_t kBlock = 111138;  // chengdu-full segments

  void Round() {
    uint64_t x = 7;
    for (int i = 0; i < 5000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    double acc = 0.0;
    for (size_t rep = 0; rep < 1000; ++rep) {
      double d = 0.0;
      for (size_t i = 0; i < dot_.size(); ++i) {
        d += dot_[i] * dot_[(i + rep) & 4095];
      }
      acc += d;
    }
    uint64_t sum = 0;
    auto copies = [&](const std::vector<uint8_t>& from, int passes) {
      for (int pass = 0; pass < passes; ++pass) {
        for (size_t off = 0; off + kBlock <= from.size(); off += kBlock) {
          std::memcpy(copy_.data(), from.data() + off, kBlock);
          sum += copy_[static_cast<size_t>(pass)];
        }
      }
    };
    copies(l2_, 150);
    copies(l3_, 8);
    uint32_t at = 0;
    for (int i = 0; i < 50000; ++i) at = chain_[at];
    sink_ = x + static_cast<uint64_t>(acc) + sum + at;
  }

  std::vector<uint8_t> l2_;
  std::vector<uint8_t> l3_;
  std::vector<uint8_t> copy_;
  std::vector<double> dot_;
  std::vector<uint32_t> chain_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  int64_t rounds_ = 0;
  double cpu_ms_ = 0.0;
  volatile uint64_t sink_ = 0;
};

// ---- Requests ---------------------------------------------------------------

// One request of a stream. Trips are indices into the prepared pool.
struct Request {
  int64_t id = 0;
  int phase = 0;                // index into Workload::phases
  Kind kind = Kind::kPredict;
  double due_ms = 0.0;          // open-loop arrival, relative to phase start
  int trip = 0;                 // predict/score: query trip
  bool raw_origin = false;      // predict: origin given as a coordinate
  geo::Point origin_point;
  std::vector<int> candidates;  // score: trips whose routes are scored
  std::vector<traffic::SpeedObservation> rows;  // ingest
};

struct Stream {
  int warm_trip = 0;
  std::vector<Request> requests;  // each phase's in sending order
};

int WarmTrip(uint64_t seed, int pool) {
  util::Rng rng(Mix(seed, 0x3a43));
  return static_cast<int>(rng.UniformInt(static_cast<uint64_t>(pool)));
}

// Length of each phase in ms.
std::vector<double> PlanFor(const Workload& w, double seconds, bool traced) {
  const double scale = (traced ? kTracedPhaseScale : 1.0) * seconds * 1000.0;
  std::vector<double> ms;
  for (const PhaseSpec& p : w.phases) ms.push_back(p.share * scale);
  return ms;
}

// Draws the seeded request stream. Query trips come from a seeded
// permutation of the pool without replacement (no query repeats in a run);
// candidate routes and probe trips for ingest are drawn with replacement.
Stream MakeStream(const Workload& w, uint64_t seed,
                  const std::vector<double>& plan,
                  const roadnet::RoadNetwork& net,
                  const std::vector<traj::TripRecord>& pool,
                  const traj::TripGenerator& gen) {
  util::Rng rng(Mix(seed, 0x57e4));
  const int n = static_cast<int>(pool.size());
  Stream s;
  s.warm_trip = WarmTrip(seed, n);
  std::vector<int> perm;
  for (int i = 0; i < n; ++i) {
    if (i != s.warm_trip) perm.push_back(i);
  }
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformInt(i)]);
  }
  size_t cursor = 0;
  auto next_query_trip = [&]() -> int {
    if (cursor >= perm.size()) Die("trip pool exhausted; lower the rates");
    return perm[cursor++];
  };
  auto any_trip = [&]() {
    return static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
  };
  int64_t next_id = 0;
  int64_t predicts = 0;
  auto make = [&](int phase, Kind kind, double due_ms) {
    Request r;
    r.id = next_id++;
    r.phase = phase;
    r.kind = kind;
    r.due_ms = due_ms;
    if (kind == Kind::kPredict) {
      r.trip = next_query_trip();
      // Raw origins are spread evenly (every fourth predict at a 25% share),
      // so even a short phase snaps some.
      const double n = static_cast<double>(predicts++);
      if (std::floor((n + 1.0) * w.raw_origin_share) >
          std::floor(n * w.raw_origin_share)) {
        r.raw_origin = true;
        r.origin_point =
            net.SegmentMidpoint(pool[static_cast<size_t>(r.trip)]
                                    .trip.route.front()) +
            geo::Point{rng.Gaussian(0.0, kRawOriginNoiseM),
                       rng.Gaussian(0.0, kRawOriginNoiseM)};
      }
    } else if (kind == Kind::kScore) {
      r.trip = next_query_trip();
      r.candidates = {r.trip, any_trip(), any_trip()};
    } else {
      const traj::Trip& probe = pool[static_cast<size_t>(any_trip())].trip;
      const traj::GpsTrajectory gps = gen.SimulateGps(
          probe.route, probe.start_time_s + rng.Uniform(0.0, 600.0), &rng);
      for (const auto& p : gps) {
        if (r.rows.size() == kMaxIngestRows) break;
        r.rows.push_back({p.pos, p.time_s, p.speed_mps});
      }
    }
    s.requests.push_back(std::move(r));
  };
  // Open-loop phases: one Poisson process per kind, merged by due time.
  auto open_phase = [&](int phase, double ms,
                        std::vector<std::pair<Kind, double>> rates) {
    std::vector<std::pair<double, Kind>> arrivals;
    for (const auto& [kind, qps] : rates) {
      if (qps <= 0.0 || ms <= 0.0) continue;
      int count = 0;
      for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.Uniform()) / qps * 1000.0;
        if (t >= ms) break;
        arrivals.push_back({t, kind});
        ++count;
      }
      for (; count < kMinPerKind; ++count) {
        arrivals.push_back({rng.Uniform(0.0, ms), kind});
      }
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [due, kind] : arrivals) make(phase, kind, due);
  };
  for (size_t i = 0; i < w.phases.size(); ++i) {
    const PhaseSpec& p = w.phases[i];
    if (!p.closed) {
      open_phase(static_cast<int>(i), plan[i],
                 {{Kind::kPredict, p.predict_qps},
                  {Kind::kScore, p.score_qps},
                  {Kind::kIngest, p.ingest_qps}});
    }
  }
  // Closed phases with a query quota draw theirs next; the closed predict
  // phase then takes every query left. Should a faster program use up a
  // closed phase's queries, the phase ends early; its CPU metric is per
  // request and so holds.
  auto closed_phase = [&](int phase) {
    const PhaseSpec& p = w.phases[static_cast<size_t>(phase)];
    for (int n = 1; cursor < perm.size() && (p.queries == 0 || n <= p.queries);
         ++n) {
      make(phase, p.kind, 0.0);
      if (p.ingest_every > 0 && n % p.ingest_every == 0) {
        make(phase, Kind::kIngest, 0.0);
      }
    }
  };
  for (bool quota : {true, false}) {
    for (size_t i = 0; i < w.phases.size(); ++i) {
      const PhaseSpec& p = w.phases[i];
      if (p.closed && (p.queries > 0) == quota) {
        closed_phase(static_cast<int>(i));
      }
    }
  }
  return s;
}

void SaveStream(const Stream& s, const std::string& path) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) Die("cannot write " + tmp);
  std::fprintf(f, "%s %d %zu\n", kStreamVersion, s.warm_trip,
               s.requests.size());
  for (const Request& r : s.requests) {
    std::fprintf(f, "%" PRId64 " %d %d %.17g %d %d %.17g %.17g %zu", r.id,
                 static_cast<int>(r.phase), static_cast<int>(r.kind), r.due_ms,
                 r.trip, r.raw_origin ? 1 : 0, r.origin_point.x,
                 r.origin_point.y, r.candidates.size());
    for (int c : r.candidates) std::fprintf(f, " %d", c);
    std::fprintf(f, " %zu", r.rows.size());
    for (const auto& o : r.rows) {
      std::fprintf(f, " %.17g %.17g %.17g %.17g", o.pos.x, o.pos.y, o.time_s,
                   o.speed_mps);
    }
    std::fprintf(f, "\n");
  }
  if (std::fclose(f) != 0) Die("cannot write " + tmp);
  fs::rename(tmp, path);
}

std::optional<Stream> LoadStream(const std::string& path, int pool,
                                 int phases) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string version;
  size_t count = 0;
  Stream s;
  if (!(in >> version >> s.warm_trip >> count) || version != kStreamVersion) {
    return std::nullopt;
  }
  if (count > static_cast<size_t>(pool) * 4 || s.warm_trip < 0 ||
      s.warm_trip >= pool) {
    return std::nullopt;
  }
  s.requests.resize(count);
  for (size_t i = 0; i < count; ++i) {
    Request& r = s.requests[i];
    int phase = 0, kind = 0, raw = 0;
    size_t nc = 0, nr = 0;
    if (!(in >> r.id >> phase >> kind >> r.due_ms >> r.trip >> raw >>
          r.origin_point.x >> r.origin_point.y >> nc) ||
        r.id != static_cast<int64_t>(i) || kind < 0 || kind > 2 || nc > 8) {
      return std::nullopt;
    }
    r.phase = phase;
    r.kind = static_cast<Kind>(kind);
    r.raw_origin = raw != 0;
    r.candidates.resize(nc);
    for (int& c : r.candidates) in >> c;
    if (!(in >> nr) || nr > kMaxIngestRows) return std::nullopt;
    r.rows.resize(nr);
    for (auto& o : r.rows) in >> o.pos.x >> o.pos.y >> o.time_s >> o.speed_mps;
    if (!in) return std::nullopt;
    for (int t : r.candidates) {
      if (t < 0 || t >= pool) return std::nullopt;
    }
    if (r.trip < 0 || r.trip >= pool || phase < 0 || phase >= phases ||
        (r.kind == Kind::kScore && nc == 0) ||
        (r.kind == Kind::kIngest && nr == 0)) {
      return std::nullopt;
    }
  }
  return s;
}

// ---- The daemon under test --------------------------------------------------

// Everything `deepst serve --traffic-wal` holds, set up from the prepared
// files the way the daemon does at startup. Members are destroyed in reverse
// order: the server drains before the store and model it uses go away.
struct Daemon {
  roadnet::LoadedCity city;
  std::vector<traj::TripRecord> records;
  std::unique_ptr<traffic::TrafficTensorCache> cache;
  std::unique_ptr<core::DeepSTModel> model;
  std::string wal_path;
  std::unique_ptr<traffic::SnapshotStore> store;
  std::unique_ptr<core::ServingContext> serving;
  std::unique_ptr<serve::Server> server;

  // folded[g] = WAL rows folded into generation g (recorded at each swap).
  std::mutex folds_mu;
  std::vector<int64_t> folded{0, 0};

  double load_city_ms = 0.0;
  double setup_s = 0.0;

  ~Daemon() {
    if (server != nullptr) server->Shutdown();
    if (store != nullptr) store->Stop();
    if (!wal_path.empty()) std::remove(wal_path.c_str());
  }
};

core::ServingRequest ToServing(const Request& r,
                               const std::vector<traj::TripRecord>& pool) {
  core::ServingRequest req;
  const traj::Trip& trip = pool[static_cast<size_t>(r.trip)].trip;
  switch (r.kind) {
    case Kind::kPredict:
      req.kind = core::ServingRequest::Kind::kPredict;
      req.query.destination = trip.destination;
      req.query.start_time_s = trip.start_time_s;
      if (r.raw_origin) {
        req.query.has_origin_point = true;
        req.query.origin_point = r.origin_point;
      } else {
        req.query.origin = trip.origin_segment();
      }
      break;
    case Kind::kScore:
      req.kind = core::ServingRequest::Kind::kScore;
      req.query.destination = trip.destination;
      req.query.start_time_s = trip.start_time_s;
      for (int c : r.candidates) {
        req.routes.push_back(pool[static_cast<size_t>(c)].trip.route);
      }
      break;
    case Kind::kIngest:
      req.kind = core::ServingRequest::Kind::kIngest;
      req.observations = r.rows;
      break;
  }
  return req;
}

std::unique_ptr<Daemon> SetUp(int index, const Workload& w,
                              const std::string& world_dir,
                              const std::string& run_dir, uint64_t seed) {
  // The first set-up is timed from process start.
  const double t0 = index == 0 ? 0.0 : NowMs();
  auto d = std::make_unique<Daemon>();
  const double load_start = NowMs();
  auto city = roadnet::LoadCity(world_dir + "/network.bin", kIndexCellM);
  CheckOk(city.status(), "LoadCity");
  d->city = std::move(city).value();
  d->load_city_ms = NowMs() - load_start;
  auto records = traj::LoadDataset(world_dir + "/dataset.bin");
  CheckOk(records.status(), "LoadDataset");
  d->records = std::move(records).value();
  CheckOk(traj::ValidateDataset(d->records, *d->city.net), "ValidateDataset");
  geo::GridSpec grid(d->city.net->bounds(), kTrafficCellM);
  d->cache = std::make_unique<traffic::TrafficTensorCache>(
      grid, kTrafficSlotS, kTrafficWindowS);
  d->cache->AddObservations(traj::CollectObservations(d->records));
  d->model = std::make_unique<core::DeepSTModel>(*d->city.net, ModelConfig(w),
                                                 d->cache.get());
  d->model->shared_infer_weights();  // the daemon packs weights at startup

  d->wal_path = run_dir + "/traffic-" + std::to_string(index) + ".wal";
  std::remove(d->wal_path.c_str());
  std::vector<traffic::SpeedObservation> replayed;
  traffic::WalReplayReport report;
  auto wal = traffic::ObservationWal::Open(
      d->wal_path, traffic::ObservationWal::Options{}, &replayed, &report);
  CheckOk(wal.status(), "ObservationWal::Open");
  traffic::SnapshotStoreConfig store_cfg;
  store_cfg.swap_interval_ms = w.swap_interval_ms;
  d->store = std::make_unique<traffic::SnapshotStore>(
      d->cache->Clone(), std::move(wal).value(), store_cfg);
  Daemon* raw = d.get();
  d->store->set_on_swap([raw](uint64_t generation) {
    raw->model->InvalidateTransitionCache();
    const traffic::SnapshotStoreStats st = raw->store->stats();
    std::lock_guard<std::mutex> lock(raw->folds_mu);
    raw->folded.resize(generation + 1, 0);
    raw->folded[generation] = st.rows_accepted - st.rows_pending;
  });
  d->store->Start();
  d->serving = std::make_unique<core::ServingContext>(
      d->model.get(), d->city.index.get(), core::ServingConfig{},
      d->store.get());
  d->server =
      std::make_unique<serve::Server>(d->serving.get(), serve::ServeOptions{});
  d->server->Start();

  Request warm;
  warm.trip = WarmTrip(seed, static_cast<int>(d->records.size()));
  auto first = d->server->Execute(ToServing(warm, d->records));
  CheckOk(first.status(), "warm query");
  d->setup_s = (NowMs() - t0) / 1000.0;
  return d;
}

// ---- Load generation --------------------------------------------------------

struct Outcome {
  double due_ms = 0.0;
  double submit_ms = 0.0;
  double done_ms = 0.0;
  std::optional<util::StatusOr<core::ServingResult>> result;
};

// Bounds the requests in flight and timestamps each completion the moment
// its future resolves, on one waiter thread per in-flight slot (the
// generator thread only sleeps and submits).
class Completions {
 public:
  Completions(int slots, uint64_t seed) : slots_(slots), seed_(seed) {
    for (int i = 0; i < slots; ++i) threads_.emplace_back([this] { Loop(); });
  }
  ~Completions() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Completions(const Completions&) = delete;
  Completions& operator=(const Completions&) = delete;

  // Blocks until a slot is free and reserves it.
  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return in_flight_ < slots_; });
    ++in_flight_;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    cv_.notify_all();
  }
  // Hands a submitted request's future to a waiter (slot already reserved).
  void Hand(std::future<util::StatusOr<core::ServingResult>> future,
            Outcome* out) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back({std::move(future), out});
    }
    cv_.notify_all();
  }
  void WaitAll() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  // Closed-loop clients pause for an exponential think time (this mean)
  // between a reply and their next request; 0 = no pause.
  void set_think_ms(double ms) { think_ms_.store(ms); }

 private:
  struct Job {
    std::future<util::StatusOr<core::ServingResult>> future;
    Outcome* out = nullptr;
  };
  void Loop() {
    util::Rng rng(Mix(seed_, next_thread_.fetch_add(1)));
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      auto result = job.future.get();
      job.out->done_ms = NowMs();
      job.out->result.emplace(std::move(result));
      const double think_ms = think_ms_.load();
      if (think_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            -std::log(1.0 - rng.Uniform()) * think_ms));
      }
      Release();
    }
  }

  const int slots_;
  const uint64_t seed_;
  std::atomic<uint64_t> next_thread_{0};
  std::atomic<double> think_ms_{0.0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  int in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

struct PhaseCounters {
  double start_ms = 0.0;
  double end_ms = 0.0;
  double cpu_ms = 0.0;  // process CPU time from the first send to the drain,
                        // the host probe's left out
  int64_t probe_rounds = 0;
  double probe_cpu_ms = 0.0;
  serve::MetricsSnapshot before;
  serve::MetricsSnapshot after;
  double batch_rows_mean() const {
    const int64_t b = after.batches - before.batches;
    return b > 0 ? static_cast<double>(after.batch_requests -
                                       before.batch_requests) /
                       static_cast<double>(b)
                 : 0.0;
  }
};

// Sends one phase's requests from the calling (generator) thread. Open
// loop: each request goes out when due, or as soon as a slot frees up after
// that. Closed loop: the phase's next request goes out whenever a slot frees
// up, until the phase time is spent; `exhausted` reports running out of
// queries first, which ends the phase early. The host probe runs beside
// closed phases.
PhaseCounters DrivePhase(Daemon& d, Completions& comp, HostProbe& probe,
                         const std::vector<Request>& reqs, int phase,
                         bool closed, double phase_ms,
                         std::vector<Outcome>* outcomes, bool* exhausted) {
  PhaseCounters pc;
  pc.before = d.server->snapshot();
  pc.start_ms = NowMs() + (closed ? 0.0 : 5.0);
  const double cpu_start = CpuMs();
  if (closed) probe.Start();
  comp.set_think_ms(closed ? kThinkMs : 0.0);
  *exhausted = closed;
  for (const Request& r : reqs) {
    if (r.phase != phase) continue;
    Outcome* out = &(*outcomes)[static_cast<size_t>(r.id)];
    if (!closed) SleepUntilMs(pc.start_ms + r.due_ms);
    comp.Acquire();
    const double now = NowMs();
    if (closed && now - pc.start_ms >= phase_ms) {
      comp.Release();
      *exhausted = false;
      break;
    }
    out->due_ms = closed ? now : pc.start_ms + r.due_ms;
    out->submit_ms = now;
    comp.Hand(d.server->Submit(ToServing(r, d.records)), out);
  }
  comp.WaitAll();
  pc.end_ms = NowMs();
  if (closed) {
    probe.Stop();
    pc.probe_rounds = probe.rounds();
    pc.probe_cpu_ms = probe.cpu_ms();
  }
  pc.cpu_ms = CpuMs() - cpu_start - pc.probe_cpu_ms;
  pc.after = d.server->snapshot();
  return pc;
}

// ---- Output checks ----------------------------------------------------------

struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;       // not OK (incl. shed, expired) or bad answer
  int64_t invalid_routes = 0;
  int64_t mismatches = 0;   // served != direct re-execution
  std::vector<std::string> errors;  // any entry makes the run incorrect

  void Error(std::string msg) {
    if (errors.size() < 20) errors.push_back(std::move(msg));
  }
};

// A served route must start at its (resolved) origin, step only between
// adjacent segments, never revisit a segment and respect max_route_steps.
bool ValidRoute(const traj::Route& route, roadnet::SegmentId origin,
                const roadnet::RoadNetwork& net, int max_steps) {
  if (route.empty() || route.front() != origin) return false;
  if (static_cast<int>(route.size()) - 1 > max_steps) return false;
  std::unordered_set<roadnet::SegmentId> seen;
  for (size_t i = 0; i < route.size(); ++i) {
    if (route[i] < 0 || route[i] >= net.num_segments()) return false;
    if (!seen.insert(route[i]).second) return false;
    if (i > 0 && net.NeighborSlot(route[i - 1], route[i]) < 0) return false;
  }
  return true;
}

roadnet::SegmentId ExpectedOrigin(const Request& r, const Daemon& d) {
  if (!r.raw_origin) {
    return d.records[static_cast<size_t>(r.trip)].trip.origin_segment();
  }
  return d.city.index->Nearest(r.origin_point).segment;
}

// An OK reply with a bad answer counts as failed and also fails the run: a
// NaN score would pass the bitwise check, since re-execution reproduces it.
void CheckServed(const Daemon& d, const Stream& s,
                 const std::vector<Outcome>& outcomes, Checks* c) {
  const int max_steps = d.model->config().max_route_steps;
  int64_t bad_scores = 0, bad_acks = 0;
  for (const Request& r : s.requests) {
    const Outcome& o = outcomes[static_cast<size_t>(r.id)];
    if (!o.result.has_value()) continue;  // never submitted
    ++c->attempted;
    const auto& res = *o.result;
    if (!res.ok()) {
      ++c->failed;
      continue;
    }
    const core::ServingResult& v = res.value();
    bool good = true;
    if (r.kind == Kind::kPredict) {
      good = ValidRoute(v.route, ExpectedOrigin(r, d), *d.city.net, max_steps);
      if (!good) ++c->invalid_routes;
    } else if (r.kind == Kind::kScore) {
      good = v.scores.size() == r.candidates.size();
      for (double x : v.scores) good = good && std::isfinite(x);
      if (!good) ++bad_scores;
    } else {
      good = v.ingested == static_cast<int64_t>(r.rows.size()) &&
             v.ingest_rejected == 0;
      if (!good) ++bad_acks;
    }
    if (!good) ++c->failed;
  }
  if (bad_scores > 0) {
    c->Error(std::to_string(bad_scores) +
             " score replies without one finite score per candidate");
  }
  if (bad_acks > 0) {
    c->Error(std::to_string(bad_acks) +
             " ingest acks that did not accept every row");
  }
}

void CheckCounters(const Daemon& d, int64_t bench_submits, Checks* c) {
  const serve::MetricsSnapshot m = d.server->snapshot();
  if (m.submitted != m.admitted + m.shed_queue_full + m.rejected_draining) {
    c->Error("serve counters: submitted != admitted + shed + rejected");
  }
  if (m.admitted != m.completed_ok + m.failed + m.expired_in_queue) {
    c->Error("serve counters: admitted != completed + failed + expired");
  }
  if (m.submitted != bench_submits) {
    c->Error("serve counters: submitted " + std::to_string(m.submitted) +
             " != requests sent " + std::to_string(bench_submits));
  }
  if (m.cache_hits + m.cache_misses != m.cache_lookups) {
    c->Error("memo counters: hits + misses != lookups");
  }
  if (m.traffic_generation != m.traffic_swaps + 1) {
    c->Error("traffic counters: generation != swaps + 1");
  }
  if (d.model->outstanding_session_leases() != 0) {
    c->Error("session leases outstanding after drain");
  }
}

// ---- Outside-in tracing -----------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;       // index of the causing span, -1 for a root
  int64_t request;  // id of the (first) request the span serves
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_origin)
      .count();
}

// Spans around each call the benchmark makes into a layer's public
// functions, kept in memory and written out when the run ends.
class Tracer {
 public:
  int Begin(const char* name, int parent, int64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }
  template <typename F>
  auto Time(const char* name, int parent, int64_t request, F&& f) {
    const int span = Begin(name, parent, request);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      End(span);
    } else {
      auto value = f();
      End(span);
      return value;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ms) of every span with `name`.
  std::vector<double> DurationsMs(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(Ms(s));
    }
    return out;
  }
  static double Ms(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  void Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start_ns\": %" PRId64
                   ", \"end_ns\": %" PRId64 ", \"parent\": %d, "
                   "\"request\": %" PRId64 "}\n",
                   s.name, s.start_ns, s.end_ns, s.parent, s.request);
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

// ---- Replay: direct re-execution of the served stream -----------------------

struct ReplayReport {
  int64_t reads = 0;           // reads re-executed
  double wall_ms = 0.0;
  // Per replayed predict batch: each query's route steps.
  std::vector<std::vector<int>> predict_batches;
  std::map<int64_t, int> batch_span_of;  // request id -> core.serving span
};

// Re-executes served reads against a rebuilt copy of every traffic
// generation. The WAL of the untraced run fixes the order the ingest batches
// were made durable in, and the swap log fixes how many rows each generation
// folded, so generation g is rebuilt byte-identical (the store's
// deterministic-fold contract). Each batch of reads runs once through
// ServingContext::ExecuteBatch (traced runs only) and once through the layer
// calls ExecuteBatch makes -- pin, snap, MakeContext, PredictRoutesBeamMulti
// / ScoreRoutesMulti -- whose answers must equal the served ones bitwise.
void Replay(Daemon& d, const Stream& s,
            const std::vector<Outcome>& outcomes,
            const std::vector<double>& batch_rows, bool full,
            const std::string& run_dir, Tracer* tr, ReplayReport* rep,
            Checks* c) {
  const double start = NowMs();
  // Ingest batches in WAL (durability) order.
  std::vector<traffic::SpeedObservation> wal_rows;
  traffic::WalReplayReport wal_report;
  CheckOk(traffic::ReplayWalFile(d.wal_path, &wal_rows, &wal_report),
          "ReplayWalFile");
  std::map<std::tuple<double, double, double>, const Request*> by_first_row;
  for (const Request& r : s.requests) {
    const Outcome& o = outcomes[static_cast<size_t>(r.id)];
    if (r.kind != Kind::kIngest || !o.result.has_value() || !o.result->ok()) {
      continue;
    }
    const auto& f = r.rows.front();
    if (!by_first_row.emplace(std::make_tuple(f.pos.x, f.pos.y, f.time_s), &r)
             .second) {
      c->Error("two ingest batches share a first row");
    }
  }
  std::vector<const Request*> frames;
  for (size_t i = 0; i < wal_rows.size();) {
    const auto& f = wal_rows[i];
    auto it = by_first_row.find(std::make_tuple(f.pos.x, f.pos.y, f.time_s));
    if (it == by_first_row.end() ||
        i + it->second->rows.size() > wal_rows.size()) {
      c->Error("WAL row " + std::to_string(i) + " matches no acked ingest");
      return;
    }
    const Request* r = it->second;
    for (size_t k = 0; k < r->rows.size(); ++k) {
      const auto& a = r->rows[k];
      const auto& b = wal_rows[i + k];
      if (std::memcmp(&a, &b, sizeof(a)) != 0) {
        c->Error("WAL frame differs from its ingest request");
        return;
      }
    }
    frames.push_back(r);
    i += r->rows.size();
  }
  if (frames.size() != by_first_row.size()) {
    c->Error("acked ingest batches missing from the WAL");
  }

  const std::string wal_path = run_dir + "/replay.wal";
  std::remove(wal_path.c_str());
  std::vector<traffic::SpeedObservation> none;
  traffic::WalReplayReport none_report;
  auto wal = traffic::ObservationWal::Open(
      wal_path, traffic::ObservationWal::Options{}, &none, &none_report);
  CheckOk(wal.status(), "replay WAL");
  traffic::SnapshotStore store(d.cache->Clone(), std::move(wal).value());
  core::ServingContext serving(d.model.get(), d.city.index.get(),
                               core::ServingConfig{}, &store);

  // Served reads by pinned generation, in stream order; untraced runs keep
  // an evenly spaced sample.
  std::vector<const Request*> reads;
  for (const Request& r : s.requests) {
    const Outcome& o = outcomes[static_cast<size_t>(r.id)];
    if (r.kind != Kind::kIngest && o.result.has_value() && o.result->ok()) {
      reads.push_back(&r);
    }
  }
  if (!full && static_cast<int>(reads.size()) > kSampledChecks) {
    std::vector<const Request*> sample;
    const double stride =
        static_cast<double>(reads.size()) / static_cast<double>(kSampledChecks);
    for (int i = 0; i < kSampledChecks; ++i) {
      sample.push_back(reads[static_cast<size_t>(i * stride)]);
    }
    reads.swap(sample);
  }
  std::map<uint64_t, std::vector<const Request*>> by_gen;
  for (const Request* r : reads) {
    by_gen[outcomes[static_cast<size_t>(r->id)]
               .result->value()
               .snapshot_generation]
        .push_back(r);
  }

  std::vector<int64_t> folded;
  {
    std::lock_guard<std::mutex> lock(d.folds_mu);
    folded = d.folded;
  }
  const uint64_t final_gen = d.store->generation();
  size_t frame = 0;
  int64_t rows_in = 0;
  auto ingest_next = [&]() {
    const Request* r = frames[frame++];
    util::Status st = tr->Time("traffic.ingest", -1, r->id,
                               [&] { return store.Ingest(r->rows); });
    CheckOk(st, "replay ingest");
    rows_in += static_cast<int64_t>(r->rows.size());
  };
  const int max_steps = d.model->config().max_route_steps;
  std::vector<double> carry(batch_rows.size(), 0.0);
  for (uint64_t g = 1; g <= final_gen; ++g) {
    if (g >= 2) {
      const int64_t target = g < folded.size() ? folded[g] : -1;
      while (rows_in < target && frame < frames.size()) ingest_next();
      if (rows_in != target) {
        c->Error("cannot rebuild generation " + std::to_string(g));
        return;
      }
      const uint64_t got = tr->Time("traffic.swap", -1, -1,
                                    [&] { return store.SwapNow(); });
      if (got != g) {
        c->Error("replay swap produced generation " + std::to_string(got));
        return;
      }
    }
    const auto it = by_gen.find(g);
    if (it == by_gen.end()) continue;
    // Batches in stream order whose sizes reproduce the mean batch rows the
    // server formed in each phase: floor(mean) or one more, interleaved.
    std::vector<std::vector<const Request*>> batches;
    for (size_t phase = 0; phase < batch_rows.size(); ++phase) {
      const double mean = std::clamp(
          batch_rows[phase], 1.0,
          static_cast<double>(serve::ServeOptions{}.max_batch));
      std::vector<const Request*> cur;
      size_t rows = 0;
      for (const Request* r : it->second) {
        if (r->phase != static_cast<int>(phase)) continue;
        if (cur.empty()) {
          carry[phase] += mean - std::floor(mean);
          rows = static_cast<size_t>(mean) + (carry[phase] >= 1.0 ? 1 : 0);
          if (carry[phase] >= 1.0) carry[phase] -= 1.0;
        }
        cur.push_back(r);
        if (cur.size() == rows) {
          batches.push_back(std::move(cur));
          cur.clear();
        }
      }
      if (!cur.empty()) batches.push_back(std::move(cur));
    }
    for (const auto& batch : batches) {
      const size_t n = batch.size();
      rep->reads += static_cast<int64_t>(n);
      auto served = [&](size_t i) -> const core::ServingResult& {
        return outcomes[static_cast<size_t>(batch[i]->id)].result->value();
      };
      int eb = -1;
      if (full) {
        std::vector<core::ServingRequest> reqs;
        for (const Request* r : batch) reqs.push_back(ToServing(*r, d.records));
        eb = tr->Begin("core.serving", -1, batch[0]->id);
        auto out = serving.ExecuteBatch(&reqs);
        tr->End(eb);
        for (size_t i = 0; i < n; ++i) {
          rep->batch_span_of[batch[i]->id] = eb;
          const bool same =
              out[i].ok() && out[i].value().route == served(i).route &&
              out[i].value().scores.size() == served(i).scores.size() &&
              std::memcmp(out[i].value().scores.data(),
                          served(i).scores.data(),
                          served(i).scores.size() * sizeof(double)) == 0 &&
              out[i].value().snapshot_generation ==
                  served(i).snapshot_generation;
          if (!same) ++c->mismatches;
        }
        // The direct pass below must start memo-cold, as the served one did.
        d.model->InvalidateTransitionCache();
      }
      std::vector<traffic::SnapshotPin> pins(n);
      std::vector<core::PredictionContext> ctxs(n);
      std::vector<core::PredictItem> predicts;
      std::vector<size_t> predict_ix;
      std::vector<core::ScoreItem> scores;
      std::vector<size_t> score_ix;
      std::vector<std::vector<traj::Route>> routes(n);
      for (size_t i = 0; i < n; ++i) {
        const Request& r = *batch[i];
        const core::ServingResult& v = served(i);
        core::ServingRequest req = ToServing(r, d.records);
        pins[i] = tr->Time("traffic.pin", eb, r.id,
                           [&] { return store.Acquire(); });
        if (pins[i].generation() != v.snapshot_generation) {
          c->Error("replay pinned the wrong generation");
        }
        core::RouteQuery q = req.query;
        if (r.raw_origin) {
          q.origin = tr->Time("roadnet.snap", eb, r.id, [&] {
                        return d.city.index->Nearest(r.origin_point);
                      }).segment;
        }
        if (r.kind == Kind::kScore) {
          routes[i] = std::move(req.routes);
          q.origin = routes[i].front().front();
        }
        core::ContextOptions options;
        options.traffic_cache = pins[i].cache();
        options.traffic_prior_mean =
            (v.degradations & core::kDegradationTrafficPriorMean) != 0;
        options.uniform_proxy =
            (v.degradations & core::kDegradationUniformProxy) != 0;
        ctxs[i] = tr->Time("core.context", eb, r.id, [&] {
          util::Rng rng(core::ServingConfig{}.rng_seed);
          return d.model->MakeContext(q, &rng, options);
        });
        if (r.kind == Kind::kPredict) {
          core::PredictItem item;
          item.ctx = &ctxs[i];
          item.origin = q.origin;
          predicts.push_back(item);
          predict_ix.push_back(i);
        } else {
          core::ScoreItem item;
          item.ctx = &ctxs[i];
          item.routes = &routes[i];
          scores.push_back(item);
          score_ix.push_back(i);
        }
      }
      if (!predicts.empty()) {
        tr->Time("infer.beam", eb, batch[predict_ix[0]]->id,
                 [&] { d.model->PredictRoutesBeamMulti(&predicts); });
        std::vector<int> steps;
        for (size_t k = 0; k < predicts.size(); ++k) {
          const size_t i = predict_ix[k];
          if (predicts[k].route != served(i).route) ++c->mismatches;
          if (!ValidRoute(predicts[k].route, predicts[k].origin, *d.city.net,
                          max_steps)) {
            ++c->invalid_routes;
          }
          steps.push_back(static_cast<int>(predicts[k].route.size()) - 1);
        }
        rep->predict_batches.push_back(std::move(steps));
      }
      if (!scores.empty()) {
        tr->Time("infer.score", eb, batch[score_ix[0]]->id,
                 [&] { d.model->ScoreRoutesMulti(&scores); });
        for (size_t k = 0; k < scores.size(); ++k) {
          const auto& want = served(score_ix[k]).scores;
          if (scores[k].scores.size() != want.size() ||
              std::memcmp(scores[k].scores.data(), want.data(),
                          want.size() * sizeof(double)) != 0) {
            ++c->mismatches;
          }
        }
      }
    }
  }
  while (frame < frames.size()) ingest_next();
  std::remove(wal_path.c_str());
  rep->wall_ms = NowMs() - start;
}

// ---- Kernel cost at the workload's step shapes ------------------------------

struct StepKernel {
  std::vector<const nn::infer::PackedMatrix*> mats;  // one step's GEMVs
  int64_t elems = 0;         // weight elements per row
  int64_t weight_bytes = 0;  // packed operand bytes streamed per step
  int64_t act_bytes_per_row = 0;
};

StepKernel StepKernelOf(const core::infer::SharedInferWeights& w) {
  StepKernel k;
  for (const auto& cell : w.gru.cells) {
    k.mats.push_back(&cell.w_ih);
    k.mats.push_back(&cell.w_hh);
  }
  k.mats.push_back(&w.alpha_w);
  for (const auto* m : k.mats) {
    k.elems += m->rows * m->cols;
    k.weight_bytes += static_cast<int64_t>(m->PackedBytes());
    k.act_bytes_per_row += m->cols * 8 + m->rows * 4;  // double in, float out
  }
  return k;
}

// Median wall time (us) of one step's GEMV chain at `rows` activation rows.
double TimeStepGemv(const StepKernel& k, int64_t rows, Tracer* tr) {
  int64_t max_cols = 0, max_rows = 0;
  for (const auto* m : k.mats) {
    max_cols = std::max(max_cols, m->cols);
    max_rows = std::max(max_rows, m->rows);
  }
  std::vector<double> x(static_cast<size_t>(rows * max_cols));
  for (size_t i = 0; i < x.size(); ++i) x[i] = std::sin(0.37 * i) * 0.5;
  std::vector<float> out(static_cast<size_t>(rows * max_rows));
  auto chain = [&] {
    for (const auto* m : k.mats) {
      nn::infer::GemvForward(x.data(), m->cols, *m, nullptr, nullptr,
                             out.data(), rows, m->rows);
    }
  };
  chain();
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    const int span = tr->Begin("nn.gemm", -1, rows);
    chain();
    tr->End(span);
    us.push_back(Tracer::Ms(tr->spans().back()) * 1000.0);
  }
  return Median(us);
}

// ---- Result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, const Checks& c,
                 bool correct) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %18" PRId64 " count\n", "attempted", c.attempted);
  std::printf("%-34s %18" PRId64 " count\n", "failed", c.failed);
  std::printf("%-34s %18.6f frac\n", "error_rate",
              c.attempted > 0 ? static_cast<double>(c.failed) /
                                    static_cast<double>(c.attempted)
                              : 0.0);
  for (const std::string& e : c.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(c.attempted);
  json += ", \"failed\": " + std::to_string(c.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A metric without samples fails the run's checks; keep the line JSON.
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- Commands ---------------------------------------------------------------

std::string WorldDir(const std::string& data) { return data + "/world"; }

int Prepare(const std::string& data) {
  const double start = NowMs();
  const std::string dir = WorldDir(data);
  const std::string marker = dir + "/world.ok";
  {
    std::ifstream in(marker);
    std::string version;
    if (in >> version && version == kWorldVersion) {
      std::printf("prepare_s %.6f (cached world)\n", (NowMs() - start) / 1e3);
      return 0;
    }
  }
  fs::create_directories(dir);
  const eval::WorldConfig wc = eval::ChengduFullWorld();
  auto net = roadnet::BuildChengduFull(*wc.full_city);
  roadnet::SpatialIndex index(*net, kIndexCellM);
  CheckOk(roadnet::SaveRoadNetworkV3(*net, dir + "/network.bin", &index),
          "SaveRoadNetworkV3");
  traffic::CongestionField field(*net, wc.traffic);
  traj::TripGenerator gen(*net, field, wc.generator);
  std::vector<traj::TripRecord> pool(kPoolTrips);
  std::atomic<int> next{0};
  const int threads =
      std::max(1, std::min(4, static_cast<int>(
                                  std::thread::hardware_concurrency())));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i; (i = next.fetch_add(1)) < kPoolTrips;) {
        util::Rng rng(Mix(kPoolSeed, static_cast<uint64_t>(i)));
        const int day = i % wc.generator.num_days;
        traj::TripRecord rec;
        while (rec.trip.route.empty()) rec = gen.GenerateTrip(day, &rng);
        pool[static_cast<size_t>(i)] = std::move(rec);
      }
    });
  }
  for (auto& t : workers) t.join();
  std::sort(pool.begin(), pool.end(), [](const auto& a, const auto& b) {
    return a.trip.start_time_s < b.trip.start_time_s;
  });
  CheckOk(traj::SaveDatasetV3(pool, dir + "/dataset.bin"), "SaveDatasetV3");
  std::ofstream(marker) << kWorldVersion << "\n";
  std::printf("prepare_s %.6f (built world: %d segments, %d pool trips)\n",
              (NowMs() - start) / 1e3, net->num_segments(), kPoolTrips);
  return 0;
}

int Run(const std::string& data, const Workload& w, uint64_t seed,
        double seconds, bool traced) {
  const std::string world = WorldDir(data);
  const std::string run_dir =
      data + "/runs/" + std::to_string(static_cast<long long>(::getpid()));
  fs::create_directories(run_dir);
  fs::create_directories(data + "/streams");

  // Set up several times; keep the last set-up for the measured phases.
  std::vector<double> setup_s, load_ms;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    d = SetUp(i, w, world, run_dir, seed);
    setup_s.push_back(d->setup_s);
    load_ms.push_back(d->load_city_ms);
  }

  const std::vector<double> plan = PlanFor(w, seconds, traced);
  // Streams are keyed by everything that shapes them.
  uint64_t shape =
      Mix(static_cast<uint64_t>(w.raw_origin_share * 1e6), w.phases.size());
  for (const PhaseSpec& p : w.phases) {
    for (double x : {p.share, p.predict_qps, p.score_qps, p.ingest_qps,
                     static_cast<double>(p.kind), static_cast<double>(p.queries),
                     static_cast<double>(p.ingest_every)}) {
      shape = Mix(shape, static_cast<uint64_t>(x * 1e6));
    }
  }
  char key[200];
  std::snprintf(key, sizeof(key),
                "%s/streams/%s-seed%" PRIu64 "-%gs-%s-%016" PRIx64 ".txt",
                data.c_str(), w.name, seed, seconds,
                traced ? "traced" : "untraced", shape);
  std::optional<Stream> cached =
      LoadStream(key, static_cast<int>(d->records.size()),
                 static_cast<int>(w.phases.size()));
  Stream stream;
  if (cached.has_value() && cached->warm_trip ==
                                WarmTrip(seed, static_cast<int>(
                                                   d->records.size()))) {
    stream = std::move(*cached);
  } else {
    const eval::WorldConfig wc = eval::ChengduFullWorld();
    traffic::CongestionField field(*d->city.net, wc.traffic);
    traj::TripGenerator gen(*d->city.net, field, wc.generator);
    stream = MakeStream(w, seed, plan, *d->city.net, d->records, gen);
    SaveStream(stream, key);
  }

  std::vector<Outcome> outcomes(stream.requests.size());
  const serve::MetricsSnapshot start_counters = d->server->snapshot();
  std::vector<PhaseCounters> phases;
  Checks checks;
  HostProbe probe;
  {
    const int slots = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
    Completions comp(slots, seed);
    for (size_t i = 0; i < w.phases.size(); ++i) {
      bool exhausted = false;
      phases.push_back(DrivePhase(*d, comp, probe, stream.requests,
                                  static_cast<int>(i), w.phases[i].closed,
                                  plan[i], &outcomes, &exhausted));
      if (exhausted) {
        std::printf("info phase %s used every distinct query after %.1f of "
                    "%.1f ms\n",
                    w.phases[i].name, phases.back().end_ms -
                                          phases.back().start_ms,
                    plan[i]);
      }
    }
  }
  // Without an aggregator the ingest phase's writes go live in one swap.
  if (w.swap_interval_ms <= 0.0) d->store->SwapNow();
  d->server->Shutdown();
  d->store->Stop();
  const double peak_rss_mb = PeakRssMb();
  const nn::infer::MemoStats memo = d->model->transition_memo_stats();
  const int64_t pooled = static_cast<int64_t>(d->model->num_pooled_sessions());
  const traffic::SnapshotStoreStats traffic_stats = d->store->stats();

  int64_t submits = 0;
  for (const Outcome& o : outcomes) submits += o.result.has_value() ? 1 : 0;
  CheckServed(*d, stream, outcomes, &checks);
  CheckCounters(*d, start_counters.submitted + submits, &checks);

  std::vector<double> batch_rows;
  for (const PhaseCounters& pc : phases) {
    batch_rows.push_back(pc.batch_rows_mean());
  }
  auto is_closed = [&](const Request& r) {
    return w.phases[static_cast<size_t>(r.phase)].closed;
  };
  Tracer tracer;
  ReplayReport rep;
  Replay(*d, stream, outcomes, batch_rows, traced, run_dir, &tracer, &rep,
         &checks);
  if (checks.mismatches > 0) {
    checks.Error(std::to_string(checks.mismatches) +
                 " served answers differ from direct re-execution");
  }
  if (checks.invalid_routes > 0) {
    checks.Error(std::to_string(checks.invalid_routes) + " invalid routes");
  }

  // Open-loop latency samples: reads from when they were due, ingest acks
  // from when they were sent. An ack takes ~0.5 ms, the size of the
  // generator's own wake-up lateness (bench.sched_lag_p99_ms), which would
  // otherwise set most of its spread.
  auto latencies = [&](Kind kind) {
    std::vector<double> v;
    for (const Request& r : stream.requests) {
      const Outcome& o = outcomes[static_cast<size_t>(r.id)];
      if (r.kind == kind && !is_closed(r) && o.result.has_value() &&
          o.result->ok()) {
        v.push_back(o.done_ms -
                    (kind == Kind::kIngest ? o.submit_ms : o.due_ms));
      }
    }
    return v;
  };
  const std::vector<double> predict_ms = latencies(Kind::kPredict);
  const std::vector<double> score_ms = latencies(Kind::kScore);
  const std::vector<double> ingest_ms = latencies(Kind::kIngest);
  // The closed predict phase: throughput (wall clock) and batch rows.
  double closed_s = 0.0;
  double closed_rows = 0.0;
  for (size_t i = 0; i < phases.size(); ++i) {
    if (!w.phases[i].closed || w.phases[i].kind != Kind::kPredict) continue;
    closed_s += (phases[i].end_ms - phases[i].start_ms) / 1000.0;
    closed_rows = phases[i].batch_rows_mean();
  }
  // CPU per request: the process CPU time of the closed phases that send
  // `kind`, over the requests of that kind they completed. Ingests sent
  // beside them, swaps and lazy tensor builds count in that time. `round_ms`
  // is the host probe's CPU time per round beside those phases.
  auto closed_done = [&](Kind kind) {
    int64_t done = 0;
    for (const Request& r : stream.requests) {
      const Outcome& o = outcomes[static_cast<size_t>(r.id)];
      if (is_closed(r) && r.kind == kind && o.result.has_value() &&
          o.result->ok()) {
        ++done;
      }
    }
    return done;
  };
  struct CpuCost {
    double ms = std::nan("");        // as measured
    double round_ms = std::nan("");
    // Scaled to the speed at which a probe round takes its nominal time.
    double scaled_ms() const {
      return ms * HostProbe::kNominalRoundMs / round_ms;
    }
  };
  auto cpu_per = [&](Kind kind) {
    double cpu_ms = 0.0, probe_ms = 0.0;
    int64_t rounds = 0;
    for (size_t i = 0; i < phases.size(); ++i) {
      if (w.phases[i].closed && w.phases[i].kind == kind) {
        cpu_ms += phases[i].cpu_ms;
        probe_ms += phases[i].probe_cpu_ms;
        rounds += phases[i].probe_rounds;
      }
    }
    const int64_t done = closed_done(kind);
    CpuCost c;
    if (done > 0 && rounds > 0) {
      c.ms = cpu_ms / static_cast<double>(done);
      c.round_ms = probe_ms / static_cast<double>(rounds);
    }
    return c;
  };
  const CpuCost predict_cpu = cpu_per(Kind::kPredict);
  const CpuCost score_cpu = cpu_per(Kind::kScore);
  const int64_t closed_ok = closed_done(Kind::kPredict);
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n", w.name,
              seed, seconds, traced ? 1 : 0);
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseCounters& pc = phases[i];
    std::printf("phase %-8s %8.1f ms, %6" PRId64
                " requests, batch rows %.3f, cpu %.1f ms\n",
                w.phases[i].name, pc.end_ms - pc.start_ms,
                pc.after.submitted - pc.before.submitted,
                pc.batch_rows_mean(), pc.cpu_ms);
  }
  std::printf("samples: open predict %zu, score %zu, ingest %zu; closed "
              "predict %" PRId64 "\n",
              predict_ms.size(), score_ms.size(), ingest_ms.size(), closed_ok);

  std::vector<Metric> metrics;
  if (!traced) {
    // Wall-clock figures move with the shared host's speed from run to run
    // by more than any bound could allow, so they are printed, not bounded.
    std::printf("info wall predict_p50_ms %.6f, predict_qps %.6f, "
                "score_p50_ms %.6f (not in the result line)\n",
                Quantile(predict_ms, 0.5),
                static_cast<double>(closed_ok) / closed_s,
                Quantile(score_ms, 0.5));
    std::printf("info cpu as measured: predict %.6f ms, score %.6f ms; "
                "host probe round %.6f ms beside predicts, %.6f ms beside "
                "scores (nominal %.1f)\n",
                predict_cpu.ms, score_cpu.ms, predict_cpu.round_ms,
                score_cpu.round_ms, HostProbe::kNominalRoundMs);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"predict_cpu_ms", predict_cpu.scaled_ms(), "ms"},
        {"score_cpu_ms", score_cpu.scaled_ms(), "ms"},
        {"ingest_ack_p50_ms", Quantile(ingest_ms, 0.5), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Per-layer numbers from the replay's spans.
    const std::vector<Span>& spans = tracer.spans();
    double serving_ms = 0.0, self_ms = 0.0;
    int64_t serving_requests = 0;
    std::map<int, double> child_ms;
    for (const Span& sp : spans) {
      if (sp.parent >= 0) child_ms[sp.parent] += Tracer::Ms(sp);
    }
    std::map<int, int64_t> rows_of_batch;
    for (const auto& [id, span] : rep.batch_span_of) ++rows_of_batch[span];
    for (const auto& [span, rows] : rows_of_batch) {
      const double ms = Tracer::Ms(spans[static_cast<size_t>(span)]);
      serving_ms += ms;
      self_ms += ms - child_ms[span];
      serving_requests += rows;
    }
    double beam_ms = 0.0;
    for (double ms : tracer.DurationsMs("infer.beam")) beam_ms += ms;
    double score_span_ms = 0.0;
    for (double ms : tracer.DurationsMs("infer.score")) score_span_ms += ms;
    int64_t query_steps = 0, queries = 0;
    for (const auto& b : rep.predict_batches) {
      for (int st : b) query_steps += st;
      queries += static_cast<int64_t>(b.size());
    }
    int64_t transitions = 0;
    for (const Request& r : stream.requests) {
      const Outcome& o = outcomes[static_cast<size_t>(r.id)];
      if (r.kind != Kind::kScore || !o.result.has_value() || !o.result->ok()) {
        continue;
      }
      for (int t : r.candidates) {
        const traj::Trip& trip = d->records[static_cast<size_t>(t)].trip;
        transitions += static_cast<int64_t>(trip.route.size()) - 1;
      }
    }
    // Lock-step row schedule of each replayed predict batch: one row per
    // query at the first expansion, beam_width rows per live query after.
    const int beam = d->model->config().beam_width;
    const auto weights = d->model->shared_infer_weights();
    const StepKernel kernel = StepKernelOf(*weights);
    std::map<int64_t, double> gemm_us;
    double gemm_total_us = 0.0, flops = 0.0, bytes = 0.0;
    for (const auto& b : rep.predict_batches) {
      const int longest = *std::max_element(b.begin(), b.end());
      for (int t = 0; t < longest; ++t) {
        int64_t rows = 0;
        for (int st : b) rows += t < st ? (t == 0 ? 1 : beam) : 0;
        auto it = gemm_us.find(rows);
        if (it == gemm_us.end()) {
          it = gemm_us.emplace(rows, TimeStepGemv(kernel, rows, &tracer)).first;
        }
        gemm_total_us += it->second;
        flops += 2.0 * static_cast<double>(rows * kernel.elems);
        bytes += static_cast<double>(kernel.weight_bytes +
                                     rows * kernel.act_bytes_per_row);
      }
    }
    const double steps = static_cast<double>(std::max<int64_t>(1, query_steps));
    const double step_us = beam_ms * 1000.0 / steps;
    const double gemm_per_step = gemm_total_us / steps;
    // Waiting: untraced latency minus the replayed batch's execution time.
    std::vector<double> wait_ms;
    for (const Request& r : stream.requests) {
      const Outcome& o = outcomes[static_cast<size_t>(r.id)];
      auto it = rep.batch_span_of.find(r.id);
      if (r.kind != Kind::kPredict || is_closed(r) ||
          it == rep.batch_span_of.end()) {
        continue;
      }
      wait_ms.push_back(o.done_ms - o.due_ms -
                        Tracer::Ms(spans[static_cast<size_t>(it->second)]));
    }
    std::vector<double> lag_ms;
    for (const Request& r : stream.requests) {
      const Outcome& o = outcomes[static_cast<size_t>(r.id)];
      if (!is_closed(r) && o.result.has_value()) {
        lag_ms.push_back(o.submit_ms - o.due_ms);
      }
    }
    // Recorder cost: calibrated per span, times the spans recorded.
    Tracer probe;
    const int64_t cal_start = NowNs();
    for (int i = 0; i < 20000; ++i) probe.End(probe.Begin("probe", -1, i));
    const double per_span_ms =
        static_cast<double>(NowNs() - cal_start) / 1e6 / 20000.0;
    // Step-time split by predict batch size, for the batching finding.
    double single_ms = 0.0, multi_ms = 0.0;
    int64_t single_steps = 0, multi_steps = 0;
    {
      size_t b = 0;
      for (const Span& sp : spans) {
        if (std::string_view(sp.name) != "infer.beam") continue;
        const auto& batch = rep.predict_batches[b++];
        int64_t st = 0;
        for (int x : batch) st += x;
        (batch.size() == 1 ? single_ms : multi_ms) += Tracer::Ms(sp);
        (batch.size() == 1 ? single_steps : multi_steps) += st;
      }
    }
    std::printf("info infer.step_us single-query batches %.3f (%" PRId64
                " steps), multi-query batches %.3f (%" PRId64 " steps)\n",
                single_steps ? single_ms * 1000.0 / single_steps : 0.0,
                single_steps,
                multi_steps ? multi_ms * 1000.0 / multi_steps : 0.0,
                multi_steps);
    std::printf("info replayed %" PRId64 " reads in %.1f ms; %zu spans "
                "written\n",
                rep.reads, rep.wall_ms, spans.size());
    std::printf("info nn.flops_per_step and nn.bytes_per_step are computed "
                "from tensor shapes, not measured\n");
    const serve::MetricsSnapshot end = d->server->snapshot();
    metrics = {
        {"serve.batch_rows_mean", closed_rows, "rows"},
        {"serve.wait_ms_p50", Median(wait_ms), "ms"},
        {"serve.shed", static_cast<double>(end.shed_queue_full), "count"},
        {"serve.expired", static_cast<double>(end.expired_in_queue), "count"},
        {"serving.execute_ms_per_request",
         serving_ms /
             static_cast<double>(std::max<int64_t>(1, serving_requests)),
         "ms"},
        {"serving.self_ms_per_request",
         self_ms / static_cast<double>(std::max<int64_t>(1, serving_requests)),
         "ms"},
        {"context.ms_p50", Median(tracer.DurationsMs("core.context")), "ms"},
        {"infer.steps_per_query",
         static_cast<double>(query_steps) /
             static_cast<double>(std::max<int64_t>(1, queries)),
         "count"},
        {"infer.step_us", step_us, "us"},
        {"infer.nongemm_us_per_step", step_us - gemm_per_step, "us"},
        {"infer.score_us_per_transition",
         score_span_ms * 1000.0 /
             static_cast<double>(std::max<int64_t>(1, transitions)),
         "us"},
        {"infer.pooled_sessions", static_cast<double>(pooled), "count"},
        {"nn.gemm_us_per_step", gemm_per_step, "us"},
        {"nn.flops_per_step", flops / steps, "flop"},
        {"nn.bytes_per_step", bytes / steps, "byte"},
        {"nn.memo_hit_rate",
         memo.lookups > 0 ? static_cast<double>(memo.hits) /
                                static_cast<double>(memo.lookups)
                          : 0.0,
         "frac"},
        {"traffic.pin_us",
         Median(tracer.DurationsMs("traffic.pin")) * 1000.0, "us"},
        {"traffic.ingest_ms", Median(tracer.DurationsMs("traffic.ingest")),
         "ms"},
        {"traffic.swap_ms", Median(tracer.DurationsMs("traffic.swap")), "ms"},
        {"traffic.swaps", static_cast<double>(traffic_stats.swaps), "count"},
        {"roadnet.snap_us",
         Median(tracer.DurationsMs("roadnet.snap")) * 1000.0, "us"},
        {"roadnet.load_ms", Median(load_ms), "ms"},
        {"bench.sched_lag_p99_ms", Quantile(lag_ms, 0.99), "ms"},
        {"bench.trace_overhead_frac",
         per_span_ms * static_cast<double>(spans.size()) / rep.wall_ms,
         "frac"},
    };
    tracer.Write(data + "/traces/" + w.name + "-seed" + std::to_string(seed) +
                 ".jsonl");
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      checks.Error("metric " + m.name + " has no samples");
    }
  }
  const bool correct = checks.errors.empty() && checks.invalid_routes == 0 &&
                       checks.mismatches == 0;
  std::error_code ec;
  d.reset();
  fs::remove_all(run_dir, ec);
  PrintResult(metrics, checks, correct);
  return correct ? 0 : 1;
}

const char* Arg(int argc, char** argv, const char* name) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* data = argc > 1 ? Arg(argc, argv, "--data") : nullptr;
  if (argc < 2 || data == nullptr) {
    std::fprintf(stderr,
                 "usage: citybench prepare --data DIR\n"
                 "       citybench run --data DIR --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  if (std::strcmp(argv[1], "prepare") == 0) return Prepare(data);
  if (std::strcmp(argv[1], "run") != 0) Die("unknown command");
  const char* name = Arg(argc, argv, "--workload");
  const char* seed = Arg(argc, argv, "--seed");
  const char* seconds = Arg(argc, argv, "--seconds");
  const char* trace = Arg(argc, argv, "--trace");
  if (name == nullptr || seed == nullptr || seconds == nullptr) {
    Die("run needs --workload, --seed and --seconds");
  }
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) {
      fs::create_directories(std::string(data) + "/traces");
      return Run(data, w, std::strtoull(seed, nullptr, 10),
                 std::strtod(seconds, nullptr),
                 trace != nullptr && std::strcmp(trace, "1") == 0);
    }
  }
  Die(std::string("unknown workload ") + name);
}
