// Live traffic pipeline coverage (docs/streaming.md): WAL round-trip and
// torn-tail recovery across a corruption corpus, deterministic incremental
// folds, double-buffered snapshot swaps with epoch-pinned readers, what-if
// overlays, and the serving-layer ingest/pinning contract. The crash-safety
// claims proven here byte-for-byte are the same ones tools/check_serve.sh
// re-proves end-to-end with a kill -9 against the daemon.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/neural_router.h"
#include "core/deepst_model.h"
#include "core/serving.h"
#include "eval/world.h"
#include "traffic/overlay.h"
#include "traffic/snapshot.h"
#include "traffic/store.h"
#include "traffic/wal.h"
#include "util/fault_injector.h"

namespace deepst {
namespace {

using traffic::ObservationWal;
using traffic::SpeedObservation;
using traffic::WalReplayReport;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "streaming_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<SpeedObservation> MakeRows(int n, double t0) {
  std::vector<SpeedObservation> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({{100.0 + 7.0 * i, 50.0 + 11.0 * i}, t0 + 10.0 * i,
                    2.0 + (i % 9)});
  }
  return rows;
}

void ExpectRowsEqual(const std::vector<SpeedObservation>& a,
                     const std::vector<SpeedObservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s) << i;
    EXPECT_DOUBLE_EQ(a[i].pos.x, b[i].pos.x) << i;
    EXPECT_DOUBLE_EQ(a[i].pos.y, b[i].pos.y) << i;
    EXPECT_DOUBLE_EQ(a[i].speed_mps, b[i].speed_mps) << i;
  }
}

bool SameTensorBytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

geo::GridSpec TestGrid() {
  geo::BoundingBox box;
  box.Extend({0, 0});
  box.Extend({800, 800});
  return geo::GridSpec(box, 200.0);
}

std::unique_ptr<traffic::TrafficTensorCache> FreshCache() {
  return std::make_unique<traffic::TrafficTensorCache>(TestGrid(), 1200.0,
                                                       1800.0);
}

class StreamingTest : public testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::Instance().Reset(); }
};

// -- WAL ---------------------------------------------------------------------

TEST_F(StreamingTest, WalRoundTripAndReopen) {
  const std::string path = TempPath("roundtrip.wal");
  std::remove(path.c_str());
  const auto batch1 = MakeRows(3, 100.0);
  const auto batch2 = MakeRows(5, 500.0);
  {
    std::vector<SpeedObservation> replayed;
    WalReplayReport report;
    auto wal = ObservationWal::Open(path, {}, &replayed, &report);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_TRUE(replayed.empty());
    EXPECT_EQ(report.frames, 0u);
    ASSERT_TRUE(wal.value()->Append(batch1).ok());
    ASSERT_TRUE(wal.value()->Append(batch2).ok());
    EXPECT_EQ(wal.value()->stats().appended_frames, 2);
    EXPECT_EQ(wal.value()->stats().appended_rows, 8);
  }  // destructor syncs + closes
  std::vector<SpeedObservation> rows;
  WalReplayReport report;
  ASSERT_TRUE(traffic::ReplayWalFile(path, &rows, &report).ok());
  EXPECT_EQ(report.frames, 2u);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_DOUBLE_EQ(report.min_time_s, 100.0);
  EXPECT_DOUBLE_EQ(report.max_time_s, 540.0);
  std::vector<SpeedObservation> expected = batch1;
  expected.insert(expected.end(), batch2.begin(), batch2.end());
  ExpectRowsEqual(expected, rows);

  // Re-open replays and appends on the existing tail.
  std::vector<SpeedObservation> replayed;
  auto wal = ObservationWal::Open(path, {}, &replayed, nullptr);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ExpectRowsEqual(expected, replayed);
  ASSERT_TRUE(wal.value()->Append(MakeRows(1, 900.0)).ok());
  wal.value().reset();
  rows.clear();
  ASSERT_TRUE(traffic::ReplayWalFile(path, &rows, &report).ok());
  EXPECT_EQ(rows.size(), 9u);
  EXPECT_EQ(report.frames, 3u);
}

// Every way a kill -9 or disk corruption can mangle the tail: truncation at
// each interesting boundary, bit flips in the length/crc/payload, and an
// absurd length field. Replay must return a clean OK with the intact prefix
// and exact drop accounting -- never crash, never abort, never resurrect
// bytes past the tear.
TEST_F(StreamingTest, TornTailCorruptionCorpus) {
  const std::string base_path = TempPath("corpus_base.wal");
  std::remove(base_path.c_str());
  {
    auto wal = ObservationWal::Open(base_path, {}, nullptr, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(MakeRows(2, 0.0)).ok());    // frame 1
    ASSERT_TRUE(wal.value()->Append(MakeRows(3, 1000.0)).ok()); // frame 2
  }
  const std::string good = ReadFileBytes(base_path);
  constexpr size_t kHeader = 16;
  constexpr size_t kFrame1 = 8 + 8 + 2 * 32;  // header+payload, 2 rows
  ASSERT_EQ(good.size(), kHeader + kFrame1 + (8 + 8 + 3 * 32));

  struct Case {
    const char* name;
    std::string bytes;
    uint64_t want_frames;
    uint64_t want_rows;
    bool want_torn = true;
  };
  std::vector<Case> corpus;
  // Truncations: mid frame-2 payload, mid frame-2 header, exactly after
  // frame 1 (a VALID shorter log, not a tear), mid frame-1 -> empty log.
  corpus.push_back({"trunc_mid_payload2",
                    good.substr(0, good.size() - 17), 1, 2});
  corpus.push_back({"trunc_mid_header2",
                    good.substr(0, kHeader + kFrame1 + 5), 1, 2});
  corpus.push_back({"trunc_frame_boundary",
                    good.substr(0, kHeader + kFrame1), 1, 2,
                    /*want_torn=*/false});
  corpus.push_back({"trunc_mid_frame1", good.substr(0, kHeader + 20), 0, 0});
  // Bit flips: payload byte of frame 2 (CRC catches it), CRC byte itself,
  // and a length field claiming 2^31 rows (allocation-bomb guard).
  {
    std::string flip = good;
    flip[kHeader + kFrame1 + 8 + 8 + 4] ^= 0x01;
    corpus.push_back({"flip_payload2", flip, 1, 2});
  }
  {
    std::string flip = good;
    flip[kHeader + kFrame1 + 4] ^= 0x80;  // crc field
    corpus.push_back({"flip_crc2", flip, 1, 2});
  }
  {
    std::string flip = good;
    flip[kHeader + kFrame1 + 3] = '\x7f';  // length field -> huge
    corpus.push_back({"huge_length2", flip, 1, 2});
  }
  {
    std::string flip = good;
    flip[kHeader + 8 + 8 + 4] ^= 0x01;  // payload of frame 1
    corpus.push_back({"flip_payload1", flip, 0, 0});
  }

  for (const Case& c : corpus) {
    SCOPED_TRACE(c.name);
    const std::string path = TempPath(std::string("corpus_") + c.name);
    WriteFileBytes(path, c.bytes);
    std::vector<SpeedObservation> rows;
    WalReplayReport report;
    const util::Status status = traffic::ReplayWalFile(path, &rows, &report);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(report.frames, c.want_frames);
    EXPECT_EQ(report.rows, c.want_rows);
    EXPECT_EQ(rows.size(), c.want_rows);
    EXPECT_EQ(report.torn_tail, c.want_torn);
    EXPECT_EQ(report.valid_bytes,
              kHeader + (c.want_frames == 1 ? kFrame1 : 0));
    if (c.want_torn) {
      EXPECT_EQ(report.torn_tail_offset, report.valid_bytes);
    }
    EXPECT_EQ(report.dropped_bytes, c.bytes.size() - report.valid_bytes);

    // Recovery: Open truncates the tear away and appending resumes on a
    // whole-frame boundary; the recovered prefix survives byte-identical.
    std::vector<SpeedObservation> replayed;
    auto wal = ObservationWal::Open(path, {}, &replayed, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ExpectRowsEqual(rows, replayed);
    ASSERT_TRUE(wal.value()->Append(MakeRows(1, 9999.0)).ok());
    wal.value().reset();
    std::vector<SpeedObservation> after;
    WalReplayReport report2;
    ASSERT_TRUE(traffic::ReplayWalFile(path, &after, &report2).ok());
    EXPECT_FALSE(report2.torn_tail);
    EXPECT_EQ(after.size(), c.want_rows + 1);
  }

  // Header damage is a different animal: not a WAL at all -> InvalidArgument
  // (the probe-chain contract), still no crash.
  {
    std::string bad_magic = good;
    bad_magic[0] ^= 0xff;
    const std::string path = TempPath("corpus_bad_magic");
    WriteFileBytes(path, bad_magic);
    WalReplayReport report;
    const util::Status status =
        traffic::ReplayWalFile(path, nullptr, &report);
    EXPECT_EQ(status.code(), util::Status::Code::kInvalidArgument);
  }
  {
    const std::string path = TempPath("corpus_short_header");
    WriteFileBytes(path, good.substr(0, 7));
    const util::Status status = traffic::ReplayWalFile(path, nullptr, nullptr);
    EXPECT_EQ(status.code(), util::Status::Code::kInvalidArgument);
  }
}

TEST_F(StreamingTest, WalFaultPointsSurfaceCleanly) {
  const std::string path = TempPath("faults.wal");
  std::remove(path.c_str());
  auto wal = ObservationWal::Open(path, {}, nullptr, nullptr);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(MakeRows(2, 0.0)).ok());

  util::FaultInjector::Instance().Arm("wal.append", util::FaultKind::kIoError);
  const util::Status append = wal.value()->Append(MakeRows(2, 100.0));
  EXPECT_EQ(append.code(), util::Status::Code::kIoError);
  EXPECT_EQ(wal.value()->stats().appended_frames, 1);  // nothing acked

  util::FaultInjector::Instance().Reset();
  ASSERT_TRUE(wal.value()->Append(MakeRows(2, 200.0)).ok());
  util::FaultInjector::Instance().Arm("wal.fsync", util::FaultKind::kIoError);
  EXPECT_EQ(wal.value()->Sync().code(), util::Status::Code::kIoError);
  util::FaultInjector::Instance().Reset();
  EXPECT_TRUE(wal.value()->Sync().ok());
  wal.value().reset();

  // The failed append left the log valid: both acked frames replay.
  std::vector<SpeedObservation> rows;
  ASSERT_TRUE(traffic::ReplayWalFile(path, &rows, nullptr).ok());
  EXPECT_EQ(rows.size(), 4u);

  util::FaultInjector::Instance().Arm("wal.replay", util::FaultKind::kIoError,
                                      /*after=*/0, /*count=*/-1);
  EXPECT_EQ(traffic::ReplayWalFile(path, nullptr, nullptr).code(),
            util::Status::Code::kIoError);
  EXPECT_FALSE(ObservationWal::Open(path, {}, nullptr, nullptr).ok());
}

TEST_F(StreamingTest, DescribeWalReportsHealthAndTornTail) {
  const std::string path = TempPath("describe.wal");
  std::remove(path.c_str());
  {
    auto wal = ObservationWal::Open(path, {}, nullptr, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(MakeRows(4, 100.0)).ok());
  }
  bool healthy = false;
  auto report = traffic::DescribeWalFile(path, &healthy);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(healthy);
  EXPECT_NE(report.value().find("traffic wal v1"), std::string::npos);
  EXPECT_NE(report.value().find("crc OK"), std::string::npos);

  std::string torn = ReadFileBytes(path);
  torn.resize(torn.size() - 9);
  WriteFileBytes(path, torn);
  report = traffic::DescribeWalFile(path, &healthy);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(healthy);
  EXPECT_NE(report.value().find("TORN TAIL"), std::string::npos);

  // Not-a-WAL probes fall through with InvalidArgument.
  WriteFileBytes(path, std::string("definitely not a wal file header"));
  EXPECT_EQ(traffic::DescribeWalFile(path, &healthy).status().code(),
            util::Status::Code::kInvalidArgument);
}

// A crash mid-append is byte-equivalent to truncation: replaying the torn
// file recovers exactly the acked prefix, and the snapshot rebuilt from the
// recovered rows is bitwise identical to one built from the prefix rows.
TEST_F(StreamingTest, CrashEquivalenceRebuildsIdenticalSnapshot) {
  const std::string path = TempPath("crash.wal");
  std::remove(path.c_str());
  const auto acked = MakeRows(6, 0.0);
  const auto lost = MakeRows(4, 2000.0);
  {
    auto wal = ObservationWal::Open(path, {}, nullptr, nullptr);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(acked).ok());
    ASSERT_TRUE(wal.value()->Append(lost).ok());
  }
  // Simulate the kill -9 landing mid-way through the second frame's write.
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() - 2 * 32 - 3);
  WriteFileBytes(path, bytes);

  std::vector<SpeedObservation> recovered;
  WalReplayReport report;
  ASSERT_TRUE(traffic::ReplayWalFile(path, &recovered, &report).ok());
  EXPECT_TRUE(report.torn_tail);
  ExpectRowsEqual(acked, recovered);

  auto from_prefix = FreshCache();
  from_prefix->AddObservations(acked);
  auto from_replay = FreshCache();
  from_replay->AddObservations(recovered);
  for (double t : {1500.0, 2500.0, 3600.0}) {
    EXPECT_TRUE(SameTensorBytes(from_prefix->TensorForTime(t),
                                from_replay->TensorForTime(t)))
        << "t=" << t;
  }
}

// -- SnapshotStore -----------------------------------------------------------

TEST_F(StreamingTest, IncrementalFoldBitwiseEqualsOneShot) {
  const auto all = MakeRows(30, 0.0);
  auto one_shot = FreshCache();
  one_shot->AddObservations(all);

  traffic::SnapshotStore store(FreshCache(), nullptr, {});
  EXPECT_EQ(store.generation(), 1u);
  // Same rows in three ingest/swap rounds: any partitioning must rebuild
  // the same bytes (the deterministic-fold contract WAL replay leans on).
  for (int part = 0; part < 3; ++part) {
    std::vector<SpeedObservation> rows(all.begin() + 10 * part,
                                       all.begin() + 10 * (part + 1));
    ASSERT_TRUE(store.Ingest(rows).ok());
    store.SwapNow();
  }
  EXPECT_EQ(store.generation(), 4u);
  traffic::SnapshotPin pin = store.Acquire();
  for (double t : {1500.0, 2500.0}) {
    EXPECT_TRUE(SameTensorBytes(one_shot->TensorForTime(t),
                                pin.cache()->TensorForTime(t)))
        << "t=" << t;
  }
}

TEST_F(StreamingTest, PinnedReadersKeepTheirGenerationAcrossSwaps) {
  traffic::SnapshotStore store(FreshCache(), nullptr, {});
  traffic::SnapshotPin old_pin = store.Acquire();
  EXPECT_EQ(old_pin.generation(), 1u);
  const double probe_t = 1500.0;
  nn::Tensor before = old_pin.cache()->TensorForTime(probe_t);  // empty gen 1

  ASSERT_TRUE(store.Ingest(MakeRows(8, 0.0)).ok());
  std::atomic<uint64_t> swapped_gen{0};
  store.set_on_swap([&swapped_gen](uint64_t g) { swapped_gen = g; });
  EXPECT_EQ(store.SwapNow(), 2u);
  EXPECT_EQ(swapped_gen.load(), 2u);

  // The pin still reads generation 1, bit for bit, while new admissions
  // see generation 2 with the folded rows.
  EXPECT_EQ(old_pin.generation(), 1u);
  EXPECT_TRUE(SameTensorBytes(before, old_pin.cache()->TensorForTime(probe_t)));
  traffic::SnapshotPin new_pin = store.Acquire();
  EXPECT_EQ(new_pin.generation(), 2u);
  EXPECT_GT(new_pin.cache()->TensorForTime(probe_t).Sum(), 0.0);

  traffic::SnapshotStoreStats stats = store.stats();
  EXPECT_EQ(stats.pinned_readers, 2);
  EXPECT_GE(stats.pinned_reader_high_water, 2);
  EXPECT_EQ(stats.generation, static_cast<uint64_t>(stats.swaps) + 1);
  old_pin.Release();
  new_pin.Release();
  EXPECT_EQ(store.stats().pinned_readers, 0);
  EXPECT_GE(store.stats().pinned_reader_high_water, 2);
}

TEST_F(StreamingTest, IngestValidatesRowsAndCountsRejects) {
  const std::string path = TempPath("validate.wal");
  std::remove(path.c_str());
  auto wal = ObservationWal::Open(path, {}, nullptr, nullptr);
  ASSERT_TRUE(wal.ok());
  traffic::SnapshotStore store(FreshCache(), std::move(wal).value(), {});

  std::vector<SpeedObservation> rows = MakeRows(3, 100.0);
  rows.push_back({{1.0, 1.0}, -5.0, 3.0});                      // negative time
  rows.push_back({{1.0, 1.0}, 10.0, -1.0});                     // negative speed
  rows.push_back({{std::nan(""), 1.0}, 10.0, 3.0});             // non-finite
  traffic::IngestReport report;
  ASSERT_TRUE(store.Ingest(rows, &report).ok());
  EXPECT_EQ(report.accepted, 3);
  EXPECT_EQ(report.rejected, 3);
  traffic::SnapshotStoreStats stats = store.stats();
  EXPECT_EQ(stats.rows_accepted, 3);
  EXPECT_EQ(stats.rows_rejected, 3);
  EXPECT_EQ(stats.rows_pending, 3);

  // Only the accepted rows were made durable.
  ASSERT_TRUE(store.SyncWal().ok());
  std::vector<SpeedObservation> durable;
  ASSERT_TRUE(traffic::ReplayWalFile(path, &durable, nullptr).ok());
  EXPECT_EQ(durable.size(), 3u);
}

TEST_F(StreamingTest, WalAppendFailureAcksNothing) {
  const std::string path = TempPath("walfail.wal");
  std::remove(path.c_str());
  auto wal = ObservationWal::Open(path, {}, nullptr, nullptr);
  ASSERT_TRUE(wal.ok());
  traffic::SnapshotStore store(FreshCache(), std::move(wal).value(), {});

  util::FaultInjector::Instance().Arm("wal.append", util::FaultKind::kIoError);
  traffic::IngestReport report;
  const util::Status status = store.Ingest(MakeRows(5, 0.0), &report);
  EXPECT_EQ(status.code(), util::Status::Code::kIoError);
  EXPECT_EQ(report.accepted, 0);
  traffic::SnapshotStoreStats stats = store.stats();
  EXPECT_EQ(stats.rows_accepted, 0);
  EXPECT_EQ(stats.rows_pending, 0);  // nothing queued without durability
  EXPECT_EQ(stats.rows_rejected, 5);
  // The swap after a failed ingest publishes nothing new.
  EXPECT_EQ(store.SwapNow(), 1u);
}

TEST_F(StreamingTest, BackgroundAggregatorPublishes) {
  traffic::SnapshotStoreConfig cfg;
  cfg.swap_interval_ms = 2.0;
  traffic::SnapshotStore store(FreshCache(), nullptr, cfg);
  store.Start();
  ASSERT_TRUE(store.Ingest(MakeRows(4, 0.0)).ok());
  for (int i = 0; i < 500 && store.generation() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(store.generation(), 2u);
  store.Stop();
}

// The restart contract end-to-end at the store level: WAL replay queued via
// QueueRecovered and swapped rebuilds bitwise-identical snapshots no matter
// how the live run partitioned its ingests.
TEST_F(StreamingTest, RestartReplayRebuildsIdenticalGenerations) {
  const std::string path = TempPath("restart.wal");
  std::remove(path.c_str());
  std::vector<nn::Tensor> live_tensors;
  const std::vector<double> probes = {1500.0, 2700.0, 3900.0};
  {
    auto wal = ObservationWal::Open(path, {}, nullptr, nullptr);
    ASSERT_TRUE(wal.ok());
    traffic::SnapshotStore store(FreshCache(), std::move(wal).value(), {});
    ASSERT_TRUE(store.Ingest(MakeRows(7, 0.0)).ok());
    store.SwapNow();
    ASSERT_TRUE(store.Ingest(MakeRows(5, 1300.0)).ok());
    ASSERT_TRUE(store.Ingest(MakeRows(4, 2600.0)).ok());
    store.SwapNow();
    traffic::SnapshotPin pin = store.Acquire();
    for (double t : probes) {
      live_tensors.push_back(pin.cache()->TensorForTime(t));
    }
    ASSERT_TRUE(store.SyncWal().ok());
  }
  // "Restart": replay the WAL into a fresh store seeded the same way.
  std::vector<SpeedObservation> replayed;
  auto wal = ObservationWal::Open(path, {}, &replayed, nullptr);
  ASSERT_TRUE(wal.ok());
  traffic::SnapshotStore store(FreshCache(), std::move(wal).value(), {});
  store.QueueRecovered(std::move(replayed));
  EXPECT_EQ(store.SwapNow(), 2u);
  traffic::SnapshotPin pin = store.Acquire();
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(
        SameTensorBytes(live_tensors[i], pin.cache()->TensorForTime(probes[i])))
        << "t=" << probes[i];
  }
}

// -- Overlays ----------------------------------------------------------------

TEST_F(StreamingTest, OverlayCloseAndScaleSemantics) {
  const geo::GridSpec grid = TestGrid();
  traffic::TrafficTensorBuilder builder(grid, /*speed_norm_mps=*/10.0);
  nn::Tensor base = builder.Build({{{100, 100}, 0.0, 10.0},   // cell (0,0)
                                   {{500, 500}, 0.0, 10.0}}); // cell (2,2)
  const nn::Tensor before = base;
  const int cols = grid.cols();
  const int64_t cells = grid.num_cells();

  traffic::TrafficOverlay overlay;
  overlay.edits.push_back({traffic::OverlayEdit::Kind::kCloseCells,
                           {0, 0}, {399, 399}, 1.0});
  overlay.edits.push_back({traffic::OverlayEdit::Kind::kScaleSpeed,
                           {400, 400}, {799, 799}, 0.5});
  ASSERT_TRUE(traffic::ValidateOverlay(overlay).ok());
  nn::Tensor edited = traffic::ApplyOverlay(base, grid, overlay);

  // Closed region: speed 0, full observation confidence ("observed, nothing
  // moves" -- not "unobserved").
  EXPECT_FLOAT_EQ(edited[0 * cols + 0], 0.0f);
  EXPECT_FLOAT_EQ(edited[cells + 0 * cols + 0], 1.0f);
  EXPECT_FLOAT_EQ(edited[cells + 1 * cols + 1], 1.0f);  // unobserved but closed
  // Scaled region: speed halved, count untouched.
  EXPECT_FLOAT_EQ(edited[2 * cols + 2], before[2 * cols + 2] * 0.5f);
  EXPECT_FLOAT_EQ(edited[cells + 2 * cols + 2], before[cells + 2 * cols + 2]);
  // The base was never mutated (pinned snapshots stay shared).
  EXPECT_TRUE(SameTensorBytes(base, before));
}

TEST_F(StreamingTest, OverlaySpecGrammar) {
  auto parsed =
      traffic::ParseOverlaySpec("close@0,0,100,100;scale@0,0,400,400*0.7");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().edits.size(), 2u);
  EXPECT_EQ(parsed.value().edits[0].kind,
            traffic::OverlayEdit::Kind::kCloseCells);
  EXPECT_EQ(parsed.value().edits[1].kind,
            traffic::OverlayEdit::Kind::kScaleSpeed);
  EXPECT_DOUBLE_EQ(parsed.value().edits[1].factor, 0.7);

  for (const char* bad :
       {"bogus@0,0,1,1", "close@0,0,1", "close@0,0,1,nope",
        "scale@0,0,1,1", "scale@0,0,1,1*0", "scale@0,0,1,1*11",
        "scale@0,0,1,1*nan", "close@5,5,1,1", ""}) {
    EXPECT_FALSE(traffic::ParseOverlaySpec(bad).ok()) << bad;
  }
}

// -- Serving integration -----------------------------------------------------

eval::World& TestWorld() {
  static eval::World* world = [] {
    eval::WorldConfig cfg = eval::ChengduMiniWorld(0.15);
    cfg.name = "streaming-test-world";
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

core::DeepSTModel& TestModel() {
  static core::DeepSTModel* model = new core::DeepSTModel(
      TestWorld().net(), baselines::DeepStConfigOf(SmallConfig()),
      TestWorld().traffic_cache());
  return *model;
}

// A test trip whose start slot has live traffic, so pinned snapshots (not
// the prior-mean fallback) actually feed the encoder.
const traj::TripRecord& CoveredTrip() {
  static const traj::TripRecord* covered = [] {
    for (const auto* rec : TestWorld().split().test) {
      if (rec->trip.route.size() < 3) continue;
      const core::RouteQuery q = eval::QueryFor(rec->trip);
      if (TestWorld().traffic_cache()->HasObservations(q.start_time_s)) {
        return rec;
      }
    }
    return static_cast<const traj::TripRecord*>(nullptr);
  }();
  EXPECT_NE(covered, nullptr) << "no test trip with traffic coverage";
  return *covered;
}

// Store whose generation 1 clones the world's dataset-seeded cache, the
// same seeding the serve daemon does.
std::unique_ptr<traffic::SnapshotStore> SeededStore() {
  return std::make_unique<traffic::SnapshotStore>(
      TestWorld().traffic_cache()->Clone(), nullptr,
      traffic::SnapshotStoreConfig{});
}

TEST_F(StreamingTest, ServingPinsGenerationAndStampsResults) {
  auto store = SeededStore();
  core::ServingContext serving(&TestModel(), &TestWorld().index(), {},
                               store.get());
  const core::RouteQuery query = eval::QueryFor(CoveredTrip().trip);

  auto before = serving.Predict(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().snapshot_generation, 1u);
  auto again = serving.Predict(query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().route, before.value().route);

  // Feed the query's own window so the swap actually changes its context.
  std::vector<SpeedObservation> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({TestWorld().net().SegmentMidpoint(static_cast<
                        roadnet::SegmentId>(i % TestWorld().net()
                                                    .num_segments())),
                    query.start_time_s - 400.0 - i, 1.0});
  }
  ASSERT_TRUE(store->Ingest(rows).ok());
  EXPECT_EQ(store->SwapNow(), 2u);

  auto after = serving.Predict(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().snapshot_generation, 2u);
  // New generation, new context: the result is deterministic per generation.
  auto after2 = serving.Predict(query);
  ASSERT_TRUE(after2.ok());
  EXPECT_EQ(after2.value().route, after.value().route);
  EXPECT_EQ(serving.stats().queries, 4);
}

TEST_F(StreamingTest, SwapOutsideQueryWindowKeepsResultsBitwise) {
  auto store = SeededStore();
  core::ServingContext serving(&TestModel(), &TestWorld().index(), {},
                               store.get());
  const core::RouteQuery query = eval::QueryFor(CoveredTrip().trip);

  auto before = serving.Predict(query);
  ASSERT_TRUE(before.ok());

  // Rows far in the future: the snapshot changes generation but the query's
  // slot window does not -- its answer must stay bitwise identical.
  ASSERT_TRUE(store->Ingest(MakeRows(5, query.start_time_s + 900000.0)).ok());
  EXPECT_EQ(store->SwapNow(), 2u);

  auto after = serving.Predict(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().route, before.value().route);
  EXPECT_EQ(after.value().snapshot_generation, 2u);
}

bool SameContextBits(const core::PredictionContext& a,
                     const core::PredictionContext& b) {
  return a.has_traffic == b.has_traffic && a.has_dest == b.has_dest &&
         SameTensorBytes(a.traffic_repr, b.traffic_repr) &&
         SameTensorBytes(a.traffic_term, b.traffic_term) &&
         SameTensorBytes(a.dest_repr, b.dest_repr) &&
         SameTensorBytes(a.dest_term, b.dest_term);
}

// Served contexts read the slot's memoized posterior. A cold memo (this
// call encodes), a warm memo (hit) and the unmemoized path (a scale-by-1
// overlay: a bitwise copy of the tensor through the what-if branch, which
// always encodes) must give the same context, routes, scores and rng
// stream, on the model's own cache and on a pinned store generation, with
// MAP and sampled prediction.
TEST_F(StreamingTest, MemoizedPosteriorBitwiseEqualsFreshEncode) {
  const traj::TripRecord& rec = CoveredTrip();
  const core::RouteQuery query = eval::QueryFor(rec.trip);
  traffic::TrafficOverlay identity;
  identity.edits.push_back({traffic::OverlayEdit::Kind::kScaleSpeed,
                            TestWorld().net().bounds().min,
                            TestWorld().net().bounds().max, 1.0});
  const std::vector<traj::Route> candidates = {
      rec.trip.route,
      traj::Route(rec.trip.route.begin(), rec.trip.route.end() - 1)};
  for (bool map_prediction : {true, false}) {
    for (bool pinned : {false, true}) {
      SCOPED_TRACE(testing::Message() << "map_prediction=" << map_prediction
                                      << " pinned=" << pinned);
      core::DeepSTConfig cfg = baselines::DeepStConfigOf(SmallConfig());
      cfg.map_prediction = map_prediction;
      auto own = TestWorld().traffic_cache()->Clone();
      core::DeepSTModel model(TestWorld().net(), cfg, own.get());
      auto store = SeededStore();
      traffic::SnapshotPin pin;
      core::ContextOptions options;
      if (pinned) {
        pin = store->Acquire();
        options.traffic_cache = pin.cache();
      }
      struct Run {
        core::PredictionContext ctx;
        traj::Route route;
        std::vector<double> scores;
        uint64_t next_draw = 0;
      };
      auto run = [&](const core::ContextOptions& opts) {
        Run r;
        util::Rng rng(99);
        r.ctx = model.MakeContext(query, &rng, opts);
        r.route = model.PredictRoute(r.ctx, query.origin, &rng);
        r.scores = model.ScoreRoutes(r.ctx, candidates);
        r.next_draw = rng.NextUint64();
        return r;
      };
      const Run cold = run(options);
      EXPECT_EQ(model.traffic_encode_stats().lookups, 1);
      EXPECT_EQ(model.traffic_encode_stats().encodes, 1);
      const Run warm = run(options);
      EXPECT_EQ(model.traffic_encode_stats().lookups, 2);
      EXPECT_EQ(model.traffic_encode_stats().encodes, 1);
      core::ContextOptions fresh_opts = options;
      fresh_opts.overlay = &identity;
      const Run fresh = run(fresh_opts);
      EXPECT_EQ(model.traffic_encode_stats().lookups, 2);  // bypassed memo
      for (const Run* r : {&warm, &fresh}) {
        EXPECT_TRUE(SameContextBits(cold.ctx, r->ctx));
        EXPECT_EQ(cold.route, r->route);
        ASSERT_EQ(cold.scores.size(), r->scores.size());
        EXPECT_EQ(0, std::memcmp(cold.scores.data(), r->scores.data(),
                                 cold.scores.size() * sizeof(double)));
        EXPECT_EQ(cold.next_draw, r->next_draw);
      }
    }
  }
}

TEST_F(StreamingTest, IngestRequestsThroughServingContext) {
  // Without a store: refused, counted as a failure.
  core::ServingContext static_serving(&TestModel(), &TestWorld().index(), {});
  std::vector<core::ServingRequest> reqs(1);
  reqs[0].kind = core::ServingRequest::Kind::kIngest;
  reqs[0].observations = MakeRows(3, 100.0);
  auto results = static_serving.ExecuteBatch(&reqs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status().code(),
            util::Status::Code::kFailedPrecondition);

  // With a store: the OK result is the durability ack, and co-riding
  // predicts in the same batch are unaffected (they pinned at admission).
  auto store = SeededStore();
  core::ServingContext serving(&TestModel(), &TestWorld().index(), {},
                               store.get());
  const core::RouteQuery query = eval::QueryFor(CoveredTrip().trip);
  auto solo = serving.Predict(query);
  ASSERT_TRUE(solo.ok());

  std::vector<core::ServingRequest> batch(3);
  batch[0].query = query;
  batch[1].kind = core::ServingRequest::Kind::kIngest;
  batch[1].observations = MakeRows(4, 100.0);
  batch[1].observations.push_back({{1, 1}, -3.0, 1.0});  // rejected row
  batch[2].query = query;
  results = serving.ExecuteBatch(&batch);
  ASSERT_EQ(results.size(), 3u);
  for (auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(results[1].value().ingested, 4);
  EXPECT_EQ(results[1].value().ingest_rejected, 1);
  EXPECT_EQ(results[0].value().route, solo.value().route);
  EXPECT_EQ(results[2].value().route, solo.value().route);
  EXPECT_EQ(results[0].value().snapshot_generation, 1u);
  EXPECT_EQ(store->stats().rows_pending, 4);
}

TEST_F(StreamingTest, WhatIfOverlayServesCounterfactuals) {
  auto store = SeededStore();
  core::ServingContext serving(&TestModel(), &TestWorld().index(), {},
                               store.get());
  const core::RouteQuery base_query = eval::QueryFor(CoveredTrip().trip);

  auto reality = serving.Predict(base_query);
  ASSERT_TRUE(reality.ok());
  EXPECT_FALSE(reality.value().what_if);

  core::RouteQuery what_if = base_query;
  what_if.overlay.edits.push_back(
      {traffic::OverlayEdit::Kind::kScaleSpeed,
       TestWorld().net().bounds().min, TestWorld().net().bounds().max, 0.3});
  auto scenario = serving.Predict(what_if);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_TRUE(scenario.value().what_if);
  EXPECT_FALSE(scenario.value().degradations &
               core::kDegradationOverlayDropped);
  // Deterministic: same pinned snapshot + same overlay -> same route.
  auto scenario2 = serving.Predict(what_if);
  ASSERT_TRUE(scenario2.ok());
  EXPECT_EQ(scenario2.value().route, scenario.value().route);
  // The overlay never leaks into reality.
  auto reality2 = serving.Predict(base_query);
  ASSERT_TRUE(reality2.ok());
  EXPECT_EQ(reality2.value().route, reality.value().route);
  EXPECT_FALSE(reality2.value().what_if);

  // Nor into the posterior memo: on a cold generation whose first query is
  // the what-if, the base route and score that follow are still bitwise the
  // base answer (what-if contexts never read or write the memo).
  const traj::Route& truth = CoveredTrip().trip.route;
  auto base_score = serving.ScoreRoute(base_query, truth);
  ASSERT_TRUE(base_score.ok());
  auto cold_store = SeededStore();
  core::ServingContext cold(&TestModel(), &TestWorld().index(), {},
                            cold_store.get());
  const core::TrafficEncodeStats enc0 = TestModel().traffic_encode_stats();
  ASSERT_TRUE(cold.Predict(what_if).ok());
  auto what_if_score = cold.ScoreRoute(what_if, truth);
  ASSERT_TRUE(what_if_score.ok());
  EXPECT_EQ(TestModel().traffic_encode_stats().lookups, enc0.lookups);
  auto cold_reality = cold.Predict(base_query);
  ASSERT_TRUE(cold_reality.ok());
  EXPECT_EQ(cold_reality.value().route, reality.value().route);
  auto cold_score = cold.ScoreRoute(base_query, truth);
  ASSERT_TRUE(cold_score.ok());
  EXPECT_EQ(0, std::memcmp(&cold_score.value().score,
                           &base_score.value().score, sizeof(double)));
  EXPECT_EQ(TestModel().traffic_encode_stats().encodes, enc0.encodes + 1);

  // Malformed overlays are invalid queries, not degradations.
  core::RouteQuery bad = base_query;
  bad.overlay.edits.push_back({traffic::OverlayEdit::Kind::kScaleSpeed,
                               {0, 0}, {100, 100}, -1.0});
  EXPECT_EQ(serving.Predict(bad).status().code(),
            util::Status::Code::kInvalidArgument);

  const core::ServingStats stats = serving.stats();
  EXPECT_EQ(stats.what_if, 2);
  EXPECT_EQ(stats.failures, 1);
}

TEST_F(StreamingTest, OverlayNeverMasksDegradation) {
  auto store = SeededStore();
  // A query far past the feed's latest observation: stale -> prior mean.
  core::RouteQuery stale_query = eval::QueryFor(CoveredTrip().trip);
  stale_query.start_time_s += 30.0 * 24 * 3600.0;
  stale_query.overlay.edits.push_back(
      {traffic::OverlayEdit::Kind::kCloseCells, {0, 0}, {100, 100}, 1.0});

  // Strict refuses the prior-mean fallback BEFORE the overlay is even
  // considered: a counterfactual can never paper over a degraded feed.
  core::ServingConfig strict;
  strict.strict = true;
  core::ServingContext strict_serving(&TestModel(), &TestWorld().index(),
                                      strict, store.get());
  EXPECT_EQ(strict_serving.Predict(stale_query).status().code(),
            util::Status::Code::kFailedPrecondition);

  // Non-strict: serves under the prior mean, drops the overlay, and says so.
  core::ServingContext serving(&TestModel(), &TestWorld().index(), {},
                               store.get());
  auto result = serving.Predict(stale_query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().what_if);
  EXPECT_TRUE(result.value().degradations &
              core::kDegradationTrafficPriorMean);
  EXPECT_TRUE(result.value().degradations &
              core::kDegradationOverlayDropped);
  EXPECT_EQ(serving.stats().overlay_dropped, 1);
  EXPECT_EQ(serving.stats().what_if, 0);
}

// Race the reader fleet against live swaps: every result must be internally
// consistent with the generation it pinned -- one route per generation,
// bit for bit, no matter when the swap landed relative to the query.
TEST_F(StreamingTest, ConcurrentSwapsNeverTearAQuery) {
  auto store = SeededStore();
  core::ServingContext serving(&TestModel(), &TestWorld().index(), {},
                               store.get());
  const core::RouteQuery query = eval::QueryFor(CoveredTrip().trip);

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 12;
  std::vector<std::vector<std::pair<uint64_t, traj::Route>>> seen(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int w = 0; w < kReaders; ++w) {
    readers.emplace_back([&serving, &seen, &query, w] {
      for (int i = 0; i < kQueriesPerReader; ++i) {
        auto result = serving.Predict(query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        seen[static_cast<size_t>(w)].push_back(
            {result.value().snapshot_generation, result.value().route});
      }
    });
  }
  std::thread swapper([&store, &query, &stop] {
    int round = 0;
    while (!stop.load()) {
      std::vector<SpeedObservation> rows;
      for (int i = 0; i < 10; ++i) {
        rows.push_back({{50.0 + 20.0 * i, 50.0 + 10.0 * round},
                        query.start_time_s - 600.0 + round, 2.0 + round % 5});
      }
      (void)store->Ingest(rows);
      store->SwapNow();
      ++round;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& r : readers) r.join();
  stop = true;
  swapper.join();

  std::map<uint64_t, traj::Route> route_of_gen;
  int results = 0;
  for (const auto& per_reader : seen) {
    for (const auto& [gen, route] : per_reader) {
      ++results;
      EXPECT_GE(gen, 1u);
      auto [it, inserted] = route_of_gen.emplace(gen, route);
      if (!inserted) {
        EXPECT_EQ(it->second, route) << "generation " << gen
                                     << " served two different routes";
      }
    }
  }
  EXPECT_EQ(results, kReaders * kQueriesPerReader);
  EXPECT_EQ(store->stats().pinned_readers, 0);
}

}  // namespace
}  // namespace deepst
