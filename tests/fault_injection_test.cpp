// Chaos tests: arm util::FaultInjector sites and prove every layer turns an
// injected failure into a typed apc::Error plus a recoverable state — no
// crashes, no silent corruption.  The whole suite is compiled only under
// -DAPC_FAULT_INJECTION=ON (the CI `chaos` job); in a production build the
// hooks are inline no-ops and a single smoke test pins that down.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "util/fault_injection.hpp"

#if defined(APC_FAULT_INJECTION)

#include "datasets/datasets.hpp"
#include "engine/engine.hpp"
#include "io/wal.hpp"
#include "util/task_pool.hpp"

namespace apc {
namespace {

using util::FaultInjector;
using util::FaultPlan;

std::string tmp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "apc_fault_" + name + ".bin";
  std::remove(p.c_str());
  return p;
}

class FaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

TEST_F(FaultInjection, WalAppendErrnoIsTypedAndRetryable) {
  const std::string path = tmp_path("enospc");
  io::WalOptions opts;
  opts.retry.base = std::chrono::microseconds{100};  // keep the test fast
  opts.retry.max = std::chrono::microseconds{500};
  io::Wal wal(path, opts);
  wal.append("before");

  // A short ENOSPC burst is absorbed by the retry loop: the append
  // succeeds, the client never sees it, only the retries counter does.
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kErrno;
  plan.err = ENOSPC;
  plan.count = 2;
  FaultInjector::instance().arm("wal.append.write", plan);
  wal.append("survives-burst");
  EXPECT_EQ(wal.retries().value(), 2u);
  EXPECT_FALSE(wal.poisoned());

  // Persistent ENOSPC exhausts the budget and surfaces as typed kIo; the
  // failed frame never reached the log and the Wal stays usable.
  plan.count = 0;  // every hit, forever
  FaultInjector::instance().arm("wal.append.write", plan);
  try {
    wal.append("doomed");
    FAIL() << "expected kIo";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(wal.poisoned());  // write failure is retryable, not poison
  FaultInjector::instance().disarm("wal.append.write");
  wal.append("after");
  std::vector<std::string> records;
  io::Wal reopen(path, io::WalOptions{}, &records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "before");
  EXPECT_EQ(records[1], "survives-burst");
  EXPECT_EQ(records[2], "after");
}

TEST_F(FaultInjection, WalFsyncTransientBurstIsRetriedNotPoisoned) {
  const std::string path = tmp_path("fsync-burst");
  io::WalOptions opts;
  opts.retry.base = std::chrono::microseconds{100};
  opts.retry.max = std::chrono::microseconds{500};
  io::Wal wal(path, opts);

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kErrno;
  plan.err = ENOSPC;
  plan.count = 3;  // within the default 4-retry budget
  FaultInjector::instance().arm("wal.append.fsync", plan);
  wal.append("fsync-retried");  // must NOT throw or poison
  EXPECT_FALSE(wal.poisoned());
  EXPECT_EQ(wal.retries().value(), 3u);

  // Persistent transient-class fsync failure exhausts the budget and THEN
  // poisons — durability of acked records is unknown past that point.
  plan.count = 0;
  FaultInjector::instance().arm("wal.append.fsync", plan);
  EXPECT_THROW(wal.append("doomed"), Error);
  EXPECT_TRUE(wal.poisoned());
  FaultInjector::instance().disarm("wal.append.fsync");
  EXPECT_THROW(wal.append("still-poisoned"), Error);
}

TEST_F(FaultInjection, WalShortWriteRollsBackToRecordBoundary) {
  const std::string path = tmp_path("short");
  io::Wal wal(path, io::WalOptions{});
  wal.append("intact");
  const std::uint64_t clean_size = wal.size_bytes();

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kShortWrite;
  plan.short_bytes = 3;  // frame is torn mid-length-field
  FaultInjector::instance().arm("wal.append.write", plan);
  EXPECT_THROW(wal.append("torn-away"), Error);
  // The torn prefix was truncated away; the log is back at a clean boundary.
  EXPECT_EQ(wal.size_bytes(), clean_size);

  wal.append("next");
  std::vector<std::string> records;
  io::WalRecoveryReport report;
  io::Wal reopen(path, io::WalOptions{}, &records, &report);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "next");
  EXPECT_FALSE(report.torn_tail);  // nothing torn survived on disk
}

TEST_F(FaultInjection, WalGroupWriteFailureRollsBackEveryFrame) {
  const std::string path = tmp_path("group-short");
  io::Wal wal(path, io::WalOptions{});
  wal.append("intact");
  const std::uint64_t clean_size = wal.size_bytes();

  // Tear the group's one write inside its third frame: the two whole
  // frames before the tear must go with it.
  const std::vector<std::string_view> group = {"first", "second", "third", "fourth"};
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kShortWrite;
  plan.short_bytes = 2 * 8 + 5 + 6 + 3;
  FaultInjector::instance().arm("wal.append.write", plan);
  EXPECT_THROW(wal.append(group), Error);
  EXPECT_EQ(wal.size_bytes(), clean_size);
  EXPECT_EQ(wal.records_appended().value(), 1u);

  wal.append(group);
  std::vector<std::string> records;
  io::WalRecoveryReport report;
  io::Wal reopen(path, io::WalOptions{}, &records, &report);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0], "intact");
  for (std::size_t i = 0; i < group.size(); ++i) EXPECT_EQ(records[1 + i], group[i]);
  EXPECT_FALSE(report.torn_tail);
}

TEST_F(FaultInjection, FsyncFailurePoisonsTheLog) {
  const std::string path = tmp_path("fsyncgate");
  io::WalOptions opts;
  opts.fsync_policy = io::FsyncPolicy::kEveryRecord;
  io::Wal wal(path, opts);  // header sync happens before arming

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kErrno;
  plan.err = EIO;
  FaultInjector::instance().arm("wal.append.fsync", plan);
  try {
    wal.append("acked?");
    FAIL() << "expected kIo";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  // After a failed fsync the durability of prior acks is unknown; the log
  // refuses further work instead of pretending (the fsyncgate lesson).
  try {
    wal.append("never");
    FAIL() << "expected kFailedPrecondition";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kFailedPrecondition);
  }
  EXPECT_THROW(wal.sync(), Error);
}

TEST_F(FaultInjection, TaskBoundaryFaultPropagatesFromGroupWait) {
  util::TaskPool pool(2);
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kThrow;
  FaultInjector::instance().arm("taskpool.task", plan);

  util::TaskPool::Group g(pool);
  for (int i = 0; i < 8; ++i) g.run([] {});
  try {
    g.wait();
    FAIL() << "expected kInternal from the injected task fault";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
  // The pool survives: later groups on the same pool run normally.
  FaultInjector::instance().disarm_all();
  std::atomic<int> ran{0};
  util::TaskPool::Group g2(pool);
  for (int i = 0; i < 8; ++i) g2.run([&] { ran.fetch_add(1); });
  g2.wait();
  EXPECT_EQ(ran.load(), 8);
}

TEST_F(FaultInjection, SnapshotSaveFaultDegradesToServing) {
  const auto data = datasets::internet2_like(datasets::Scale::Tiny, 3);
  auto mgr = datasets::Dataset::make_manager();
  ApClassifier clf(data.net, mgr);

  engine::QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.snapshot_path = tmp_path("save_fault");

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kErrno;
  plan.err = ENOSPC;
  FaultInjector::instance().arm("snapshot.save.write", plan);
  engine::QueryEngine eng(clf, opts);
  // The initial publish tried to persist, failed, counted it — and serving
  // is unaffected (the snapshot file is a cache, not the source of truth).
  EXPECT_EQ(eng.snapshot_saves().value(), 0u);
  EXPECT_GE(eng.snapshot_save_failures().value(), 1u);
  const PacketHeader h;
  EXPECT_EQ(eng.classify(h), clf.classify(h));

  // Plan exhausted: the next publish heals the file.
  eng.update([](ApClassifier&) {});
  EXPECT_GE(eng.snapshot_saves().value(), 1u);
}

TEST_F(FaultInjection, WalCreateDirsyncFailurePropagates) {
  // The fresh-log path fsyncs the parent directory so the WAL's own
  // directory entry survives power loss.  A real error there (not
  // EINVAL/EROFS, which unsyncable filesystems return) must surface as a
  // typed kIo at construction — before any record is acknowledged.
  const std::string path = tmp_path("dirsync");
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kErrno;
  plan.err = EIO;
  FaultInjector::instance().arm("wal.create.dirsync", plan);
  try {
    io::Wal wal(path, io::WalOptions{});
    FAIL() << "expected kIo";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  // Plan exhausted: creation succeeds and the log works.
  std::remove(path.c_str());
  io::Wal wal(path, io::WalOptions{});
  wal.append("durable");
  std::vector<std::string> records;
  io::Wal reopen(path, io::WalOptions{}, &records);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "durable");
}

TEST_F(FaultInjection, SnapshotSaveDirsyncFaultCountsAsSaveFailure) {
  // The snapshot save fsyncs the directory after the rename; a failure
  // there means the rename itself may not survive power loss, so the save
  // is reported failed — and, like every snapshot-save failure, serving
  // degrades gracefully (the file is a cache, not the source of truth).
  const auto data = datasets::internet2_like(datasets::Scale::Tiny, 6);
  auto mgr = datasets::Dataset::make_manager();
  ApClassifier clf(data.net, mgr);

  engine::QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.snapshot_path = tmp_path("save_dirsync");

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kErrno;
  plan.err = EIO;
  FaultInjector::instance().arm("snapshot.save.dirsync", plan);
  engine::QueryEngine eng(clf, opts);
  EXPECT_GE(eng.snapshot_save_failures().value(), 1u);
  const PacketHeader h;
  EXPECT_EQ(eng.classify(h), clf.classify(h));

  // Plan exhausted: the next publish persists durably.
  eng.update([](ApClassifier&) {});
  EXPECT_GE(eng.snapshot_saves().value(), 1u);
}

TEST_F(FaultInjection, SnapshotLoadFaultFallsBackToBuild) {
  const auto data = datasets::internet2_like(datasets::Scale::Tiny, 4);
  auto mgr = datasets::Dataset::make_manager();
  ApClassifier clf(data.net, mgr);

  engine::QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.snapshot_path = tmp_path("load_fault");
  { engine::QueryEngine eng(clf, opts); }  // writes a valid snapshot

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kErrno;
  plan.err = EIO;
  FaultInjector::instance().arm("snapshot.load.read", plan);
  engine::QueryEngine eng(clf, opts);
  EXPECT_EQ(eng.snapshot_restores().value(), 0u);  // read failed -> cold build
  const PacketHeader h;
  EXPECT_EQ(eng.classify(h), clf.classify(h));
}

// A worker-task fault inside a batch that fans out across the pool reaches
// the caller of both batch forms as the injected kInternal, and the engine
// answers the next batch normally.
TEST_F(FaultInjection, TaskFaultInBatchReachesTheCaller) {
  const auto data = datasets::internet2_like(datasets::Scale::Tiny, 5);
  auto mgr = datasets::Dataset::make_manager();
  ApClassifier clf(data.net, mgr);

  engine::QueryEngine::Options opts;
  opts.num_threads = 2;
  engine::QueryEngine eng(clf, opts);
  std::vector<PacketHeader> batch(2 * engine::QueryEngine::kBatchGrain);
  const auto snap = eng.snapshot();
  for (int round = 0; round < 3; ++round) {
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kThrow;
    FaultInjector::instance().arm("taskpool.task", plan);
    try {
      if (round == 2)
        (void)eng.try_classify_batch_on(*snap, batch.data(), batch.size());
      else
        (void)eng.classify_batch(batch);
      FAIL() << "round " << round << ": expected kInternal from the injected task fault";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal) << "round " << round;
    }
    FaultInjector::instance().disarm_all();
    EXPECT_EQ(eng.classify_batch(batch).size(), batch.size()) << "round " << round;
  }
}

TEST_F(FaultInjection, SkipAndCountShapeTheFiringWindow) {
  const std::uint64_t before = util::injected_fault_count();
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kThrow;
  plan.skip = 2;   // let two hits through...
  plan.count = 3;  // ...then fire exactly three times
  FaultInjector::instance().arm("taskpool.task", plan);
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += util::fault_fires("taskpool.task") ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(FaultInjector::instance().hits("taskpool.task"), 10u);
  EXPECT_EQ(util::injected_fault_count(), before + 3);
}

}  // namespace
}  // namespace apc

#else  // !APC_FAULT_INJECTION

namespace apc {
namespace {

TEST(FaultInjection, HooksCompileOutToNoOps) {
  std::size_t cap = 42;
  EXPECT_EQ(util::fault_errno("wal.append.write", &cap), 0);
  EXPECT_EQ(cap, 42u);  // untouched
  EXPECT_FALSE(util::fault_fires("taskpool.task"));
  EXPECT_EQ(util::injected_fault_count(), 0u);
}

}  // namespace
}  // namespace apc

#endif  // APC_FAULT_INJECTION
