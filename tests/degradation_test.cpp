// Graceful-degradation tests: resource exhaustion must surface as typed,
// recoverable apc::Error values — a BDD node budget fails the offending
// operation (not the process), and QueryEngine batch admission sheds load
// with a caller-visible rejection instead of queueing without bound.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

TEST(Degradation, BddNodeBudgetFailsTypedAndManagerSurvives) {
  bdd::BddManager mgr(64);
  EXPECT_EQ(mgr.node_budget(), 0u);  // unlimited by default
  // Room for a handful of nodes only: conjoining many independent variables
  // must eventually trip the budget.
  mgr.set_node_budget(8);
  EXPECT_EQ(mgr.node_budget(), 8u);

  bdd::Bdd acc = mgr.bdd_true();
  bool tripped = false;
  try {
    for (std::uint32_t v = 0; v < 64; ++v) acc = acc & mgr.var(v);
  } catch (const Error& e) {
    tripped = true;
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
    EXPECT_NE(std::string(e.what()).find("node budget"), std::string::npos);
  }
  ASSERT_TRUE(tripped);

  // The manager is still consistent: raising the budget lets work continue,
  // and results built before the trip are intact.
  mgr.set_node_budget(0);
  bdd::Bdd ok = mgr.bdd_true();
  for (std::uint32_t v = 0; v < 64; ++v) ok = ok & mgr.var(v);
  EXPECT_FALSE(ok.is_false());
  EXPECT_FALSE(acc.is_false());  // partial accumulator still valid
}

TEST(Degradation, ClassifierNodeBudgetOptionPropagates) {
  const auto data = datasets::internet2_like(datasets::Scale::Tiny, 2);
  auto mgr = datasets::Dataset::make_manager();
  ApClassifier::Options opts;
  opts.node_budget = 16;  // far below what construction needs
  try {
    ApClassifier clf(data.net, mgr, opts);
    FAIL() << "expected kResourceExhausted during construction";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
  }
  // An adequate budget constructs normally with the same kind of manager.
  auto mgr2 = datasets::Dataset::make_manager();
  ApClassifier::Options roomy;
  roomy.node_budget = 1u << 22;
  ApClassifier clf(data.net, mgr2, roomy);
  EXPECT_GT(clf.atom_count(), 1u);
}

class AdmissionFixture : public ::testing::Test {
 protected:
  AdmissionFixture()
      : data_(datasets::internet2_like(datasets::Scale::Tiny, 6)),
        mgr_(datasets::Dataset::make_manager()),
        clf_(data_.net, mgr_) {
    Rng rng(6);
    const auto reps = datasets::atom_representatives(clf_.atoms(), rng);
    probes_ = datasets::uniform_trace(reps, 20000, rng);
  }

  datasets::Dataset data_;
  std::shared_ptr<bdd::BddManager> mgr_;
  ApClassifier clf_;
  std::vector<PacketHeader> probes_;
};

TEST_F(AdmissionFixture, UnlimitedByDefault) {
  engine::QueryEngine eng(clf_, {});
  EXPECT_EQ(eng.pending_batches(), 0u);
  const auto out = eng.try_classify_batch(probes_);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), probes_.size());
  EXPECT_EQ(eng.batches_rejected().value(), 0u);
}

TEST_F(AdmissionFixture, CapRejectsConcurrentOverload) {
  engine::QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.max_pending_batches = 1;
  engine::QueryEngine eng(clf_, opts);

  // Occupy the single admission slot with a big batch on another thread,
  // then hammer try_classify_batch until a rejection is observed.  Start
  // hammering only once the big batch holds the slot: if this thread took
  // the slot first, the big thread's 50 tries would all be refused within
  // this thread's first batch, and this thread would never be.
  std::atomic<bool> done{false};
  std::thread big([&] {
    for (int i = 0; i < 50; ++i) (void)eng.try_classify_batch(probes_);
    done.store(true);
  });
  while (eng.pending_batches() == 0 && !done.load()) std::this_thread::yield();

  bool rejected = false;
  for (int i = 0; i < 100000 && !rejected; ++i)
    rejected = !eng.try_classify_batch(probes_).has_value();
  big.join();
  EXPECT_TRUE(rejected);
  EXPECT_GE(eng.batches_rejected().value(), 1u);
  // The slot drains: once the load stops, admission works again.
  const auto out = eng.try_classify_batch(probes_);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), probes_.size());
  EXPECT_EQ(eng.pending_batches(), 0u);
}

TEST_F(AdmissionFixture, ThrowingVariantsSignalUnavailable) {
  engine::QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.max_pending_batches = 1;
  engine::QueryEngine eng(clf_, opts);

  std::atomic<bool> stop{false};
  std::atomic<bool> saw_unavailable{false};
  std::thread big([&] {
    while (!stop.load()) (void)eng.try_classify_batch(probes_);
  });
  for (int i = 0; i < 100000 && !saw_unavailable.load(); ++i) {
    try {
      (void)eng.classify_batch(probes_);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnavailable);
      saw_unavailable.store(true);
    }
  }
  stop.store(true);
  big.join();
  EXPECT_TRUE(saw_unavailable.load());

  // Metrics expose the shedding.
  const obs::MetricsSnapshot stats = eng.stats();
  EXPECT_NE(stats.find("engine.batches_rejected"), nullptr);
  EXPECT_NE(stats.find("engine.pending_batches"), nullptr);
}

}  // namespace
}  // namespace apc
