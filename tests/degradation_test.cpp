// Graceful-degradation tests: resource exhaustion must surface as typed,
// recoverable apc::Error values — a BDD node budget fails the offending
// operation (not the process).
#include <gtest/gtest.h>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"

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

}  // namespace
}  // namespace apc
