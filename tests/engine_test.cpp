// Tests for the snapshot-based query engine: FlatSnapshot must be an exact
// functional freeze of the classifier (stage 1 and middlebox-free stage 2,
// byte-identical behaviors), batches must equal single queries, and the RCU
// republish must track every update.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "engine/snapshot.hpp"
#include "io/network_io.hpp"
#include "packet/ipv4.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

using datasets::Dataset;
using datasets::Scale;
using engine::FlatSnapshot;
using engine::QueryEngine;

struct World {
  Dataset data;
  std::shared_ptr<bdd::BddManager> mgr = Dataset::make_manager();
  ApClassifier clf;
  std::vector<PacketHeader> trace;

  explicit World(std::uint64_t seed = 7,
                 ApClassifier::Options opts = ApClassifier::Options{})
      : data(datasets::internet2_like(Scale::Tiny, seed)),
        clf(data.net, mgr, opts) {
    Rng rng(seed * 31 + 1);
    const auto reps = datasets::atom_representatives(clf.atoms(), rng);
    trace = datasets::uniform_trace(reps, 300, rng);
  }
};

void expect_same_behavior(const Behavior& a, const Behavior& b,
                          const char* what) {
  ASSERT_EQ(a.edges.size(), b.edges.size()) << what;
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].box, b.edges[i].box) << what << " edge " << i;
    EXPECT_EQ(a.edges[i].out_port, b.edges[i].out_port) << what << " edge " << i;
    EXPECT_EQ(a.edges[i].to, b.edges[i].to) << what << " edge " << i;
  }
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size()) << what;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i)
    EXPECT_EQ(a.deliveries[i], b.deliveries[i]) << what << " delivery " << i;
  ASSERT_EQ(a.drops.size(), b.drops.size()) << what;
  for (std::size_t i = 0; i < a.drops.size(); ++i) {
    EXPECT_EQ(a.drops[i].box, b.drops[i].box) << what << " drop " << i;
    EXPECT_EQ(a.drops[i].reason, b.drops[i].reason) << what << " drop " << i;
  }
  EXPECT_EQ(a.loop_detected, b.loop_detected) << what;
}

TEST(FlatSnapshot, ClassifyMatchesTreeExactly) {
  World w;
  const auto snap = FlatSnapshot::build(w.clf);
  for (const PacketHeader& h : w.trace) {
    std::size_t tree_evals = 0, flat_evals = 0;
    const AtomId expect = w.clf.classify_counted(h, tree_evals);
    const AtomId got = snap->classify_counted(h, flat_evals);
    ASSERT_EQ(expect, got);
    // Same tree shape frozen: the flat walk evaluates the same predicates.
    EXPECT_EQ(tree_evals, flat_evals);
  }
}

TEST(FlatSnapshot, QueryBehaviorsAreByteIdentical) {
  World w;
  const auto snap = FlatSnapshot::build(w.clf);
  for (BoxId ingress = 0; ingress < w.data.net.topology.box_count(); ++ingress) {
    for (std::size_t i = 0; i < w.trace.size(); i += 7) {
      const Behavior expect = w.clf.query(w.trace[i], ingress);
      const Behavior got = snap->query(w.trace[i], ingress);
      expect_same_behavior(expect, got, "query");
    }
  }
}

TEST(FlatSnapshot, FrozenStateSurvivesManagerGc) {
  World w;
  const auto snap = FlatSnapshot::build(w.clf);
  std::vector<AtomId> before;
  for (const PacketHeader& h : w.trace) before.push_back(snap->classify(h));
  // Snapshots hold no manager references: a full GC (which reclaims every
  // unrooted node and clears caches) must not disturb them.
  w.mgr->gc();
  for (std::size_t i = 0; i < w.trace.size(); ++i)
    ASSERT_EQ(before[i], snap->classify(w.trace[i]));
}

TEST(FlatSnapshot, RejectsMiddleboxQueries) {
  World w;
  Middlebox mb;
  mb.box = 0;
  w.clf.attach_middlebox(std::move(mb));
  const auto snap = FlatSnapshot::build(w.clf);
  EXPECT_TRUE(snap->has_middleboxes());
  EXPECT_NO_THROW(snap->classify(w.trace[0]));  // stage 1 is always fine
  EXPECT_THROW(snap->query(w.trace[0], 0), Error);
}

TEST(QueryEngine, BatchMatchesSingleQueries) {
  World w;
  QueryEngine::Options opts;
  opts.num_threads = 3;
  QueryEngine eng(w.clf, opts);
  ASSERT_GT(w.trace.size(), QueryEngine::kBatchGrain) << "the batch must fan out";

  const auto atoms = eng.classify_batch(w.trace);
  ASSERT_EQ(atoms.size(), w.trace.size());
  for (std::size_t i = 0; i < w.trace.size(); ++i)
    ASSERT_EQ(atoms[i], w.clf.classify(w.trace[i]));

  const auto behaviors = eng.query_batch(w.trace, 0);
  ASSERT_EQ(behaviors.size(), w.trace.size());
  for (std::size_t i = 0; i < w.trace.size(); ++i)
    expect_same_behavior(w.clf.query(w.trace[i], 0), behaviors[i], "batch");

  EXPECT_TRUE(eng.classify_batch({}).empty());
}

// The mixed form against the stage-1 and stage-2 oracles: batches of C
// items and Q items at every ingress, answered by one answer_batch_on each,
// must give classify_walk's atom for every item and behavior_walk's
// behavior for every Q item (and no sink call for a C item) — with the
// behavior table precomputed, lazy and off, on a FIB-dominated and an
// ACL-heavy input.  Batch lengths below and above kBatchGrain cover the
// inline path and the pool fan-out, and each batch runs twice, so a lazy
// table answers cold and warm.
TEST(QueryEngine, MixedBatchMatchesWalksAtEveryIngress) {
  for (int input = 0; input < 2; ++input) {
    const Dataset data = input == 0 ? datasets::internet2_like(Scale::Tiny, 7)
                                    : datasets::stanford_like(Scale::Tiny, 11);
    auto mgr = Dataset::make_manager();
    ApClassifier clf(data.net, mgr);
    Rng rng(41 + input);
    const auto reps = datasets::atom_representatives(clf.atoms(), rng);
    const std::vector<PacketHeader> trace = datasets::uniform_trace(reps, 300, rng);
    ASSERT_GT(trace.size(), QueryEngine::kBatchGrain);
    const auto boxes = static_cast<BoxId>(data.net.topology.box_count());
    // Every third item is a C item; the rest are Q items cycling through
    // every ingress.
    std::vector<BoxId> ingress(trace.size());
    for (std::size_t k = 0; k < trace.size(); ++k)
      ingress[k] = k % 3 == 0 ? QueryEngine::kNoIngress : static_cast<BoxId>(k % boxes);
    // A budget that holds the cell array but no behaviors leaves the
    // table lazy.
    const std::size_t lazy_budget =
        clf.atoms().capacity() * boxes * sizeof(void*) + 64;
    using Mode = FlatSnapshot::BehaviorTableMode;
    for (const Mode mode : {Mode::kPrecomputed, Mode::kLazy, Mode::kDisabled}) {
      SCOPED_TRACE(::testing::Message() << "input " << input << " table mode "
                                        << static_cast<int>(mode));
      QueryEngine::Options opts;
      opts.num_threads = 2;
      if (mode == Mode::kLazy) opts.behavior_table_budget = lazy_budget;
      if (mode == Mode::kDisabled) opts.behavior_table_budget = 0;
      QueryEngine eng(clf, opts);
      const auto snap = eng.snapshot();
      ASSERT_EQ(snap->behavior_table_mode(), mode);
      for (const std::size_t n : {std::size_t{1}, std::size_t{16}, std::size_t{64},
                                  trace.size()}) {
        for (int pass = 0; pass < 2; ++pass) {
          std::vector<AtomId> atoms(n, ~AtomId{0});
          std::vector<Behavior> got(n);
          std::vector<int> calls(n, 0);
          eng.answer_batch_on(*snap, trace.data(), ingress.data(), n, atoms.data(),
                              [&](std::size_t k, const Behavior& b) {
                                got[k] = b;
                                ++calls[k];
                              });
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(atoms[k], snap->classify_walk(trace[k])) << "item " << k;
            if (ingress[k] == QueryEngine::kNoIngress) {
              EXPECT_EQ(calls[k], 0) << "C item " << k;
            } else {
              ASSERT_EQ(calls[k], 1) << "Q item " << k;
              expect_same_behavior(snap->behavior_walk(atoms[k], ingress[k]), got[k],
                                   "mixed");
            }
          }
        }
      }
    }
  }
}

// A call with a Q item lands in query_batch_seconds, one with only C items
// in classify_batch_seconds: one timer per call, whatever its mix.
TEST(QueryEngine, MixedBatchLandsInOneHistogram) {
  World w;
  QueryEngine eng(w.clf);
  const auto snap = eng.snapshot();
  std::vector<BoxId> ingress(8, QueryEngine::kNoIngress);
  std::vector<AtomId> atoms(ingress.size());
  const auto none = [](std::size_t, const Behavior&) {};
  eng.answer_batch_on(*snap, w.trace.data(), ingress.data(), ingress.size(), atoms.data(),
                      none);
  auto rows = eng.stats();
  EXPECT_EQ(rows.find("engine.classify_batch_seconds.count")->value, 1.0);
  EXPECT_EQ(rows.find("engine.query_batch_seconds.count")->value, 0.0);
  ingress[5] = 0;
  eng.answer_batch_on(*snap, w.trace.data(), ingress.data(), ingress.size(), atoms.data(),
                      none);
  rows = eng.stats();
  EXPECT_EQ(rows.find("engine.classify_batch_seconds.count")->value, 1.0);
  EXPECT_EQ(rows.find("engine.query_batch_seconds.count")->value, 1.0);
  EXPECT_EQ(rows.find("engine.queries_answered")->value, 16.0);
}

// Readers of the mixed form race republishes: each pins the current
// snapshot, answers a mixed batch from it, and checks every answer against
// that snapshot's own walks, while the writer inserts and removes a rule.
TEST(QueryEngine, MixedBatchReadersRaceRepublishes) {
  World w;
  QueryEngine::Options opts;
  opts.num_threads = 2;
  QueryEngine eng(w.clf, opts);
  ASSERT_GT(w.trace.size(), QueryEngine::kBatchGrain) << "the batch must fan out";
  const auto boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  std::vector<BoxId> ingress(w.trace.size());
  for (std::size_t k = 0; k < ingress.size(); ++k)
    ingress[k] = k % 2 == 0 ? QueryEngine::kNoIngress : static_cast<BoxId>(k % boxes);

  std::atomic<bool> stop{false};
  std::atomic<int> batches{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<AtomId> atoms(w.trace.size());
      std::vector<Behavior> got(w.trace.size());
      while (!stop.load(std::memory_order_acquire)) {
        const auto snap = eng.snapshot();
        eng.answer_batch_on(*snap, w.trace.data(), ingress.data(), w.trace.size(),
                            atoms.data(),
                            [&](std::size_t k, const Behavior& b) { got[k] = b; });
        for (std::size_t k = 0; k < w.trace.size(); ++k) {
          if (atoms[k] != snap->classify_walk(w.trace[k])) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          } else if (ingress[k] != QueryEngine::kNoIngress &&
                     !(got[k] == snap->behavior_walk(atoms[k], ingress[k]))) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  ForwardingRule rule;
  rule.dst = parse_prefix("10.77.0.0/16");
  rule.egress_port = 0;
  for (int round = 0; round < 8; ++round) {
    eng.insert_fib_rule(0, rule);
    eng.remove_fib_rule(0, rule);
  }
  while (batches.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(eng.publish_count(), 17u);
}

TEST(QueryEngine, UpdatesRepublishAndStayConsistent) {
  World w;
  QueryEngine::Options opts;
  opts.num_threads = 2;
  QueryEngine eng(w.clf, opts);
  const auto first = eng.snapshot();
  const std::uint64_t publishes0 = eng.publish_count();

  // Predicate add: snapshot must be swapped and agree with the classifier.
  const auto res = eng.add_predicate(
      w.mgr->equals(HeaderLayout::kDstPort, 16, 4242));
  EXPECT_GT(eng.publish_count(), publishes0);
  EXPECT_NE(eng.snapshot().get(), first.get());

  // The retained old snapshot still answers from the pre-update world.
  Rng rng(99);
  const auto reps = datasets::atom_representatives(w.clf.atoms(), rng);
  for (std::size_t i = 0; i < reps.headers.size(); ++i) {
    ASSERT_EQ(eng.classify(reps.headers[i]), w.clf.classify(reps.headers[i]));
    ASSERT_EQ(reps.atom_ids[i], eng.classify(reps.headers[i]));
  }

  // Rule-level update and predicate removal keep engine == classifier.
  ForwardingRule rule;
  rule.dst = parse_prefix("10.77.0.0/16");
  rule.egress_port = 0;
  eng.insert_fib_rule(0, rule);
  eng.remove_predicate(res.pred_id);
  eng.rebuild();
  Rng rng2(100);
  const auto reps2 = datasets::atom_representatives(w.clf.atoms(), rng2);
  for (std::size_t i = 0; i < reps2.headers.size(); ++i) {
    ASSERT_EQ(eng.classify(reps2.headers[i]), w.clf.classify(reps2.headers[i]));
    expect_same_behavior(w.clf.query(reps2.headers[i], 0),
                         eng.query(reps2.headers[i], 0), "post-update");
  }
}

TEST(QueryEngine, SnapshotVisitCountsDrainIntoClassifier) {
  ApClassifier::Options copts;
  copts.track_visits = true;
  World w(7, copts);
  QueryEngine::Options opts;
  opts.num_threads = 2;
  QueryEngine eng(w.clf, opts);

  const auto snap = eng.snapshot();
  EXPECT_TRUE(snap->tracks_visits());
  (void)eng.classify_batch(w.trace);

  std::uint64_t in_snapshot = 0;
  for (const std::uint64_t c : snap->visit_counts()) in_snapshot += c;
  EXPECT_EQ(in_snapshot, w.trace.size());

  // Republish (any update) folds the snapshot's counters into the
  // classifier, where distribution-aware rebuilds read them.
  eng.add_predicate(w.mgr->equals(HeaderLayout::kProto, 8, 17));
  std::uint64_t in_classifier = 0;
  for (const std::uint64_t c : w.clf.visit_counts()) in_classifier += c;
  EXPECT_EQ(in_classifier, w.trace.size());
}

TEST(QueryEngine, InlinePoolStillAnswersBatches) {
  World w;
  QueryEngine::Options opts;
  opts.num_threads = 0;  // resolves to hardware default; may be 0 workers
  QueryEngine eng(w.clf, opts);
  const auto atoms = eng.classify_batch(w.trace);
  for (std::size_t i = 0; i < w.trace.size(); ++i)
    ASSERT_EQ(atoms[i], w.clf.classify(w.trace[i]));
}

TEST(QueryEngine, DefaultThreadsFollowHardwareConvention) {
  // Regression: num_threads = 0 silently capped the pool at 8 workers.  The
  // repo-wide convention is "0 = hardware_concurrency": the pool gets
  // hw - 1 workers so the calling thread completes the set, uncapped.
  World w;
  QueryEngine eng(w.clf);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t expect = hw > 0 ? hw - 1 : 0;
  EXPECT_EQ(eng.worker_threads(), expect);

  // Explicit requests are honored as given, even above the old cap.
  World w2;
  QueryEngine::Options opts;
  opts.num_threads = 11;
  QueryEngine eng2(w2.clf, opts);
  EXPECT_EQ(eng2.worker_threads(), 11u);
}

TEST(QueryEngine, StatsRoundTripUnderConcurrentUpdates) {
  // Acceptance criterion: stats().to_json() round-trips the full metric
  // inventory while batch queries and rebuilds run concurrently.
  World w;
  QueryEngine::Options opts;
  opts.num_threads = 2;
  QueryEngine eng(w.clf, opts);

  std::atomic<bool> stop{false};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)eng.classify_batch(w.trace);
      (void)eng.query_batch(w.trace, 0);
    }
  });
  std::thread updater([&] {
    for (int i = 0; i < 3; ++i) {
      eng.rebuild();
      const obs::MetricsSnapshot mid = eng.stats();  // concurrent with batches
      EXPECT_FALSE(mid.rows.empty());
    }
  });
  updater.join();
  stop.store(true, std::memory_order_release);
  querier.join();

  // The snapshot's rows must cover the registry's declared inventory
  // exactly, and the JSON must mention every row by name.
  obs::MetricsRegistry reg;
  eng.register_metrics(reg);
  const std::vector<std::string> inventory = reg.names();
  const obs::MetricsSnapshot snap = eng.stats();
  ASSERT_EQ(snap.rows.size(), inventory.size());
  const std::string json = snap.to_json();
  for (const std::string& name : inventory) {
    ASSERT_NE(snap.find(name), nullptr) << name;
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos) << name;
  }

  // Exercised metrics carry the expected values.
  EXPECT_GE(snap.find("engine.queries_answered")->value,
            static_cast<double>(2 * w.trace.size()));
  EXPECT_DOUBLE_EQ(snap.find("engine.publish_count")->value, 4.0);  // ctor + 3
  EXPECT_GT(snap.find("engine.classify_batch_seconds.count")->value, 0.0);
  EXPECT_GT(snap.find("engine.query_batch_seconds.count")->value, 0.0);
  EXPECT_GT(snap.find("engine.batch_size.max")->value, 0.0);
  EXPECT_GT(snap.find("engine.classifier.atoms")->value, 0.0);
  EXPECT_GT(snap.find("engine.classifier.bdd.nodes_created")->value, 0.0);
  EXPECT_GE(snap.find("engine.snapshot_age_seconds")->value, 0.0);
  EXPECT_DOUBLE_EQ(snap.find("engine.classifier.rebuilds")->value, 3.0);
  // The program-depth row reads the published program's longest walk.
  ASSERT_NE(snap.find("engine.snapshot.program_max_steps"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("engine.snapshot.program_max_steps")->value,
                   static_cast<double>(eng.snapshot()->program()->max_steps()));
  EXPECT_GT(snap.find("engine.snapshot.program_max_steps")->value, 0.0);
}

/// A ring a -> b -> c -> a that reaches every branch of the stage-2 walk:
/// a forwarding loop (10.9/16), an input-ACL drop (10.1.7/24 into c), an
/// output-ACL drop (10.2.5/24 out of hb), a multicast fan-out at b (the
/// group to c and hb) that the output ACL trims for sources in 10.66/16,
/// and no-rule drops for everything else.
constexpr const char* kEveryBranchNet = R"(
box a
box b
box c
link a b
link b c
link c a
hostport a ha
hostport b hb
hostport c hc
fib a 10.1.0.0/16 0
fib b 10.1.0.0/16 1
fib c 10.1.0.0/16 2
fib a 10.2.0.0/16 0
fib b 10.2.0.0/16 2
fib a 10.9.0.0/16 0
fib b 10.9.0.0/16 1
fib c 10.9.0.0/16 1
mcast a 224.0.1.0/32 0
mcast b 224.0.1.0/32 1 2
mcast c 224.0.1.0/32 2
acl in c 0 default permit
aclrule in c 0 deny src 0.0.0.0/0 dst 10.1.7.0/24 sport 0-65535 dport 0-65535 proto any
acl out b 2 default permit
aclrule out b 2 deny src 0.0.0.0/0 dst 10.2.5.0/24 sport 0-65535 dport 0-65535 proto any
aclrule out b 2 deny src 10.66.0.0/16 dst 224.0.1.0/32 sport 0-65535 dport 0-65535 proto any
)";

TEST(FlatSnapshot, BehaviorTableMatchesOracleExhaustively) {
  // Differential sweep over every (atom, ingress) cell, on a middlebox-free
  // FIB-dominated dataset, an ACL-heavy one, and kEveryBranchNet: the
  // snapshot's walk, the precomputed table, the lazy table (first touch +
  // cached re-read), and the disabled-table walk must all be byte-identical
  // to the live classifier's behavior_of (compute_behavior).
  for (int input = 0; input < 3; ++input) {
    SCOPED_TRACE(input);
    const NetworkModel net =
        input == 0   ? datasets::internet2_like(Scale::Tiny, 21).net
        : input == 1 ? datasets::stanford_like(Scale::Tiny, 21).net
                     : io::read_network_string(kEveryBranchNet);
    auto mgr = Dataset::make_manager();
    ApClassifier clf(net, mgr);
    const std::size_t boxes = net.topology.box_count();

    FlatSnapshot::Options pre;  // default budget: precomputed at build time
    FlatSnapshot::Options lazy;
    // Cell pointers fit, the behavior estimate does not -> lazy fill.
    lazy.behavior_table_budget =
        clf.atoms().capacity() * boxes * sizeof(void*) + 64;
    FlatSnapshot::Options off;
    off.behavior_table_budget = 0;

    const auto sp = FlatSnapshot::build(clf, pre);
    const auto sl = FlatSnapshot::build(clf, lazy);
    const auto sd = FlatSnapshot::build(clf, off);
    ASSERT_EQ(sp->behavior_table_mode(),
              FlatSnapshot::BehaviorTableMode::kPrecomputed);
    ASSERT_EQ(sl->behavior_table_mode(), FlatSnapshot::BehaviorTableMode::kLazy);
    ASSERT_EQ(sd->behavior_table_mode(),
              FlatSnapshot::BehaviorTableMode::kDisabled);

    const auto alive = clf.atoms().alive_ids();
    ASSERT_FALSE(alive.empty());
    // The eager build already filled every live cell.
    EXPECT_EQ(sp->behavior_table_fills(), alive.size() * boxes);
    EXPECT_EQ(sl->behavior_table_fills(), 0u);

    std::size_t loops = 0, in_acl_drops = 0, out_acl_drops = 0, fan_outs = 0;
    for (BoxId ingress = 0; ingress < boxes; ++ingress) {
      for (const AtomId atom : alive) {
        const Behavior oracle = clf.behavior_of(atom, ingress);
        expect_same_behavior(oracle, sd->behavior_walk(atom, ingress), "walk");
        expect_same_behavior(oracle, sp->behavior_of(atom, ingress),
                             "precomputed");
        expect_same_behavior(oracle, sl->behavior_of(atom, ingress),
                             "lazy first touch");
        expect_same_behavior(oracle, sl->behavior_of(atom, ingress),
                             "lazy cached");
        expect_same_behavior(oracle, sd->behavior_of(atom, ingress),
                             "disabled");
        loops += oracle.loop_detected;
        fan_outs += oracle.deliveries.size() > 1;
        for (const Drop& d : oracle.drops) {
          in_acl_drops += d.reason == Drop::Reason::InputAcl;
          out_acl_drops += d.reason == Drop::Reason::OutputAcl;
        }
      }
    }
    // The lazy sweep filled exactly the touched cells, once each.
    EXPECT_EQ(sl->behavior_table_fills(), alive.size() * boxes);
    if (input == 2) {  // the hand-built input reached every branch
      EXPECT_GT(loops, 0u);
      EXPECT_GT(in_acl_drops, 0u);
      EXPECT_GT(out_acl_drops, 0u);
      EXPECT_GT(fan_outs, 0u);
    }
  }
}

TEST(FlatSnapshot, MemoryBytesCountsAcceleratorBlocks) {
  World w;
  FlatSnapshot::Options off;
  off.behavior_table_budget = 0;
  const auto bare = FlatSnapshot::build(w.clf, off);

  FlatSnapshot::Options on;  // default table budget
  const auto full = FlatSnapshot::build(w.clf, on);
  // The table cells and published behaviors must be visible in the
  // accounting.
  EXPECT_GT(full->memory_bytes(), bare->memory_bytes());

  // Lazy fills grow the accounted footprint as cells publish.
  FlatSnapshot::Options lazy;
  lazy.behavior_table_budget =
      w.clf.atoms().capacity() * w.data.net.topology.box_count() *
          sizeof(void*) +
      64;
  const auto sl = FlatSnapshot::build(w.clf, lazy);
  const std::size_t before = sl->memory_bytes();
  (void)sl->behavior_of(w.clf.atoms().alive_ids().front(), 0);
  EXPECT_GT(sl->memory_bytes(), before);

  // The visit-counter block is part of the footprint too.
  ApClassifier::Options copts;
  copts.track_visits = true;
  World wv(7, copts);
  const auto sv = FlatSnapshot::build(wv.clf, off);
  const auto sn = FlatSnapshot::build(w.clf, off);
  EXPECT_GE(sv->memory_bytes(),
            sn->memory_bytes() +
                sv->atom_capacity() * sizeof(std::uint64_t));
}

TEST(QueryEngine, QpsMeterMeasuresBatchThroughput) {
  World w;
  QueryEngine eng(w.clf, QueryEngine::Options{});
  obs::QpsMeter meter(eng.queries_answered());
  (void)eng.classify_batch(w.trace);
  const double qps = meter.sample();
  EXPECT_GT(qps, 0.0);
}

}  // namespace
}  // namespace apc
