// Concurrency regression tests.  These are the tests the TSan CI job runs:
//  - classify() from many threads with track_visits on (the counters used to
//    be a plain vector written from a const method — a data race),
//  - QueryEngine updates racing classify_batch() readers (RCU snapshot swap).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "engine/engine.hpp"
#include "packet/ipv4.hpp"
#include "util/rng.hpp"

namespace apc {
namespace {

using datasets::Dataset;
using datasets::Scale;
using engine::QueryEngine;

TEST(Concurrency, ConstClassifyIsThreadSafeWithVisitTracking) {
  Dataset data = datasets::internet2_like(Scale::Tiny, 11);
  auto mgr = Dataset::make_manager();
  ApClassifier::Options opts;
  opts.track_visits = true;
  ApClassifier clf(data.net, mgr, opts);

  Rng rng(12);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  const auto trace = datasets::uniform_trace(reps, 512, rng);

  // Expected answers, computed single-threaded up front.
  std::vector<AtomId> expect;
  expect.reserve(trace.size());
  for (const PacketHeader& h : trace) expect.push_back(clf.classify(h));
  const std::uint64_t warmup = trace.size();

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r)
        for (std::size_t i = 0; i < trace.size(); ++i)
          if (clf.classify(trace[i]) != expect[i])
            mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Every classify bumped exactly one counter: no lost updates.
  std::uint64_t total = 0;
  for (const std::uint64_t c : clf.visit_counts()) total += c;
  EXPECT_EQ(total, warmup + std::uint64_t(kThreads) * kRounds * trace.size());
}

TEST(Concurrency, EngineUpdatesRaceBatchReaders) {
  Dataset data = datasets::internet2_like(Scale::Tiny, 13);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(data.net, mgr);

  Rng rng(14);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  // Longer than one work chunk, so every batch fans out across the pool.
  const auto trace = datasets::uniform_trace(reps, 600, rng);

  QueryEngine::Options opts;
  opts.num_threads = 2;
  QueryEngine eng(clf, opts);
  ASSERT_GT(trace.size(), QueryEngine::kBatchGrain);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};

  // Readers: hammer classify_batch continuously.  Each batch must be
  // internally consistent (one snapshot), even while the writer churns.
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = eng.snapshot();
        const auto atoms = eng.classify_batch(trace);
        ASSERT_EQ(atoms.size(), trace.size());
        for (const AtomId a : atoms)
          ASSERT_LT(a, snap->atom_capacity() + 1024);  // plausible id range
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: predicate add/remove churn plus FIB updates through the engine.
  constexpr int kChurns = 20;
  for (int i = 0; i < kChurns; ++i) {
    const auto res = eng.add_predicate(
        clf.manager().equals(HeaderLayout::kDstPort, 16,
                             std::uint64_t(20000 + i)));
    ForwardingRule rule;
    rule.dst = parse_prefix(i % 2 ? "10.200.0.0/16" : "10.201.0.0/16");
    rule.egress_port = 0;
    eng.insert_fib_rule(BoxId(i % data.net.topology.box_count()), rule);
    eng.remove_predicate(res.pred_id);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(batches.load(), 0u);

  // Convergence: after the churn settles the engine answers exactly like
  // the classifier it wraps.
  Rng rng2(15);
  const auto reps2 = datasets::atom_representatives(clf.atoms(), rng2);
  for (std::size_t i = 0; i < reps2.headers.size(); ++i)
    ASSERT_EQ(eng.classify(reps2.headers[i]), clf.classify(reps2.headers[i]));
}

TEST(Concurrency, SnapshotOutlivesRepublish) {
  Dataset data = datasets::internet2_like(Scale::Tiny, 17);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(data.net, mgr);
  QueryEngine::Options opts;
  opts.num_threads = 1;
  QueryEngine eng(clf, opts);

  Rng rng(18);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);

  // Hold the initial snapshot across several republishes; it must keep
  // answering from the frozen (pre-update) world.
  const auto held = eng.snapshot();
  std::vector<AtomId> before;
  before.reserve(reps.headers.size());
  for (const PacketHeader& h : reps.headers) before.push_back(held->classify(h));

  for (int i = 0; i < 5; ++i)
    eng.add_predicate(
        clf.manager().equals(HeaderLayout::kProto, 8, std::uint64_t(40 + i)));

  for (std::size_t i = 0; i < reps.headers.size(); ++i)
    ASSERT_EQ(before[i], held->classify(reps.headers[i]));
  EXPECT_NE(held.get(), eng.snapshot().get());
}

TEST(Concurrency, HeaderCacheAndLazyTableFillUnderChurn) {
  // Hammers the two lock-free query-path structures from many threads at
  // once while the writer republishes: a deliberately tiny header cache
  // (heavy slot contention -> constant seqlock claim/overwrite races) and a
  // lazy behavior table (concurrent first-touch CAS fills).  Every answer
  // must still equal the same snapshot's pure-walk oracle.  This is a TSan
  // CI target: the seqlock and CAS protocols must be provably race-free.
  Dataset data = datasets::internet2_like(Scale::Tiny, 23);
  auto mgr = Dataset::make_manager();
  ApClassifier clf(data.net, mgr);

  Rng rng(24);
  const auto reps = datasets::atom_representatives(clf.atoms(), rng);
  // Longer than one work chunk, so query_batch fans out across the pool.
  const auto wt =
      datasets::zipf_trace(reps, clf.atoms().capacity(), 600, rng, 1.0);
  const auto& trace = wt.packets;
  const std::size_t boxes = data.net.topology.box_count();

  QueryEngine::Options opts;
  opts.num_threads = 2;
  opts.header_cache_capacity = 256;  // tiny: force slot collisions
  // Cell pointers fit comfortably, full behaviors do not -> lazy mode, so
  // readers race to publish cells.
  opts.behavior_table_budget =
      clf.atoms().capacity() * boxes * sizeof(void*) * 2;
  QueryEngine eng(clf, opts);
  ASSERT_EQ(eng.snapshot()->behavior_table_mode(),
            engine::FlatSnapshot::BehaviorTableMode::kLazy);
  ASSERT_GT(trace.size(), QueryEngine::kBatchGrain);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rounds{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::size_t box = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = eng.snapshot();
        for (std::size_t i = 0; i < trace.size(); ++i) {
          const AtomId a = snap->classify(trace[i]);
          ASSERT_EQ(a, snap->classify_walk(trace[i]));
          if (i % 16 == 0) {
            const BoxId ingress = static_cast<BoxId>(box++ % boxes);
            const Behavior table = snap->behavior_of(a, ingress);
            const Behavior walk = snap->behavior_walk(a, ingress);
            ASSERT_EQ(table.edges.size(), walk.edges.size());
            ASSERT_EQ(table.drops.size(), walk.drops.size());
            ASSERT_EQ(table.deliveries.size(), walk.deliveries.size());
          }
        }
        (void)eng.query_batch(trace, 0);
        rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr int kChurns = 10;
  for (int i = 0; i < kChurns; ++i) {
    const auto res = eng.add_predicate(clf.manager().equals(
        HeaderLayout::kDstPort, 16, std::uint64_t(30000 + i)));
    ForwardingRule rule;
    rule.dst = parse_prefix(i % 2 ? "10.210.0.0/16" : "10.211.0.0/16");
    rule.egress_port = 0;
    eng.insert_fib_rule(BoxId(i % boxes), rule);
    eng.remove_predicate(res.pred_id);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(rounds.load(), 0u);

  // Drive one deterministic pass through the (freshly republished) final
  // snapshot: cold then warm, so both cache counters must move.
  const auto snap = eng.snapshot();
  for (const PacketHeader& h : trace) (void)snap->classify(h);
  for (const PacketHeader& h : trace) (void)snap->classify(h);
  EXPECT_GT(snap->header_cache_misses(), 0u);
  EXPECT_GT(snap->header_cache_hits(), 0u);
}

}  // namespace
}  // namespace apc
