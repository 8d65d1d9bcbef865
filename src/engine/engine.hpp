// QueryEngine — snapshot-based concurrent batch query engine.
//
// The paper's headline claim is stage-1 throughput (Figs. 12/14).  This
// engine serves that workload from FlatSnapshots: immutable, manager-free
// freezes of the AP Tree (see snapshot.hpp) published RCU-style.
//
//   readers                 writer (one at a time)
//   -------                 ----------------------
//   s = snapshot()          lock writer mutex
//   s->classify(h) ...      mutate ApClassifier (add/remove predicate,
//   (never blocks,           rule updates, rebuild) — BDD work happens here
//    never sees a           build a fresh FlatSnapshot off to the side
//    half-updated tree)     atomically swap the shared_ptr  (release)
//
// Readers acquire the current snapshot pointer and keep the shared_ptr
// alive for the duration of their batch, so a snapshot retires only after
// its last reader drops it.  Updates therefore never block in-flight
// queries and queries never observe intermediate tree states.  The
// publication slot is a util::SharedSlot (see there for why it is not
// std::atomic<std::shared_ptr>).
//
// classify_batch()/query_batch() fan a vector of headers across a small
// worker pool; every item in one batch is answered from one snapshot, so a
// batch is atomic with respect to updates.  Every batch call, the
// cluster's mixed C/Q batches included, runs one body: answer_batch_on.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "classifier/classifier.hpp"
#include "engine/snapshot.hpp"
#include "util/shared_slot.hpp"
#include "util/task_pool.hpp"

namespace apc::engine {

class QueryEngine {
 public:
  struct Options {
    /// Worker threads for batch fan-out (the calling thread always
    /// participates too).  0 = hardware_concurrency - 1 workers, so total
    /// batch parallelism matches hardware_concurrency — the same "0 means
    /// all cores" convention as every other threads knob in the repo.
    std::size_t num_threads = 0;
    /// Memory budget for each snapshot's (atom x ingress) behavior table:
    /// below it the table is precomputed at publish time, above it cells
    /// fill lazily, 0 turns the table off (behavior_of() walks the
    /// topology).  See FlatSnapshot::Options and docs/architecture.md,
    /// "Query path".
    std::size_t behavior_table_budget = 64u << 20;
    /// Per-snapshot header -> atom cache capacity in slots (~64 bytes per
    /// slot; rounded up to a power of two).  0 disables the cache.
    std::size_t header_cache_capacity = 1u << 15;
    /// Durable snapshot file (empty = off).  At construction a valid file
    /// here is warm-restored — the engine serves queries from it without
    /// paying the freeze/precompute cost — and every publish (including the
    /// initial one) atomically saves the fresh snapshot back.  A missing or
    /// corrupt file falls back to a normal build; a failed save is counted
    /// and tolerated (serving continues).  See snapshot.hpp and
    /// docs/architecture.md, "Fault tolerance & durability".
    std::string snapshot_path;
    /// Ignored: an engine keeps no snapshot but its current one, and the
    /// cluster holds each epoch's snapshots in its own published view
    /// (server/cluster.hpp).  Kept only because the serving benchmark sets
    /// it.
    bool epoch_pin = false;
  };
  /// Headers per work chunk when a batch fans out across the pool; a batch
  /// of at most this many runs inline on the caller.
  static constexpr std::size_t kBatchGrain = 256;

  /// Builds the initial snapshot from `clf`.  The engine keeps a reference:
  /// `clf` must outlive it, and all mutations of `clf` must go through the
  /// engine (or through update()) so they are serialized and republished.
  QueryEngine(ApClassifier& clf, Options opts);
  explicit QueryEngine(ApClassifier& clf) : QueryEngine(clf, Options{}) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // ---- Read side (no locks held while querying) ----
  /// Acquires the current snapshot.  Hold it to answer any number of
  /// queries against one consistent frozen state.
  std::shared_ptr<const FlatSnapshot> snapshot() const { return snap_.load(); }

  AtomId classify(const PacketHeader& h) const { return snapshot()->classify(h); }
  Behavior query(const PacketHeader& h, BoxId ingress) const {
    return snapshot()->query(h, ingress);
  }

  /// Stage-1 classification of a whole batch, fanned across the pool.
  /// The entire batch is answered from a single snapshot.
  std::vector<AtomId> classify_batch(const std::vector<PacketHeader>& hs) const;
  /// Two-stage queries for a whole batch (middlebox-free networks).
  std::vector<Behavior> query_batch(const std::vector<PacketHeader>& hs,
                                    BoxId ingress) const;

  // ---- Caller-pinned read side (the sharded cluster's entry point) ----
  // A batch must never mix snapshot versions, so the cluster pins one view
  // (a snapshot per shard, all of one epoch) and answers the whole batch
  // against one replica's snapshot in it.
  /// The ingress of a classify-only (C) item in answer_batch_on.
  static constexpr BoxId kNoIngress = ~BoxId{0};
  /// The batch body every batch call runs.  Answers items hs[0..n) against
  /// caller-pinned snapshot `s` (which the caller keeps alive): writes each
  /// item's atom to atoms[k] — one FlatSnapshot::classify_into per pool
  /// chunk, so every header is probed in the cache and the misses share
  /// kernel calls — then calls sink(k, b) for each Q item (ingress[k] !=
  /// kNoIngress) with b = FlatSnapshot::behavior_ref(atoms[k], ingress[k]),
  /// the table cell itself (no copy).  The sink runs on pool threads,
  /// concurrently for distinct k.  Q items need a middlebox-free snapshot.
  /// One timer per call: the call lands in `<prefix>.query_batch_seconds`
  /// when it holds a Q item, in `<prefix>.classify_batch_seconds`
  /// otherwise.  A call of at most kBatchGrain items runs inline on the
  /// caller with no heap work (as long as the behavior table is
  /// precomputed).  A worker-task throw reaches the caller.
  template <typename Sink>
  void answer_batch_on(const FlatSnapshot& s, const PacketHeader* hs, const BoxId* ingress,
                       std::size_t n, AtomId* atoms, Sink&& sink) const;
  /// answer_batch_on over C items only, into a fresh vector.  Always
  /// engaged; the optional is kept only for the serving benchmark.
  std::optional<std::vector<AtomId>> try_classify_batch_on(
      const FlatSnapshot& s, const PacketHeader* hs, std::size_t n) const;
  /// answer_batch_on over Q items at one ingress, each Behavior copied into
  /// a fresh vector.  Always engaged, as try_classify_batch_on.
  std::optional<std::vector<Behavior>> try_query_batch_on(
      const FlatSnapshot& s, const PacketHeader* hs, std::size_t n,
      BoxId ingress) const;

  // ---- Write side (serialized; rebuild-and-swap publication) ----
  AddPredicateResult add_predicate(bdd::Bdd p,
                                   PredicateKind kind = PredicateKind::External,
                                   std::optional<PortId> origin = {});
  void remove_predicate(PredId id);
  ApClassifier::RuleUpdateResult insert_fib_rule(BoxId box, const ForwardingRule& r);
  ApClassifier::RuleUpdateResult remove_fib_rule(BoxId box, const ForwardingRule& r);
  ApClassifier::RuleUpdateResult set_input_acl(BoxId box, std::uint32_t port, Acl acl);
  /// Full reconstruction (optionally distribution-aware using the visit
  /// counts accumulated by retired snapshots), then republish.
  void rebuild(std::optional<BuildMethod> method = {}, bool distribution_aware = false);

  /// Applies an arbitrary mutation to the classifier under the writer lock
  /// and republishes.  Use for updates without a dedicated wrapper.
  /// Snapshot visit counts are drained into the classifier *before* `fn`
  /// runs, so a distribution-aware rebuild sees engine traffic and the
  /// counts are folded while atom ids still mean the same thing.
  template <typename Fn>
  auto update(Fn&& fn) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    drain_visits_locked();
    if constexpr (std::is_void_v<decltype(fn(clf_))>) {
      fn(clf_);
      republish_locked();
    } else {
      auto res = fn(clf_);
      republish_locked();
      return res;
    }
  }

  // ---- Introspection ----
  const ApClassifier& classifier() const { return clf_; }
  std::size_t worker_threads() const { return pool_.thread_count(); }
  std::uint64_t publish_count() const {
    return publish_count_.load(std::memory_order_relaxed);
  }
  /// Always 0: every publish is a cold FlatSnapshot::build.  Kept only for
  /// the serving benchmark's `engine.delta_publish_ratio` row.
  const obs::Counter& snapshot_delta_publishes() const {
    static const obs::Counter kNone;
    return kNone;
  }

  // ---- Observability (see src/obs/) ----
  /// Headers answered by classify_batch()/query_batch() since construction.
  /// Monotonic — feed it to obs::QpsMeter for engine-measured throughput.
  const obs::Counter& queries_answered() const { return queries_answered_; }
  /// Seconds since the current snapshot was published.
  double snapshot_age_seconds() const;

  // ---- Durability / degradation introspection ----
  /// Warm restores performed at construction (0 or 1).
  const obs::Counter& snapshot_restores() const { return snapshot_restores_; }
  /// Successful / failed durable snapshot saves.
  const obs::Counter& snapshot_saves() const { return snapshot_saves_; }
  const obs::Counter& snapshot_save_failures() const { return snapshot_save_failures_; }

  /// Registers the engine's metric inventory under `prefix`: batch latency
  /// histograms, batch sizes, publish count/age, pool counters, and the
  /// underlying classifier's metrics (under `<prefix>.classifier`).
  /// Classifier rows are callbacks into non-atomic state — snapshot the
  /// registry only while no update runs.  stats() does that for you.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& prefix = "engine") const;
  /// Full metric snapshot, materialized under the writer lock so callback
  /// metrics never race a concurrent update/rebuild.
  obs::MetricsSnapshot stats() const;

 private:
  /// Folds the current snapshot's visit counters into the classifier
  /// (atom ids are still aligned at this point).  Caller holds writer_mu_.
  void drain_visits_locked();
  /// Builds a fresh snapshot from the classifier and publishes it.
  /// Caller holds writer_mu_.
  void republish_locked();
  /// Saves the current snapshot to Options::snapshot_path (no-op when
  /// unset); failures are counted, never thrown.  Caller holds writer_mu_
  /// (or is the constructor).
  void persist_current_locked();

  ApClassifier& clf_;
  Options opts_;
  mutable util::TaskPool pool_;
  mutable std::mutex writer_mu_;
  util::SharedSlot<const FlatSnapshot> snap_;
  std::atomic<std::uint64_t> publish_count_{0};

  // Batch-granular probes only: one timer + two histogram records per
  // *batch*, never per packet, so the per-query hot path stays untouched.
  mutable obs::LatencyHistogram classify_batch_hist_;  // ns per batch
  mutable obs::LatencyHistogram query_batch_hist_;     // ns per batch
  mutable obs::LatencyHistogram batch_size_hist_;      // headers per batch
  mutable obs::Counter queries_answered_;
  std::atomic<std::int64_t> last_publish_ns_{0};  // steady_clock epoch ns

  // Durability (see Options::snapshot_path).
  obs::Counter snapshot_restores_;
  obs::Counter snapshot_saves_;
  obs::Counter snapshot_save_failures_;
};

template <typename Sink>
void QueryEngine::answer_batch_on(const FlatSnapshot& s, const PacketHeader* hs,
                                  const BoxId* ingress, std::size_t n, AtomId* atoms,
                                  Sink&& sink) const {
  const bool queries =
      std::any_of(ingress, ingress + n, [](BoxId b) { return b != kNoIngress; });
  obs::ScopedTimer timer(queries ? query_batch_hist_ : classify_batch_hist_);
  batch_size_hist_.record(n);
  require(!queries || !s.has_middleboxes(),
          "QueryEngine: middlebox networks need live tree re-search; use "
          "ApClassifier::query/query_probabilistic");
  pool_.parallel_for(n, kBatchGrain, [&](std::size_t first, std::size_t last) {
    s.classify_into(hs + first, last - first, atoms + first);
    Behavior scratch;  // used only when the table is off
    for (std::size_t k = first; k < last; ++k)
      if (ingress[k] != kNoIngress) sink(k, s.behavior_ref(atoms[k], ingress[k], scratch));
  });
  queries_answered_.add(n);
}

}  // namespace apc::engine
