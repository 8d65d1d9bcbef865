// ShardedCluster — N replicated QueryEngine shards behind one
// epoch-consistent publication protocol (see docs/architecture.md,
// "Serving layer & sharding" and "Overload & failure handling").
//
// Sharding model.  Every shard holds a FULL replica of the classifier
// (BddManager + ApClassifier + QueryEngine), so any shard can answer any
// batch.  A GO batch is answered whole by one replica, with one engine
// call: each connection's BatchAnswers carries a cursor that hands its
// batches to the routable shards in turn.  Replicas add no parallelism to
// a batch; they are copies to fail over to.  Rule updates apply to every
// replica; the WAL is partitioned by the rule's OWNER shard
// (shard_of(box)) with a global sequence number in each record, so
// recovery merge-sorts the per-shard files back into the original update
// order.
//
// Epoch-consistent publication.  The cluster publishes one immutable
// PinnedView per epoch through one util::SharedSlot: the epoch, plus one
// snapshot and one engine keep-alive per shard.  An update group applies
// its records to every replica in rotation — each publishes once inside
// one QueryEngine::update — and then swaps in the view built from their
// fresh snapshots; that swap IS the epoch advance.  A group of k updates
// takes epochs E+1..E+k, one per update, but its view carries E+k only:
// the epochs in between are never published, so no reader can pin them.
// Readers (run_batch_into, pin(), shard(i)) take the view with one lock and
// one refcount, so a batch, and its rerun on another replica, is answered
// from one network-wide frozen state even while a group is being applied,
// and a retired epoch's snapshots are freed as soon as its last reader
// drops the view.
//
// Fault containment.  Each shard carries a health state driven by a
// consecutive-failure circuit breaker over its batch/update path:
//
//   healthy --(2 consecutive failures)--> degraded
//   degraded --(5 consecutive failures)--> quarantined
//   any success: degraded -> healthy; quarantine only exits via resync.
//
// A quarantined shard is dropped from pin() and skipped by the batch
// cursor.  A replica that throws on a batch counts a breaker failure, and
// the whole batch reruns on the next routable replica at the SAME pinned
// epoch, with BatchResult::degraded flagged so clients see the service
// quality drop.  A poisoned WAL flips the owner shard read-only: updates owned by it get
// kUnavailable (503) while queries keep serving.  One resync worker thread
// (started by the constructor, joined by the destructor) repairs shards; a
// quarantine or a poisoning only marks the shard and wakes it.  A read-only
// shard gets its WAL rewritten from the in-memory update log, which clears
// the flag; a quarantined shard gets a replica rebuilt offline and spliced
// into the current view, and keeps its WAL unless it is read-only too.
// Failed repairs retry after a jittered delay growing from 10 ms to a
// 500 ms cap, until they succeed or the cluster stops.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classifier/classifier.hpp"
#include "engine/engine.hpp"
#include "io/wal.hpp"
#include "obs/metrics.hpp"
#include "server/protocol.hpp"
#include "util/shared_slot.hpp"

namespace apc::server {

/// Per-shard health, coarsened for routing decisions: degraded still serves
/// (it is a warning trend), quarantined is out of rotation until resync.
enum class ShardState : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

const char* shard_state_name(ShardState s);

class ShardedCluster {
 public:
  struct Options {
    /// Replica count; each connection's batches visit the replicas in turn.
    std::size_t shards = 4;
    /// Per-shard engine knobs.  snapshot_path is cleared — the WAL is the
    /// cluster's durability story; a warm-restored snapshot could predate
    /// the replayed log and serve stale answers.
    engine::QueryEngine::Options engine;
    /// Per-shard classifier knobs.
    ApClassifier::Options classifier;
    /// Directory for the per-shard WALs ("shard<i>.wal"); empty = no
    /// durability (updates live only in memory).
    std::string wal_dir;
    io::WalOptions wal;
  };

  /// Builds `opts.shards` replicas of `net` (in parallel), replays any
  /// existing WALs in global sequence order and starts the resync worker.
  /// `net` is copied: resync rebuilds replicas from it.
  ShardedCluster(const NetworkModel& net, Options opts);
  /// Stops and joins the resync worker, cutting a back-off short.
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  /// The shard whose WAL journals rule updates on `box`.
  std::size_t shard_of(BoxId box) const { return box % shards_.size(); }
  /// The epoch of the published view (never decreases).
  std::uint64_t epoch() const { return view_.load()->epoch; }

  /// One snapshot per shard, all of one epoch: what the cluster publishes.
  /// snaps[i] is null for a shard that was quarantined, or threw, while the
  /// view was built; engines[i] keeps shard i's replica alive for as long
  /// as the view is held, even if a resync swaps it out.
  struct PinnedView {
    std::uint64_t epoch = 0;
    std::vector<std::shared_ptr<const engine::FlatSnapshot>> snaps;
    std::vector<std::shared_ptr<const engine::QueryEngine>> engines;
  };
  /// A copy of the published view, with the snapshot of every shard that
  /// is quarantined now nulled.  Never blocks updates.
  PinnedView pin() const;

  /// One buffered C/Q line awaiting GO.
  struct BatchItem {
    bool is_query = false;  ///< false = classify (C), true = query (Q)
    PacketHeader header;
    BoxId ingress = 0;  ///< queries only
  };
  struct BatchResult {
    std::uint64_t epoch = 0;         ///< the pinned epoch
    std::vector<std::string> lines;  ///< one answer line per item, in order
    /// True when a replica failed the batch and another one answered it.
    bool degraded = false;
  };
  /// A batch's answers in compact form — an atom per item, a
  /// BehaviorSummary per Q item — plus the engine's inputs and the
  /// connection's routing cursor.  Everything keeps its capacity from one
  /// batch to the next, so a connection that reuses one BatchAnswers
  /// answers a steady stream of batches with no heap work
  /// (SteadyStateBatchDoesNotAllocate).  It holds no view between batches,
  /// so an idle connection keeps no snapshot or replica alive.
  class BatchAnswers {
   public:
    std::uint64_t epoch = 0;  ///< the pinned epoch
    bool degraded = false;    ///< as BatchResult::degraded
    /// Answer lines in the batch.
    std::size_t size() const { return atoms_.size(); }
    /// Appends answer line `i` (no newline): "A <atom>" or the
    /// format_behavior_summary line.
    void append_line(std::size_t i, std::string& out) const;

   private:
    friend class ShardedCluster;
    // One entry per item, in input order.
    std::vector<PacketHeader> headers_;
    std::vector<BoxId> ingress_;  ///< QueryEngine::kNoIngress for C items
    std::vector<AtomId> atoms_;
    std::vector<BehaviorSummary> summaries_;  ///< read for Q items only
    /// Where the search for the shard that answers the next batch starts.
    std::size_t next_shard_ = 0;
  };
  /// Why a Q item entering at `ingress` cannot be answered (the ingress
  /// names no box of the network); empty when it can.  The server answers
  /// such a line 400 and leaves it out of the batch.
  std::string check_ingress(BoxId ingress) const;
  /// Executes a mixed batch against ONE published view into `out`, on one
  /// replica with one QueryEngine::answer_batch_on call; each Q answer is
  /// summarized in place from its behavior-table cell.  The replica is the
  /// first shard, from `out`'s cursor on, whose snapshot is in the view and
  /// that is not quarantined; the cursor then moves past it, so one
  /// connection's batches visit the routable shards in turn.  A batch
  /// holding a Q item that check_ingress refuses throws
  /// apc::Error(kInvalidArgument) before any shard runs it, so no breaker
  /// moves.  A replica that throws counts a breaker failure and the whole
  /// batch reruns on the next routable replica (degraded=true); only when
  /// none is left does the call throw apc::Error(kUnavailable).
  void run_batch_into(const std::vector<BatchItem>& items, BatchAnswers& out) const;
  /// run_batch_into on a fresh BatchAnswers (its cursor at shard 0), with
  /// the answers formatted as lines in input order.
  BatchResult run_batch(const std::vector<BatchItem>& items) const;

  /// One A/R line of an update group.
  struct Update {
    bool add = false;
    RuleSpec spec;
  };
  /// What became of one update of a group.
  struct UpdateOutcome {
    std::uint64_t epoch = 0;  ///< the update's own epoch; 0 = refused
    ErrorCode error = ErrorCode::kInternal;  ///< why it was refused
    std::string message;                     ///< ditto, for the reply
    bool applied() const { return epoch != 0; }
  };
  /// Applies a group of FIB updates, in order, under one writer pass:
  ///  1. each record is checked against a replica's FIB plus the records
  ///     accepted before it in the group (box and egress port in range, a
  ///     remove matches a rule); a bad one is refused kInvalidArgument and
  ///     never journaled.  With no replica in rotation every record is
  ///     refused kUnavailable;
  ///  2. a record whose owner shard is read-only is refused kUnavailable;
  ///  3. the rest take global sequence numbers in line order and each
  ///     owner WAL gets one group append (one fsync under kEveryRecord).  A
  ///     failed append refuses that WAL's records only; a poisoned WAL
  ///     flips its shard read-only;
  ///  4. the journaled records take consecutive epochs E+1..E+k in line
  ///     order, each replica in rotation applies all of them inside one
  ///     QueryEngine::update, so it publishes once, and the view of E+k
  ///     built from those snapshots is published.  Readers never pin
  ///     E+1..E+k-1.
  /// `outcomes` gets one entry per record, in order; its capacity is kept.
  void apply_updates(std::span<const Update> group, std::vector<UpdateOutcome>& outcomes);

  /// A group of one: returns the update's epoch or throws the refusal as
  /// apc::Error (kInvalidArgument, kUnavailable, or the WAL's error).
  std::uint64_t add_rule(const RuleSpec& spec);
  std::uint64_t remove_rule(const RuleSpec& spec);

  /// Read access for differential tests: shard i's engine in the published
  /// view.  The returned engine is kept alive by the shared_ptr even across
  /// a concurrent resync swap.
  std::shared_ptr<const engine::QueryEngine> shard(std::size_t i) const {
    return view_.load()->engines[i];
  }

  // ---- Health & fault containment ----
  ShardState shard_state(std::size_t i) const {
    return shards_[i]->state.load(std::memory_order_acquire);
  }
  /// True while the shard's poisoned WAL blocks updates it owns.
  bool shard_read_only(std::size_t i) const {
    return shards_[i]->read_only.load(std::memory_order_acquire);
  }
  /// Forces shard `i` out of rotation and wakes the resync worker, which
  /// rebuilds and re-admits it.  The breaker calls this internally; tests
  /// and operators can call it directly.
  void quarantine_shard(std::size_t i) const;
  /// Completed repairs (WAL rewrites and replica rebuilds) since construction.
  std::uint64_t resyncs() const { return resyncs_.load(std::memory_order_relaxed); }
  /// Repair attempts that failed (each is retried after a back-off).
  std::uint64_t resync_failures() const {
    return resync_failures_.load(std::memory_order_relaxed);
  }
  /// Batches that a replica failed and another answered (degraded replies).
  std::uint64_t reroutes() const { return reroutes_.load(std::memory_order_relaxed); }

  /// Aggregated metric snapshot: cluster rows (epoch, shards,
  /// updates_applied, shard_state, resyncs, wal.retries, the update-group
  /// size and time histograms, WAL records skipped at recovery) plus every
  /// shard's
  /// health/WAL rows and engine inventory under "shard<i>.".  Materialized
  /// under the update lock so callback rows never race a mutation.  The
  /// shard<i>.batch_us.{p50,p99,count} rows come from a lifetime
  /// obs::LatencyHistogram of the shard's batch service time: count is every
  /// batch it answered since construction, the percentiles carry the
  /// histogram's <= 2x bucket error, and an idle shard reports zeros.
  obs::MetricsSnapshot stats() const;

  /// Updates applied (add + remove) since construction.
  std::uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

 private:
  /// The swappable compute core of a shard.  Resync builds a replacement
  /// offline and swaps the shared_ptr; readers of an older view keep the
  /// old one alive through PinnedView::engines.  Member order matters: the
  /// engine references the classifier which references the manager, so
  /// destruction must run engine-first (reverse declaration order).
  struct Replica {
    std::shared_ptr<bdd::BddManager> mgr;
    std::unique_ptr<ApClassifier> clf;
    std::unique_ptr<engine::QueryEngine> engine;
  };

  struct Shard {
    std::shared_ptr<Replica> replica;  ///< guarded by update_mu_
    std::unique_ptr<io::Wal> wal;      ///< guarded by update_mu_
    /// Service time (ns) of each batch this shard answered.
    obs::LatencyHistogram batch_ns;
    std::atomic<ShardState> state{ShardState::kHealthy};
    std::atomic<std::size_t> failures{0};  ///< consecutive, breaker input
    std::atomic<bool> read_only{false};    ///< poisoned WAL: refuse updates
  };

  /// One replayed/journaled update, kept in memory so resync can rebuild a
  /// replica without touching other shards' WAL files.  Guarded by
  /// update_mu_.
  struct LogRecord {
    std::uint64_t seq = 0;
    bool add = false;
    RuleSpec spec;
  };

  void note_shard_success(std::size_t i) const;
  void note_shard_failure(std::size_t i) const;
  /// A replica of net_ with `log` replayed; the caller builds its engine.
  std::shared_ptr<Replica> build_replica(std::span<const LogRecord> log) const;
  /// Takes worker_mu_, so callers may hold update_mu_ (never the reverse).
  void wake_worker() const;
  void resync_worker();
  // The two repairs; each throws on failure and leaves the shard as it was.
  void rewrite_wal(std::size_t i);      ///< read-only: new WAL, flag cleared
  void rebuild_replica(std::size_t i);  ///< quarantined: new replica, re-admitted

  Options opts_;
  NetworkModel net_;  ///< resync rebuilds replicas from this copy
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Serializes update groups and the resync worker's repairs: the one
  /// writer of the replicas, their WALs and view_.
  mutable std::mutex update_mu_;
  /// The published view; stored only under update_mu_.
  util::SharedSlot<const PinnedView> view_;
  /// Global update sequence embedded in WAL records (guarded by update_mu_).
  std::uint64_t next_seq_ = 1;
  /// Full update history (replayed + applied), for resync (update_mu_).
  std::vector<LogRecord> update_log_;
  std::atomic<std::uint64_t> updates_applied_{0};
  /// Records per apply_updates call, and its time under update_mu_ (ns).
  obs::LatencyHistogram update_group_size_;
  obs::LatencyHistogram update_group_ns_;
  /// WAL records that failed the update check at recovery and were skipped.
  std::uint64_t wal_records_skipped_ = 0;

  std::atomic<std::uint64_t> resyncs_{0};
  std::atomic<std::uint64_t> resync_failures_{0};
  std::atomic<std::uint64_t> wal_poisonings_{0};
  // Moved by the const batch path (the breaker quarantines from it).
  mutable std::atomic<std::uint64_t> reroutes_{0};
  mutable std::atomic<std::uint64_t> quarantines_{0};
  // ---- the resync worker ----
  mutable std::mutex worker_mu_;
  mutable std::condition_variable worker_cv_;
  mutable bool wake_ = false;  ///< a repair may be owed (worker_mu_)
  bool stopping_ = false;      ///< set by the destructor (worker_mu_)
  std::thread worker_;         ///< started last in the constructor
};

}  // namespace apc::server
