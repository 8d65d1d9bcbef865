// ShardedCluster — N replicated QueryEngine shards behind one
// epoch-consistent publication protocol (see docs/architecture.md,
// "Serving layer & sharding" and "Overload & failure handling").
//
// Sharding model.  Every shard holds a FULL replica of the classifier
// (BddManager + ApClassifier + QueryEngine); queries are routed to
// shard_of(ingress) = ingress % shards, so each shard's header cache and
// visit counters specialize to its share of the ingress boxes while
// correctness never depends on the routing (any shard could answer any
// query).  Rule updates apply to every replica; the WAL is
// partitioned by the rule's OWNER shard (shard_of(box)) with a global
// sequence number in each record, so recovery merge-sorts the per-shard
// files back into the original update order.
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
// one refcount, so a batch fanned across shards is answered from one
// network-wide frozen state even while a group is being applied, and a
// retired epoch's snapshots are freed as soon as its last reader drops the
// view.
//
// Fault containment.  Each shard carries a health state driven by a
// consecutive-failure circuit breaker over its batch/update path:
//
//   healthy --(breaker_degrade_after failures)--> degraded
//   degraded --(breaker_quarantine_after failures)--> quarantined
//   any success: degraded -> healthy; quarantine only exits via resync.
//
// A quarantined shard is dropped from pin()/classify round-robin; queries
// homed on it are answered by a healthy replica at the SAME pinned epoch
// (full replication makes every shard an oracle) with
// BatchResult::degraded flagged so clients see the service quality drop.
// A background resync thread rebuilds the replica offline from the network
// model + the in-memory update log, replaces the shard's WAL (dropping any
// unacknowledged record a poisoned append left behind), republishes the
// current view with the new replica's first snapshot, and re-admits the
// shard — retrying the whole attempt under Options::resync_backoff.  A
// poisoned WAL additionally flips the owner shard read-only: updates owned
// by it are refused with kUnavailable (503) while queries keep serving;
// resync clears the flag.
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
#include "util/backoff.hpp"
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
    /// Replica count; queries route by ingress % shards.
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
    /// Consecutive batch/update failures before a shard is marked degraded.
    std::size_t breaker_degrade_after = 2;
    /// Consecutive failures before quarantine + background resync.  Must be
    /// >= breaker_degrade_after.
    std::size_t breaker_quarantine_after = 5;
    /// Retry schedule for resync attempts before giving up (the shard then
    /// stays quarantined; a later quarantine_shard() call retries).
    util::BackoffPolicy resync_backoff{std::chrono::milliseconds{10},
                                       std::chrono::milliseconds{500},
                                       2.0, 0.25, 6};
  };

  /// Builds `opts.shards` replicas of `net` (in parallel, one thread per
  /// shard) and replays any existing WALs in global sequence order.  `net`
  /// is copied (resync rebuilds replicas from it long after construction).
  ShardedCluster(const NetworkModel& net, Options opts);
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(BoxId ingress) const { return ingress % shards_.size(); }
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
    BoxId ingress = 0;  ///< queries only; also the routing key
  };
  struct BatchResult {
    std::uint64_t epoch = 0;         ///< the pinned epoch
    std::vector<std::string> lines;  ///< one answer line per item, in order
    /// True when any item was answered away from its home shard (the home
    /// was quarantined, or failed mid-batch and the items were rerouted).
    bool degraded = false;
  };
  /// A batch's answers in compact form — an atom per C item, a
  /// BehaviorSummary per Q item — plus run_batch_into's scratch: the
  /// per-shard slices.  Everything keeps its capacity from one batch to the
  /// next, so a connection that reuses one BatchAnswers answers a steady
  /// stream of batches with no heap work (SteadyStateBatchDoesNotAllocate).
  /// It holds no view between batches, so an idle connection keeps no
  /// snapshot or replica alive.
  class BatchAnswers {
   public:
    std::uint64_t epoch = 0;  ///< the pinned epoch
    bool degraded = false;    ///< as BatchResult::degraded
    /// Answer lines in the batch.
    std::size_t size() const { return answers_.size(); }
    /// Appends answer line `i` (no newline): "A <atom>" or the
    /// format_behavior_summary line.
    void append_line(std::size_t i, std::string& out) const;

   private:
    friend class ShardedCluster;
    struct Answer {
      bool is_query = false;
      AtomId atom = 0;          ///< C items
      BehaviorSummary summary;  ///< Q items
    };
    std::vector<Answer> answers_;  ///< one per item, in input order
    std::vector<std::size_t> healthy_;  ///< routable shards, ascending
    std::vector<std::vector<std::size_t>> slice_ix_;  ///< item indices per shard
    // One slice's engine inputs and atoms.
    std::vector<PacketHeader> headers_;
    std::vector<BoxId> ingress_;  ///< QueryEngine::kNoIngress for C items
    std::vector<AtomId> atoms_;
  };
  /// Why a Q item entering at `ingress` cannot be answered (the ingress
  /// names no box of the network); empty when it can.  The server answers
  /// such a line 400 and leaves it out of the batch.
  std::string check_ingress(BoxId ingress) const;
  /// Executes a mixed batch against ONE published view into `out`: items
  /// are grouped by the shards whose snapshot is in the view and that are
  /// not quarantined (C items round-robin, Q items by shard_of(ingress)),
  /// each shard's slice is one QueryEngine::try_answer_batch_on call, and
  /// each Q answer is summarized in place from its behavior-table cell.
  /// A batch holding a Q item that check_ingress refuses throws
  /// apc::Error(kInvalidArgument) before any shard runs it, so no breaker
  /// moves.  A shard that sheds or throws trips its breaker and the batch is
  /// rerouted to a healthy replica (degraded=true); only when no healthy
  /// replica remains does the call throw apc::Error(kUnavailable).
  void run_batch_into(const std::vector<BatchItem>& items, BatchAnswers& out) const;
  /// run_batch_into, with the answers formatted as lines in input order.
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
  /// Forces shard `i` out of rotation and kicks the background resync
  /// (idempotent while one is already running).  The breaker calls this
  /// internally; tests and operators can call it directly.
  void quarantine_shard(std::size_t i) const;
  /// Completed resyncs (shards re-admitted) since construction.
  std::uint64_t resyncs() const { return resyncs_.load(std::memory_order_relaxed); }
  /// Resync attempts that failed (the shard stayed quarantined that round).
  std::uint64_t resync_failures() const {
    return resync_failures_.load(std::memory_order_relaxed);
  }
  /// Batches that needed rerouting away from a shard (degraded replies).
  std::uint64_t reroutes() const { return reroutes_.load(std::memory_order_relaxed); }

  /// Aggregated metric snapshot: cluster rows (epoch, shards,
  /// updates_applied, shard_state, resyncs, wal.retries, the update-group
  /// size and time histograms, WAL records skipped at recovery) plus every
  /// shard's
  /// health/WAL rows and engine inventory under "shard<i>.".  Materialized
  /// under the update lock so callback rows never race a mutation.  The
  /// shard<i>.batch_us.{p50,p99,count} rows come from a lifetime
  /// obs::LatencyHistogram of the shard's slice service time: count is every
  /// slice served since construction, the percentiles carry the
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
    /// Service time (ns) of each batch slice this shard executed.
    obs::LatencyHistogram batch_ns;
    std::atomic<ShardState> state{ShardState::kHealthy};
    std::atomic<std::size_t> failures{0};  ///< consecutive, breaker input
    std::atomic<bool> read_only{false};    ///< poisoned WAL: refuse updates
    std::atomic<bool> resync_active{false};
  };

  /// One replayed/journaled update, kept in memory so resync can rebuild a
  /// replica without touching other shards' WAL files.  Guarded by
  /// update_mu_.
  struct LogRecord {
    std::uint64_t seq = 0;
    bool add = false;
    RuleSpec spec;
  };

  /// Runs shard `slice`'s share of the batch on executing shard `exec`'s
  /// snapshot in `view`.  Returns false on shed/exception.
  bool execute_slice(const PinnedView& view, std::size_t exec, std::size_t slice,
                     const std::vector<BatchItem>& items, BatchAnswers& out) const;
  void note_shard_success(std::size_t i) const;
  void note_shard_failure(std::size_t i) const;
  void resync_loop(std::size_t i) const;
  /// One full resync attempt; throws on failure (caller backs off).
  void resync_once(std::size_t i) const;

  Options opts_;
  NetworkModel net_;  ///< resync rebuilds replicas from this copy
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Serializes update groups and resync splice-in: the one writer of the
  /// replicas, their WALs and view_.
  mutable std::mutex update_mu_;
  /// The published view; stored only under update_mu_ (mutable: the const
  /// resync republishes it).
  mutable util::SharedSlot<const PinnedView> view_;
  /// Global update sequence embedded in WAL records (guarded by update_mu_).
  std::uint64_t next_seq_ = 1;
  /// Full update history (replayed + applied), for resync (update_mu_).
  mutable std::vector<LogRecord> update_log_;
  std::atomic<std::uint64_t> updates_applied_{0};
  /// Records per apply_updates call, and its time under update_mu_ (ns).
  obs::LatencyHistogram update_group_size_;
  obs::LatencyHistogram update_group_ns_;
  /// WAL records that failed the update check at recovery and were skipped.
  std::uint64_t wal_records_skipped_ = 0;

  // ---- resync machinery (mutable: quarantine is logically const) ----
  mutable std::mutex resync_mu_;
  mutable std::vector<std::thread> resync_threads_;  ///< guarded by resync_mu_
  mutable std::mutex stop_mu_;
  mutable std::condition_variable stop_cv_;
  mutable std::atomic<bool> stopping_{false};
  mutable std::atomic<std::uint64_t> resyncs_{0};
  mutable std::atomic<std::uint64_t> resync_failures_{0};
  mutable std::atomic<std::uint64_t> reroutes_{0};
  mutable std::atomic<std::uint64_t> quarantines_{0};
  mutable std::atomic<std::uint64_t> wal_poisonings_{0};
};

}  // namespace apc::server
