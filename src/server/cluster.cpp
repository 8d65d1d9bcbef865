#include "server/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "io/line_parse.hpp"
#include "util/fault_injection.hpp"
#include "util/stats.hpp"

namespace apc::server {

namespace {

/// WAL record: "<seq> <A|R> fib <box> <prefix> <port> <prio>".  The global
/// sequence number lets recovery merge the per-shard files back into the
/// original total order.
std::string make_record(std::uint64_t seq, bool add, const RuleSpec& spec) {
  RuleSpec canon = spec;
  if (canon.rule.priority < 0)
    canon.rule.priority = canon.rule.effective_priority();
  return std::to_string(seq) + ' ' + format_rule(add, canon);
}

struct ReplayRecord {
  std::uint64_t seq = 0;
  bool add = false;
  RuleSpec spec;
};

ReplayRecord parse_record(std::string_view rec, std::size_t recno) {
  const std::size_t sp = rec.find(' ');
  if (sp == std::string_view::npos) io::parse_fail(recno, "WAL record missing sequence");
  ReplayRecord out;
  std::uint64_t seq = 0;
  const std::string_view seq_tok = rec.substr(0, sp);
  // Sequence numbers are 64-bit; parse_uint is 32-bit-bounded, so parse by
  // hand with the same strictness (digits only, no overflow past 2^63).
  // A wrapped sequence would tie with a real one in the replay sort.
  constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << 63;
  if (seq_tok.empty()) io::parse_fail(recno, "empty sequence");
  for (const char c : seq_tok) {
    if (c < '0' || c > '9')
      io::parse_fail(recno, "bad sequence '" + std::string(seq_tok) + "'");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (seq > (kMaxSeq - digit) / 10)
      io::parse_fail(recno, "sequence '" + std::string(seq_tok) + "' past 2^63");
    seq = seq * 10 + digit;
  }
  out.seq = seq;
  Request req;
  if (!parse_request(rec.substr(sp + 1), recno, req) ||
      (req.kind != RequestKind::kAddRule && req.kind != RequestKind::kRemoveRule))
    io::parse_fail(recno, "WAL record is not a rule update");
  out.add = req.kind == RequestKind::kAddRule;
  out.spec = req.rule;
  return out;
}

void apply_record(ApClassifier& clf, bool add, const RuleSpec& spec) {
  if (add)
    clf.insert_fib_rule(spec.box, spec.rule);
  else
    clf.remove_fib_rule(spec.box, spec.rule);
}

/// Why `u` cannot apply to a network with topology `topo` and FIBs `fibs`
/// once the updates in `earlier` (accepted before it, not yet in `fibs`)
/// have; empty when it can.  The same check guards the live path and WAL
/// recovery, so no record that would fail on a replica is ever journaled
/// or replayed.
std::string check_update(const Topology& topo, const std::vector<Fib>& fibs,
                         const ShardedCluster::Update& u,
                         std::span<const ShardedCluster::Update> earlier) {
  const BoxId box = u.spec.box;
  const ForwardingRule& rule = u.spec.rule;
  if (box >= topo.box_count())
    return "box " + std::to_string(box) + " out of range (" +
           std::to_string(topo.box_count()) + " boxes)";
  if (rule.egress_port >= topo.box(box).ports.size())
    return "egress port " + std::to_string(rule.egress_port) + " out of range on box " +
           std::to_string(box) + " (" + std::to_string(topo.box(box).ports.size()) +
           " ports)";
  if (u.add) return {};
  // A remove pops one instance, so it needs a live copy: the FIB's plus
  // the group's adds, minus the group's removes.
  std::ptrdiff_t live = 0;
  if (box < fibs.size())
    live = std::count_if(fibs[box].rules.begin(), fibs[box].rules.end(),
                         [&](const ForwardingRule& r) { return r.same_entry(rule); });
  for (const ShardedCluster::Update& e : earlier)
    if (e.spec.box == box && e.spec.rule.same_entry(rule)) live += e.add ? 1 : -1;
  if (live > 0) return {};
  return "no rule " + format_rule(false, u.spec).substr(2) + " to remove";
}

}  // namespace

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kHealthy: return "healthy";
    case ShardState::kDegraded: return "degraded";
    case ShardState::kQuarantined: return "quarantined";
  }
  return "unknown";
}

void ShardedCluster::BatchAnswers::append_line(std::size_t i, std::string& out) const {
  const Answer& a = answers_[i];
  if (a.is_query)
    append_behavior_summary(out, a.summary);
  else
    append_classify_answer(out, a.atom);
}

ShardedCluster::ShardedCluster(const NetworkModel& net, Options opts)
    : opts_(std::move(opts)), net_(net) {
  require(opts_.shards > 0, "ShardedCluster: zero shards");
  require(opts_.breaker_degrade_after > 0 &&
              opts_.breaker_quarantine_after >= opts_.breaker_degrade_after,
          "ShardedCluster: breaker thresholds must satisfy 0 < degrade <= quarantine");
  // The consistency protocol depends on retiring snapshots staying
  // resolvable by epoch while a publication walks the shards.
  opts_.engine.epoch_pin = true;
  opts_.engine.snapshot_path.clear();  // see Options::engine
  shards_.resize(opts_.shards);

  // Open the per-shard WALs first (serially: cheap, and recovery reports
  // compose deterministically), collecting surviving records.
  std::vector<std::string> raw;
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    shards_[i] = std::make_unique<Shard>();
    if (!opts_.wal_dir.empty()) {
      std::vector<std::string> recs;
      shards_[i]->wal = std::make_unique<io::Wal>(
          opts_.wal_dir + "/shard" + std::to_string(i) + ".wal", opts_.wal, &recs);
      raw.insert(raw.end(), recs.begin(), recs.end());
    }
  }
  std::vector<ReplayRecord> replay;
  replay.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    replay.push_back(parse_record(raw[i], i + 1));
  std::sort(replay.begin(), replay.end(),
            [](const ReplayRecord& a, const ReplayRecord& b) { return a.seq < b.seq; });
  for (const ReplayRecord& r : replay) next_seq_ = std::max(next_seq_, r.seq + 1);
  // Run the live path's update check over the merged history on a working
  // copy of the FIBs: a record that fails it (journaled before the check
  // existed) would fail on every replica, so it is skipped and counted.
  std::vector<Fib> fibs = net_.fibs;
  fibs.resize(std::max(fibs.size(), net_.topology.box_count()));
  std::erase_if(replay, [&](const ReplayRecord& r) {
    const Update u{r.add, r.spec};
    if (!check_update(net_.topology, fibs, u, {}).empty()) {
      ++wal_records_skipped_;
      return true;
    }
    std::vector<ForwardingRule>& rules = fibs[r.spec.box].rules;
    if (r.add)
      rules.push_back(r.spec.rule);
    else
      rules.erase(std::find_if(rules.begin(), rules.end(), [&](const ForwardingRule& q) {
        return q.same_entry(r.spec.rule);
      }));
    return false;
  });
  update_log_.reserve(replay.size());
  for (const ReplayRecord& r : replay) update_log_.push_back({r.seq, r.add, r.spec});

  // Build the replicas in parallel — each shard's BDD manager, classifier,
  // WAL replay, and initial snapshot are independent of every other
  // shard's.  Replay happens on the classifier BEFORE the engine exists, so
  // the initial publish (epoch 0) already reflects the whole journal.
  std::vector<std::thread> builders;
  std::vector<std::exception_ptr> errors(opts_.shards);
  builders.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    builders.emplace_back([&, i] {
      try {
        auto rep = std::make_shared<Replica>();
        rep->mgr = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
        rep->clf = std::make_unique<ApClassifier>(net_, rep->mgr, opts_.classifier);
        for (const ReplayRecord& r : replay) apply_record(*rep->clf, r.add, r.spec);
        rep->engine = std::make_unique<engine::QueryEngine>(*rep->clf, opts_.engine);
        shards_[i]->replica = std::move(rep);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : builders) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  updates_applied_.store(replay.size(), std::memory_order_relaxed);
}

ShardedCluster::~ShardedCluster() {
  stopping_.store(true, std::memory_order_release);
  {
    // Pair with the wait_for predicate so no resync sleeper misses the flag.
    std::lock_guard<std::mutex> lock(stop_mu_);
  }
  stop_cv_.notify_all();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(resync_mu_);
    threads.swap(resync_threads_);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
}

std::shared_ptr<ShardedCluster::Replica> ShardedCluster::replica_ref(
    std::size_t i) const {
  std::lock_guard<std::mutex> lock(swap_mu_);
  return shards_[i]->replica;
}

std::shared_ptr<const engine::QueryEngine> ShardedCluster::replica_engine(
    std::size_t i) const {
  std::shared_ptr<Replica> rep = replica_ref(i);
  // Aliasing ctor: the engine pointer rides on the replica's lifetime, so a
  // concurrent resync swap cannot free it under the caller.
  return std::shared_ptr<const engine::QueryEngine>(rep, rep->engine.get());
}

ShardedCluster::PinnedView ShardedCluster::pin() const {
  PinnedView view;
  pin_into(view);
  return view;
}

void ShardedCluster::pin_into(PinnedView& view) const {
  // Loop until one epoch is resolvable on every non-quarantined shard.  At
  // any instant those shards hold epochs {E, E+1} for the cluster epoch E,
  // and epoch_pin keeps a shard's E snapshot alive after it publishes E+1
  // until epoch_ reads E+1 — so the only way a round fails is a full
  // publication completing mid-scan, which just means the next round pins
  // the newer epoch.
  for (;;) {
    view.epoch = epoch();
    view.snaps.assign(shards_.size(), nullptr);
    view.engines.assign(shards_.size(), nullptr);
    bool ok = true;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->state.load(std::memory_order_acquire) ==
          ShardState::kQuarantined)
        continue;  // out of rotation; run_batch reroutes its traffic
      auto eng = replica_engine(i);
      auto s = eng->snapshot_at(view.epoch);
      if (!s) {
        ok = false;
        break;
      }
      view.snaps[i] = std::move(s);
      view.engines[i] = std::move(eng);
    }
    if (ok) return;  // possibly with zero shards: every one quarantined
    std::this_thread::yield();
  }
}

bool ShardedCluster::execute_slice(std::size_t exec, std::size_t slice,
                                   const std::vector<BatchItem>& items,
                                   BatchAnswers& out) const {
  const std::vector<std::size_t>& ix = out.slice_ix_[slice];
  out.headers_.clear();
  out.ingress_.clear();
  for (const std::size_t i : ix) {
    out.headers_.push_back(items[i].header);
    out.ingress_.push_back(items[i].is_query ? items[i].ingress
                                             : engine::QueryEngine::kNoIngress);
  }
  out.atoms_.resize(ix.size());
  try {
    // One engine call for the whole slice; each Q answer is summarized
    // straight from its behavior-table cell.
    if (!out.view_.engines[exec]->try_answer_batch_on(
            *out.view_.snaps[exec], out.headers_.data(), out.ingress_.data(), ix.size(),
            out.atoms_.data(), [&out, &ix](std::size_t k, const Behavior& b) {
              out.answers_[ix[k]].summary = BehaviorSummary::of(b);
            }))
      return false;  // shed
  } catch (const std::exception&) {
    return false;  // breaker input; the caller reroutes or throws
  }
  for (std::size_t k = 0; k < ix.size(); ++k) out.answers_[ix[k]].atom = out.atoms_[k];
  return true;
}

std::string ShardedCluster::check_ingress(BoxId ingress) const {
  const std::size_t boxes = net_.topology.box_count();
  if (ingress < boxes) return {};
  return "ingress " + std::to_string(ingress) + " out of range (" +
         std::to_string(boxes) + " boxes)";
}

void ShardedCluster::run_batch_into(const std::vector<BatchItem>& items,
                                    BatchAnswers& out) const {
  // A bad item is the caller's error, not a shard's: refuse the batch
  // before any slice runs, or every replica would fail it in turn.
  for (const BatchItem& item : items) {
    if (!item.is_query) continue;
    const std::string why = check_ingress(item.ingress);
    if (!why.empty())
      throw Error(ErrorCode::kInvalidArgument, "cluster: query refused: " + why);
  }
  PinnedView& view = out.view_;
  // Unpinned on every way out, keeping the vectors' capacity: a pinned view
  // left behind would keep its snapshots (and a resynced-away replica)
  // alive until the connection's next GO.
  struct Unpin {
    PinnedView& v;
    ~Unpin() {
      v.snaps.clear();
      v.engines.clear();
    }
  } const unpin{view};
  pin_into(view);
  out.epoch = view.epoch;
  out.degraded = false;
  out.answers_.resize(items.size());

  std::vector<std::size_t>& healthy = out.healthy_;  // shards with a pinned snapshot
  healthy.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i)
    if (view.snaps[i]) healthy.push_back(i);
  if (healthy.empty())
    throw Error(ErrorCode::kUnavailable, "cluster: every shard is quarantined");

  // Group item indices by executing shard: classifies round-robin over the
  // healthy shards, queries to their home shard — or a deterministic
  // healthy stand-in (full replication makes any shard an oracle) when the
  // home is quarantined, which degrades the reply.
  out.slice_ix_.resize(shards_.size());
  for (auto& ix : out.slice_ix_) ix.clear();
  std::size_t rr = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.answers_[i].is_query = items[i].is_query;
    std::size_t exec = 0;
    if (!items[i].is_query) {
      exec = healthy[rr++ % healthy.size()];
    } else {
      exec = shard_of(items[i].ingress);
      if (!view.snaps[exec]) {
        exec = healthy[exec % healthy.size()];
        out.degraded = true;
      }
    }
    out.slice_ix_[exec].push_back(i);
  }

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (out.slice_ix_[s].empty()) continue;
    const auto t0 = std::chrono::steady_clock::now();
    const bool injected = util::fault_fires("cluster.shard.batch");
    if (!injected && execute_slice(s, s, items, out)) {
      note_shard_success(s);
      shards_[s]->batch_ns.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      continue;
    }
    // This shard shed or failed mid-batch: trip its breaker and re-run its
    // whole slice on another pinned replica (reads are idempotent, and the
    // stand-in answers from the SAME epoch, so the reply stays consistent).
    note_shard_failure(s);
    bool rerouted = false;
    for (std::size_t off = 1; off < shards_.size() && !rerouted; ++off) {
      const std::size_t t = (s + off) % shards_.size();
      if (!view.snaps[t] || t == s) continue;
      if (execute_slice(t, s, items, out)) {
        note_shard_success(t);
        rerouted = true;
      } else {
        note_shard_failure(t);
      }
    }
    if (!rerouted)
      throw Error(ErrorCode::kUnavailable,
                  "cluster: shard " + std::to_string(s) +
                      " failed the batch and no healthy replica could take it");
    out.degraded = true;
  }
  if (out.degraded) reroutes_.fetch_add(1, std::memory_order_relaxed);
}

ShardedCluster::BatchResult ShardedCluster::run_batch(
    const std::vector<BatchItem>& items) const {
  BatchAnswers answers;
  run_batch_into(items, answers);
  BatchResult out;
  out.epoch = answers.epoch;
  out.degraded = answers.degraded;
  out.lines.resize(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) answers.append_line(i, out.lines[i]);
  return out;
}

void ShardedCluster::note_shard_success(std::size_t i) const {
  Shard& sh = *shards_[i];
  sh.failures.store(0, std::memory_order_relaxed);
  ShardState expected = ShardState::kDegraded;
  sh.state.compare_exchange_strong(expected, ShardState::kHealthy,
                                   std::memory_order_acq_rel);
}

void ShardedCluster::note_shard_failure(std::size_t i) const {
  Shard& sh = *shards_[i];
  const std::size_t f = sh.failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (f >= opts_.breaker_quarantine_after) {
    quarantine_shard(i);
  } else if (f >= opts_.breaker_degrade_after) {
    ShardState expected = ShardState::kHealthy;
    sh.state.compare_exchange_strong(expected, ShardState::kDegraded,
                                     std::memory_order_acq_rel);
  }
}

void ShardedCluster::quarantine_shard(std::size_t i) const {
  require(i < shards_.size(), ErrorCode::kInvalidArgument,
          "quarantine_shard: shard index out of range");
  Shard& sh = *shards_[i];
  if (sh.state.exchange(ShardState::kQuarantined, std::memory_order_acq_rel) !=
      ShardState::kQuarantined)
    quarantines_.fetch_add(1, std::memory_order_relaxed);
  bool expected = false;
  if (!sh.resync_active.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel))
    return;  // a resync is already running for this shard
  std::lock_guard<std::mutex> lock(resync_mu_);
  if (stopping_.load(std::memory_order_acquire)) {
    // Checked under resync_mu_ so the destructor (which sets stopping_
    // before swapping the thread list out) can never miss a new thread.
    sh.resync_active.store(false, std::memory_order_release);
    return;
  }
  resync_threads_.emplace_back([this, i] { resync_loop(i); });
}

void ShardedCluster::resync_loop(std::size_t i) const {
  Shard& sh = *shards_[i];
  for (;;) {
    util::Backoff backoff(opts_.resync_backoff, 0x7e53ca11ull ^ i);
    bool readmitted = false;
    for (;;) {
      if (stopping_.load(std::memory_order_acquire)) break;
      try {
        resync_once(i);
        resyncs_.fetch_add(1, std::memory_order_relaxed);
        readmitted = true;
        break;
      } catch (const std::exception&) {
        resync_failures_.fetch_add(1, std::memory_order_relaxed);
        if (backoff.exhausted()) break;  // give up: stays quarantined
        std::unique_lock<std::mutex> lock(stop_mu_);
        stop_cv_.wait_for(lock, backoff.next_delay(), [this] {
          return stopping_.load(std::memory_order_acquire);
        });
      }
    }
    sh.resync_active.store(false, std::memory_order_release);
    // A quarantine_shard() racing the tail of this loop found
    // resync_active still true and spawned nothing — pick it up here
    // instead of stranding the shard.  Only after a SUCCESSFUL round:
    // an exhausted backoff must stay quarantined, not spin.
    if (!readmitted || stopping_.load(std::memory_order_acquire)) return;
    if (sh.state.load(std::memory_order_acquire) != ShardState::kQuarantined)
      return;
    bool expected = false;
    if (!sh.resync_active.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel))
      return;
  }
}

void ShardedCluster::resync_once(std::size_t i) const {
  Shard& sh = *shards_[i];
  // Phase 1 — offline, no locks held: rebuild a replica from the network
  // model and a prefix snapshot of the update log.  This is the expensive
  // part (full AP classifier construction); updates and queries proceed.
  std::vector<LogRecord> prefix;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    prefix = update_log_;
  }
  auto rep = std::make_shared<Replica>();
  rep->mgr = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  rep->clf = std::make_unique<ApClassifier>(net_, rep->mgr, opts_.classifier);
  for (const LogRecord& r : prefix) apply_record(*rep->clf, r.add, r.spec);

  // Phase 2 — under the update lock: replay the suffix that landed during
  // phase 1, rewrite this shard's WAL from the authoritative in-memory log
  // (dropping any unacknowledged frame a poisoned append left on disk),
  // publish at the current cluster epoch, and swap the replica in.
  std::lock_guard<std::mutex> lock(update_mu_);
  for (std::size_t k = prefix.size(); k < update_log_.size(); ++k)
    apply_record(*rep->clf, update_log_[k].add, update_log_[k].spec);
  if (!opts_.wal_dir.empty()) {
    const std::string path = opts_.wal_dir + "/shard" + std::to_string(i) + ".wal";
    // Updates this shard owns stay refused until the fresh log is in
    // place — a throw mid-rewrite must not leave an append-able gap.
    sh.read_only.store(true, std::memory_order_release);
    sh.wal.reset();
    std::remove(path.c_str());
    auto wal = std::make_unique<io::Wal>(path, opts_.wal);
    for (const LogRecord& r : update_log_)
      if (shard_of(r.spec.box) == i) wal->append(make_record(r.seq, r.add, r.spec));
    sh.wal = std::move(wal);
  }
  rep->engine = std::make_unique<engine::QueryEngine>(*rep->clf, opts_.engine);
  // Tag the republish with the cluster epoch so pin() resolves this shard
  // immediately on re-admission (the engine's initial publish is epoch 0).
  rep->engine->set_next_publish_epoch(epoch_.load(std::memory_order_relaxed));
  rep->engine->update([](ApClassifier&) {});
  engine::QueryEngine& eng = *rep->engine;
  {
    std::lock_guard<std::mutex> swap_lock(swap_mu_);
    sh.replica = std::move(rep);
  }
  // The replaced replica's snapshots go with it once its readers finish;
  // the new one's initial epoch-0 snapshot is never pinned.
  eng.release_retired_snapshot();
  sh.read_only.store(false, std::memory_order_release);
  sh.failures.store(0, std::memory_order_relaxed);
  sh.state.store(ShardState::kHealthy, std::memory_order_release);
}

void ShardedCluster::apply_updates(std::span<const Update> group,
                                   std::vector<UpdateOutcome>& outcomes) {
  outcomes.resize(group.size());
  for (UpdateOutcome& o : outcomes) {
    o.epoch = 0;
    o.message.clear();
  }
  if (group.empty()) return;
  const auto refuse = [&](std::size_t i, ErrorCode code, std::string why) {
    outcomes[i].error = code;
    outcomes[i].message = std::move(why);
  };
  std::lock_guard<std::mutex> lock(update_mu_);
  const auto t0 = std::chrono::steady_clock::now();

  // 1-2. Check every record in line order against a replica in rotation
  // plus the records accepted before it; then its owner shard's WAL.
  std::shared_ptr<Replica> oracle;
  for (std::size_t i = 0; i < shards_.size() && !oracle; ++i)
    if (shards_[i]->state.load(std::memory_order_acquire) != ShardState::kQuarantined)
      oracle = replica_ref(i);
  std::vector<Update> accepted;  // in line order, for later records' checks
  std::vector<std::size_t> accepted_ix;  // accepted[j] is group[accepted_ix[j]]
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (!oracle) {
      refuse(i, ErrorCode::kUnavailable, "cluster: every shard is quarantined, update refused");
      continue;
    }
    std::string why = check_update(net_.topology, oracle->clf->network().fibs, group[i],
                                   accepted);
    if (!why.empty()) {
      refuse(i, ErrorCode::kInvalidArgument, "cluster: update refused: " + why);
      continue;
    }
    const std::size_t owner = shard_of(group[i].spec.box);
    if (shards_[owner]->read_only.load(std::memory_order_acquire)) {
      refuse(i, ErrorCode::kUnavailable,
             "cluster: shard " + std::to_string(owner) +
                 " is read-only (WAL poisoned; resync pending), update refused");
      continue;
    }
    accepted.push_back(group[i]);
    accepted_ix.push_back(i);
  }

  // 3. Journal before mutate (WAL discipline).  Sequence numbers follow
  // line order and are consumed even when an append fails — a failed-but-
  // possibly-durable frame must never share its number with a later,
  // different record (recovery would replay both); gaps are harmless.
  const std::uint64_t first_seq = next_seq_;  // accepted[j] takes first_seq + j
  next_seq_ += accepted.size();
  std::vector<char> journaled(accepted.size(), 1);
  if (!opts_.wal_dir.empty()) {
    std::vector<std::string> records;
    std::vector<std::string_view> views;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      records.clear();
      for (std::size_t j = 0; j < accepted.size(); ++j)
        if (shard_of(accepted[j].spec.box) == s)
          records.push_back(make_record(first_seq + j, accepted[j].add, accepted[j].spec));
      if (records.empty() || !sh.wal) continue;
      views.assign(records.begin(), records.end());
      ErrorCode code = ErrorCode::kInternal;
      std::string why;
      try {
        sh.wal->append(views);
        continue;
      } catch (const Error& e) {
        code = e.code();
        why = e.what();
      }
      if (sh.wal->poisoned()) {
        // Durability of this shard's acked records is now unknown: flip it
        // read-only (updates it owns get 503, queries keep serving) until
        // a resync rewrites the log from the in-memory history.
        sh.read_only.store(true, std::memory_order_release);
        wal_poisonings_.fetch_add(1, std::memory_order_relaxed);
        code = ErrorCode::kUnavailable;
        why = "cluster: WAL poisoned, shard " + std::to_string(s) + " now read-only: " + why;
      } else {
        // Transient budget exhausted: refused, the caller may retry.
        why = "cluster: WAL append failed on shard " + std::to_string(s) + ": " + why;
      }
      for (std::size_t j = 0; j < accepted.size(); ++j)
        if (shard_of(accepted[j].spec.box) == s) {
          journaled[j] = 0;
          refuse(accepted_ix[j], code, why);
        }
    }
  }

  // 4. Apply: epochs E+1..E+k in line order, one publish per replica.
  const std::uint64_t base = epoch_.load(std::memory_order_relaxed);
  std::uint64_t last = base;
  std::vector<const Update*> batch;
  for (std::size_t j = 0; j < accepted.size(); ++j) {
    if (!journaled[j]) continue;
    outcomes[accepted_ix[j]].epoch = ++last;
    update_log_.push_back({first_seq + j, accepted[j].add, accepted[j].spec});
    batch.push_back(&accepted[j]);
  }
  if (!batch.empty()) {
    // Tag then mutate, shard by shard.  A reader that lands mid-walk sees a
    // mix of old-epoch and new-epoch shards; pin() resolves the OLD epoch
    // until the last shard publishes and epoch_ advances below.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& sh = *shards_[i];
      if (sh.state.load(std::memory_order_acquire) == ShardState::kQuarantined)
        continue;  // resync replays update_log_; don't touch a retiring replica
      const std::shared_ptr<Replica> rep = replica_ref(i);
      try {
        rep->engine->set_next_publish_epoch(last);
        rep->engine->update([&](ApClassifier& c) {
          for (const Update* u : batch) apply_record(c, u->add, u->spec);
        });
      } catch (const std::exception&) {
        // A replica that cannot apply an update is divergent — pull it from
        // rotation now and let resync rebuild it from the log.  The updates
        // themselves proceed on the other replicas.
        quarantine_shard(i);
      }
    }
    epoch_.store(last, std::memory_order_release);
    // Every replica in rotation now serves `last`, and pin() reads epoch_
    // first, so the retired epoch is needed only by a pin that read epoch_
    // before the store — which misses here and re-pins at `last`.
    for (std::size_t i = 0; i < shards_.size(); ++i)
      if (shards_[i]->state.load(std::memory_order_acquire) != ShardState::kQuarantined)
        replica_ref(i)->engine->release_retired_snapshot();
    updates_applied_.fetch_add(batch.size(), std::memory_order_relaxed);
  }
  update_group_size_.record(group.size());
  update_group_ns_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

namespace {
std::uint64_t apply_one(ShardedCluster& cluster, bool add, const RuleSpec& spec) {
  const ShardedCluster::Update u{add, spec};
  std::vector<ShardedCluster::UpdateOutcome> out;
  cluster.apply_updates({&u, 1}, out);
  if (!out[0].applied()) throw Error(out[0].error, out[0].message);
  return out[0].epoch;
}
}  // namespace

std::uint64_t ShardedCluster::add_rule(const RuleSpec& spec) {
  return apply_one(*this, true, spec);
}

std::uint64_t ShardedCluster::remove_rule(const RuleSpec& spec) {
  return apply_one(*this, false, spec);
}

obs::MetricsSnapshot ShardedCluster::stats() const {
  // Under the update lock: shard engine registries include classifier
  // callback rows that must not race a mutation.
  std::lock_guard<std::mutex> lock(update_mu_);
  obs::MetricsRegistry reg;
  reg.register_fn("cluster.epoch",
                  [this] { return static_cast<double>(epoch()); }, "count");
  reg.register_fn("cluster.shards",
                  [this] { return static_cast<double>(shard_count()); }, "count");
  reg.register_fn("cluster.updates_applied",
                  [this] { return static_cast<double>(updates_applied()); },
                  "count");
  // Worst health state across shards (0 healthy / 1 degraded / 2
  // quarantined) — the one-glance row; per-shard detail follows below.
  reg.register_fn("cluster.shard_state",
                  [this] {
                    std::uint8_t worst = 0;
                    for (std::size_t i = 0; i < shards_.size(); ++i)
                      worst = std::max(
                          worst, static_cast<std::uint8_t>(shard_state(i)));
                    return static_cast<double>(worst);
                  },
                  "state");
  reg.register_fn("cluster.quarantines",
                  [this] { return static_cast<double>(
                               quarantines_.load(std::memory_order_relaxed)); },
                  "count");
  reg.register_fn("cluster.resyncs",
                  [this] { return static_cast<double>(resyncs()); }, "count");
  reg.register_fn("cluster.resync_failures",
                  [this] { return static_cast<double>(resync_failures()); },
                  "count");
  reg.register_fn("cluster.reroutes",
                  [this] { return static_cast<double>(reroutes()); }, "count");
  reg.register_fn("cluster.wal_poisonings",
                  [this] { return static_cast<double>(wal_poisonings_.load(
                               std::memory_order_relaxed)); },
                  "count");
  reg.register_fn("cluster.wal_records_skipped",
                  [this] { return static_cast<double>(wal_records_skipped_); }, "count");
  // Process-wide high-water mark (all shards share one process); the
  // per-shard owned/mapped split lives in the engine rows below.
  reg.register_fn("cluster.peak_rss_bytes",
                  [] { return static_cast<double>(util::peak_rss_bytes()); },
                  "bytes");
  obs::MetricsSnapshot out = reg.snapshot();
  // Update groups: records per apply_updates call (an update sent alone,
  // or through add_rule/remove_rule, is a group of one) and the time each
  // group held the update lock.
  out.rows.push_back({"cluster.update_group_size.count",
                      static_cast<double>(update_group_size_.count()), "count"});
  out.rows.push_back({"cluster.update_group_size.mean", update_group_size_.mean(), "count"});
  out.rows.push_back({"cluster.update_group_size.max",
                      static_cast<double>(update_group_size_.max()), "count"});
  out.rows.push_back(
      {"cluster.update_group_ms.p50", update_group_ns_.quantile(0.50) * 1e-6, "ms"});
  out.rows.push_back(
      {"cluster.update_group_ms.p99", update_group_ns_.quantile(0.99) * 1e-6, "ms"});
  double wal_retries = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "shard" + std::to_string(i);
    out.rows.push_back({prefix + ".state",
                        static_cast<double>(shard_state(i)), "state"});
    out.rows.push_back(
        {prefix + ".failures",
         static_cast<double>(shards_[i]->failures.load(std::memory_order_relaxed)),
         "count"});
    out.rows.push_back(
        {prefix + ".read_only", shard_read_only(i) ? 1.0 : 0.0, "bool"});
    // Cluster-level service-time rows from the shard's lifetime histogram
    // (an idle shard's is empty and reads 0 everywhere).
    const obs::LatencyHistogram& batch_ns = shards_[i]->batch_ns;
    out.rows.push_back({prefix + ".batch_us.p50", batch_ns.quantile(0.50) * 1e-3, "us"});
    out.rows.push_back({prefix + ".batch_us.p99", batch_ns.quantile(0.99) * 1e-3, "us"});
    out.rows.push_back(
        {prefix + ".batch_us.count", static_cast<double>(batch_ns.count()), "count"});
    if (shards_[i]->wal) {
      out.rows.push_back({prefix + ".wal_records",
                          static_cast<double>(shards_[i]->wal->records_appended().value()),
                          "count"});
      out.rows.push_back({prefix + ".wal_bytes",
                          static_cast<double>(shards_[i]->wal->size_bytes()),
                          "bytes"});
      const double r = static_cast<double>(shards_[i]->wal->retries().value());
      out.rows.push_back({prefix + ".wal_retries", r, "count"});
      wal_retries += r;
    }
    obs::MetricsRegistry shard_reg;
    replica_ref(i)->engine->register_metrics(shard_reg, prefix + ".engine");
    const obs::MetricsSnapshot shard_rows = shard_reg.snapshot();
    out.rows.insert(out.rows.end(), shard_rows.rows.begin(), shard_rows.rows.end());
  }
  // Summed across shards so dashboards can alert on one row.
  out.rows.push_back({"wal.retries", wal_retries, "count"});
  return out;
}

}  // namespace apc::server
