#include "engine/engine.hpp"

#include <chrono>

#include "util/stats.hpp"

namespace apc::engine {

namespace {
/// Worker-thread resolution for batch fan-out.  The calling thread always
/// participates, so `hardware_concurrency - 1` workers means total batch
/// parallelism equals hardware_concurrency — the repo-wide meaning of
/// "threads = 0".  Explicit requests are honored as given, uncapped.
std::size_t default_threads(std::size_t requested) {
  if (requested > 0) return requested;
  return util::TaskPool::resolve_threads(0) - 1;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FlatSnapshot::Options snapshot_options(const QueryEngine::Options& o) {
  FlatSnapshot::Options so;
  so.behavior_table_budget = o.behavior_table_budget;
  return so;
}
}  // namespace

QueryEngine::QueryEngine(ApClassifier& clf, Options opts)
    : clf_(clf), opts_(std::move(opts)), pool_(default_threads(opts_.num_threads)) {
  // Warm restore: a valid durable snapshot serves immediately, skipping the
  // freeze + eager-precompute cost.  Anything wrong with the file (absent,
  // torn, corrupt) falls back to a normal build — never a crash.
  std::shared_ptr<const FlatSnapshot> restored;
  if (!opts_.snapshot_path.empty()) {
    try {
      restored = load_snapshot(opts_.snapshot_path, snapshot_options(opts_));
      snapshot_restores_.add();
    } catch (const Error&) {
    }
  }
  if (restored)
    snap_.store(std::move(restored));
  else
    snap_.store(FlatSnapshot::build(clf_, snapshot_options(opts_), &pool_));
  publish_count_.fetch_add(1, std::memory_order_relaxed);
  last_publish_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  persist_current_locked();  // ctor: no readers yet, no lock needed
}

std::vector<AtomId> QueryEngine::classify_batch(
    const std::vector<PacketHeader>& hs) const {
  return *try_classify_batch_on(*snapshot(), hs.data(), hs.size());
}

std::vector<Behavior> QueryEngine::query_batch(const std::vector<PacketHeader>& hs,
                                               BoxId ingress) const {
  return *try_query_batch_on(*snapshot(), hs.data(), hs.size(), ingress);
}

std::optional<std::vector<AtomId>> QueryEngine::try_classify_batch_on(
    const FlatSnapshot& s, const PacketHeader* hs, std::size_t n) const {
  const std::vector<BoxId> ingress(n, kNoIngress);
  std::vector<AtomId> out(n);
  answer_batch_on(s, hs, ingress.data(), n, out.data(), [](std::size_t, const Behavior&) {});
  return out;
}

std::optional<std::vector<Behavior>> QueryEngine::try_query_batch_on(
    const FlatSnapshot& s, const PacketHeader* hs, std::size_t n,
    BoxId ingress) const {
  require(ingress != kNoIngress, "QueryEngine::query_batch: bad ingress");
  const std::vector<BoxId> ingresses(n, ingress);
  std::vector<AtomId> atoms(n);
  std::vector<Behavior> out(n);
  answer_batch_on(s, hs, ingresses.data(), n, atoms.data(),
                  [&out](std::size_t k, const Behavior& b) { out[k] = b; });
  return out;
}

void QueryEngine::drain_visits_locked() {
  // Readers may still bump the old snapshot's counters until they drop it;
  // those late bumps are lost with the snapshot — acceptable for a rebuild
  // heuristic, and the alternative (blocking readers) defeats the design.
  const std::shared_ptr<const FlatSnapshot> old = snap_.load();
  if (old && old->tracks_visits()) clf_.merge_visit_counts(old->visit_counts());
}

void QueryEngine::republish_locked() {
  snap_.store(FlatSnapshot::build(clf_, snapshot_options(opts_), &pool_));
  publish_count_.fetch_add(1, std::memory_order_relaxed);
  last_publish_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  persist_current_locked();
}

void QueryEngine::persist_current_locked() {
  if (opts_.snapshot_path.empty()) return;
  // Durability here is best-effort by design: the snapshot is a cache of
  // the classifier (the WAL is the source of truth), so a failed save must
  // degrade — count it and keep serving — not take the engine down.
  try {
    save_snapshot(*snap_.load(), opts_.snapshot_path);
    snapshot_saves_.add();
  } catch (const Error&) {
    snapshot_save_failures_.add();
  }
}

double QueryEngine::snapshot_age_seconds() const {
  const std::int64_t last = last_publish_ns_.load(std::memory_order_relaxed);
  return static_cast<double>(steady_now_ns() - last) * 1e-9;
}

void QueryEngine::register_metrics(obs::MetricsRegistry& reg,
                                   const std::string& prefix) const {
  reg.register_histogram(prefix + ".classify_batch_seconds", &classify_batch_hist_);
  reg.register_histogram(prefix + ".query_batch_seconds", &query_batch_hist_);
  reg.register_histogram(prefix + ".batch_size", &batch_size_hist_, "count", 1.0);
  reg.register_counter(prefix + ".queries_answered", &queries_answered_);
  reg.register_fn(prefix + ".publish_count",
                  [this] { return static_cast<double>(publish_count()); }, "count");
  reg.register_fn(prefix + ".snapshot_age_seconds",
                  [this] { return snapshot_age_seconds(); }, "seconds");
  reg.register_fn(prefix + ".worker_threads",
                  [this] { return static_cast<double>(pool_.thread_count()); },
                  "count");
  // Current-snapshot query-path rows.  Callbacks acquire the snapshot slot
  // (not the writer lock), so stats() taking them under writer_mu_ is safe.
  reg.register_fn(prefix + ".snapshot.behavior_table_fills",
                  [this] { return static_cast<double>(snapshot()->behavior_table_fills()); },
                  "count");
  reg.register_fn(prefix + ".snapshot.behavior_table_mode", [this] {
    // 0 = disabled, 1 = lazy, 2 = precomputed.
    return static_cast<double>(
        static_cast<int>(snapshot()->behavior_table_mode()));
  });
  reg.register_fn(prefix + ".snapshot.behavior_table_build_seconds",
                  [this] { return snapshot()->behavior_table_build_seconds(); },
                  "seconds");
  reg.register_fn(prefix + ".snapshot.memory_bytes",
                  [this] { return static_cast<double>(snapshot()->memory_bytes()); },
                  "bytes");
  // Owned vs mapped split: mapped bytes are shared page cache (a warm-
  // restored arena), not private heap — capacity planning needs them apart.
  reg.register_fn(prefix + ".snapshot.owned_bytes",
                  [this] { return static_cast<double>(snapshot()->owned_bytes()); },
                  "bytes");
  reg.register_fn(prefix + ".snapshot.mapped_bytes",
                  [this] { return static_cast<double>(snapshot()->mapped_bytes()); },
                  "bytes");
  reg.register_fn(prefix + ".peak_rss_bytes",
                  [] { return static_cast<double>(util::peak_rss_bytes()); },
                  "bytes");
  // Compiled match program rows.
  reg.register_fn(
      prefix + ".snapshot.program_instructions",
      [this] { return static_cast<double>(snapshot()->program_instructions()); },
      "count");
  reg.register_fn(prefix + ".snapshot.program_bytes",
                  [this] { return static_cast<double>(snapshot()->program_bytes()); },
                  "bytes");
  reg.register_fn(prefix + ".snapshot.program_compile_us", [this] {
    return snapshot()->program_compile_seconds() * 1e6;
  }, "us");
  // Longest walk any header takes through the program, in instructions.
  reg.register_fn(
      prefix + ".snapshot.program_max_steps",
      [this] { return static_cast<double>(snapshot()->program_max_steps()); },
      "count");
  reg.register_fn(prefix + ".snapshot.kernel_dispatch", [this] {
    // 1 = scalar kernel, 2 = AVX2 kernel.
    return static_cast<double>(snapshot()->kernel_dispatch());
  });
  reg.register_counter(prefix + ".snapshot_restores", &snapshot_restores_);
  reg.register_counter(prefix + ".snapshot_saves", &snapshot_saves_);
  reg.register_counter(prefix + ".snapshot_save_failures", &snapshot_save_failures_);
  pool_.register_metrics(reg, prefix + ".pool.");
  clf_.register_metrics(reg, prefix + ".classifier");
}

obs::MetricsSnapshot QueryEngine::stats() const {
  // Taken under the writer lock: the classifier rows are callbacks into
  // non-atomic state that updates/rebuilds mutate.
  std::lock_guard<std::mutex> lock(writer_mu_);
  obs::MetricsRegistry reg;
  register_metrics(reg);
  return reg.snapshot();
}

AddPredicateResult QueryEngine::add_predicate(bdd::Bdd p, PredicateKind kind,
                                              std::optional<PortId> origin) {
  return update([&](ApClassifier& c) {
    return c.add_predicate(std::move(p), kind, origin);
  });
}

void QueryEngine::remove_predicate(PredId id) {
  update([&](ApClassifier& c) { c.remove_predicate(id); });
}

ApClassifier::RuleUpdateResult QueryEngine::insert_fib_rule(
    BoxId box, const ForwardingRule& r) {
  return update([&](ApClassifier& c) { return c.insert_fib_rule(box, r); });
}

ApClassifier::RuleUpdateResult QueryEngine::remove_fib_rule(
    BoxId box, const ForwardingRule& r) {
  return update([&](ApClassifier& c) { return c.remove_fib_rule(box, r); });
}

ApClassifier::RuleUpdateResult QueryEngine::set_input_acl(BoxId box,
                                                          std::uint32_t port,
                                                          Acl acl) {
  return update(
      [&](ApClassifier& c) { return c.set_input_acl(box, port, std::move(acl)); });
}

void QueryEngine::rebuild(std::optional<BuildMethod> method,
                          bool distribution_aware) {
  update([&](ApClassifier& c) { c.rebuild(method, distribution_aware); });
}

}  // namespace apc::engine
