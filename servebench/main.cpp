// servebench — the repository's benchmark: loopback serving of a
// ShardedCluster behind a TcpServer under three named workloads, with an
// untraced run for the end-to-end metrics and a traced run for the
// per-layer ones.
//
//   servebench --workload <hot-zipf|cold-rules|bgp-churn> --seed <n>
//              --seconds <s> --trace <0|1>
//              [--scale tiny|medium] [--workdir <dir>]
//              [--inject expected|epoch|atom]
//
// Every run starts an in-process TcpServer over a ShardedCluster with the
// library's default options (only the WAL directory is set) and loads it
// over loopback from this process: 2 closed-loop query connections sending
// 64-line batches (even lines C, odd lines Q from a seeded ingress) and one
// open-loop update connection with a writer and a reader thread.  The
// dataset, traces, churn plan, expected answers and reference classifier
// are built before any timer starts.  Workloads, at Scale::Medium:
//
//   hot-zipf    Stanford-like; Zipf(1) over one header per atom.  The header
//               cache answers nearly every stage-1 lookup, so protocol,
//               socket and stage-2 work dominate.
//   cold-rules  Stanford-like; rule_trace headers in a trace 8x the header
//               cache, so nearly every lookup misses and runs the compiled
//               match program that hot-zipf bypasses.
//   bgp-churn   Internet2-like FIB-only backbone; rule_trace queries while
//               the update connection sends one withdraw/re-announce pair
//               per box once a second.  The only workload writing under
//               query load: apply_update on every replica, incremental
//               classifier updates, delta republish, WAL append and replay.
//
// Every burst is one withdraw/re-announce pair per box, so it restores the
// initial rules.  The churned rules are the same for every seed, which only
// orders them, so every run does the same update and replay work.
//
// --trace 0: cluster set-up (median of 5), the timed query phase, update
// bursts (during it on bgp-churn; one before it on the read-only workloads,
// whose query phase stays write-free), then restarts from the run's WAL
// (median of 5).  --trace 1: the same traffic once per layer, each on a
// fresh cluster so no layer is timed on headers an earlier call cached, with
// spans around the calls into that layer; the updates again outside the
// cluster on a standalone replica; a recovery pass over the traced run's WAL
// files, whose records a benchmark-owned WAL then appends.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.  A wrong answer makes the run exit 1.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "io/wal.hpp"
#include "server/server.hpp"
#include "util/stats.hpp"

namespace servebench {
namespace {

using namespace apc;
namespace fs = std::filesystem;

constexpr int kSetups = 5;
constexpr int kRecoveries = 5;

struct Options {
  Workload workload = Workload::kHotZipf;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  datasets::Scale scale = datasets::Scale::Medium;
  Inject inject = Inject::kNone;
  std::string workdir = ".bench_build/servebench-work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;

  void absorb(const Checker& c, const char* where) {
    if (c.ok()) return;
    std::fprintf(stderr, "servebench: %llu wrong answers in %s; first: %s\n",
                 static_cast<unsigned long long>(c.errors()), where,
                 c.first_error().c_str());
    correct = false;
  }
  void count(const LoadResult& r, const char* where) {
    absorb(r.check, where);
    attempted += r.batches + r.batches_failed + r.updates + r.updates_failed;
    failed += r.batches_failed + r.updates_failed;
  }
};

/// A cluster served over TCP; members destruct in reverse, so the server
/// stops before its cluster goes away.
struct Served {
  Served(const Inputs& in, const std::string& wal_dir)
      : cluster(in.data->net, cluster_options(wal_dir)),
        server(cluster, server::TcpServer::Options{}) {}
  server::ShardedCluster cluster;
  server::TcpServer server;
};

std::string fresh_dir(const Options& o, const std::string& name) {
  const fs::path p = fs::path(o.workdir) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double pct(const std::vector<double>& xs, double q) { return percentile_or(xs, q); }

/// The latencies of the batches sent in each whole second of the query phase.
std::vector<std::vector<double>> per_second(const LoadResult& lr) {
  std::vector<std::vector<double>> secs_us;
  std::size_t k = 0;  // batch_us holds the connections' latencies in `sent` order
  for (const auto& conn : lr.sent)
    for (const auto& [b, when] : conn) {
      const auto s = static_cast<std::size_t>(when);
      if (s >= secs_us.size()) secs_us.resize(s + 1);
      secs_us[s].push_back(lr.batch_us[k++]);
    }
  return secs_us;
}

// ---- --trace 0 ----

Result run_untraced(const Inputs& in, const Options& o) {
  Result res;
  const std::string wal = (fs::path(o.workdir) / "wal").string();
  // rss_mb counts what serving adds on top of the benchmark's own inputs
  // (reference classifier, trace, wire text, expected answers).
  ::malloc_trim(0);
  const double inputs_mb = resident_mb();
  // setup_s: cluster construction and bind up to the first answered batch,
  // on an empty WAL directory, several times.  The first cluster serves the
  // timed phase, so rss_mb holds no leftovers of other clusters; the other
  // set-ups follow the restarts.
  std::vector<double> setup;
  const auto set_up = [&] {
    fresh_dir(o, "wal");
    Checker check(in);
    const Clock::time_point t0 = Clock::now();
    auto sv = std::make_unique<Served>(in, wal);
    LineClient c(sv->server.port());
    if (!one_batch(in, c, 0, check)) check.fail("set-up: first batch refused");
    setup.push_back(secs(Clock::now() - t0));
    res.absorb(check, "set-up");
    return sv;
  };

  std::unique_ptr<Served> sv = set_up();
  const Phase phase = in.phase(o.seconds);
  const LoadResult lr = run_tcp(in, sv->server.port(), phase, nullptr);
  res.count(lr, "the timed phase");
  sv.reset();

  // recovery_s: a fresh cluster on the run's WAL directory, up to its first
  // answered batch, several times (each restart replays the same files).
  // Every burst restored the initial rules, so the recovered cluster must
  // answer the probes exactly as the reference.
  std::vector<double> recovery;
  for (int k = 0; k < kRecoveries; ++k) {
    Checker rc(in);
    {
      const Clock::time_point t0 = Clock::now();
      Served recovered(in, wal);
      LineClient c(recovered.server.port());
      if (!one_batch(in, c, 0, rc)) rc.fail("recovery: first batch refused");
      recovery.push_back(secs(Clock::now() - t0));
      if (!probe_batch(in, c, rc)) rc.fail("recovery: probe batch refused");
    }
    res.absorb(rc, "recovery");
  }
  for (int k = 1; k < kSetups; ++k) set_up();
  fs::remove_all(wal);

  std::printf("setup_s samples:");
  for (const double s : setup) std::printf(" %.4f", s);
  std::printf("\nrecovery_s samples:");
  for (const double s : recovery) std::printf(" %.4f", s);
  std::printf("\nquery phase: %.3f s, %llu batches answered (latency samples), "
              "%llu lines, %llu refused or broken\n",
              lr.query_s, static_cast<unsigned long long>(lr.batches),
              static_cast<unsigned long long>(lr.lines),
              static_cast<unsigned long long>(lr.batches_failed));
  std::printf("updates: %llu acknowledged, %llu failed, %zu bursts of %zu; "
              "update_send_lag_ms max %.3f; bursts drained before the next was due "
              "%zu/%zu; backlog at the end of the query phase %zu\n",
              static_cast<unsigned long long>(lr.updates),
              static_cast<unsigned long long>(lr.updates_failed), lr.bursts,
              in.burst_updates,
              lr.max_send_lag_ms, lr.bursts_drained, lr.bursts > 0 ? lr.bursts - 1 : 0,
              lr.backlog_at_end);
  std::printf("rss_mb: %.2f at the end of the query phase minus %.2f with only the "
              "inputs built\n",
              lr.rss_mb, inputs_mb);
  // batch_p99_us: the median over the phase's seconds of each second's p99,
  // so a host stall confined to a second or two does not set it.  A second
  // with no batch sent lies inside a longer batch, counted where it was sent.
  std::vector<double> p99s;
  std::size_t fewest = lr.batch_us.size();
  for (const auto& s : per_second(lr)) {
    if (s.empty()) continue;
    p99s.push_back(pct(s, 99));
    fewest = std::min(fewest, s.size());
  }
  std::printf("batch_p99_us: median of %zu per-second p99s (%.1f .. %.1f, at least %zu "
              "batches a second); p99 over the whole phase %.1f\n",
              p99s.size(), p99s.empty() ? 0.0 : *std::min_element(p99s.begin(), p99s.end()),
              p99s.empty() ? 0.0 : *std::max_element(p99s.begin(), p99s.end()), fewest,
              pct(lr.batch_us, 99));
  std::printf("failed_frac: %.6g (%llu of %llu batches and updates)\n",
              res.attempted
                  ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                  : 0.0,
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  res.metrics = {
      {"setup_s", pct(setup, 50), "s"},
      {"qps", lr.query_s > 0 ? static_cast<double>(lr.lines) / lr.query_s : 0.0,
       "queries/s"},
      {"batch_p50_us", pct(lr.batch_us, 50), "us"},
      {"batch_p99_us", pct(p99s, 50), "us"},
      {"rss_mb", lr.rss_mb - inputs_mb, "MB"},
      {"update_p50_ms", pct(lr.update_ms, 50), "ms"},
      {"update_p90_ms", pct(lr.update_ms, 90), "ms"},
      {"recovery_s", pct(recovery, 50), "s"},
  };
  return res;
}

// ---- --trace 1: updates outside the cluster ----

struct ReplicaStats {
  double atoms_s = 0.0, tree_s = 0.0, delta_publish_ratio = 0.0;
  std::vector<double> predicates_changed;
};

/// The per-shard options ShardedCluster forces on its engines.
engine::QueryEngine::Options shard_engine_options() {
  engine::QueryEngine::Options e = cluster_options("").engine;
  e.epoch_pin = true;
  e.snapshot_path.clear();
  return e;
}

/// A standalone replica, built like one shard, replays the updates through
/// QueryEngine::update, timing the ApClassifier call inside it apart.
ReplicaStats replay_on_replica(const Inputs& in, const std::vector<std::uint64_t>& ids,
                               Tracer& tracer) {
  SpanLog& log = tracer.log(Pass::kUpdates);
  auto mgr = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  std::int32_t sp = log.begin(SpanName::kClassifierBuild, 0);
  ApClassifier clf(in.data->net, mgr, cluster_options("").classifier);
  log.end(sp);
  sp = log.begin(SpanName::kEngineCtor, 0);
  engine::QueryEngine eng(clf, shard_engine_options());
  log.end(sp);
  ReplicaStats st;
  const BuildTelemetry& bt = clf.build_telemetry();
  st.atoms_s = bt.atoms.refine_seconds + bt.atoms.merge_seconds + bt.atoms.land_seconds;
  st.tree_s = bt.tree.build_seconds;
  for (const std::uint64_t id : ids) {
    const Update& u = in.update(id);
    const std::int32_t outer = log.begin(SpanName::kEngineUpdate, id);
    const auto r = eng.update([&](ApClassifier& c) {
      const std::int32_t inner = log.begin(SpanName::kRuleUpdate, id, outer);
      const auto rr = u.add ? c.insert_fib_rule(u.spec.box, u.spec.rule)
                            : c.remove_fib_rule(u.spec.box, u.spec.rule);
      log.end(inner);
      return rr;
    });
    log.end(outer);
    st.predicates_changed.push_back(static_cast<double>(r.predicates_changed));
  }
  st.delta_publish_ratio = static_cast<double>(eng.snapshot_delta_publishes().value()) /
                           static_cast<double>(eng.publish_count());
  return st;
}

/// A WAL owned by the benchmark, with the cluster's WAL options, appends the
/// records the cluster wrote (span id: the record's place in sequence
/// order); returns fsyncs per record.
double append_to_wal(const std::vector<std::string>& records, const std::string& path,
                     Tracer& tracer) {
  fs::remove(path);
  SpanLog& log = tracer.log(Pass::kUpdates);
  io::Wal wal(path, cluster_options("").wal);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::int32_t sp = log.begin(SpanName::kWalAppend, i);
    wal.append(records[i]);
    log.end(sp);
  }
  if (records.empty()) return 0.0;
  return static_cast<double>(wal.syncs().value()) / static_cast<double>(records.size());
}

/// Recovery on the run's WAL files, step by step: open every shard's WAL,
/// build a classifier, replay the records in global sequence order (parsed
/// with parse_request, as the cluster does), construct the engine.  The
/// recovered replica must answer the probes as the reference does.  Returns
/// the records read, in sequence order.
std::vector<std::string> recovery_pass(const Inputs& in, const std::string& wal_dir,
                                       Tracer& tracer, Checker& check) {
  SpanLog& log = tracer.log(Pass::kUpdates);
  const server::ShardedCluster::Options opts = cluster_options(wal_dir);
  const std::int32_t root = log.begin(SpanName::kRecovery, 0);
  std::vector<std::string> recs;
  std::int32_t sp = log.begin(SpanName::kWalOpen, 0, root);
  for (std::size_t i = 0; i < opts.shards; ++i) {
    io::Wal w(wal_dir + "/shard" + std::to_string(i) + ".wal", opts.wal, &recs);
  }
  log.end(sp, static_cast<std::uint32_t>(recs.size()));
  auto mgr = std::make_shared<bdd::BddManager>(HeaderLayout::kBits);
  sp = log.begin(SpanName::kClassifierBuild, 1, root);
  ApClassifier clf(in.data->net, mgr, opts.classifier);
  log.end(sp);
  sp = log.begin(SpanName::kReplay, 0, root);
  // Record "<seq> <request line>"; the shards' files merge by sequence.
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const std::size_t space = recs[i].find(' ');
    if (space == std::string::npos)
      throw Error(ErrorCode::kCorruptData, "servebench: bad WAL record '" + recs[i] + "'");
    order.emplace_back(std::stoull(recs[i].substr(0, space)), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::string> ordered;
  for (const auto& [seq, i] : order) {
    server::Request req;
    if (!server::parse_request(recs[i].substr(recs[i].find(' ') + 1), seq, req))
      throw Error(ErrorCode::kCorruptData, "servebench: bad WAL record '" + recs[i] + "'");
    if (req.kind == server::RequestKind::kAddRule)
      clf.insert_fib_rule(req.rule.box, req.rule.rule);
    else
      clf.remove_fib_rule(req.rule.box, req.rule.rule);
    ordered.push_back(std::move(recs[i]));
  }
  log.end(sp, static_cast<std::uint32_t>(ordered.size()));
  sp = log.begin(SpanName::kEngineCtor, 1, root);
  engine::QueryEngine eng(clf, shard_engine_options());
  log.end(sp);
  log.end(root);
  const auto snap = eng.snapshot();
  for (const Line& l : in.probes)
    check.answer(0, l, server::format_behavior_summary(snap->query(l.header, l.ingress)));
  return ordered;
}

// ---- --trace 1: span arithmetic ----

bool is(const Span& s, Pass p, SpanName n) { return s.pass == p && s.name == n; }

std::vector<double> durations_us(const std::vector<Span>& spans, Pass p, SpanName n) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (is(s, p, n)) out.push_back(s.us());
  return out;
}

/// Total span time over total items, in ns per item.
double ns_per_item(const std::vector<Span>& spans, Pass p, SpanName n) {
  double ns = 0.0, items = 0.0;
  for (const Span& s : spans)
    if (is(s, p, n)) {
      ns += static_cast<double>(s.end_ns - s.start_ns);
      items += s.count;
    }
  return items > 0 ? ns / items : 0.0;
}

/// Inclusive us per batch (or update) id, summed over the named spans.
std::unordered_map<std::uint64_t, double> by_id_us(
    const std::vector<Span>& spans, Pass p, std::initializer_list<SpanName> names) {
  std::unordered_map<std::uint64_t, double> out;
  for (const Span& s : spans)
    for (const SpanName n : names)
      if (is(s, p, n)) out[s.id] += s.us();
  return out;
}

double mean_over(const std::unordered_map<std::uint64_t, double>& m,
                 const std::vector<std::uint64_t>& ids) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const std::uint64_t id : ids)
    if (const auto it = m.find(id); it != m.end()) {
      sum += it->second;
      ++n;
    }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double span_s(const std::vector<Span>& spans, SpanName n, std::uint64_t id) {
  for (const Span& s : spans)
    if (is(s, Pass::kUpdates, n) && s.id == id) return s.us() * 1e-6;
  return 0.0;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
    return;
  }
  // Numeric pass and span codes keep the file small; the legend comes first.
  std::fprintf(f, "# passes:");
  for (int p = 0; p <= static_cast<int>(Pass::kUpdates); ++p)
    std::fprintf(f, " %d=%s", p, pass_name(static_cast<Pass>(p)));
  std::fprintf(f, "\n# spans:");
  for (int n = 0; n <= static_cast<int>(SpanName::kEngineCtor); ++n)
    std::fprintf(f, " %d=%s", n, span_name(static_cast<SpanName>(n)));
  std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "\npass,span,id,parent,start_ns,duration_ns,count\n");
  for (const Span& s : spans)
    std::fprintf(f, "%d,%d,%llu,%d,%lld,%lld,%u\n", static_cast<int>(s.pass),
                 static_cast<int>(s.name), static_cast<unsigned long long>(s.id),
                 s.parent,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - s.start_ns), s.count);
  std::fclose(f);
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

// ---- --trace 1 ----

Result run_traced(const Inputs& in, const Options& o) {
  Result res;
  Tracer tracer;
  const double pass_s = std::max(1.5, o.seconds / 4.0);
  const Phase with_updates = in.phase(pass_s);
  // The engine and snapshot passes replay updates only where they ride
  // along the query load.
  const Phase reads = with_updates.before ? Phase{pass_s, {}, false} : with_updates;
  double reroutes = 0.0;

  // Untraced TCP pass: the baseline the tracing overhead is taken against.
  const LoadResult u = [&] {
    Served sv(in, fresh_dir(o, "wal-untraced"));
    LoadResult r = run_tcp(in, sv.server.port(), with_updates, nullptr);
    reroutes += static_cast<double>(sv.cluster.reroutes());
    return r;
  }();
  // Traced TCP pass: its batches are the sequence every later pass replays,
  // its updates the sequence replayed outside the cluster, and its WAL
  // files the input of the recovery pass.
  const std::string wal_tcp = fresh_dir(o, "wal-tcp");
  double owned_mb = 0.0, program_bytes = 0.0;
  const LoadResult t = [&] {
    Served sv(in, wal_tcp);
    LoadResult r = run_tcp(in, sv.server.port(), with_updates, &tracer);
    const auto n = static_cast<double>(sv.cluster.shard_count());
    for (std::size_t i = 0; i < sv.cluster.shard_count(); ++i) {
      const auto snap = sv.cluster.shard(i)->snapshot();
      owned_mb += static_cast<double>(snap->owned_bytes()) / (1024.0 * 1024.0) / n;
      program_bytes += static_cast<double>(snap->program_bytes()) / n;
    }
    reroutes += static_cast<double>(sv.cluster.reroutes());
    return r;
  }();
  double hits = 0.0, misses = 0.0;
  const auto inproc = [&](Pass layer, const Phase& ph) {
    const std::string wal = fresh_dir(o, std::string("wal-") + pass_name(layer));
    server::ShardedCluster cl(in.data->net, cluster_options(wal));
    LoadResult r = run_inproc(in, cl, ph, t.sent, layer, tracer);
    if (layer == Pass::kSnapshot)
      for (std::size_t i = 0; i < cl.shard_count(); ++i) {
        const auto snap = cl.shard(i)->snapshot();
        hits += static_cast<double>(snap->header_cache_hits());
        misses += static_cast<double>(snap->header_cache_misses());
      }
    reroutes += static_cast<double>(cl.reroutes());
    return r;
  };
  const LoadResult rc = inproc(Pass::kCluster, with_updates);
  const LoadResult re = inproc(Pass::kEngine, reads);
  const LoadResult rs = inproc(Pass::kSnapshot, reads);
  const ReplicaStats rep = replay_on_replica(in, t.applied, tracer);
  Checker recovered(in);
  const std::vector<std::string> records = recovery_pass(in, wal_tcp, tracer, recovered);
  const double syncs =
      append_to_wal(records, (fs::path(o.workdir) / "bench.wal").string(), tracer);
  res.count(u, "the untraced TCP pass");
  res.count(t, "the traced TCP pass");
  res.count(rc, "the cluster pass");
  res.count(re, "the engine pass");
  res.count(rs, "the snapshot pass");
  res.absorb(recovered, "the recovery pass");
  for (const char* d :
       {"wal-untraced", "wal-tcp", "wal-cluster", "wal-engine", "wal-snapshot"})
    fs::remove_all(fs::path(o.workdir) / d);

  const std::vector<Span> spans = tracer.collect();
  write_spans(spans, (fs::path(o.workdir) / "spans.csv").string());

  // Inclusive time per batch, each layer on the batches the TCP pass sent.
  std::vector<std::uint64_t> ids;
  for (const auto& conn : t.sent)
    for (const auto& [b, when] : conn) ids.push_back(b);
  const auto per_batch = [&](Pass p, std::initializer_list<SpanName> names) {
    return mean_over(by_id_us(spans, p, names), ids);
  };
  const double client = per_batch(Pass::kTcp, {SpanName::kClientBatch});
  const double parse = per_batch(Pass::kCluster, {SpanName::kParse});
  const double run_batch = per_batch(Pass::kCluster, {SpanName::kRunBatch});
  // run_batch formats the answer lines itself; after it the server only
  // joins them into the reply text.
  const double reply = per_batch(Pass::kCluster, {SpanName::kReply});
  const double engine =
      per_batch(Pass::kEngine, {SpanName::kClassifyBatchOn, SpanName::kQueryBatchOn});
  const double snapshot =
      per_batch(Pass::kSnapshot, {SpanName::kClassifyInto, SpanName::kBehaviorOf});
  const bool nested =
      client >= parse + run_batch + reply && run_batch >= engine && engine >= snapshot;
  std::printf("nesting, mean us per batch over %zu batches: client.batch %.2f >= "
              "parse %.2f + run_batch %.2f + reply %.2f; run_batch %.2f >= engine %.2f "
              ">= snapshot %.2f: %s\n",
              ids.size(), client, parse, run_batch, reply, run_batch, engine, snapshot,
              nested ? "ok" : "VIOLATED");
  std::printf("cluster.reroutes: %.0f over every pass (items answered away from a "
              "quarantined home shard)\n",
              reroutes);
  const auto qps = [](const LoadResult& r) {
    return r.query_s > 0 ? static_cast<double>(r.lines) / r.query_s : 0.0;
  };
  std::printf("tracing overhead (traced - untraced TCP pass): qps %+.0f (%.0f - %.0f), "
              "batch_p50_us %+.2f, batch_p99_us %+.2f\n",
              qps(t) - qps(u), qps(t), qps(u), pct(t.batch_us, 50) - pct(u.batch_us, 50),
              pct(t.batch_us, 99) - pct(u.batch_us, 99));

  // QueryEngine::update minus the ApClassifier call inside it.
  const auto engine_update = by_id_us(spans, Pass::kUpdates, {SpanName::kEngineUpdate});
  const auto rule_update = by_id_us(spans, Pass::kUpdates, {SpanName::kRuleUpdate});
  std::vector<double> publish_ms;
  for (const auto& [id, total] : engine_update)
    publish_ms.push_back((total - rule_update.at(id)) * 1e-3);
  const auto ms_of = [](std::vector<double> v) {
    for (double& x : v) x *= 1e-3;
    return v;
  };
  const std::vector<double> cluster_update =
      ms_of(durations_us(spans, Pass::kCluster, SpanName::kClusterUpdate));
  const std::vector<double> rule_ms =
      ms_of(durations_us(spans, Pass::kUpdates, SpanName::kRuleUpdate));
  const std::vector<double> run_batch_us =
      durations_us(spans, Pass::kCluster, SpanName::kRunBatch);
  const std::vector<double> wal_us =
      durations_us(spans, Pass::kUpdates, SpanName::kWalAppend);
  res.metrics = {
      {"server.parse_ns_per_line", ns_per_item(spans, Pass::kCluster, SpanName::kParse),
       "ns"},
      {"server.format_ns_per_line", ns_per_item(spans, Pass::kEngine, SpanName::kFormat),
       "ns"},
      {"server.wire_us_per_batch", client - parse - run_batch - reply, "us"},
      {"cluster.pin_us", mean_of(durations_us(spans, Pass::kEngine, SpanName::kPin)),
       "us"},
      {"cluster.run_batch_us_p50", pct(run_batch_us, 50), "us"},
      {"cluster.run_batch_us_p99", pct(run_batch_us, 99), "us"},
      {"cluster.self_us_per_batch", run_batch - engine, "us"},
      {"cluster.update_ms_p50", pct(cluster_update, 50), "ms"},
      {"cluster.update_ms_p90", pct(cluster_update, 90), "ms"},
      {"engine.classify_batch_us",
       mean_of(durations_us(spans, Pass::kEngine, SpanName::kClassifyBatchOn)), "us"},
      {"engine.query_batch_us",
       mean_of(durations_us(spans, Pass::kEngine, SpanName::kQueryBatchOn)), "us"},
      {"engine.publish_ms_p50", pct(publish_ms, 50), "ms"},
      {"engine.publish_ms_p90", pct(publish_ms, 90), "ms"},
      {"engine.delta_publish_ratio", rep.delta_publish_ratio, "ratio"},
      {"engine.initial_publish_s", span_s(spans, SpanName::kEngineCtor, 0), "s"},
      {"snapshot.classify_ns_per_header",
       ns_per_item(spans, Pass::kSnapshot, SpanName::kClassifyInto), "ns"},
      {"snapshot.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "ratio"},
      {"snapshot.behavior_ns", ns_per_item(spans, Pass::kSnapshot, SpanName::kBehaviorOf),
       "ns"},
      {"snapshot.owned_mb", owned_mb, "MB"},
      {"snapshot.program_bytes", program_bytes, "bytes"},
      {"snapshot.rows_carried", mean_of(rc.rows_carried), "count"},
      {"snapshot.cache_entries_carried", mean_of(rc.cache_entries_carried), "count"},
      {"classifier.build_s", span_s(spans, SpanName::kClassifierBuild, 0), "s"},
      {"classifier.atoms_s", rep.atoms_s, "s"},
      {"classifier.tree_s", rep.tree_s, "s"},
      {"classifier.rule_update_ms_p50", pct(rule_ms, 50), "ms"},
      {"classifier.rule_update_ms_p90", pct(rule_ms, 90), "ms"},
      {"classifier.predicates_changed_per_update", mean_of(rep.predicates_changed),
       "count"},
      {"classifier.replay_s", span_s(spans, SpanName::kReplay, 0), "s"},
      {"wal.append_us_p50", pct(wal_us, 50), "us"},
      {"wal.append_us_p90", pct(wal_us, 90), "us"},
      {"wal.syncs_per_update", syncs, "count"},
      {"wal.open_s", span_s(spans, SpanName::kWalOpen, 0), "s"},
  };
  return res;
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics)
    std::printf("metric %-42s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      have_workload = true;
      if (v == "hot-zipf") o.workload = Workload::kHotZipf;
      else if (v == "cold-rules") o.workload = Workload::kColdRules;
      else if (v == "bgp-churn") o.workload = Workload::kBgpChurn;
      else throw std::invalid_argument("unknown workload '" + v + "'");
    } else if (k == "--seed") {
      have_seed = true;
      o.seed = std::stoull(v);
    } else if (k == "--seconds") {
      have_seconds = true;
      o.seconds = std::stod(v);
      if (!(o.seconds > 0.0 && o.seconds <= 120.0))
        throw std::invalid_argument("--seconds must be in (0, 120]");
    } else if (k == "--trace") {
      have_trace = true;
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (k == "--scale") {
      if (v == "tiny") o.scale = datasets::Scale::Tiny;
      else if (v == "medium") o.scale = datasets::Scale::Medium;
      else throw std::invalid_argument("--scale takes tiny or medium");
    } else if (k == "--workdir") {
      o.workdir = v;
    } else if (k == "--inject") {
      if (v == "expected") o.inject = Inject::kExpected;
      else if (v == "epoch") o.inject = Inject::kEpoch;
      else if (v == "atom") o.inject = Inject::kAtom;
      else throw std::invalid_argument("--inject takes expected, epoch or atom");
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument("--workload, --seed, --seconds and --trace are required");
  return o;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Options o;
  try {
    o = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload "
                 "<hot-zipf|cold-rules|bgp-churn> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale tiny|medium] [--workdir <dir>] "
                 "[--inject expected|epoch|atom]\n",
                 e.what());
    return 2;
  }
  try {
    std::filesystem::create_directories(o.workdir);
    const Clock::time_point t0 = Clock::now();
    const Inputs in = make_inputs(o.workload, o.seed, o.scale, o.inject);
    std::printf("inputs: %s, %zu predicates, %zu atoms, %zu FIB + %zu ACL rules; "
                "%zu trace lines in %zu batches, %zu distinct Q answers, %zu churn "
                "updates; built in %.2f s\n",
                in.data->name.c_str(), in.ref->predicate_count(), in.ref->atom_count(),
                in.data->fib_stats.total_rules, in.data->acl_stats.total_rules,
                in.lines.size(), in.batch_count(), in.answers.size(), in.updates.size(),
                secs(Clock::now() - t0));
    const Result r = o.trace ? run_traced(in, o) : run_untraced(in, o);
    print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
