// Chaos-serving gate: drives a 4-shard cluster behind the TCP front end
// through a transport-fault schedule (slowloris trickle, silent peers at
// the connection cap, a dead reader, mid-stream RSTs, a quarantined shard
// resyncing back in — plus, under APC_FAULT_INJECTION, replicas failing
// single batches that another replica reruns, a WAL fsync burst absorbed
// by retries and a poisoned WAL flipping a shard read-only until the
// resync worker rewrites it) while a healthy closed-loop population keeps
// querying.
//
// Unlike the figure benches this binary is a GATE: it exits non-zero when
// any robustness invariant breaks —
//   * zero hung threads (live_sessions drains to 0 after the schedule),
//   * healthy-population p99 within max(2x, +500us) of the fault-free
//     baseline,
//   * deadlines fired (timeouts > 0), cap shed (sheds > 0),
//   * the quarantined shard was re-admitted (resyncs >= 1) and the final
//     batch is not degraded,
//   * every answer of a degraded (rerun) reply equals the reference
//     classifier's, and under APC_FAULT_INJECTION some batch was rerun
//     (degraded_batches > 0, reroutes > 0).
//
// Emits BENCH_serve_chaos.json:
//   chaos.p99_base_us / chaos.p99_fault_us / chaos.batches_base /
//   chaos.batches_fault / chaos.degraded_batches / chaos.timeouts /
//   chaos.sheds / chaos.resyncs / chaos.reroutes / chaos.wal_retries /
//   chaos.gate_failures
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench_util.hpp"
#include "server/chaos_proxy.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/fault_injection.hpp"
#include "util/stats.hpp"

namespace apc {
namespace {

using bench::BenchJson;

constexpr std::size_t kShards = 4;
constexpr std::size_t kHealthyClients = 4;
constexpr std::size_t kBatchLines = 48;

/// Blocking loopback line client (bench binaries stay test-framework-free).
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require(fd_ >= 0, ErrorCode::kIo, "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    require(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0,
            ErrorCode::kIo, "connect");
  }
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      require(n > 0, ErrorCode::kIo, "send");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next line without the terminator; "" on EOF/reset.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// The ingress of a C line in a DegradedReply.
constexpr BoxId kClassifyLine = ~BoxId{0};

/// A degraded reply as its client saw it: what each line asked and what
/// came back.  The main thread checks the answers against the reference
/// classifier after the run.
struct DegradedReply {
  std::uint64_t epoch = 0;
  std::vector<std::size_t> header;  ///< trace index per line
  std::vector<BoxId> ingress;       ///< kClassifyLine for a C line
  std::vector<std::string> lines;
};

/// Every degraded reply of the healthy population (read once its threads
/// are joined).
struct DegradedLog {
  std::mutex mu;
  std::vector<DegradedReply> replies;
};

/// One closed-loop healthy client: fixed-size mixed batches, waits for the
/// full reply, records per-batch latency and every degraded reply.  Any
/// protocol violation (non-201 status, truncated reply) sets the shared
/// error flag — the healthy population must keep being served THROUGH the
/// fault schedule.
void healthy_loop(std::uint16_t port, const std::vector<PacketHeader>& trace,
                  BoxId boxes, std::uint64_t seed, const std::atomic<bool>& stop,
                  std::vector<double>& lat_us, DegradedLog& degraded,
                  std::atomic<std::uint64_t>& batches,
                  std::atomic<bool>& client_error) {
  try {
    LineClient conn(port);
    Rng rng(seed);
    std::size_t cursor = seed * 13;
    DegradedReply sent;
    sent.header.resize(kBatchLines);
    sent.ingress.resize(kBatchLines);
    sent.lines.resize(kBatchLines);
    while (!stop.load(std::memory_order_acquire)) {
      std::string out;
      for (std::size_t i = 0; i < kBatchLines; ++i) {
        sent.header[i] = (cursor + i * 5) % trace.size();
        const PacketHeader& h = trace[sent.header[i]];
        sent.ingress[i] =
            i % 2 == 0 ? kClassifyLine : static_cast<BoxId>(rng.next() % boxes);
        if (i % 2 == 0)
          out += server::format_classify(h);
        else
          out += server::format_query(sent.ingress[i], h);
        out += '\n';
      }
      cursor += kBatchLines;
      out += "GO\n";
      Stopwatch sw;
      conn.send(out);
      const std::string status = conn.read_line();
      if (status.rfind("201 ", 0) != 0) throw Error("bad status: " + status);
      for (std::size_t i = 0; i < kBatchLines; ++i) {
        sent.lines[i] = conn.read_line();
        if (sent.lines[i].empty()) throw Error("truncated reply");
      }
      if (status.find(" degraded=1") != std::string::npos) {
        sent.epoch = std::strtoull(status.c_str() + 4, nullptr, 10);
        std::lock_guard<std::mutex> lock(degraded.mu);
        degraded.replies.push_back(sent);
      }
      lat_us.push_back(sw.seconds() * 1e6);
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[healthy client %llu] %s\n",
                 static_cast<unsigned long long>(seed), e.what());
    client_error.store(true, std::memory_order_release);
  }
}

bool wait_until(const std::function<bool()>& pred, int budget_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Runs the healthy population for `seconds`, returns collected latencies.
std::vector<double> run_population(std::uint16_t port,
                                   const std::vector<PacketHeader>& trace,
                                   BoxId boxes, double seconds,
                                   DegradedLog& degraded,
                                   std::atomic<std::uint64_t>& batches,
                                   std::atomic<bool>& client_error,
                                   const std::function<void()>& mid_schedule) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> lat(kHealthyClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kHealthyClients; ++c)
    threads.emplace_back([&, c] {
      healthy_loop(port, trace, boxes, 100 + c, stop, lat[c], degraded, batches,
                   client_error);
    });
  Stopwatch sw;
  if (mid_schedule) mid_schedule();
  while (sw.seconds() < seconds)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace

int run() {
  const datasets::Scale scale = bench::bench_scale();
  bench::print_header("Chaos serving gate (deadlines, sheds, quarantine/resync)");

  bench::World w = bench::make_world(0, scale);
  Rng rng(7);
  const std::vector<PacketHeader> trace = datasets::uniform_trace(w.reps, 2048, rng);
  const BoxId boxes = static_cast<BoxId>(w.data().net.topology.box_count());

  const std::string wal_dir =
      (std::filesystem::temp_directory_path() / "apc_serve_chaos_wal").string();
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);

  server::ShardedCluster::Options copts;
  copts.shards = kShards;
  copts.engine.num_threads = 2;
  copts.wal_dir = wal_dir;
  server::ShardedCluster cluster(w.data().net, copts);

  server::TcpServer::Options sopts;
  sopts.read_idle_timeout_ms = 250;
  sopts.write_timeout_ms = 250;
  sopts.so_sndbuf = 16384;
  sopts.max_connections = 10;
  sopts.drain_timeout_ms = 2000;
  server::TcpServer server(cluster, sopts);
  std::printf("cluster up: %zu shards, port %u, cap %zu, deadlines %d/%d ms\n",
              cluster.shard_count(), server.port(), sopts.max_connections,
              sopts.read_idle_timeout_ms, sopts.write_timeout_ms);

  std::vector<std::string> failures;
  auto gate = [&](bool ok, const std::string& what) {
    if (ok) {
      std::printf("[gate] PASS: %s\n", what.c_str());
    } else {
      std::printf("[gate] FAIL: %s\n", what.c_str());
      failures.push_back(what);
    }
  };

  DegradedLog degraded;
  std::atomic<std::uint64_t> batches_base{0}, batches_fault{0};
  std::atomic<bool> client_error{false};

  // ---- phase 0: fault-free baseline -------------------------------------
  std::printf("\n-- phase 0: fault-free baseline --\n");
  const std::vector<double> base_us = run_population(
      server.port(), trace, boxes, 0.8, degraded, batches_base, client_error, {});
  const double p99_base = percentile_or(base_us, 99.0);
  std::printf("baseline: %llu batches, p50 %.0f us, p99 %.0f us\n",
              static_cast<unsigned long long>(batches_base.load()),
              percentile_or(base_us, 50.0), p99_base);
  gate(!client_error.load(), "baseline population served without errors");
  gate(degraded.replies.size() == 0, "baseline replies are not degraded");

  // ---- phase 1: fault schedule ------------------------------------------
  std::printf("\n-- phase 1: fault schedule --\n");
  server::ChaosProxy::Options pa;
  pa.upstream_port = server.port();
  server::ChaosProxy trickle_proxy(pa);
  server::ChaosProxy reader_proxy(pa);

#if defined(APC_FAULT_INJECTION)
  // One replica failure: the next batch's first attempt throws, and the
  // next routable replica reruns the whole batch (a degraded reply).  One
  // failure at a time, between the steps below, keeps every shard far from
  // the breaker's five consecutive failures, so the quarantine and resync
  // gates still mean what they say.
  const auto fail_one_batch = [] {
    auto& inj = util::FaultInjector::instance();
    util::FaultPlan plan;
    plan.kind = util::FaultPlan::Kind::kThrow;
    inj.arm("cluster.shard.batch", plan);
    wait_until([&] { return inj.hits("cluster.shard.batch") > 0; }, 2000);
  };
#else
  const auto fail_one_batch = [] {};
#endif

  std::atomic<bool> trickle_ok{false};
  const std::vector<double> fault_us = run_population(
      server.port(), trace, boxes, 2.5, degraded, batches_fault, client_error,
      [&] {
        // (a) one shard drops out; batches skip it, resync re-admits it.
        // From here to (f) a replica fails one batch after each step.
        cluster.quarantine_shard(2);
        fail_one_batch();

        // (b) slowloris: a client trickling 2 bytes every 5 ms must never
        // trip the idle deadline (every byte resets the clock).  Runs before
        // the connection-cap burst so its connect cannot be shed; the
        // connection stays open to be RSTed mid-stream in (e).
        trickle_proxy.set_trickle(2, 5);
        std::unique_ptr<LineClient> slow;
        try {
          slow = std::make_unique<LineClient>(trickle_proxy.port());
          bool all_ok = true;
          for (int i = 0; i < 5 && all_ok; ++i) {
            slow->send("EPOCH\n");
            all_ok = slow->read_line().rfind("200 ", 0) == 0;
          }
          trickle_ok.store(all_ok, std::memory_order_release);
        } catch (const std::exception&) {
        }
        fail_one_batch();

        // (c) dead reader: a big batch whose reply back-pressures into the
        // server's send buffer; the write deadline must free the thread.
        std::thread dead_reader([&] {
          try {
            LineClient dead(reader_proxy.port());
            reader_proxy.set_drop_downstream(true);
            std::string out;
            for (std::size_t i = 0; i < 60000; ++i) {
              out += server::format_classify(trace[i % trace.size()]);
              out += '\n';
            }
            out += "GO\n";
            dead.send(out);
            // Never reads; the proxy never drains the server side either.
          } catch (const std::exception&) {
          }
        });
        fail_one_batch();

        // (d) connection-cap burst: 12 silent connects on top of the live
        // population must shed at the door; the accepted ones sit silent
        // until the idle deadline 408s them.
        std::vector<std::unique_ptr<LineClient>> burst;
        std::size_t shed_seen = 0;
        for (int i = 0; i < 12; ++i) {
          try {
            burst.push_back(std::make_unique<LineClient>(server.port()));
          } catch (const std::exception&) {
            ++shed_seen;  // backlog/daemon refused outright: also shed-like
          }
        }
        for (auto& c : burst) {
          const std::string line = c->read_line();
          if (line.rfind("503 ", 0) == 0) ++shed_seen;
        }
        std::printf("burst of 12 silent connects: %zu shed/refused\n", shed_seen);
        burst.clear();
        fail_one_batch();

        // (e) RST the trickled connection mid-stream; the server thread
        // serving it must exit on the reset, not park.
        trickle_proxy.inject_rst();
        slow.reset();
        dead_reader.join();
        fail_one_batch();

        // (f) the quarantined shard must resync and come back while the
        // population keeps running.
        wait_until([&] {
          return cluster.shard_state(2) == server::ShardState::kHealthy;
        }, 10000);

#if defined(APC_FAULT_INJECTION)
        // The batch faults end here, before (g) applies any update: every
        // degraded reply answers the initial rule set.
        util::FaultInjector::instance().disarm("cluster.shard.batch");

        // (g) WAL chaos: an ENOSPC burst is absorbed by retries; an EIO
        // poisons the WAL, flipping the owner shard read-only (updates 503,
        // queries serve) until the resync worker rewrites the log on its
        // own.
        auto& inj = util::FaultInjector::instance();
        server::RuleSpec spec;
        spec.box = 1 % boxes;  // owner shard 1
        spec.rule.dst = parse_prefix("198.18.0.0/16");
        spec.rule.egress_port = 0;
        spec.rule.priority = 5;

        util::FaultPlan burst_plan;
        burst_plan.err = ENOSPC;
        burst_plan.count = 3;
        inj.arm("wal.append.fsync", burst_plan);
        bool retried_ok = false;
        try {
          cluster.add_rule(spec);
          retried_ok = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "ENOSPC burst: %s\n", e.what());
        }
        inj.disarm_all();
        gate(retried_ok, "transient fsync ENOSPC burst absorbed by WAL retries");

        // While every WAL open fails, the worker cannot rewrite the poisoned
        // log, so the shard stays read-only through the gates below.
        util::FaultPlan no_open;
        no_open.count = 0;
        inj.arm("wal.open", no_open);
        util::FaultPlan poison_plan;
        poison_plan.err = EIO;
        inj.arm("wal.append.fsync", poison_plan);
        bool refused = false;
        try {
          cluster.remove_rule(spec);
        } catch (const Error& e) {
          refused = e.code() == ErrorCode::kUnavailable;
        }
        inj.disarm("wal.append.fsync");
        gate(refused, "poisoned WAL refuses owned updates with kUnavailable");
        gate(cluster.shard_read_only(1 % kShards),
             "poisoned shard is read-only");
        bool other_ok = false;
        server::RuleSpec other = spec;
        other.box = 2 % boxes;  // owner shard 2: its WAL is fine
        other.rule.dst = parse_prefix("198.19.128.0/17");
        try {
          cluster.add_rule(other);
          other_ok = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "healthy-owner update: %s\n", e.what());
        }
        gate(other_ok, "updates owned by healthy shards still apply");
        // No quarantine_shard() call: with opens working again the worker's
        // next attempt rewrites the log and clears read-only.
        inj.disarm("wal.open");
        const bool recovered = wait_until([&] {
          return cluster.shard_state(1 % kShards) == server::ShardState::kHealthy &&
                 !cluster.shard_read_only(1 % kShards);
        }, 10000);
        gate(recovered, "poisoned shard resyncs back to writable");
        bool retry_ok = false;
        try {
          cluster.remove_rule(spec);
          retry_ok = true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "post-resync update: %s\n", e.what());
        }
        gate(retry_ok, "refused update succeeds after resync");
#endif
      });

  const double p99_fault = percentile_or(fault_us, 99.0);
  std::printf("under faults: %llu batches, %zu degraded, p50 %.0f us, "
              "p99 %.0f us (baseline p99 %.0f us)\n",
              static_cast<unsigned long long>(batches_fault.load()),
              degraded.replies.size(),
              percentile_or(fault_us, 50.0), p99_fault, p99_base);

  // ---- gates -------------------------------------------------------------
  std::printf("\n-- gates --\n");
  trickle_proxy.stop();
  reader_proxy.stop();
  gate(!client_error.load(), "healthy population served through every fault");
  gate(trickle_ok.load(), "trickled client beat the idle deadline");
  const double slo = std::max(2.0 * p99_base, p99_base + 500.0);
  gate(p99_fault <= slo, "healthy p99 under faults within SLO (" +
                             std::to_string(p99_fault) + " us <= " +
                             std::to_string(slo) + " us)");
  gate(server.timeouts() > 0, "deadlines fired (server.timeouts > 0)");
  gate(server.sheds() > 0, "connection cap shed (server.sheds > 0)");
  gate(cluster.resyncs() >= 1, "quarantined shard was re-admitted (resyncs >= 1)");
  gate(cluster.shard_state(2) == server::ShardState::kHealthy,
       "quarantined shard is healthy again");
  const bool drained = wait_until([&] { return server.live_sessions() == 0; }, 5000);
  gate(drained, "zero hung threads (live_sessions drained to 0, got " +
                    std::to_string(server.live_sessions()) + ")");

  // A rerun batch must answer as a healthy one would.  Batch faults end
  // before the first update, so every degraded reply should name epoch 0,
  // whose answers are the reference classifier's.
  std::size_t wrong_answers = 0;
  for (const DegradedReply& r : degraded.replies) {
    if (r.epoch != 0) ++wrong_answers;
    for (std::size_t i = 0; i < r.lines.size(); ++i) {
      const PacketHeader& h = trace[r.header[i]];
      std::string want;
      if (r.ingress[i] == kClassifyLine)
        server::append_classify_answer(want, w.clf->classify(h));
      else
        want = server::format_behavior_summary(w.clf->query(h, r.ingress[i]));
      if (r.lines[i] != want) ++wrong_answers;
    }
  }
  gate(wrong_answers == 0,
       "degraded replies answer epoch 0 like the reference classifier (" +
           std::to_string(degraded.replies.size()) + " replies, " +
           std::to_string(wrong_answers) + " wrong)");
#if defined(APC_FAULT_INJECTION)
  gate(degraded.replies.size() > 0 && cluster.reroutes() > 0,
       "failed replicas' batches were rerun (" + std::to_string(degraded.replies.size()) +
           " degraded replies, " + std::to_string(cluster.reroutes()) + " reroutes)");
#endif

  // Final clean batch: every shard back in rotation, reply not degraded.
  {
    LineClient fin(server.port());
    std::string out;
    for (std::size_t i = 0; i < kShards * 4; ++i) {
      out += server::format_query(static_cast<BoxId>(i % boxes), trace[i]);
      out += '\n';
    }
    out += "GO\n";
    fin.send(out);
    const std::string status = fin.read_line();
    gate(status.rfind("201 ", 0) == 0 &&
             status.find(" degraded=1") == std::string::npos,
         "final batch is clean (201, not degraded): \"" + status + "\"");
  }

  const obs::MetricsSnapshot stats = cluster.stats();
  const auto* wal_retries = stats.find("wal.retries");

  BenchJson out("serve_chaos");
  out.row("chaos.p99_base_us", p99_base, "us", kHealthyClients);
  out.row("chaos.p99_fault_us", p99_fault, "us", kHealthyClients);
  out.row("chaos.batches_base", static_cast<double>(batches_base.load()), "count",
          kHealthyClients);
  out.row("chaos.batches_fault", static_cast<double>(batches_fault.load()), "count",
          kHealthyClients);
  out.row("chaos.degraded_batches", static_cast<double>(degraded.replies.size()), "count",
          kHealthyClients);
  out.row("chaos.timeouts", static_cast<double>(server.timeouts()), "count");
  out.row("chaos.sheds", static_cast<double>(server.sheds()), "count");
  out.row("chaos.resyncs", static_cast<double>(cluster.resyncs()), "count");
  out.row("chaos.reroutes", static_cast<double>(cluster.reroutes()), "count");
  out.row("chaos.wal_retries", wal_retries ? wal_retries->value : 0.0, "count");
  out.row("chaos.gate_failures", static_cast<double>(failures.size()), "count");

  server.stop();
  std::filesystem::remove_all(wal_dir);
  if (!failures.empty()) {
    std::printf("\n%zu gate failure(s):\n", failures.size());
    for (const auto& f : failures) std::printf("  FAIL: %s\n", f.c_str());
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}

}  // namespace apc

int main() { return apc::run(); }
