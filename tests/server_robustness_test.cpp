// Fault-resilience tests for the serving layer (see docs/architecture.md,
// "Overload & failure handling"): connection deadlines (408), connection
// caps (503 shed), graceful drain, the finished-session reaper, the
// ChaosProxy transport-fault fixture, the shard circuit breaker +
// quarantine/resync cycle, and WAL poisoning flipping a shard read-only.
// The fault-injection–gated suites additionally drive the breaker and the
// WAL retry/poison paths deterministically.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "packet/ipv4.hpp"
#include "server/chaos_proxy.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace apc::server {
namespace {

using datasets::Dataset;
using datasets::Scale;

/// Polls `pred` every millisecond until true or `budget_ms` elapses.
bool wait_until(const std::function<bool()>& pred, int budget_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Minimal blocking line client (mirrors the one in server_test.cpp, plus
/// an SO_RCVBUF knob so a test can shrink its receive window BEFORE the
/// connect — that is what makes a non-reading peer back-pressure the
/// server's send() within one reply).
class LineClient {
 public:
  explicit LineClient(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (rcvbuf > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next '\n'-terminated line (without the terminator); "" on EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True on EOF or error (server closed/reset the connection).
  bool at_eof() {
    char c;
    return ::recv(fd_, &c, 1, 0) <= 0;
  }

  /// Abrupt close: RST instead of FIN, like a crashed client.
  void kill() {
    if (fd_ < 0) return;
    struct linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct RobustWorld {
  datasets::Dataset data;
  std::shared_ptr<bdd::BddManager> mgr = Dataset::make_manager();
  ApClassifier reference;
  std::vector<PacketHeader> trace;

  explicit RobustWorld(std::uint64_t seed = 11)
      : data(datasets::internet2_like(Scale::Tiny, seed)),
        reference(data.net, mgr) {
    Rng rng(seed * 31 + 1);
    const auto reps = datasets::atom_representatives(reference.atoms(), rng);
    trace = datasets::uniform_trace(reps, 96, rng);
  }

  ShardedCluster::Options cluster_options(std::size_t shards) const {
    ShardedCluster::Options o;
    o.shards = shards;
    o.engine.num_threads = 2;
    return o;
  }

  /// `n` buffered classify lines followed by GO — a batch whose reply
  /// ("A <atom>\n" per item) is big enough to overflow small socket buffers.
  std::string classify_batch(std::size_t n) const {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      out += format_classify(trace[i % trace.size()]);
      out += '\n';
    }
    out += "GO\n";
    return out;
  }
};

// --------------------------------------------------------- read deadlines

TEST(ServerRobustness, IdleClientTimesOutWith408AndFreesThread) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.read_idle_timeout_ms = 150;
  TcpServer server(cluster, opts);

  LineClient silent(server.port());
  ASSERT_TRUE(silent.ok());
  // Send nothing: the read-idle deadline must answer 408 and close.
  const std::string line = silent.read_line();
  EXPECT_EQ(line.rfind("408 ", 0), 0u) << line;
  EXPECT_NE(line.find("idle timeout"), std::string::npos) << line;
  EXPECT_TRUE(silent.at_eof());
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000))
      << "timed-out connection thread must exit";
  EXPECT_GE(server.timeouts(), 1u);
}

TEST(ServerRobustness, ActiveClientNeverTripsIdleDeadline) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.read_idle_timeout_ms = 200;
  TcpServer server(cluster, opts);

  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  // Keep the connection alive well past the idle budget with real traffic.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  while (std::chrono::steady_clock::now() < deadline) {
    client.send("EPOCH\n");
    EXPECT_EQ(client.read_line(), "200 0");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(server.timeouts(), 0u);
}

// -------------------------------------------------------- write deadlines

TEST(ServerRobustness, StalledReaderHitsWriteDeadline) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.write_timeout_ms = 250;
  opts.so_sndbuf = 4096;  // so the reply overflows the kernel buffers
  TcpServer server(cluster, opts);

  LineClient reader(server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(reader.ok());
  // A large batch whose reply cannot fit in sndbuf+rcvbuf; the client never
  // reads a byte, so send_all must park on POLLOUT and then give up.
  reader.send(w.classify_batch(60000));
  EXPECT_TRUE(wait_until([&] { return server.timeouts() >= 1; }, 5000))
      << "write deadline must fire against a non-reading peer";
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000))
      << "the stalled writer thread must exit, not park forever";
}

// ------------------------------------------------- abrupt client failures

TEST(ServerRobustness, RstMidBatchFreesThreadAndKeepsServing) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer server(cluster, TcpServer::Options{});

  LineClient doomed(server.port());
  ASSERT_TRUE(doomed.ok());
  doomed.send(format_classify(w.trace[0]) + "\n");  // buffered, no GO
  doomed.kill();                                    // RST, batch abandoned
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000));

  LineClient survivor(server.port());
  ASSERT_TRUE(survivor.ok());
  survivor.send("EPOCH\n");
  EXPECT_EQ(survivor.read_line(), "200 0");
}

TEST(ServerRobustness, ConnectNeverWriteFreesThreadViaDeadline) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.read_idle_timeout_ms = 120;
  TcpServer server(cluster, opts);
  {
    LineClient ghost(server.port());
    ASSERT_TRUE(ghost.ok());
    // Half-open peer: connects, never writes, never reads, then vanishes
    // abruptly while the server still thinks it is there.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ghost.kill();
  }
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000));
  EXPECT_EQ(server.connections_accepted(), 1u);
}

// ---------------------------------------------------------- reaper + caps

TEST(ServerRobustness, ReaperRunsWithoutNewAccepts) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer server(cluster, TcpServer::Options{});
  {
    LineClient client(server.port());
    ASSERT_TRUE(client.ok());
    client.send("EPOCH\n");
    EXPECT_EQ(client.read_line(), "200 0");
  }  // orderly close
  // The finished session must be observed gone WITHOUT any further connect:
  // the acceptor reaps on every poll wake, not only on the next accept.
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000));
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(ServerRobustness, ConnectionCapShedsWith503) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.max_connections = 2;
  TcpServer server(cluster, opts);

  LineClient a(server.port());
  LineClient b(server.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Round-trips guarantee both sessions are live before the third connect.
  a.send("EPOCH\n");
  EXPECT_EQ(a.read_line(), "200 0");
  b.send("EPOCH\n");
  EXPECT_EQ(b.read_line(), "200 0");

  LineClient shed(server.port());
  ASSERT_TRUE(shed.ok());
  const std::string line = shed.read_line();
  EXPECT_EQ(line.rfind("503 ", 0), 0u) << line;
  EXPECT_NE(line.find("shed"), std::string::npos) << line;
  EXPECT_TRUE(shed.at_eof());
  EXPECT_GE(server.sheds(), 1u);

  // Capacity freed by a departing client is usable again.
  a.kill();
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() <= 1; }, 2000));
  LineClient c(server.port());
  ASSERT_TRUE(c.ok());
  c.send("EPOCH\n");
  EXPECT_EQ(c.read_line(), "200 0");
}

// --------------------------------------------------------- graceful drain

TEST(ServerRobustness, GracefulDrainFinishesInFlightBatch) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.drain_timeout_ms = 5000;
  TcpServer server(cluster, opts);
  const std::uint16_t port = server.port();

  LineClient idle(port);
  ASSERT_TRUE(idle.ok());
  idle.send("EPOCH\n");
  ASSERT_EQ(idle.read_line(), "200 0");

  constexpr std::size_t kItems = 30000;
  std::atomic<bool> done{false};
  std::string status;
  std::size_t answers = 0;
  std::thread client_thread([&] {
    LineClient busy(port);
    if (!busy.ok()) {
      done.store(true);
      return;
    }
    busy.send(w.classify_batch(kItems));
    status = busy.read_line();
    for (std::size_t i = 0; i < kItems; ++i) {
      if (busy.read_line().empty()) break;
      ++answers;
    }
    done.store(true);
  });

  // Catch the batch in flight, then stop(): the reply must still complete.
  const bool caught = wait_until(
      [&] { return server.active_batches() >= 1 || done.load(); }, 5000);
  EXPECT_TRUE(caught);
  server.stop();
  client_thread.join();

  EXPECT_EQ(status.rfind("201 ", 0), 0u) << status;
  EXPECT_EQ(answers, kItems) << "drain must flush the whole in-flight reply";
  // The idle connection was told why it is being cut off.
  const std::string drained = idle.read_line();
  EXPECT_EQ(drained.rfind("503 ", 0), 0u) << drained;
  EXPECT_NE(drained.find("draining"), std::string::npos) << drained;
  // And the listener is gone: new connects fail outright.
  LineClient late(port);
  if (late.ok()) {
    // A TIME_WAIT race can let connect() succeed; the read must then fail.
    late.send("EPOCH\n");
    EXPECT_EQ(late.read_line(), "");
  }
}

// ------------------------------------------------------------- STATS rows

TEST(ServerRobustness, StatsExposeRobustnessRowsAsIntegers) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer server(cluster, TcpServer::Options{});
  LineClient client(server.port());
  ASSERT_TRUE(client.ok());
  client.send("STATS\n");
  const std::string header = client.read_line();
  ASSERT_EQ(header.rfind("202 ", 0), 0u) << header;
  const std::size_t rows = std::stoul(header.substr(4));
  bool saw_timeouts = false, saw_sheds = false, saw_live = false,
       saw_state = false, saw_resyncs = false, saw_wal_retries = false;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string row = client.read_line();
    ASSERT_FALSE(row.empty());
    const std::size_t sp = row.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << row;
    const std::string name = row.substr(0, sp);
    const std::string value = row.substr(sp + 1);
    if (name == "server.timeouts") saw_timeouts = true;
    if (name == "server.sheds") saw_sheds = true;
    if (name == "server.live_sessions") saw_live = true;
    if (name == "cluster.shard_state") saw_state = true;
    if (name == "cluster.resyncs") saw_resyncs = true;
    if (name == "wal.retries") saw_wal_retries = true;
    // Counter-ish rows print as exact integers (no mantissa truncation).
    if (name.rfind("server.", 0) == 0 || name == "cluster.updates_applied") {
      EXPECT_EQ(value.find('.'), std::string::npos) << row;
      EXPECT_EQ(value.find('e'), std::string::npos) << row;
    }
  }
  EXPECT_TRUE(saw_timeouts);
  EXPECT_TRUE(saw_sheds);
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_state);
  EXPECT_TRUE(saw_resyncs);
  EXPECT_TRUE(saw_wal_retries);
}

TEST(ServerRobustness, StatValueFormattingRoundTripsIntegers) {
  // 2^60 has 19 significant digits; "%.10g" would destroy it.
  const double big = 1152921504606846976.0;  // 2^60, exactly representable
  EXPECT_EQ(format_stat_value(big), "1152921504606846976");
  EXPECT_EQ(std::stoull(format_stat_value(big)), 1152921504606846976ull);
  EXPECT_EQ(format_stat_value(42.0), "42");
  EXPECT_EQ(format_stat_value(0.0), "0");
  EXPECT_EQ(format_stat_value(-7.0), "-7");
  // Non-integral values keep the compact %g form.
  EXPECT_EQ(format_stat_value(0.5), "0.5");
  // Magnitudes past the u64-exact range fall back to %g too.
  EXPECT_EQ(format_stat_value(1e19), "1e+19");
}

// ------------------------------------------------------------- ChaosProxy

TEST(ChaosProxyFaults, TrickledBytesKeepIdleClockAliveStallTripsIt) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.read_idle_timeout_ms = 200;
  TcpServer server(cluster, opts);
  ChaosProxy::Options popts;
  popts.upstream_port = server.port();
  ChaosProxy proxy(popts);

  // Slowloris pacing that still beats the deadline: 1 byte every 10 ms.
  proxy.set_trickle(1, 10);
  LineClient client(proxy.port());
  ASSERT_TRUE(client.ok());
  client.send("EPOCH\n");
  EXPECT_EQ(client.read_line(), "200 0");
  EXPECT_EQ(server.timeouts(), 0u)
      << "each trickled byte must reset the idle clock";

  // Full stall: now the server sees a genuinely silent peer.
  proxy.set_stall(true);
  EXPECT_TRUE(wait_until([&] { return server.timeouts() >= 1; }, 3000));
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000));
  proxy.stop();
}

TEST(ChaosProxyFaults, InjectedRstFreesServerThread) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer server(cluster, TcpServer::Options{});
  ChaosProxy::Options popts;
  popts.upstream_port = server.port();
  ChaosProxy proxy(popts);

  LineClient via(proxy.port());
  ASSERT_TRUE(via.ok());
  via.send("EPOCH\n");
  ASSERT_EQ(via.read_line(), "200 0");
  ASSERT_EQ(server.live_sessions(), 1u);

  proxy.inject_rst();
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000));
  EXPECT_TRUE(via.at_eof());

  // The server itself is unharmed: a direct client still gets answers.
  LineClient direct(server.port());
  ASSERT_TRUE(direct.ok());
  direct.send("EPOCH\n");
  EXPECT_EQ(direct.read_line(), "200 0");
  proxy.stop();
}

TEST(ChaosProxyFaults, DeadReaderBackPressureTripsWriteDeadline) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  TcpServer::Options opts;
  opts.write_timeout_ms = 250;
  opts.so_sndbuf = 4096;
  TcpServer server(cluster, opts);
  ChaosProxy::Options popts;
  popts.upstream_port = server.port();
  ChaosProxy proxy(popts);

  LineClient client(proxy.port());
  ASSERT_TRUE(client.ok());
  // The request flows upstream normally; then the proxy stops draining the
  // server side, so the (large) reply back-pressures into the server's
  // send buffer exactly like a dead reader.
  proxy.set_drop_downstream(true);
  client.send(w.classify_batch(60000));
  EXPECT_TRUE(wait_until([&] { return server.timeouts() >= 1; }, 5000));
  EXPECT_TRUE(wait_until([&] { return server.live_sessions() == 0; }, 2000));
  proxy.stop();
}

// ------------------------------------------------ quarantine/resync cycle

TEST(ClusterResilience, QuarantineReroutesThenResyncReadmits) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(3));

  RuleSpec r1;
  r1.box = 1;
  r1.rule.dst = parse_prefix("10.66.0.0/16");
  r1.rule.egress_port = 0;
  r1.rule.priority = 80;
  ASSERT_EQ(cluster.add_rule(r1), 1u);
  auto fork = w.reference.fork();
  fork->insert_fib_rule(r1.box, r1.rule);

  // All queries homed on shard 1; expectations from the reference fork.
  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 12; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = 1;
    items.push_back(q);
    expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
  }
  auto check = [&](const ShardedCluster::BatchResult& res) {
    ASSERT_EQ(res.lines.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  };

  cluster.quarantine_shard(1);
  // While shard 1 is out of rotation, its queries are answered by a healthy
  // replica and flagged degraded; answers stay correct throughout.
  bool saw_degraded = false;
  for (int round = 0; round < 200; ++round) {
    const auto res = cluster.run_batch(items);
    check(res);
    saw_degraded |= res.degraded;
    if (cluster.shard_state(1) == ShardState::kHealthy && !res.degraded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(saw_degraded)
      << "queries homed on the quarantined shard must be flagged degraded";
  EXPECT_TRUE(wait_until(
      [&] { return cluster.shard_state(1) == ShardState::kHealthy; }, 10000))
      << "resync must re-admit the shard";
  EXPECT_GE(cluster.resyncs(), 1u);
  EXPECT_GE(cluster.reroutes(), 1u);

  // Post-readmission: home routing again, replies no longer degraded.
  const auto res = cluster.run_batch(items);
  check(res);
  EXPECT_FALSE(res.degraded);
}

TEST(ClusterResilience, UpdatesDuringQuarantineReachTheResyncedShard) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(3));
  cluster.quarantine_shard(2);

  // Apply an update while shard 2 is (possibly still) out of rotation; the
  // resync replays it from the in-memory log, so the re-admitted replica
  // must answer as if it had seen the update live.
  RuleSpec spec;
  spec.box = 0;
  spec.rule.dst = parse_prefix("10.99.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 70;
  const std::uint64_t epoch = cluster.add_rule(spec);
  EXPECT_GE(epoch, 1u);

  ASSERT_TRUE(wait_until(
      [&] { return cluster.shard_state(2) == ShardState::kHealthy; }, 10000));
  auto fork = w.reference.fork();
  fork->insert_fib_rule(spec.box, spec.rule);

  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 12; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = 2;  // homed on the re-admitted shard
    items.push_back(q);
    expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
  }
  const auto res = cluster.run_batch(items);
  EXPECT_FALSE(res.degraded);
  ASSERT_EQ(res.lines.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  // The resynced replica's snapshot is in the view of the cluster epoch.
  const auto view = cluster.pin();
  EXPECT_EQ(view.epoch, cluster.epoch());
  EXPECT_EQ(view.snaps[2], cluster.shard(2)->snapshot());
}

TEST(ClusterResilience, ResyncPublishesOneSnapshotIntoTheCurrentView) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));
  RuleSpec spec;
  spec.box = 1;
  spec.rule.dst = parse_prefix("10.98.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 70;
  ASSERT_EQ(cluster.add_rule(spec), 1u);
  const std::shared_ptr<const engine::QueryEngine> before = cluster.shard(1);
  cluster.quarantine_shard(1);
  ASSERT_TRUE(wait_until(
      [&] { return cluster.shard_state(1) == ShardState::kHealthy; }, 10000));

  // The rebuilt replica builds one snapshot, its first, and that snapshot
  // is shard 1's entry in the view of the current epoch.
  const std::shared_ptr<const engine::QueryEngine> after = cluster.shard(1);
  ASSERT_NE(after, before);
  EXPECT_EQ(after->publish_count(), 1u);
  const auto view = cluster.pin();
  EXPECT_EQ(view.epoch, cluster.epoch());
  EXPECT_EQ(view.epoch, 1u);
  ASSERT_EQ(view.snaps[1], after->snapshot());
  auto fork = w.reference.fork();
  fork->insert_fib_rule(spec.box, spec.rule);
  for (std::size_t i = 0; i < 24; ++i)
    EXPECT_EQ(format_behavior_summary(view.snaps[1]->query(w.trace[i], 1)),
              format_behavior_summary(fork->query(w.trace[i], 1)))
        << "probe " << i;
}

#if defined(APC_FAULT_INJECTION)

// Deterministic breaker + WAL-poison paths (need armed fault sites).
class ClusterFaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};

TEST_F(ClusterFaultInjection, BreakerDegradesThenQuarantinesAndResyncs) {
  RobustWorld w;
  ShardedCluster::Options opts = w.cluster_options(2);
  opts.breaker_degrade_after = 1;
  opts.breaker_quarantine_after = 3;
  ShardedCluster cluster(w.data.net, opts);

  // Every primary batch execution on the (only busy) shard 0 fails 3 times.
  util::FaultPlan plan;
  plan.kind = util::FaultPlan::Kind::kThrow;
  plan.count = 3;
  util::FaultInjector::instance().arm("cluster.shard.batch", plan);

  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 8; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = 0;  // all routed to shard 0 -> one fault-site hit per batch
    items.push_back(q);
    expected.push_back(
        format_behavior_summary(w.reference.query(q.header, q.ingress)));
  }
  auto check = [&](const ShardedCluster::BatchResult& res) {
    ASSERT_EQ(res.lines.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  };

  // Failure 1: breaker degrades shard 0; the batch is rerouted and correct.
  auto res = cluster.run_batch(items);
  check(res);
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(cluster.shard_state(0), ShardState::kDegraded);

  // Failures 2 and 3: the third consecutive failure quarantines.
  res = cluster.run_batch(items);
  check(res);
  EXPECT_TRUE(res.degraded);
  res = cluster.run_batch(items);
  check(res);
  EXPECT_TRUE(res.degraded);
  EXPECT_GE(cluster.reroutes(), 3u);

  // The plan is exhausted; resync re-admits shard 0 and replies go clean.
  EXPECT_TRUE(wait_until(
      [&] { return cluster.shard_state(0) == ShardState::kHealthy; }, 10000));
  EXPECT_GE(cluster.resyncs(), 1u);
  res = cluster.run_batch(items);
  check(res);
  EXPECT_FALSE(res.degraded);
}

TEST_F(ClusterFaultInjection, WalPoisonFlipsShardReadOnlyUntilResync) {
  RobustWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_poison_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ShardedCluster::Options opts = w.cluster_options(2);
  opts.wal_dir = dir;
  ShardedCluster cluster(w.data.net, opts);

  RuleSpec owned0;  // box 0 -> owner shard 0
  owned0.box = 0;
  owned0.rule.dst = parse_prefix("10.50.0.0/16");
  owned0.rule.egress_port = 0;
  owned0.rule.priority = 50;
  RuleSpec owned1 = owned0;  // box 1 -> owner shard 1
  owned1.box = 1;
  owned1.rule.dst = parse_prefix("10.51.0.0/16");

  // EIO on fsync is NOT retried (fsyncgate): one hit poisons shard 0's WAL.
  util::FaultPlan plan;
  plan.kind = util::FaultPlan::Kind::kErrno;
  plan.err = EIO;
  plan.count = 1;
  util::FaultInjector::instance().arm("wal.append.fsync", plan);
  try {
    cluster.add_rule(owned0);
    FAIL() << "poisoned WAL append must refuse the update";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable) << e.what();
    EXPECT_NE(std::string(e.what()).find("read-only"), std::string::npos);
  }
  EXPECT_TRUE(cluster.shard_read_only(0));
  EXPECT_EQ(cluster.epoch(), 0u) << "refused update must not bump the epoch";

  // Queries keep serving; updates owned by the HEALTHY shard keep working.
  std::vector<ShardedCluster::BatchItem> items(4);
  for (auto& it : items) {
    it.is_query = true;
    it.header = w.trace[0];
    it.ingress = 0;
  }
  EXPECT_NO_THROW((void)cluster.run_batch(items));
  EXPECT_EQ(cluster.add_rule(owned1), 1u);

  // Updates owned by the read-only shard stay refused until resync.
  try {
    cluster.add_rule(owned0);
    FAIL() << "read-only shard must keep refusing owned updates";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable) << e.what();
  }

  // Resync rewrites the WAL from the in-memory log and clears read-only.
  cluster.quarantine_shard(0);
  ASSERT_TRUE(wait_until(
      [&] {
        return cluster.shard_state(0) == ShardState::kHealthy &&
               !cluster.shard_read_only(0);
      },
      10000));
  EXPECT_EQ(cluster.add_rule(owned0), 2u);

  // A group spanning both owner shards, with shard 0's fsync failing: its
  // records get 503 and it goes read-only, while shard 1's records apply
  // with consecutive epochs.
  RuleSpec group0 = owned0;  // box 2 -> owner shard 0
  group0.box = 2;
  group0.rule.dst = parse_prefix("10.52.0.0/16");
  RuleSpec group1 = owned1;  // box 3 -> owner shard 1
  group1.box = 3;
  group1.rule.dst = parse_prefix("10.53.0.0/16");
  const std::vector<ShardedCluster::Update> group = {
      {true, owned1}, {true, group0}, {true, group1}, {false, owned0}};
  util::FaultInjector::instance().arm("wal.append.fsync", plan);
  std::vector<ShardedCluster::UpdateOutcome> out;
  cluster.apply_updates(group, out);
  ASSERT_EQ(out.size(), group.size());
  EXPECT_EQ(out[0].epoch, 3u) << out[0].message;
  EXPECT_EQ(out[2].epoch, 4u) << out[2].message;
  for (const std::size_t i : {1u, 3u}) {
    EXPECT_FALSE(out[i].applied()) << "record " << i;
    EXPECT_EQ(out[i].error, ErrorCode::kUnavailable) << out[i].message;
    EXPECT_NE(out[i].message.find("read-only"), std::string::npos) << out[i].message;
  }
  EXPECT_TRUE(cluster.shard_read_only(0));
  EXPECT_FALSE(cluster.shard_read_only(1));
  EXPECT_EQ(cluster.epoch(), 4u);
  cluster.quarantine_shard(0);
  ASSERT_TRUE(wait_until(
      [&] {
        return cluster.shard_state(0) == ShardState::kHealthy &&
               !cluster.shard_read_only(0);
      },
      10000));

  // The rewritten per-shard WALs recover to exactly the applied updates.
  {
    ShardedCluster recovered(w.data.net, opts);
    EXPECT_EQ(recovered.updates_applied(), 4u);
    EXPECT_EQ(recovered.epoch(), 0u);
    auto fork = w.reference.fork();
    fork->insert_fib_rule(owned1.box, owned1.rule);
    fork->insert_fib_rule(owned0.box, owned0.rule);
    fork->insert_fib_rule(owned1.box, owned1.rule);
    fork->insert_fib_rule(group1.box, group1.rule);
    std::vector<ShardedCluster::BatchItem> qs;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < 8; ++i) {
      ShardedCluster::BatchItem q;
      q.is_query = true;
      q.header = w.trace[i];
      q.ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
      qs.push_back(q);
      expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
    }
    const auto res = recovered.run_batch(qs);
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  }
  std::filesystem::remove_all(dir);
}

// A resync that cannot write the shard's new WAL must leave the old one in
// place: the shard's acknowledged updates survive every failed attempt and
// a restart.
TEST_F(ClusterFaultInjection, FailedResyncKeepsTheShardWal) {
  RobustWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_failed_resync_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ShardedCluster::Options opts = w.cluster_options(2);
  opts.wal_dir = dir;
  opts.resync_backoff = {std::chrono::milliseconds{1}, std::chrono::milliseconds{2}, 2.0,
                         0.0, 2};
  RuleSpec owned0;  // box 0 -> owner shard 0
  owned0.box = 0;
  owned0.rule.dst = parse_prefix("10.60.0.0/16");
  owned0.rule.egress_port = 0;
  owned0.rule.priority = 50;
  {
    ShardedCluster cluster(w.data.net, opts);
    ASSERT_EQ(cluster.add_rule(owned0), 1u);
    util::FaultPlan plan;
    plan.kind = util::FaultPlan::Kind::kErrno;
    plan.err = EIO;
    plan.count = 0;  // every WAL open fails
    util::FaultInjector::instance().arm("wal.open", plan);
    cluster.quarantine_shard(0);
    // The first attempt and both retries fail; the shard stays out.
    ASSERT_TRUE(wait_until([&] { return cluster.resync_failures() == 3; }, 10000));
    EXPECT_EQ(cluster.shard_state(0), ShardState::kQuarantined);
    EXPECT_EQ(cluster.resyncs(), 0u);
    util::FaultInjector::instance().disarm("wal.open");
  }

  ShardedCluster recovered(w.data.net, opts);
  EXPECT_EQ(recovered.updates_applied(), 1u);
  auto fork = w.reference.fork();
  fork->insert_fib_rule(owned0.box, owned0.rule);
  std::vector<ShardedCluster::BatchItem> qs;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 8; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = static_cast<BoxId>(i % w.data.net.topology.box_count());
    qs.push_back(q);
    expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
  }
  const auto res = recovered.run_batch(qs);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  std::filesystem::remove_all(dir);
}

#endif  // APC_FAULT_INJECTION

}  // namespace
}  // namespace apc::server
