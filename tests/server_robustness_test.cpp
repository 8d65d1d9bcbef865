// Fault-resilience tests for the serving layer (see docs/architecture.md,
// "Overload & failure handling"): connection deadlines (408), connection
// caps (503 shed), graceful drain, the finished-session reaper, the
// ChaosProxy transport-fault fixture, the shard circuit breaker +
// quarantine/resync cycle, and WAL poisoning flipping a shard read-only
// until the resync worker rewrites its log.  The fault-injection–gated
// suites additionally drive the breaker, the WAL retry/poison paths and the
// worker's retries deterministically.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
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

// A quarantined shard drops out of the rotation: one connection's batches
// skip it, every answer stays correct, and a skip is not a degraded reply
// (no replica failed).  The resync worker re-admits the shard, and the
// rotation visits it again.
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

  // Queries at every ingress; expectations from the reference fork.
  const auto boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 12; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = static_cast<BoxId>(i % boxes);
    items.push_back(q);
    expected.push_back(format_behavior_summary(fork->query(q.header, q.ingress)));
  }
  ShardedCluster::BatchAnswers answers;
  auto run_and_check = [&] {
    cluster.run_batch_into(items, answers);
    EXPECT_EQ(answers.epoch, 1u);
    EXPECT_FALSE(answers.degraded);
    ASSERT_EQ(answers.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      std::string line;
      answers.append_line(i, line);
      EXPECT_EQ(line, expected[i]) << "item " << i;
    }
  };

  cluster.quarantine_shard(1);
  for (int round = 0; round < 200; ++round) {
    run_and_check();
    if (cluster.shard_state(1) == ShardState::kHealthy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(wait_until(
      [&] { return cluster.shard_state(1) == ShardState::kHealthy; }, 10000))
      << "resync must re-admit the shard";
  EXPECT_GE(cluster.resyncs(), 1u);
  EXPECT_EQ(cluster.reroutes(), 0u);

  // Re-admitted: three consecutive batches visit all three shards again.
  const auto answered = [&](std::size_t i) {
    return cluster.stats().find("shard" + std::to_string(i) + ".batch_us.count")->value;
  };
  std::vector<double> before;
  for (std::size_t i = 0; i < 3; ++i) before.push_back(answered(i));
  for (int k = 0; k < 3; ++k) run_and_check();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(answered(i), before[i] + 1) << "shard " << i;
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

  // The resynced replica's snapshot is in the view of the cluster epoch,
  // and it answers from there as the reference does.
  const ShardedCluster::PinnedView view = cluster.pin();
  EXPECT_EQ(view.epoch, cluster.epoch());
  ASSERT_EQ(view.snaps[2], cluster.shard(2)->snapshot());
  constexpr std::size_t kItems = 12;
  const std::vector<BoxId> ingress(kItems, 2);
  std::vector<AtomId> atoms(kItems);
  std::vector<std::string> got(kItems);
  view.engines[2]->answer_batch_on(
      *view.snaps[2], w.trace.data(), ingress.data(), kItems, atoms.data(),
      [&got](std::size_t k, const Behavior& b) { got[k] = format_behavior_summary(b); });
  for (std::size_t i = 0; i < kItems; ++i)
    EXPECT_EQ(got[i], format_behavior_summary(fork->query(w.trace[i], 2))) << "item " << i;
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

// One resync worker serves every quarantine: back-to-back episodes on one
// cluster each re-admit the shard, and so do two that overlap.
TEST(ClusterResilience, BackToBackQuarantinesEachReadmitTheShard) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(3));
  for (std::uint64_t k = 1; k <= 16; ++k) {
    cluster.quarantine_shard(1);
    ASSERT_TRUE(wait_until(
        [&] {
          return cluster.resyncs() == k && cluster.shard_state(1) == ShardState::kHealthy;
        },
        10000))
        << "episode " << k << ": resyncs " << cluster.resyncs();
  }
  // A quarantine that lands while another shard is being rebuilt wakes the
  // worker again instead of being lost.
  cluster.quarantine_shard(1);
  cluster.quarantine_shard(2);
  ASSERT_TRUE(wait_until(
      [&] {
        return cluster.resyncs() == 18 && cluster.shard_state(1) == ShardState::kHealthy &&
               cluster.shard_state(2) == ShardState::kHealthy;
      },
      10000))
      << "resyncs " << cluster.resyncs();
  EXPECT_EQ(cluster.resync_failures(), 0u);

  std::vector<ShardedCluster::BatchItem> items;
  for (std::size_t i = 0; i < 12; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = static_cast<BoxId>(i % 3);
    items.push_back(q);
  }
  const auto res = cluster.run_batch(items);
  EXPECT_FALSE(res.degraded);
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(res.lines[i], format_behavior_summary(w.reference.query(
                                items[i].header, items[i].ingress)))
        << "item " << i;
}

#if defined(APC_FAULT_INJECTION)

/// The bytes of the file at `path` ("" when it cannot be read).
std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Deterministic breaker + WAL-poison paths (need armed fault sites).
class ClusterFaultInjection : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::instance().disarm_all(); }
};

TEST_F(ClusterFaultInjection, BreakerDegradesThenQuarantinesAndResyncs) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(2));

  // The first attempt of each of the next 5 batches fails; run_batch's
  // fresh cursor puts every batch on shard 0 first.
  util::FaultPlan plan;
  plan.kind = util::FaultPlan::Kind::kThrow;
  plan.count = 5;
  util::FaultInjector::instance().arm("cluster.shard.batch", plan);

  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 8; ++i) {
    ShardedCluster::BatchItem q;
    q.is_query = true;
    q.header = w.trace[i];
    q.ingress = 0;
    items.push_back(q);
    expected.push_back(
        format_behavior_summary(w.reference.query(q.header, q.ingress)));
  }
  auto check = [&](const ShardedCluster::BatchResult& res) {
    ASSERT_EQ(res.lines.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(res.lines[i], expected[i]) << "item " << i;
  };
  const auto quarantines = [&] { return cluster.stats().find("cluster.quarantines")->value; };

  // Failure 1: shard 1 reruns the batch, correctly; shard 0 stays healthy.
  auto res = cluster.run_batch(items);
  check(res);
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(cluster.shard_state(0), ShardState::kHealthy);

  // Failures 2-4: degraded, still in rotation.
  for (int failure = 2; failure <= 4; ++failure) {
    res = cluster.run_batch(items);
    check(res);
    EXPECT_TRUE(res.degraded);
    EXPECT_EQ(cluster.shard_state(0), ShardState::kDegraded) << "failure " << failure;
  }
  EXPECT_EQ(quarantines(), 0.0);

  // Failure 5 quarantines.
  res = cluster.run_batch(items);
  check(res);
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(quarantines(), 1.0);
  EXPECT_GE(cluster.reroutes(), 5u);

  // The plan is exhausted; resync re-admits shard 0 and replies go clean.
  EXPECT_TRUE(wait_until(
      [&] { return cluster.shard_state(0) == ShardState::kHealthy; }, 10000));
  EXPECT_GE(cluster.resyncs(), 1u);
  res = cluster.run_batch(items);
  check(res);
  EXPECT_FALSE(res.degraded);
}

// A replica that fails a batch trips its breaker, and the next routable
// replica reruns the whole batch against the same pinned view: the reply
// names that view's epoch, every answer is correct, degraded is set, and
// the batch counts as one reroute.  The cursor moved past the failed shard
// only, so the connection's next batch lands on the replica after it.
TEST_F(ClusterFaultInjection, FailedReplicaRerunsTheBatchFromTheSameEpoch) {
  RobustWorld w;
  ShardedCluster cluster(w.data.net, w.cluster_options(3));
  RuleSpec spec;
  spec.box = 1;
  spec.rule.dst = parse_prefix("10.67.0.0/16");
  spec.rule.egress_port = 0;
  spec.rule.priority = 80;
  ASSERT_EQ(cluster.add_rule(spec), 1u);
  auto fork = w.reference.fork();
  fork->insert_fib_rule(spec.box, spec.rule);

  const auto boxes = static_cast<BoxId>(w.data.net.topology.box_count());
  std::vector<ShardedCluster::BatchItem> items;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 16; ++i) {
    ShardedCluster::BatchItem it;
    it.header = w.trace[i];
    it.is_query = i % 2 == 1;
    it.ingress = static_cast<BoxId>(i % boxes);
    items.push_back(it);
    expected.push_back(it.is_query ? format_behavior_summary(fork->query(it.header, it.ingress))
                                   : "A " + std::to_string(fork->classify(it.header)));
  }
  const auto row = [&](const std::string& name) { return cluster.stats().find(name)->value; };
  ShardedCluster::BatchAnswers answers;
  const auto check = [&] {
    EXPECT_EQ(answers.epoch, 1u);
    ASSERT_EQ(answers.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      std::string line;
      answers.append_line(i, line);
      EXPECT_EQ(line, expected[i]) << "item " << i;
    }
  };

  util::FaultPlan plan;
  plan.kind = util::FaultPlan::Kind::kThrow;
  plan.count = 1;
  util::FaultInjector::instance().arm("cluster.shard.batch", plan);
  cluster.run_batch_into(items, answers);
  check();
  EXPECT_TRUE(answers.degraded);
  EXPECT_EQ(cluster.reroutes(), 1u);
  EXPECT_EQ(row("shard0.failures"), 1.0);
  EXPECT_EQ(row("shard0.batch_us.count"), 0.0);
  EXPECT_EQ(row("shard1.batch_us.count"), 1.0);

  cluster.run_batch_into(items, answers);
  check();
  EXPECT_FALSE(answers.degraded);
  EXPECT_EQ(cluster.reroutes(), 1u);
  EXPECT_EQ(row("shard1.batch_us.count"), 2.0);
  EXPECT_EQ(cluster.shard_state(0), ShardState::kHealthy);
}

// An fsync EIO poisons a shard's WAL: the shard goes read-only, and the
// resync worker rewrites the log and makes it writable again with no
// quarantine_shard() call.  The refused update's frame goes with the old
// log, so a restart recovers exactly the acknowledged updates.
TEST_F(ClusterFaultInjection, WalPoisonFlipsShardReadOnlyUntilResync) {
  RobustWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_poison_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ShardedCluster::Options opts = w.cluster_options(2);
  opts.wal_dir = dir;
  ShardedCluster cluster(w.data.net, opts);
  auto& inj = util::FaultInjector::instance();

  RuleSpec owned0;  // box 0 -> owner shard 0
  owned0.box = 0;
  owned0.rule.dst = parse_prefix("10.50.0.0/16");
  owned0.rule.egress_port = 0;
  owned0.rule.priority = 50;
  RuleSpec owned1 = owned0;  // box 1 -> owner shard 1
  owned1.box = 1;
  owned1.rule.dst = parse_prefix("10.51.0.0/16");

  // While every WAL open fails, the worker cannot rewrite a log, so the
  // poisoned shard stays read-only for the checks below.
  util::FaultPlan no_open;
  no_open.count = 0;  // every hit: EIO
  // EIO on fsync is NOT retried (fsyncgate): one hit poisons shard 0's WAL.
  util::FaultPlan plan;
  plan.kind = util::FaultPlan::Kind::kErrno;
  plan.err = EIO;
  plan.count = 1;
  inj.arm("wal.open", no_open);
  inj.arm("wal.append.fsync", plan);
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

  // Updates owned by the read-only shard stay refused until its log is
  // rewritten.
  try {
    cluster.add_rule(owned0);
    FAIL() << "read-only shard must keep refusing owned updates";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnavailable) << e.what();
  }

  // Opens work again: the worker rewrites the WAL from the in-memory log
  // and clears read-only on its own.  The shard never left rotation, so its
  // replica is not rebuilt.
  const std::shared_ptr<const engine::QueryEngine> replica = cluster.shard(0);
  inj.disarm("wal.open");
  ASSERT_TRUE(wait_until([&] { return !cluster.shard_read_only(0); }, 5000))
      << "resyncs " << cluster.resyncs() << ", failures " << cluster.resync_failures();
  EXPECT_EQ(cluster.shard_state(0), ShardState::kHealthy);
  EXPECT_EQ(cluster.shard(0), replica);
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
  inj.arm("wal.open", no_open);
  inj.arm("wal.append.fsync", plan);
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
  inj.disarm("wal.open");
  ASSERT_TRUE(wait_until([&] { return !cluster.shard_read_only(0); }, 5000));
  EXPECT_EQ(cluster.shard_state(0), ShardState::kHealthy);

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

// A rewrite that keeps failing is retried past any fixed budget, and every
// failed attempt leaves the shard's old WAL in place: the shard ends
// writable once the fault clears, and its acknowledged update survives a
// restart while the update the poisoned log refused does not.
TEST_F(ClusterFaultInjection, FailedResyncKeepsTheShardWal) {
  RobustWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_failed_resync_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ShardedCluster::Options opts = w.cluster_options(2);
  opts.wal_dir = dir;
  RuleSpec owned0;  // box 0 -> owner shard 0
  owned0.box = 0;
  owned0.rule.dst = parse_prefix("10.60.0.0/16");
  owned0.rule.egress_port = 0;
  owned0.rule.priority = 50;
  RuleSpec refused = owned0;
  refused.rule.dst = parse_prefix("10.61.0.0/16");
  {
    ShardedCluster cluster(w.data.net, opts);
    ASSERT_EQ(cluster.add_rule(owned0), 1u);
    auto& inj = util::FaultInjector::instance();
    // The next 10 WAL opens fail, and with them the worker's first 10
    // rewrites of the log the fsync EIO below poisons.
    util::FaultPlan no_open;
    no_open.count = 10;
    inj.arm("wal.open", no_open);
    util::FaultPlan eio;
    eio.count = 1;
    inj.arm("wal.append.fsync", eio);
    EXPECT_THROW(cluster.add_rule(refused), Error);
    ASSERT_TRUE(cluster.shard_read_only(0));
    const std::string poisoned = file_bytes(dir + "/shard0.wal");
    ASSERT_FALSE(poisoned.empty());

    // More than 7 failures in a row: the log is still the poisoned one.
    ASSERT_TRUE(wait_until([&] { return cluster.resync_failures() >= 8; }, 10000))
        << "failures " << cluster.resync_failures();
    EXPECT_TRUE(cluster.shard_read_only(0));
    EXPECT_EQ(file_bytes(dir + "/shard0.wal"), poisoned);
    EXPECT_EQ(cluster.resyncs(), 0u);

    // The fault clears after its 10th hit; the next attempt succeeds.
    ASSERT_TRUE(wait_until([&] { return !cluster.shard_read_only(0); }, 10000));
    EXPECT_EQ(cluster.resync_failures(), 10u);
    EXPECT_EQ(cluster.resyncs(), 1u);
    EXPECT_EQ(cluster.shard_state(0), ShardState::kHealthy);
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

// A cluster destroyed while its resync worker backs off returns without
// waiting out the delay.
TEST_F(ClusterFaultInjection, DestructorCutsTheRepairBackoffShort) {
  RobustWorld w;
  const std::string dir = ::testing::TempDir() + "apc_cluster_backoff_stop_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ShardedCluster::Options opts = w.cluster_options(2);
  opts.wal_dir = dir;
  auto cluster = std::make_unique<ShardedCluster>(w.data.net, opts);
  RuleSpec owned0;  // box 0 -> owner shard 0
  owned0.box = 0;
  owned0.rule.dst = parse_prefix("10.62.0.0/16");
  owned0.rule.egress_port = 0;
  owned0.rule.priority = 50;
  auto& inj = util::FaultInjector::instance();
  util::FaultPlan no_open;
  no_open.count = 0;  // every rewrite fails
  inj.arm("wal.open", no_open);
  util::FaultPlan eio;
  eio.count = 1;
  inj.arm("wal.append.fsync", eio);
  EXPECT_THROW(cluster->add_rule(owned0), Error);
  // From the 7th failure on, every delay is the 500 ms cap, give or take a
  // quarter.
  ASSERT_TRUE(wait_until([&] { return cluster->resync_failures() >= 7; }, 10000));
  const auto t0 = std::chrono::steady_clock::now();
  cluster.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(300));
  std::filesystem::remove_all(dir);
}

#endif  // APC_FAULT_INJECTION

}  // namespace
}  // namespace apc::server
