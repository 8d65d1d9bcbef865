// Closed-loop serving benchmark: 8 client threads hammer a 4-shard
// ShardedCluster through the TCP front end over loopback, each pipelining
// fixed-size batches of mixed C/Q lines and waiting for the full reply
// before sending the next (closed loop), while one updater thread sends a
// fixed number of update groups through the same protocol.
//
// Every batch embeds two probe queries, entering at two boxes, whose
// answers both change with the updates.  A batch whose probe pair is not
// the pair its reply's epoch implies is counted as a mixed-epoch batch, and
// any such batch makes the binary exit 1 (CI also asserts the count is 0).
// The cluster answers a whole batch on one replica, and each connection's
// batches visit the replicas in turn, so the gate still catches a view
// whose slot for some replica holds another epoch's snapshot, and a reply
// that names an epoch its answers are not from.
//
// Emits BENCH_serve.json:
//   serve.shards / serve.clients / serve.batches / serve.qps
//   serve.batch_p50_us / serve.batch_p99_us / serve.batch_max_us
//   serve.epoch_final / serve.updates_applied / serve.mixed_epoch_batches
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "bench_util.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/stats.hpp"

namespace apc {
namespace {

using bench::BenchJson;

constexpr std::size_t kClients = 8;
constexpr std::size_t kShards = 4;
constexpr std::size_t kBatchLines = 64;
/// Update groups the updater sends before the clients stop: a publication
/// count that does not shrink when a sanitizer slows the updates down.
constexpr std::size_t kUpdateGroups = 64;

/// Blocking loopback line client (mirrors the test client; the bench keeps
/// its own copy so bench binaries stay test-framework-free).
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
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::send(fd_, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      require(n > 0, ErrorCode::kIo, "send");
      off += static_cast<std::size_t>(n);
    }
  }

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
      require(n > 0, ErrorCode::kIo, "recv: server closed mid-reply");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace

int run() {
  const datasets::Scale scale = bench::bench_scale();
  bench::print_header("Closed-loop TCP serving (sharded cluster, loopback)");

  bench::World w = bench::make_world(0, scale);
  Rng rng(99);
  const std::vector<PacketHeader> trace = datasets::uniform_trace(w.reps, 4096, rng);
  const BoxId boxes = static_cast<BoxId>(w.data().net.topology.box_count());

  // The cross-shard consistency probe: one header queried from two ingress
  // boxes that live on different shards (box 0 on shard 0, box 1 on shard
  // 1).  The updater toggles two rules, one per probe box, that send the
  // probe's destination out of another port: groups "A a, A b" and
  // "R a, R b" alternate.  Every update takes one epoch, so a reply's epoch
  // E says which toggles are in force (E mod 4: 0 none, 1 a, 2 a and b,
  // 3 b) and so which probe pair the batch must carry.  The four pairs come
  // from reference forks, and both probe answers must differ between none
  // and both, or a batch mixing those epochs would pass unseen.
  const PacketHeader probe = trace[0];
  const BoxId probe_a = 0 % boxes, probe_b = 1 % boxes;
  const std::string probe_wire =
      server::format_query(probe_a, probe) + "\n" +
      server::format_query(probe_b, probe) + "\n";
  using ProbePair = std::pair<std::string, std::string>;
  const auto probe_pair = [&](const ApClassifier& c) {
    return ProbePair{server::format_behavior_summary(c.query(probe, probe_a)),
                     server::format_behavior_summary(c.query(probe, probe_b))};
  };
  // A rule on `box` for exactly the probe's destination, out of the first
  // port that changes the probe's answer from `box` on top of `base`.
  const auto toggle_for = [&](const ApClassifier& base, BoxId box) {
    server::RuleSpec spec;
    spec.box = box;
    spec.rule.dst = Ipv4Prefix{probe.dst_ip(), 32};
    spec.rule.priority = 1000;
    const std::string before = server::format_behavior_summary(base.query(probe, box));
    const std::size_t ports = w.data().net.topology.box(box).ports.size();
    for (std::uint32_t port = 0; port < ports; ++port) {
      spec.rule.egress_port = port;
      auto f = base.fork();
      f->insert_fib_rule(box, spec.rule);
      if (server::format_behavior_summary(f->query(probe, box)) != before) break;
    }
    return spec;
  };
  const server::RuleSpec toggle_a = toggle_for(*w.clf, probe_a);
  auto with_a = w.clf->fork();
  with_a->insert_fib_rule(toggle_a.box, toggle_a.rule);
  const server::RuleSpec toggle_b = toggle_for(*with_a, probe_b);
  auto with_ab = with_a->fork();
  with_ab->insert_fib_rule(toggle_b.box, toggle_b.rule);
  auto with_b = w.clf->fork();
  with_b->insert_fib_rule(toggle_b.box, toggle_b.rule);
  const std::array<ProbePair, 4> want = {probe_pair(*w.clf), probe_pair(*with_a),
                                         probe_pair(*with_ab), probe_pair(*with_b)};
  if (want[2].first == want[0].first || want[2].second == want[0].second) {
    std::printf("FAIL: the toggled rules leave a probe answer unchanged, so no "
                "mixed-epoch batch could be seen\n");
    return 1;
  }
  const std::string group_on = server::format_rule(true, toggle_a) + "\n" +
                               server::format_rule(true, toggle_b) + "\n";
  const std::string group_off = server::format_rule(false, toggle_a) + "\n" +
                                server::format_rule(false, toggle_b) + "\n";

  server::ShardedCluster::Options copts;
  copts.shards = kShards;
  copts.engine.num_threads = 2;
  server::ShardedCluster cluster(w.data().net, copts);
  server::TcpServer server(cluster, server::TcpServer::Options{});
  std::printf("cluster up: %zu shards, port %u\n", cluster.shard_count(),
              server.port());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0}, mixed{0}, queries{0};
  std::vector<std::vector<double>> lat_us(kClients);
  std::vector<std::thread> clients;

  Stopwatch run_sw;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient conn(server.port());
      Rng crng(1000 + c);
      std::size_t cursor = c * 17;
      while (!stop.load(std::memory_order_acquire)) {
        std::string out = probe_wire;
        for (std::size_t i = 0; i < kBatchLines; ++i) {
          const PacketHeader& h = trace[(cursor + i * 7) % trace.size()];
          if (i % 2 == 0)
            out += server::format_classify(h);
          else
            out += server::format_query(
                static_cast<BoxId>(crng.next() % boxes), h);
          out += '\n';
        }
        cursor += kBatchLines;
        out += "GO\n";
        Stopwatch sw;
        conn.send(out);
        const std::string status = conn.read_line();
        if (status.rfind("201 ", 0) != 0)
          throw Error("bad batch status: " + status);
        const std::uint64_t epoch = std::stoull(status.substr(4));
        const std::string line_a = conn.read_line();
        const std::string line_b = conn.read_line();
        for (std::size_t i = 0; i < kBatchLines; ++i) (void)conn.read_line();
        lat_us[c].push_back(sw.seconds() * 1e6);
        const ProbePair& pair = want[epoch % want.size()];
        if (line_a != pair.first || line_b != pair.second)
          mixed.fetch_add(1, std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
        queries.fetch_add(kBatchLines + 2, std::memory_order_relaxed);
      }
    });
  }

  // Each update must apply at the next epoch, or the epoch would no longer
  // say which toggles are in force.
  std::thread updater([&] {
    LineClient conn(server.port());
    std::uint64_t epoch = 0;
    for (std::size_t g = 0; g < kUpdateGroups; ++g) {
      conn.send(g % 2 == 0 ? group_on : group_off);
      for (int line = 0; line < 2; ++line) {
        const std::string reply = conn.read_line();
        if (reply != "200 " + std::to_string(++epoch))
          throw Error("bad update status: " + reply + " (expected epoch " +
                      std::to_string(epoch) + ")");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
  });
  updater.join();
  for (auto& t : clients) t.join();
  const double elapsed = run_sw.seconds();

  std::vector<double> all_us;
  for (const auto& v : lat_us) all_us.insert(all_us.end(), v.begin(), v.end());
  const double qps = static_cast<double>(queries.load()) / elapsed;
  const double p50 = percentile_or(all_us, 50.0);
  const double p99 = percentile_or(all_us, 99.0);
  const double mx = all_us.empty() ? 0.0 : maximum(all_us);

  std::printf("%zu clients x %zu-line batches for %.1fs: %.0f q/s, "
              "batch p50 %.0f us, p99 %.0f us, max %.0f us\n",
              kClients, kBatchLines, elapsed, qps, p50, p99, mx);
  std::printf("epoch %llu after %zu update groups (%llu updates); "
              "mixed-epoch batches: %llu of %llu\n",
              static_cast<unsigned long long>(cluster.epoch()), kUpdateGroups,
              static_cast<unsigned long long>(cluster.updates_applied()),
              static_cast<unsigned long long>(mixed.load()),
              static_cast<unsigned long long>(batches.load()));

  BenchJson out("serve");
  out.row("serve.shards", static_cast<double>(kShards), "count", kClients);
  out.row("serve.clients", static_cast<double>(kClients), "count", kClients);
  out.row("serve.batches", static_cast<double>(batches.load()), "count", kClients);
  out.row("serve.qps", qps, "queries/s", kClients);
  out.row("serve.batch_p50_us", p50, "us", kClients);
  out.row("serve.batch_p99_us", p99, "us", kClients);
  out.row("serve.batch_max_us", mx, "us", kClients);
  out.row("serve.epoch_final", static_cast<double>(cluster.epoch()), "count",
          kClients);
  out.row("serve.updates_applied", static_cast<double>(cluster.updates_applied()),
          "count", kClients);
  out.row("serve.mixed_epoch_batches", static_cast<double>(mixed.load()), "count",
          kClients);
  server.stop();
  return mixed.load() == 0 ? 0 : 1;
}

}  // namespace apc

int main() { return apc::run(); }
