// TcpServer — a line-protocol front end for a ShardedCluster (see
// protocol.hpp for the grammar and docs/architecture.md, "Serving layer &
// sharding" / "Overload & failure handling").
//
// Threading: one acceptor thread plus one thread per connection, with
// connection handling deliberately simple and blocking.  A connection
// buffers C/Q lines until GO, executes them against ONE pinned cluster
// epoch — one engine call on one replica, on the connection's thread — and
// streams the answers back in order.  Update (A/R) lines pipelined back to
// back form one group (ShardedCluster::apply_updates): the group runs, and
// all of its replies go out, before the next non-update line, at
// kMaxUpdateGroup lines, or once the receive buffer holds no whole line —
// so replies stay in line order, a connection always sees its own updates,
// and a group never waits for more input.  Introspection (STATS/EPOCH) lines execute immediately,
// so one connection can interleave queries and updates.
//
// Robustness contract (exercised by tests/server_test.cpp and
// tests/server_robustness_test.cpp):
//  * A malformed line costs a "400" reply — never the connection, never the
//    pending batch.
//  * A line exceeding io::kMaxLineBytes — terminated or not, in one read or
//    many — gets "400" and a close: past the cap it is a binary blob or an
//    attack, and resynchronizing on the next '\n' of garbage is guessing.
//  * A client that dies mid-batch (abrupt close) has its pending batch
//    discarded; nothing it buffered is executed and the server keeps
//    serving everyone else.
//  * A connection that sends no bytes for read_idle_timeout_ms (slowloris,
//    half-open peer) gets "408" and a close — its thread is freed, never
//    parked.  A peer that stops *reading* trips the write deadline in
//    send_all the same way.
//  * Accepts past max_connections are shed at the door with "503 shed".
//  * stop() drains: in-flight batches finish and flush, idle connections
//    get "503 draining", stragglers are cut off after drain_timeout_ms.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/cluster.hpp"

namespace apc::server {

class TcpServer {
 public:
  /// Most A/R lines applied as one group.  It bounds how long one group
  /// holds the cluster's update lock, which stats() and other writers wait
  /// on.
  static constexpr std::size_t kMaxUpdateGroup = 64;

  struct Options {
    /// Listen port; 0 = ephemeral (read the bound one off port()).
    std::uint16_t listen_port = 0;
    /// Cap on buffered C/Q items per connection; the line after the cap is
    /// refused with "400" (the batch is kept, GO still executes it).
    std::size_t max_batch_items = 1u << 16;
    /// Dotted-quad IPv4 bind address.  The loopback default keeps dev and
    /// test servers private; benches scaling accept pressure across
    /// machines set "0.0.0.0".
    std::string bind_address = "127.0.0.1";
    /// Accept backlog handed to ::listen (the historical default).
    int listen_backlog = 64;
    /// Connection cap: accepts past it get "503 shed" + close and tick the
    /// sheds() counter.  0 = unlimited.
    std::size_t max_connections = 256;
    /// Read-side idle deadline: a connection that delivers NO bytes for
    /// this long is told "408" and closed.  <= 0 disables.
    int read_idle_timeout_ms = 60000;
    /// Write-side deadline for one reply: a peer that stops draining its
    /// socket frees this thread after at most this long.  <= 0 disables.
    int write_timeout_ms = 10000;
    /// stop() drain budget: in-flight batches get this long to finish and
    /// flush before remaining connections are forcibly shut down.
    int drain_timeout_ms = 2000;
    /// SO_SNDBUF for accepted sockets (0 = system default).  Tests and the
    /// chaos bench shrink it so a non-reading peer back-pressures send()
    /// within one reply.
    int so_sndbuf = 0;
  };

  /// Binds and starts serving immediately.  The cluster must outlive the
  /// server.  Throws apc::Error(kIo) when the socket can't be bound.
  TcpServer(ShardedCluster& cluster, Options opts);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolved when Options::listen_port was 0).
  std::uint16_t port() const { return port_; }

  /// Stops accepting, drains in-flight work (see Options::drain_timeout_ms),
  /// shuts every connection down, and joins all threads.  Idempotent; the
  /// destructor calls it.
  void stop();

  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections whose thread is still running (reaped ones excluded).
  std::size_t live_sessions() const {
    return live_sessions_.load(std::memory_order_acquire);
  }
  /// Read-idle + write deadlines hit ("server.timeouts" STATS row).
  std::uint64_t timeouts() const { return timeouts_.value(); }
  /// Accept-time connection-cap sheds ("server.sheds" STATS row).
  std::uint64_t sheds() const { return sheds_.value(); }
  /// GO batches currently executing in the cluster.
  std::size_t active_batches() const {
    return active_batches_.load(std::memory_order_acquire);
  }

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    /// Set by the connection thread on exit; the acceptor reaps (joins and
    /// closes) done sessions on every poll wake — connect or not — so an
    /// idle server holds no exited threads.  The thread itself only
    /// shutdown()s its fd — close() happens exactly once, after join, so a
    /// recycled descriptor number can never be double-closed.
    std::atomic<bool> done{false};
  };

  /// One connection's buffers.  Each keeps its capacity from one batch or
  /// update group to the next, so a steady stream of them does no per-line
  /// heap work.
  struct Connection {
    std::vector<ShardedCluster::BatchItem> batch;  ///< pending C/Q items
    ShardedCluster::BatchAnswers answers;
    std::vector<ShardedCluster::Update> updates;   ///< pending A/R group
    std::vector<ShardedCluster::UpdateOutcome> outcomes;
    std::string reply;
  };

  void accept_loop();
  /// Joins and erases finished sessions; called with sessions_mu_ held.
  void reap_sessions_locked();
  void serve_connection(int fd);
  /// Parses one complete line (a view into the receive buffer): an A/R
  /// line joins the pending update group, any other request first flushes
  /// the group and is then dispatched, except a Q line whose ingress
  /// ShardedCluster::check_ingress refuses, which is answered 400.  Returns
  /// false when the connection must close (a reply could not be sent).
  bool parse_line(int fd, std::string_view line, std::size_t lineno, Connection& conn);
  /// Executes one parsed non-update request.
  bool dispatch(int fd, const Request& req, Connection& conn);
  /// Applies the pending update group, if any, and sends all of its
  /// replies, in line order, with one send_all.
  bool flush_updates(int fd, Connection& conn);
  /// Writes the whole reply under the write deadline; false = peer dead or
  /// deadline hit (the counter is ticked inside).
  bool send_all(int fd, std::string_view data);

  ShardedCluster& cluster_;
  Options opts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  /// Set by stop() before teardown: connection threads finish the line in
  /// hand, refuse further input with "503 draining", and exit.
  std::atomic<bool> draining_{false};
  std::thread acceptor_;
  std::mutex sessions_mu_;
  std::list<Session> sessions_;
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::size_t> live_sessions_{0};
  std::atomic<std::size_t> active_batches_{0};
  obs::Counter timeouts_;
  obs::Counter sheds_;
};

}  // namespace apc::server
