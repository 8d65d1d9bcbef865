#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "io/line_parse.hpp"

namespace apc::server {

namespace {

using std::chrono::duration_cast;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

[[noreturn]] void io_fail(const char* what) {
  throw Error(ErrorCode::kIo,
              std::string("TcpServer: ") + what + ": " + std::strerror(errno));
}

/// Bytes asked of one recv().
constexpr std::size_t kReadBytes = 64 * 1024;

}  // namespace

TcpServer::TcpServer(ShardedCluster& cluster, Options opts)
    : cluster_(cluster), opts_(std::move(opts)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) io_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw Error(ErrorCode::kInvalidArgument,
                "TcpServer: bad bind_address '" + opts_.bind_address + "'");
  }
  addr.sin_port = htons(opts_.listen_port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("bind");
  }
  if (::listen(listen_fd_, opts_.listen_backlog) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false))
    return;  // another stop() won the CAS and owns the teardown
  draining_.store(true, std::memory_order_release);
  // Wake the acceptor (shutdown makes the blocked poll return) and join
  // it BEFORE touching listen_fd_ — the acceptor reads the plain int every
  // loop iteration, so it must only be mutated after the join barrier.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Graceful drain: connection threads finish the batch/line in hand,
  // answer "503 draining" to further input, and exit on their next poll
  // tick (<= 100 ms away).  Only past the budget are stragglers cut off.
  const auto deadline =
      steady_clock::now() + milliseconds(std::max(opts_.drain_timeout_ms, 0));
  for (;;) {
    bool all_done = true;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const Session& s : sessions_)
        if (!s.done.load(std::memory_order_acquire)) {
          all_done = false;
          break;
        }
    }
    if (all_done || steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(milliseconds(1));
  }
  // Shut down whatever is left so its blocking read/write returns, then
  // join.  Sessions remove themselves only at stop; the list is small.
  std::list<Session> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (Session& s : sessions)
    if (s.fd >= 0) ::shutdown(s.fd, SHUT_RDWR);
  for (Session& s : sessions) {
    if (s.thread.joinable()) s.thread.join();
    if (s.fd >= 0) ::close(s.fd);
  }
}

void TcpServer::reap_sessions_locked() {
  // Reap sessions whose thread already exited so a long-lived server
  // doesn't accumulate one joinable thread + fd per past connection.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      ::close(it->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      // Runs on every wake — accept OR 100 ms tick — so finished sessions
      // are reclaimed even when no new client ever connects.
      std::lock_guard<std::mutex> lock(sessions_mu_);
      reap_sessions_locked();
    }
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, 100);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (r == 0) continue;  // tick: reap and re-check running_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED)
        continue;
      return;  // listener closed by stop()
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (opts_.max_connections > 0 &&
        live_sessions() >= opts_.max_connections) {
      // Shed at the door: cheaper than a thread, and the client learns why.
      // Best-effort reply — the socket buffer absorbs it even if the peer
      // never reads before the close.
      sheds_.add(1);
      static constexpr char kShed[] = "503 shed: connection limit reached\n";
      (void)::send(fd, kShed, sizeof kShed - 1, MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    if (opts_.so_sndbuf > 0)
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf, sizeof(int));
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    Session& s = sessions_.emplace_back();
    s.fd = fd;
    live_sessions_.fetch_add(1, std::memory_order_acq_rel);
    s.thread = std::thread([this, fd, &s] {
      serve_connection(fd);
      live_sessions_.fetch_sub(1, std::memory_order_acq_rel);
      s.done.store(true, std::memory_order_release);
    });
  }
}

bool TcpServer::send_all(int fd, std::string_view data) {
  const bool deadline_on = opts_.write_timeout_ms > 0;
  const auto deadline =
      steady_clock::now() + milliseconds(deadline_on ? opts_.write_timeout_ms : 0);
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that died mid-reply must surface as an error
    // return on THIS thread, not a process-wide SIGPIPE.  Under a write
    // deadline, MSG_DONTWAIT keeps the thread off the kernel's unbounded
    // send-buffer wait so the poll below can enforce it.
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | (deadline_on ? MSG_DONTWAIT : 0));
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && deadline_on) {
      const auto now = steady_clock::now();
      if (now >= deadline) {
        timeouts_.add(1);  // dead reader: free the thread, drop the peer
        return false;
      }
      const long long left = duration_cast<milliseconds>(deadline - now).count();
      pollfd p{fd, POLLOUT, 0};
      const int r =
          ::poll(&p, 1, static_cast<int>(std::clamp(left, 1ll, 100ll)));
      if (r < 0 && errno != EINTR) return false;
      continue;  // writable, tick, or EINTR: the deadline check above rules
    }
    return false;
  }
  return true;
}

bool TcpServer::flush_updates(int fd, Connection& conn) {
  if (conn.updates.empty()) return true;
  std::string& reply = conn.reply;
  reply.clear();
  try {
    cluster_.apply_updates(conn.updates, conn.outcomes);
    for (const ShardedCluster::UpdateOutcome& o : conn.outcomes) {
      if (o.applied()) {
        reply += "200 ";
        append_uint(reply, o.epoch);
      } else {
        reply += o.error == ErrorCode::kInvalidArgument ? "400 ["
                 : o.error == ErrorCode::kUnavailable   ? "503 ["
                                                        : "500 [";
        reply += error_code_name(o.error);
        reply += "] ";
        reply += o.message;
      }
      reply += '\n';
    }
  } catch (const std::exception& e) {
    // The group could not be answered record by record (out of memory):
    // every line of it gets the error.
    reply.clear();
    for (std::size_t i = 0; i < conn.updates.size(); ++i) {
      reply += "500 ";
      reply += e.what();
      reply += '\n';
    }
  }
  conn.updates.clear();  // keeps its capacity for the next group
  return send_all(fd, reply);
}

bool TcpServer::parse_line(int fd, std::string_view line, std::size_t lineno,
                           Connection& conn) {
  Request req;
  try {
    if (!parse_request(line, lineno, req)) return true;  // blank/comment
  } catch (const Error& e) {
    // A parse error is the CLIENT's problem on this line only: report it
    // (after the replies of the updates before it) and keep both the
    // connection and the pending batch intact.
    return flush_updates(fd, conn) && send_all(fd, std::string("400 ") + e.what() + "\n");
  }
  if (req.kind == RequestKind::kAddRule || req.kind == RequestKind::kRemoveRule) {
    // Pipelined updates group up; the group is flushed by the next other
    // line, at the cap, or once the receive buffer holds no whole line.
    conn.updates.push_back({req.kind == RequestKind::kAddRule, req.rule});
    return conn.updates.size() < kMaxUpdateGroup || flush_updates(fd, conn);
  }
  if (!flush_updates(fd, conn)) return false;
  if (req.kind == RequestKind::kQuery) {
    // An ingress that names no box fails this line only, like a parse
    // error: it never joins the batch, which would otherwise be refused.
    const std::string why = cluster_.check_ingress(req.ingress);
    if (!why.empty())
      return send_all(fd, "400 [invalid_argument] line " + std::to_string(lineno) +
                              ": " + why + "\n");
  }
  return dispatch(fd, req, conn);
}

bool TcpServer::dispatch(int fd, const Request& req, Connection& conn) {
  try {
    switch (req.kind) {
      case RequestKind::kClassify:
      case RequestKind::kQuery: {
        if (conn.batch.size() >= opts_.max_batch_items)
          return send_all(fd, "400 batch exceeds max_batch_items; GO first\n");
        conn.batch.push_back(
            {req.kind == RequestKind::kQuery, req.header, req.ingress});
        return true;  // buffered silently; the 201 covers the whole batch
      }
      case RequestKind::kGo: {
        // The batch is consumed even when shedding; clear() keeps its
        // capacity for the next one.
        active_batches_.fetch_add(1, std::memory_order_acq_rel);
        try {
          cluster_.run_batch_into(conn.batch, conn.answers);
        } catch (...) {
          active_batches_.fetch_sub(1, std::memory_order_acq_rel);
          conn.batch.clear();
          throw;
        }
        active_batches_.fetch_sub(1, std::memory_order_acq_rel);
        conn.batch.clear();
        const ShardedCluster::BatchAnswers& answers = conn.answers;
        std::string& reply = conn.reply;
        reply.clear();
        reply += "201 ";
        append_uint(reply, answers.epoch);
        reply += ' ';
        append_uint(reply, answers.size());
        if (answers.degraded) reply += " degraded=1";
        reply += '\n';
        for (std::size_t i = 0; i < answers.size(); ++i) {
          answers.append_line(i, reply);
          reply += '\n';
        }
        return send_all(fd, reply);
      }
      case RequestKind::kAddRule:
      case RequestKind::kRemoveRule:
        return true;  // grouped by parse_line, answered by flush_updates
      case RequestKind::kStats: {
        obs::MetricsSnapshot snap = cluster_.stats();
        snap.rows.push_back({"server.connections_accepted",
                             static_cast<double>(connections_accepted()),
                             "count"});
        snap.rows.push_back({"server.live_sessions",
                             static_cast<double>(live_sessions()), "count"});
        snap.rows.push_back(
            {"server.timeouts", static_cast<double>(timeouts()), "count"});
        snap.rows.push_back(
            {"server.sheds", static_cast<double>(sheds()), "count"});
        snap.rows.push_back({"server.active_batches",
                             static_cast<double>(active_batches()), "count"});
        std::string reply = "202 " + std::to_string(snap.rows.size()) + "\n";
        for (const auto& row : snap.rows) {
          reply += row.name;
          reply += ' ';
          reply += format_stat_value(row.value);
          reply += '\n';
        }
        return send_all(fd, reply);
      }
      case RequestKind::kEpoch:
        return send_all(fd, "200 " + std::to_string(cluster_.epoch()) + "\n");
    }
    return true;
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kUnavailable)
      return send_all(fd, std::string("503 ") + e.what() + "\n");
    return send_all(fd, std::string("500 ") + e.what() + "\n");
  } catch (const std::exception& e) {
    return send_all(fd, std::string("500 ") + e.what() + "\n");
  }
}

void TcpServer::serve_connection(int fd) {
  Connection conn;
  // Receive buffer: [head, tail) holds the bytes not yet framed into
  // lines.  It has room for one capped unterminated line plus one full
  // read, so it never grows, and lines are handed out as views into it.
  std::vector<char> buf(io::kMaxLineBytes + kReadBytes);
  std::size_t head = 0;
  std::size_t tail = 0;
  std::size_t lineno = 0;
  const auto refuse_oversized = [&] {
    if (flush_updates(fd, conn))
      send_all(fd, "400 line exceeds " + std::to_string(io::kMaxLineBytes) +
                       " byte cap\n");
    ::shutdown(fd, SHUT_RDWR);
  };
  auto last_rx = steady_clock::now();
  for (;;) {
    // Frame complete lines first so a flood of pipelined directives is
    // served without waiting for more input.
    for (;;) {
      const char* first = buf.data() + head;
      const auto* nl = static_cast<const char*>(std::memchr(first, '\n', tail - head));
      if (nl == nullptr) break;
      std::string_view line(first, static_cast<std::size_t>(nl - first));
      head += line.size() + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      ++lineno;
      // Past the cap a line is a blob, not a directive, however it was
      // split across reads.
      if (line.size() > io::kMaxLineBytes) {
        refuse_oversized();
        return;
      }
      if (!parse_line(fd, line, lineno, conn)) {
        ::shutdown(fd, SHUT_RDWR);
        return;
      }
    }
    // Every whole line is used up: answer the pending update group before
    // waiting for more input, so a group never waits on the client.
    if (!flush_updates(fd, conn)) {
      ::shutdown(fd, SHUT_RDWR);
      return;
    }
    // The partial-line cap applies to the UNTERMINATED tail too: a client
    // streaming an endless line must not grow the buffer unboundedly, and
    // there is no clean place to resynchronize once the cap is blown.
    if (tail - head > io::kMaxLineBytes) {
      refuse_oversized();
      return;
    }
    // Move the unterminated tail to the front once a full read no longer
    // fits behind it (it is at most kMaxLineBytes, so one always will).
    if (head == tail) {
      head = tail = 0;
    } else if (buf.size() - tail < kReadBytes) {
      std::memmove(buf.data(), buf.data() + head, tail - head);
      tail -= head;
      head = 0;
    }
    // Wait for input in <=100 ms poll ticks, enforcing the read-idle
    // deadline (time since the last byte ARRIVED — a trickling client
    // stays alive) and noticing a drain between lines, where nothing is
    // half-executed.
    for (;;) {
      if (draining_.load(std::memory_order_acquire)) {
        send_all(fd, "503 draining: server stopping\n");
        ::shutdown(fd, SHUT_RDWR);
        return;
      }
      int wait_ms = 100;
      if (opts_.read_idle_timeout_ms > 0) {
        const long long idle =
            duration_cast<milliseconds>(steady_clock::now() - last_rx).count();
        if (idle >= opts_.read_idle_timeout_ms) {
          timeouts_.add(1);  // slowloris / half-open peer: free the thread
          send_all(fd, "408 idle timeout after " +
                           std::to_string(opts_.read_idle_timeout_ms) + " ms\n");
          ::shutdown(fd, SHUT_RDWR);
          return;
        }
        wait_ms = static_cast<int>(
            std::min<long long>(100, opts_.read_idle_timeout_ms - idle));
      }
      pollfd p{fd, POLLIN, 0};
      const int r = ::poll(&p, 1, wait_ms);
      if (r < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (r > 0) break;  // readable or HUP; recv below resolves which
    }
    const ssize_t n = ::recv(fd, buf.data() + tail, kReadBytes, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Orderly or abrupt close: whatever the client batched but never
      // executed is discarded with the connection.  The fd itself is
      // closed by the reaper/stop() after joining this thread.
      return;
    }
    last_rx = steady_clock::now();
    tail += static_cast<std::size_t>(n);
  }
}

}  // namespace apc::server
