// Load generation: the loopback client, the answer checker, and the phases
// that drive one workload over TCP or in process at one layer's entry point.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <thread>

#include "bench.hpp"

namespace servebench {

using namespace apc;

// ---- Checker ----

void Checker::fail(const std::string& what) {
  if (errors_++ == 0) first_error_ = what;
}

void Checker::answer(std::uint64_t epoch, const Line& l, std::string_view got) {
  if (l.is_query) {
    if (got != in_->answers[l.expect])
      fail("Q answer '" + std::string(got) + "', expected '" + in_->answers[l.expect] +
           "'");
    return;
  }
  std::uint32_t id = 0;
  const char* end = got.data() + got.size();
  const auto r = got.size() > 2 && got.substr(0, 2) == "A "
                     ? std::from_chars(got.data() + 2, end, id)
                     : std::from_chars_result{got.data(), std::errc::invalid_argument};
  if (r.ec != std::errc{} || r.ptr != end) {
    fail("bad C answer '" + std::string(got) + "'");
    return;
  }
  atom(epoch, l.expect, id);
}

void Checker::atom(std::uint64_t epoch, std::uint32_t ref_atom, std::uint32_t got) {
  const std::uint64_t k = key(epoch, ref_atom);
  if (in_->inject == Inject::kAtom && !injected_ && atoms_seen_ && k != last_atom_key_ &&
      last_atom_key_ >> 32 == epoch) {
    got = last_atom_got_;  // as if the server folded two atoms into one
    injected_ = true;
  }
  atoms_seen_ = true;
  last_atom_key_ = k;
  last_atom_got_ = got;
  const auto [f, f_new] = ref_to_got_.try_emplace(k, got);
  if (!f_new && f->second != got)
    fail("reference atom " + std::to_string(ref_atom) + " answered as atoms " +
         std::to_string(f->second) + " and " + std::to_string(got) + " at epoch " +
         std::to_string(epoch));
  const auto [r, r_new] = got_to_ref_.try_emplace(key(epoch, got), ref_atom);
  if (!r_new && r->second != ref_atom)
    fail("reference atoms " + std::to_string(r->second) + " and " +
         std::to_string(ref_atom) + " both answered as atom " + std::to_string(got) +
         " at epoch " + std::to_string(epoch));
}

void Checker::update_epoch(std::uint64_t epoch) {
  if (in_->inject == Inject::kEpoch && update_replies_ == 1) epoch = last_update_epoch_;
  if (update_replies_ > 0 && epoch <= last_update_epoch_)
    fail("update reply epoch " + std::to_string(epoch) + " after " +
         std::to_string(last_update_epoch_));
  last_update_epoch_ = epoch;
  ++update_replies_;
}

void Checker::merge(const Checker& o) {
  for (const auto& [k, got] : o.ref_to_got_)
    if (const auto [it, fresh] = ref_to_got_.try_emplace(k, got);
        !fresh && it->second != got)
      fail("reference atom " + std::to_string(k & 0xFFFFFFFFu) +
           " answered differently on two connections at epoch " +
           std::to_string(k >> 32));
  for (const auto& [k, ref] : o.got_to_ref_)
    if (const auto [it, fresh] = got_to_ref_.try_emplace(k, ref);
        !fresh && it->second != ref)
      fail("atom " + std::to_string(k & 0xFFFFFFFFu) +
           " answered for two reference atoms at epoch " + std::to_string(k >> 32));
  if (o.errors_ > 0) {
    if (errors_ == 0) first_error_ = o.first_error_;
    errors_ += o.errors_;
  }
}

// ---- Spans ----

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kClientBatch: return "client.batch";
    case SpanName::kClientUpdate: return "client.update";
    case SpanName::kBatch: return "batch";
    case SpanName::kParse: return "server.parse_request";
    case SpanName::kRunBatch: return "cluster.run_batch";
    case SpanName::kPin: return "cluster.pin";
    case SpanName::kClassifyBatchOn: return "engine.try_classify_batch_on";
    case SpanName::kQueryBatchOn: return "engine.try_query_batch_on";
    case SpanName::kFormat: return "server.format";
    case SpanName::kReply: return "server.reply";
    case SpanName::kClassifyInto: return "snapshot.classify_into";
    case SpanName::kBehaviorOf: return "snapshot.behavior_of";
    case SpanName::kClusterUpdate: return "cluster.update";
    case SpanName::kEngineUpdate: return "engine.update";
    case SpanName::kRuleUpdate: return "classifier.rule_update";
    case SpanName::kWalAppend: return "wal.append";
    case SpanName::kRecovery: return "recovery";
    case SpanName::kWalOpen: return "wal.open";
    case SpanName::kClassifierBuild: return "classifier.build";
    case SpanName::kReplay: return "classifier.replay";
    case SpanName::kEngineCtor: return "engine.ctor";
  }
  return "?";
}

const char* pass_name(Pass p) {
  switch (p) {
    case Pass::kTcp: return "tcp";
    case Pass::kCluster: return "cluster";
    case Pass::kEngine: return "engine";
    case Pass::kSnapshot: return "snapshot";
    case Pass::kUpdates: return "updates";
  }
  return "?";
}

SpanLog& Tracer::log(Pass pass) {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(pass));
  return *logs_.back();
}

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    const auto offset = static_cast<std::int32_t>(all.size());
    for (Span s : log->spans()) {
      if (s.parent >= 0) s.parent += offset;
      all.push_back(s);
    }
  }
  return all;
}

// ---- LineClient ----

LineClient::LineClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd_ >= 0, ErrorCode::kIo, "servebench: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw Error(ErrorCode::kIo, "servebench: connect to port " + std::to_string(port));
  }
}

LineClient::~LineClient() { ::close(fd_); }

bool LineClient::send(std::string_view s) {
  while (!s.empty()) {
    const ssize_t n = ::send(fd_, s.data(), s.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    s.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool LineClient::recv_more() {
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

bool LineClient::read_line(std::string_view& out) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      out = std::string_view(buf_).substr(pos_, nl - pos_);
      pos_ = nl + 1;
      return true;
    }
    if (!recv_more()) return false;
  }
}

bool LineClient::fill_lines(std::size_t n) {
  std::size_t scanned = pos_, have = 0;
  for (;;) {
    have += static_cast<std::size_t>(std::count(
        buf_.begin() + static_cast<std::ptrdiff_t>(scanned), buf_.end(), '\n'));
    if (have >= n) return true;
    const std::size_t unread = buf_.size() - pos_;
    if (!recv_more()) return false;
    scanned = pos_ + unread;
  }
}

// ---- Replies ----

namespace {

enum class Reply { kOk, kRefused, kBroken };

/// Sends a batch ending in GO and buffers its whole reply.  kOk leaves the
/// `n` answer lines of "201 <epoch> <n>[ degraded=1]" ready to read; any
/// other status line is a refusal (the connection stays usable).
Reply exchange(LineClient& c, std::string_view wire, std::uint64_t& epoch,
               std::size_t& n) {
  std::string_view st;
  if (!c.send(wire) || !c.read_line(st)) return Reply::kBroken;
  const char* end = st.data() + st.size();
  if (st.substr(0, 4) != "201 ") return Reply::kRefused;
  const auto r1 = std::from_chars(st.data() + 4, end, epoch);
  if (r1.ec != std::errc{} || r1.ptr == end || *r1.ptr != ' ') return Reply::kRefused;
  const auto r2 = std::from_chars(r1.ptr + 1, end, n);
  if (r2.ec != std::errc{} || (r2.ptr != end && *r2.ptr != ' ')) return Reply::kRefused;
  return c.fill_lines(n) ? Reply::kOk : Reply::kBroken;
}

void check_answers(LineClient& c, const Line* lines, std::size_t want,
                   std::uint64_t epoch, std::size_t n, Checker& check) {
  if (n != want)
    check.fail("reply carries " + std::to_string(n) + " answers for " +
               std::to_string(want) + " lines");
  std::string_view got;
  for (std::size_t i = 0; i < n && c.read_line(got); ++i)
    if (i < want) check.answer(epoch, lines[i], got);
}

double ms(Clock::duration d) { return secs(d) * 1e3; }
double us(Clock::duration d) { return secs(d) * 1e6; }

Clock::time_point at(Clock::time_point start, double s) {
  return start +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// One query connection's (or thread's) tallies, folded into the LoadResult.
struct Conn {
  explicit Conn(const Inputs& in) : check(in) {}
  Checker check;
  std::vector<double> batch_us;
  std::vector<std::pair<std::uint64_t, double>> sent;
  std::uint64_t batches = 0, failed = 0, lines = 0;
  Clock::time_point last{};
};

void fold(LoadResult& res, std::vector<Conn>& conns, Clock::time_point start) {
  for (Conn& c : conns) {
    res.check.merge(c.check);
    res.batch_us.insert(res.batch_us.end(), c.batch_us.begin(), c.batch_us.end());
    res.sent.push_back(std::move(c.sent));
    res.batches += c.batches;
    res.batches_failed += c.failed;
    res.lines += c.lines;
    if (c.batches > 0) res.query_s = std::max(res.query_s, secs(c.last - start));
  }
}

/// Mirrors ShardedCluster::run_batch with every shard healthy: classifies
/// go round robin over the shards, queries to ingress % shards, grouped by
/// ingress in line order.
struct Slices {
  std::vector<std::vector<std::size_t>> classify, query;
};
Slices plan_slices(const Line* lines, std::size_t shards) {
  Slices s;
  s.classify.resize(shards);
  s.query.resize(shards);
  std::size_t rr = 0;
  for (std::size_t i = 0; i < kBatchLines; ++i)
    (lines[i].is_query ? s.query[lines[i].ingress % shards] : s.classify[rr++ % shards])
        .push_back(i);
  for (auto& q : s.query)
    std::stable_sort(q.begin(), q.end(), [&](std::size_t a, std::size_t b) {
      return lines[a].ingress < lines[b].ingress;
    });
  return s;
}

}  // namespace

double resident_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

bool one_batch(const Inputs& in, LineClient& c, std::uint64_t b, Checker& check) {
  std::uint64_t epoch = 0;
  std::size_t n = 0;
  if (exchange(c, in.wire[b % in.batch_count()], epoch, n) != Reply::kOk) return false;
  check_answers(c, &in.line(b, 0), kBatchLines, epoch, n, check);
  return true;
}

bool probe_batch(const Inputs& in, LineClient& c, Checker& check) {
  std::uint64_t epoch = 0;
  std::size_t n = 0;
  if (exchange(c, in.probe_wire, epoch, n) != Reply::kOk) return false;
  check_answers(c, in.probes.data(), in.probes.size(), epoch, n, check);
  return true;
}

// ---- TCP phase ----

LoadResult run_tcp(const Inputs& in, std::uint16_t port, const Phase& ph,
                   Tracer* tracer) {
  LoadResult res(in);
  std::vector<Conn> conns(kQueryConnections, Conn(in));
  std::vector<std::unique_ptr<LineClient>> clients;
  std::vector<SpanLog*> logs(kQueryConnections + 1, nullptr);
  for (std::size_t c = 0; c < kQueryConnections; ++c) {
    clients.push_back(std::make_unique<LineClient>(port));
    if (tracer) logs[c] = &tracer->log(Pass::kTcp);
  }
  // Bursts in order: [one before the queries], those during them.
  const std::size_t before = ph.before ? 1 : 0;
  const std::size_t bursts = ph.during.size() + before;
  std::unique_ptr<LineClient> updater;
  if (bursts > 0) {
    updater = std::make_unique<LineClient>(port);
    if (tracer) logs[kQueryConnections] = &tracer->log(Pass::kTcp);
  }
  const std::size_t n_updates = bursts * in.burst_updates;
  std::vector<Clock::time_point> due(bursts);  // set before each burst's threads start
  std::vector<Clock::time_point> replied(n_updates, Clock::time_point::max());
  Checker update_check(in);

  // Open loop: the writer sends each burst at its due time whatever the
  // replies are doing; the reader times every update from that due time.
  Clock::duration max_lag{};
  std::vector<std::thread> updates;
  const auto send_bursts = [&](std::size_t k0, std::size_t k1) {
    updates.emplace_back([&, k0, k1] {
      for (std::size_t k = k0; k < k1; ++k) {
        std::this_thread::sleep_until(due[k]);
        max_lag = std::max(max_lag, Clock::now() - due[k]);
        std::string payload;
        for (std::size_t j = 0; j < in.burst_updates; ++j)
          payload += in.update(k * in.burst_updates + j).wire;
        if (!updater->send(payload)) break;  // the reader sees the close
      }
    });
    updates.emplace_back([&, k0, k1] {
      SpanLog* log = logs[kQueryConnections];
      std::string_view line;
      for (std::size_t id = k0 * in.burst_updates; id < k1 * in.burst_updates; ++id) {
        if (!updater->read_line(line)) {
          res.updates_failed += k1 * in.burst_updates - id;
          return;
        }
        const Clock::time_point t = Clock::now();
        replied[id] = t;
        std::uint64_t epoch = 0;
        const char* e = line.data() + line.size();
        const auto r =
            line.substr(0, 4) == "200 "
                ? std::from_chars(line.data() + 4, e, epoch)
                : std::from_chars_result{line.data(), std::errc::invalid_argument};
        if (r.ec != std::errc{} || r.ptr != e) {
          ++res.updates_failed;
          continue;
        }
        update_check.update_epoch(epoch);
        const Clock::time_point d = due[id / in.burst_updates];
        res.update_ms.push_back(ms(t - d));
        res.applied.push_back(id);
        ++res.updates;
        if (log) log->add(SpanName::kClientUpdate, id, d, t);
      }
    });
  };
  const auto finish_bursts = [&] {
    for (auto& t : updates) t.join();
    updates.clear();
  };
  if (before) {
    due[0] = Clock::now();
    send_bursts(0, 1);
    finish_bursts();
  }

  // Hand freed heap (earlier set-ups, the first burst) back to the system,
  // so rss_mb counts the serving state rather than allocator leftovers.
  ::malloc_trim(0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = at(start, ph.duration_s);
  for (std::size_t i = 0; i < ph.during.size(); ++i)
    due[before + i] = at(start, ph.during[i]);
  std::vector<std::thread> queries;
  for (std::size_t c = 0; c < kQueryConnections; ++c) {
    queries.emplace_back([&, c] {
      Conn& me = conns[c];
      me.batch_us.reserve(1u << 17);
      for (std::uint64_t b = c;; b += kQueryConnections) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        std::uint64_t epoch = 0;
        std::size_t n = 0;
        const Reply r = exchange(*clients[c], in.wire[b % in.batch_count()], epoch, n);
        if (r != Reply::kOk) {
          ++me.failed;
          if (r == Reply::kBroken) break;
          continue;
        }
        const Clock::time_point t1 = Clock::now();
        me.batch_us.push_back(us(t1 - t0));
        me.sent.emplace_back(b, secs(t0 - start));
        if (logs[c])
          logs[c]->add(SpanName::kClientBatch, b, t0, t1, static_cast<std::uint32_t>(n));
        check_answers(*clients[c], &in.line(b, 0), kBatchLines, epoch, n, me.check);
        ++me.batches;
        me.lines += n;
        me.last = t1;
      }
    });
  }
  if (!ph.during.empty()) send_bursts(before, before + ph.during.size());
  std::this_thread::sleep_until(end);
  res.rss_mb = resident_mb();
  for (auto& t : queries) t.join();
  finish_bursts();

  fold(res, conns, start);
  res.check.merge(update_check);
  res.bursts = bursts;
  res.max_send_lag_ms = ms(max_lag);
  for (std::size_t k = before; k + 1 < bursts; ++k)
    if (replied[(k + 1) * in.burst_updates - 1] < due[k + 1]) ++res.bursts_drained;
  for (std::size_t id = before * in.burst_updates; id < n_updates; ++id)
    if (due[id / in.burst_updates] < end && replied[id] > end) ++res.backlog_at_end;
  return res;
}

// ---- In-process phases ----

LoadResult run_inproc(const Inputs& in, server::ShardedCluster& cl, const Phase& ph,
                      const Schedule& schedule, Pass layer, Tracer& tracer) {
  LoadResult res(in);
  std::vector<Conn> conns(kQueryConnections, Conn(in));
  std::vector<SpanLog*> logs;
  for (std::size_t c = 0; c <= kQueryConnections; ++c) logs.push_back(&tracer.log(layer));
  const std::size_t shards = cl.shard_count();
  Checker update_check(in);

  // Bursts in order: [one before the queries], those during them.
  const std::size_t before = ph.before ? 1 : 0;
  const std::size_t bursts = ph.during.size() + before;
  std::vector<Clock::time_point> due(bursts);
  const auto apply_bursts = [&](std::size_t k0, std::size_t k1) {
    SpanLog& log = *logs[kQueryConnections];
    for (std::size_t k = k0; k < k1; ++k) {
      std::this_thread::sleep_until(due[k]);
      for (std::size_t j = 0; j < in.burst_updates; ++j) {
        const std::uint64_t id = k * in.burst_updates + j;
        const Update& u = in.update(id);
        const std::int32_t sp = log.begin(SpanName::kClusterUpdate, id);
        std::uint64_t epoch = 0;
        try {
          epoch = u.add ? cl.add_rule(u.spec) : cl.remove_rule(u.spec);
        } catch (const Error&) {
          log.end(sp);
          ++res.updates_failed;
          continue;
        }
        log.end(sp);
        res.update_ms.push_back(log.spans()[static_cast<std::size_t>(sp)].us() * 1e-3);
        update_check.update_epoch(epoch);
        res.applied.push_back(id);
        ++res.updates;
        if (layer != Pass::kCluster) continue;
        double rows = 0, entries = 0;
        for (std::size_t i = 0; i < shards; ++i) {
          const auto snap = cl.shard(i)->snapshot();
          rows += static_cast<double>(snap->behavior_rows_carried());
          entries += static_cast<double>(snap->header_entries_carried());
        }
        res.rows_carried.push_back(rows / static_cast<double>(shards));
        res.cache_entries_carried.push_back(entries / static_cast<double>(shards));
      }
    }
  };
  if (before) {
    due[0] = Clock::now();
    apply_bursts(0, 1);
  }

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < ph.during.size(); ++i)
    due[before + i] = at(start, ph.during[i]);
  std::vector<std::thread> queries;
  for (std::size_t c = 0; c < kQueryConnections && c < schedule.size(); ++c) {
    queries.emplace_back([&, c] {
      Conn& me = conns[c];
      SpanLog& log = *logs[c];
      std::vector<server::ShardedCluster::BatchItem> items;
      std::vector<PacketHeader> hs;
      std::vector<AtomId> atoms(kBatchLines);
      std::vector<Behavior> behaviors(kBatchLines);
      std::vector<std::string> out(kBatchLines);
      std::string reply;
      for (const auto& [b, when] : schedule[c]) {
        std::this_thread::sleep_until(at(start, when));
        const Line* lines = &in.line(b, 0);
        const std::int32_t root = log.begin(SpanName::kBatch, b);
        bool ok = true;
        if (layer == Pass::kCluster) {
          // The server's own steps, in its order: parse every line, run the
          // batch, then join its answer lines into the reply text.
          std::int32_t sp = log.begin(SpanName::kParse, b, root);
          items.clear();
          const std::string& wire = in.wire[b % in.batch_count()];
          std::uint32_t lineno = 0;
          for (std::size_t pos = 0; pos < wire.size();) {
            const std::size_t nl = wire.find('\n', pos);
            server::Request req;
            if (server::parse_request(wire.substr(pos, nl - pos), ++lineno, req) &&
                req.kind != server::RequestKind::kGo)
              items.push_back(
                  {req.kind == server::RequestKind::kQuery, req.header, req.ingress});
            pos = nl + 1;
          }
          log.end(sp, lineno);
          sp = log.begin(SpanName::kRunBatch, b, root);
          server::ShardedCluster::BatchResult r;
          try {
            r = cl.run_batch(items);
          } catch (const Error&) {
            ok = false;
          }
          log.end(sp, static_cast<std::uint32_t>(r.lines.size()));
          if (ok) {
            sp = log.begin(SpanName::kReply, b, root);
            reply = "201 " + std::to_string(r.epoch) + ' ' +
                    std::to_string(r.lines.size());
            if (r.degraded) reply += " degraded=1";
            reply += '\n';
            for (const std::string& l : r.lines) {
              reply += l;
              reply += '\n';
            }
            log.end(sp, static_cast<std::uint32_t>(r.lines.size()));
          }
          for (std::size_t i = 0; ok && i < kBatchLines; ++i)
            me.check.answer(r.epoch, lines[i], r.lines[i]);
        } else {
          std::int32_t sp = log.begin(SpanName::kPin, b, root);
          const server::ShardedCluster::PinnedView view = cl.pin();
          log.end(sp);
          const Slices sl = plan_slices(lines, shards);
          for (std::size_t s = 0; s < shards; ++s) {
            const engine::FlatSnapshot& snap = *view.snaps[s];
            if (layer == Pass::kEngine) {
              const engine::QueryEngine& eng = *view.engines[s];
              if (!sl.classify[s].empty()) {
                hs.clear();
                for (const std::size_t i : sl.classify[s]) hs.push_back(lines[i].header);
                sp = log.begin(SpanName::kClassifyBatchOn, b, root);
                const auto got = eng.try_classify_batch_on(snap, hs.data(), hs.size());
                log.end(sp, static_cast<std::uint32_t>(hs.size()));
                ok = ok && got.has_value();
                for (std::size_t k = 0; got && k < hs.size(); ++k)
                  atoms[sl.classify[s][k]] = (*got)[k];
              }
              const auto& q = sl.query[s];
              for (std::size_t first = 0; first < q.size();) {
                const BoxId ingress = lines[q[first]].ingress;
                std::size_t last = first;
                hs.clear();
                while (last < q.size() && lines[q[last]].ingress == ingress)
                  hs.push_back(lines[q[last++]].header);
                sp = log.begin(SpanName::kQueryBatchOn, b, root);
                const auto got =
                    eng.try_query_batch_on(snap, hs.data(), hs.size(), ingress);
                log.end(sp, static_cast<std::uint32_t>(hs.size()));
                ok = ok && got.has_value();
                for (std::size_t k = first; got && k < last; ++k)
                  behaviors[q[k]] = (*got)[k - first];
                first = last;
              }
            } else {
              // Snapshot layer: one classify_into over the shard's slice,
              // then behavior_of for its queries.
              std::vector<std::size_t> ix = sl.classify[s];
              ix.insert(ix.end(), sl.query[s].begin(), sl.query[s].end());
              if (ix.empty()) continue;
              hs.clear();
              for (const std::size_t i : ix) hs.push_back(lines[i].header);
              std::vector<AtomId> got(ix.size());
              sp = log.begin(SpanName::kClassifyInto, b, root);
              snap.classify_into(hs.data(), hs.size(), got.data());
              log.end(sp, static_cast<std::uint32_t>(hs.size()));
              for (std::size_t k = 0; k < ix.size(); ++k) atoms[ix[k]] = got[k];
              sp = log.begin(SpanName::kBehaviorOf, b, root);
              for (const std::size_t i : sl.query[s])
                behaviors[i] = snap.behavior_of(atoms[i], lines[i].ingress);
              log.end(sp, static_cast<std::uint32_t>(sl.query[s].size()));
            }
          }
          // What run_batch does with the results: the answer lines.  Timed
          // on the engine pass only.
          if (layer == Pass::kEngine) sp = log.begin(SpanName::kFormat, b, root);
          for (std::size_t i = 0; ok && i < kBatchLines; ++i)
            out[i] = lines[i].is_query ? server::format_behavior_summary(behaviors[i])
                                       : "A " + std::to_string(atoms[i]);
          if (layer == Pass::kEngine) log.end(sp, static_cast<std::uint32_t>(kBatchLines));
          for (std::size_t i = 0; ok && i < kBatchLines; ++i)
            me.check.answer(view.epoch, lines[i], out[i]);
        }
        log.end(root, static_cast<std::uint32_t>(kBatchLines));
        if (!ok) {
          ++me.failed;
          continue;
        }
        ++me.batches;
        me.lines += kBatchLines;
        me.last = Clock::now();
      }
    });
  }
  std::thread updates;
  if (!ph.during.empty())
    updates = std::thread([&] { apply_bursts(before, before + ph.during.size()); });
  for (auto& t : queries) t.join();
  if (updates.joinable()) updates.join();
  fold(res, conns, start);
  res.check.merge(update_check);
  res.bursts = bursts;
  return res;
}

}  // namespace servebench
