// Shared declarations of the serving benchmark (main.cpp says what it
// measures and why; inputs.cpp builds the workloads; load.cpp drives them).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "classifier/classifier.hpp"
#include "datasets/datasets.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"

namespace servebench {

using Clock = std::chrono::steady_clock;
using apc::BoxId;
using apc::PacketHeader;

inline double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

enum class Workload { kHotZipf, kColdRules, kBgpChurn };
/// Checker self-test faults (servebench/selftest.py): each must fail a run.
enum class Inject { kNone, kExpected, kEpoch, kAtom };

constexpr std::size_t kBatchLines = 64;
constexpr std::size_t kQueryConnections = 2;

/// One request line of the trace.  Even lines classify (C), odd lines query
/// (Q) from a seeded ingress.
struct Line {
  bool is_query = false;
  BoxId ingress = 0;
  PacketHeader header;
  /// C: the reference classifier's atom; Q: index into Inputs::answers.
  std::uint32_t expect = 0;
};

/// One FIB update of the churn plan, with its protocol line.
struct Update {
  bool add = false;
  apc::server::RuleSpec spec;
  std::string wire;
};

/// One timed phase: closed-loop query connections for `duration_s` and
/// update bursts, `during` them at the given seconds from their start and,
/// with `before`, one burst alone before they start.
struct Phase {
  double duration_s = 1.0;
  std::vector<double> during;
  bool before = false;
};

/// Everything a run sends and expects, built before any timer starts.
struct Inputs {
  Workload workload = Workload::kHotZipf;
  Inject inject = Inject::kNone;
  std::shared_ptr<apc::datasets::Dataset> data;
  std::unique_ptr<apc::ApClassifier> ref;
  std::vector<Line> lines;           ///< batch b is lines[(b mod batches)*64, +64)
  std::vector<std::string> answers;  ///< distinct expected Q answer lines
  std::vector<std::string> wire;     ///< per batch: the request text up to "GO\n"
  /// Withdraw/re-announce pairs; burst k sends updates [k*B, k*B+B) modulo
  /// the plan, so the state after every burst is the initial one.
  std::vector<Update> updates;
  /// B: one pair per box, so every burst loads every box alike.
  std::size_t burst_updates = 0;
  std::vector<Line> probes;  ///< Q lines the recovered cluster must answer
  std::string probe_wire;

  std::size_t batch_count() const { return wire.size(); }
  const Line& line(std::uint64_t batch, std::size_t i) const {
    return lines[(batch % batch_count()) * kBatchLines + i];
  }
  const Update& update(std::uint64_t id) const { return updates[id % updates.size()]; }
  /// A phase measuring `duration_s`: bgp-churn sends its bursts during the
  /// query load, the read-only workloads one burst before it.
  Phase phase(double duration_s) const;
};

Inputs make_inputs(Workload w, std::uint64_t seed, apc::datasets::Scale scale,
                   Inject inject);

/// The cluster every phase serves from: library defaults, WAL directory set.
apc::server::ShardedCluster::Options cluster_options(const std::string& wal_dir);

/// Verifies answers.  Q lines are byte-compared with the reference; C lines
/// are checked up to renaming: within one epoch the map from reference atom
/// to returned atom must be one-to-one.  Update replies must carry strictly
/// increasing epochs.
class Checker {
 public:
  explicit Checker(const Inputs& in) : in_(&in) {}
  void answer(std::uint64_t epoch, const Line& l, std::string_view got);
  void atom(std::uint64_t epoch, std::uint32_t ref_atom, std::uint32_t got);
  void update_epoch(std::uint64_t epoch);
  void fail(const std::string& what);
  /// Folds another connection's observations in, re-checking the C maps.
  void merge(const Checker& o);
  bool ok() const { return errors_ == 0; }
  std::uint64_t errors() const { return errors_; }
  const std::string& first_error() const { return first_error_; }

 private:
  static std::uint64_t key(std::uint64_t epoch, std::uint32_t v) {
    return epoch << 32 | v;
  }
  const Inputs* in_;
  std::unordered_map<std::uint64_t, std::uint32_t> ref_to_got_, got_to_ref_;
  std::uint64_t last_update_epoch_ = 0;
  std::uint64_t update_replies_ = 0;
  std::uint64_t last_atom_key_ = 0;
  std::uint32_t last_atom_got_ = 0;
  bool atoms_seen_ = false;
  bool injected_ = false;
  std::uint64_t errors_ = 0;
  std::string first_error_;
};

// ---- Spans (the traced run) ----

enum class SpanName : std::uint8_t {
  kClientBatch,      ///< client.batch: GO sent .. last answer line read
  kClientUpdate,     ///< client.update: due time .. "200 <epoch>" read
  kBatch,            ///< root of one batch in an in-process pass
  kParse,            ///< server::parse_request on every line of the batch
  kRunBatch,         ///< ShardedCluster::run_batch
  kPin,              ///< ShardedCluster::pin
  kClassifyBatchOn,  ///< QueryEngine::try_classify_batch_on
  kQueryBatchOn,     ///< QueryEngine::try_query_batch_on
  kFormat,           ///< answer lines: format_behavior_summary, "A <atom>"
  kReply,            ///< the server's reply text from run_batch's answer lines
  kClassifyInto,     ///< FlatSnapshot::classify_into
  kBehaviorOf,       ///< FlatSnapshot::behavior_of over a slice's queries
  kClusterUpdate,    ///< ShardedCluster::add_rule / remove_rule
  kEngineUpdate,     ///< QueryEngine::update on the standalone replica
  kRuleUpdate,       ///< ApClassifier insert/remove_fib_rule inside it
  kWalAppend,        ///< io::Wal::append
  kRecovery,         ///< root of the recovery pass
  kWalOpen,          ///< io::Wal constructor
  kClassifierBuild,  ///< ApClassifier constructor
  kReplay,           ///< WAL records re-applied to the classifier
  kEngineCtor,       ///< QueryEngine constructor
};
const char* span_name(SpanName n);

/// Which run a span came from: the traced run replays the same traffic once
/// per layer, each on a fresh cluster.
enum class Pass : std::uint8_t { kTcp, kCluster, kEngine, kSnapshot, kUpdates };
const char* pass_name(Pass p);

struct Span {
  SpanName name;
  Pass pass;
  std::int32_t parent = -1;  ///< index into the owning log (global after collect)
  std::uint64_t id = 0;      ///< batch or update id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t count = 0;   ///< items the span processed
  double us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

/// One thread's spans, kept in memory until the run ends.
class SpanLog {
 public:
  explicit SpanLog(Pass pass) : pass_(pass) { spans_.reserve(1u << 16); }
  std::int32_t begin(SpanName n, std::uint64_t id, std::int32_t parent = -1) {
    spans_.push_back(Span{n, pass_, parent, id, now_ns(), 0, 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t i, std::uint32_t count = 1) {
    spans_[static_cast<std::size_t>(i)].end_ns = now_ns();
    spans_[static_cast<std::size_t>(i)].count = count;
  }
  /// A span whose interval was measured elsewhere (e.g. from a due time).
  void add(SpanName n, std::uint64_t id, Clock::time_point t0, Clock::time_point t1,
           std::uint32_t count = 1) {
    spans_.push_back(Span{n, pass_, -1, id, ns(t0), ns(t1), count});
  }
  std::vector<Span>& spans() { return spans_; }

  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
        .count();
  }
  static std::int64_t now_ns() { return ns(Clock::now()); }

 private:
  Pass pass_;
  std::vector<Span> spans_;
};

/// Owns every thread's SpanLog; collect() concatenates them once threads
/// have joined.
class Tracer {
 public:
  SpanLog& log(Pass pass);
  std::vector<Span> collect();

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---- Load ----

/// Blocking loopback client for the line protocol.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  bool send(std::string_view s);
  /// Next line without its '\n'; the view lives until the next read.
  bool read_line(std::string_view& out);
  /// Buffers until `n` complete lines are available, parsing nothing.
  bool fill_lines(std::size_t n);

 private:
  bool recv_more();
  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Per query connection: (batch id, send time in seconds from the phase
/// start) of every batch it sent.
using Schedule = std::vector<std::vector<std::pair<std::uint64_t, double>>>;

struct LoadResult {
  explicit LoadResult(const Inputs& in) : check(in) {}
  Checker check;
  std::vector<double> batch_us;
  std::uint64_t batches = 0, batches_failed = 0, lines = 0;
  double query_s = 0.0;  ///< phase start .. last answer on any connection
  std::vector<double> update_ms;  ///< due time .. reply (TCP) or call time (in process)
  std::uint64_t updates = 0, updates_failed = 0;
  std::vector<std::uint64_t> applied;  ///< update ids acknowledged, in order
  double max_send_lag_ms = 0.0;
  std::size_t bursts = 0, bursts_drained = 0, backlog_at_end = 0;
  double rss_mb = 0.0;  ///< resident set when the query phase ended
  Schedule sent;        ///< the batches each query connection completed
  /// In-process cluster pass: delta carry per update, mean over shards.
  std::vector<double> rows_carried, cache_entries_carried;
};

/// Drives `phase` over TCP against the server on `port`.  With a tracer,
/// every batch and update also becomes a span.
LoadResult run_tcp(const Inputs& in, std::uint16_t port, const Phase& phase,
                   Tracer* tracer);

/// Replays a TCP phase in process at one layer's entry point: each query
/// thread runs its connection's batches of `schedule` at the times the TCP
/// phase sent them, and the phase's bursts go through add_rule/remove_rule.
LoadResult run_inproc(const Inputs& in, apc::server::ShardedCluster& cluster,
                      const Phase& phase, const Schedule& schedule, Pass layer,
                      Tracer& tracer);

/// Resident set size of this process in MB.
double resident_mb();

/// Sends batch `b` and checks its answers; returns false on a transport error
/// or a non-201 reply.
bool one_batch(const Inputs& in, LineClient& c, std::uint64_t b, Checker& check);
/// The same for the recovery probe batch.
bool probe_batch(const Inputs& in, LineClient& c, Checker& check);

}  // namespace servebench
