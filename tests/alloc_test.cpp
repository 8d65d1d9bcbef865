// The served batch path does no heap work once warm.  This file replaces
// the global operator new with one that counts, so it builds into its own
// test executable (apc_alloc_tests): the replacement cannot reach
// apc_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "server/cluster.hpp"
#include "server/protocol.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every form is replaced, array and nothrow included: a sanitizer runtime
// supplies its own for any form left out, and memory from its operator new
// freed by this file's operator delete is a reported mismatch.
void* operator new(std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new[](std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, alignof(std::max_align_t));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, static_cast<std::size_t>(a));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t& t) noexcept {
  return operator new(n, a, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace apc::server {
namespace {

// The cold-rules shape of the serving benchmark: 64-line batches of
// rule_trace headers with random source and port bits, on a default
// 4-shard cluster over Stanford-like tiny; even lines C, odd lines Q at a
// random ingress.  Each batch goes the server's way from its wire text to
// its reply: every line through parse_request into a reused item vector,
// GO through run_batch_into into one BatchAnswers, and the status and
// answer lines appended to a reused reply string.  Four warm-up batches,
// one per shard (one BatchAnswers visits the shards in turn), bring every
// scratch buffer to the capacity any 64-line batch needs.  After that a
// batch must allocate nothing: the parse, the pinned view, the engine's
// inputs, the engine call, the kernel call and the reply all reuse memory.
TEST(ShardedCluster, SteadyStateBatchDoesNotAllocate) {
  const datasets::Dataset data = datasets::stanford_like(datasets::Scale::Tiny, 11);
  ShardedCluster::Options opts;
  opts.engine.num_threads = 2;
  ShardedCluster cluster(data.net, opts);
  const std::size_t shards = cluster.shard_count();
  const std::size_t boxes = data.net.topology.box_count();
  ASSERT_EQ(shards, 4u);
  ASSERT_GE(boxes, shards);

  Rng rng(2024);
  const auto make_batch = [&](auto ingress_of) {
    const std::vector<PacketHeader> trace = datasets::rule_trace(data.net, 64, rng);
    std::vector<ShardedCluster::BatchItem> batch(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      batch[i].header = trace[i];
      ingress_of(i, batch[i]);
    }
    return batch;
  };
  // A batch's wire text, as a client sends it: its C/Q lines, then GO.
  const auto wire_of = [](const std::vector<ShardedCluster::BatchItem>& batch) {
    std::string wire;
    for (const ShardedCluster::BatchItem& item : batch) {
      wire += item.is_query ? format_query(item.ingress, item.header)
                            : format_classify(item.header);
      wire += '\n';
    }
    return wire + "GO\n";
  };
  std::vector<ShardedCluster::BatchItem> items;
  ShardedCluster::BatchAnswers answers;
  std::string reply;
  // What TcpServer does with one batch's lines (framing aside).
  const auto serve = [&](std::string_view wire) {
    std::size_t lineno = 0;
    for (std::size_t pos = 0; pos < wire.size();) {
      const std::size_t nl = wire.find('\n', pos);
      Request req;
      if (parse_request(wire.substr(pos, nl - pos), ++lineno, req)) {
        if (req.kind == RequestKind::kGo) {
          cluster.run_batch_into(items, answers);
          items.clear();
          reply.clear();
          reply += "201 ";
          append_uint(reply, answers.epoch);
          reply += ' ';
          append_uint(reply, answers.size());
          reply += '\n';
          for (std::size_t i = 0; i < answers.size(); ++i) {
            answers.append_line(i, reply);
            reply += '\n';
          }
        } else {
          items.push_back({req.kind == RequestKind::kQuery, req.header, req.ingress});
        }
      }
      pos = nl + 1;
    }
  };
  for (std::size_t s = 0; s < shards; ++s)
    serve(wire_of(make_batch([&](std::size_t, ShardedCluster::BatchItem& item) {
      item.is_query = true;
      item.ingress = static_cast<BoxId>(s);
    })));
  std::vector<std::vector<ShardedCluster::BatchItem>> batches(32);
  std::vector<std::string> wires;
  for (auto& batch : batches) {
    batch = make_batch([&](std::size_t i, ShardedCluster::BatchItem& item) {
      item.is_query = i % 2 == 1;
      item.ingress = static_cast<BoxId>(rng.uniform(boxes));
    });
    wires.push_back(wire_of(batch));
  }
  g_allocations.store(0);
  g_counting.store(true);
  for (const std::string& wire : wires) serve(wire);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u) << "over " << wires.size() << " batches";

  // The reply is still the cluster's own answer to the last batch.
  const ShardedCluster::BatchResult want = cluster.run_batch(batches.back());
  std::string want_reply = "201 " + std::to_string(want.epoch) + ' ' +
                           std::to_string(want.lines.size()) + '\n';
  for (const std::string& line : want.lines) want_reply += line + '\n';
  EXPECT_EQ(reply, want_reply);
}

}  // namespace
}  // namespace apc::server
