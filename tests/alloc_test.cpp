// The served batch path does no heap work once warm.  This file replaces
// the global operator new with one that counts, so it builds into its own
// test executable (apc_alloc_tests): the replacement cannot reach
// apc_tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "datasets/datasets.hpp"
#include "datasets/traces.hpp"
#include "server/cluster.hpp"
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
// rule_trace headers, whose random source and port bits keep missing the
// header cache, on a default 4-shard cluster over Stanford-like tiny; even
// lines C, odd lines Q at a random ingress.  Four warm-up batches, one per
// shard (one BatchAnswers visits the shards in turn), bring every scratch
// vector to the capacity any 64-line batch needs.  After that,
// run_batch_into into the same BatchAnswers must allocate nothing: the
// pinned view, the engine's inputs, the engine call and the kernel's miss
// list all reuse memory.
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
  ShardedCluster::BatchAnswers answers;
  for (std::size_t s = 0; s < shards; ++s)
    cluster.run_batch_into(make_batch([&](std::size_t, ShardedCluster::BatchItem& item) {
                             item.is_query = true;
                             item.ingress = static_cast<BoxId>(s);
                           }),
                           answers);
  std::vector<std::vector<ShardedCluster::BatchItem>> batches(32);
  for (auto& batch : batches)
    batch = make_batch([&](std::size_t i, ShardedCluster::BatchItem& item) {
      item.is_query = i % 2 == 1;
      item.ingress = static_cast<BoxId>(rng.uniform(boxes));
    });
  const auto cache_misses = [&] {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < shards; ++s) n += cluster.shard(s)->snapshot()->header_cache_misses();
    return n;
  };
  const std::uint64_t misses_before = cache_misses();

  g_allocations.store(0);
  g_counting.store(true);
  for (const auto& batch : batches) cluster.run_batch_into(batch, answers);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u) << "over " << batches.size() << " batches";
  EXPECT_GT(cache_misses(), misses_before + batches.size()) << "the kernel path ran";

  // The answers are still the cluster's own.
  const ShardedCluster::BatchResult want = cluster.run_batch(batches.back());
  ASSERT_EQ(answers.size(), want.lines.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    std::string line;
    answers.append_line(i, line);
    EXPECT_EQ(line, want.lines[i]) << "item " << i;
  }
}

}  // namespace
}  // namespace apc::server
