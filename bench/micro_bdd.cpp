// Micro-benchmarks (google-benchmark) for the BDD substrate and the hot
// classification path: the constants behind every figure.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.hpp"
#include "rules/compiler.hpp"
#include "server/protocol.hpp"

using namespace apc;
using namespace apc::bench;

namespace {

void BM_BddPrefixPredicate(benchmark::State& state) {
  bdd::BddManager mgr(HeaderLayout::kBits);
  Rng rng(1);
  for (auto _ : state) {
    const Ipv4Prefix p{(10u << 24) | static_cast<std::uint32_t>(rng.next() & 0xFFFF00),
                       24};
    benchmark::DoNotOptimize(prefix_predicate(mgr, HeaderLayout::kDstIp, p));
  }
}
BENCHMARK(BM_BddPrefixPredicate);

void BM_BddConjunction(benchmark::State& state) {
  bdd::BddManager mgr(HeaderLayout::kBits);
  Rng rng(2);
  std::vector<bdd::Bdd> preds;
  for (int i = 0; i < 64; ++i) {
    const Ipv4Prefix p{(10u << 24) | static_cast<std::uint32_t>(rng.next() & 0xFFFF00),
                       static_cast<std::uint8_t>(16 + rng.uniform(9))};
    preds.push_back(prefix_predicate(mgr, HeaderLayout::kDstIp, p));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(preds[i % 64] & preds[(i * 7 + 3) % 64]);
    ++i;
  }
}
BENCHMARK(BM_BddConjunction);

void BM_BddEval(benchmark::State& state) {
  bdd::BddManager mgr(HeaderLayout::kBits);
  Rng rng(3);
  bdd::Bdd pred = mgr.bdd_false();
  for (int i = 0; i < 32; ++i) {
    const Ipv4Prefix p{(10u << 24) | static_cast<std::uint32_t>(rng.next() & 0xFFFF00),
                       24};
    pred = pred | prefix_predicate(mgr, HeaderLayout::kDstIp, p);
  }
  const PacketHeader h = PacketHeader::from_five_tuple(1, (10u << 24) | 77, 2, 3, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.eval([&](std::uint32_t v) { return h.bit(v); }));
  }
}
BENCHMARK(BM_BddEval);

void BM_InRange(benchmark::State& state) {
  bdd::BddManager mgr(HeaderLayout::kBits);
  Rng rng(4);
  for (auto _ : state) {
    const std::uint16_t lo = static_cast<std::uint16_t>(rng.uniform(60000));
    const std::uint16_t hi = static_cast<std::uint16_t>(lo + rng.uniform(5000));
    benchmark::DoNotOptimize(mgr.in_range(HeaderLayout::kDstPort, 16, lo, hi));
  }
}
BENCHMARK(BM_InRange);

// The end-to-end hot paths on the Internet2-like dataset (small scale keeps
// the micro run quick; the figure benches cover medium/full).
struct SmallWorldFixture : benchmark::Fixture {
  void SetUp(const benchmark::State&) override {
    if (!world) {
      world = std::make_unique<World>(
          make_world(0, datasets::Scale::Small));
      Rng rng(5);
      trace = datasets::uniform_trace(world->reps, 1024, rng);
    }
  }
  static std::unique_ptr<World> world;
  static std::vector<PacketHeader> trace;
};
std::unique_ptr<World> SmallWorldFixture::world;
std::vector<PacketHeader> SmallWorldFixture::trace;

BENCHMARK_F(SmallWorldFixture, Classify)(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world->clf->classify(trace[i++ & 1023]));
  }
}

BENCHMARK_F(SmallWorldFixture, FullQuery)(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world->clf->query(trace[i++ & 1023], 0));
  }
}

BENCHMARK_F(SmallWorldFixture, Stage2Only)(benchmark::State& state) {
  const AtomId atom = world->clf->classify(trace[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(world->clf->behavior_of(atom, 0));
  }
}

// The request parser alone, one wire line per iteration, on the lines of
// servebench's cold-rules workload: rule_trace headers on Stanford-like
// tiny.  The canonical C and Q lines are what format_classify and
// format_query write; the tabbed twin is the C lines with tabs for spaces,
// which the general parser takes (line check, tokenizer, one conversion
// per token).
enum class WireForm { kClassify, kQuery, kTabbedClassify };

void BM_ParseRequest(benchmark::State& state, WireForm form) {
  const datasets::Dataset data = datasets::stanford_like(datasets::Scale::Tiny, 11);
  Rng rng(6);
  std::vector<std::string> lines;
  for (const PacketHeader& h : datasets::rule_trace(data.net, 1024, rng)) {
    const auto ingress = static_cast<BoxId>(rng.uniform(data.net.topology.box_count()));
    std::string line = form == WireForm::kQuery ? server::format_query(ingress, h)
                                                : server::format_classify(h);
    if (form == WireForm::kTabbedClassify) std::replace(line.begin(), line.end(), ' ', '\t');
    lines.push_back(std::move(line));
  }
  server::Request req;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server::parse_request(lines[i++ & 1023], 1, req));
    benchmark::DoNotOptimize(req);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_ParseRequest, canonical_c, WireForm::kClassify);
BENCHMARK_CAPTURE(BM_ParseRequest, canonical_q, WireForm::kQuery);
BENCHMARK_CAPTURE(BM_ParseRequest, tabbed_c, WireForm::kTabbedClassify);

}  // namespace

BENCHMARK_MAIN();
