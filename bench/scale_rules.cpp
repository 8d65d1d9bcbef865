// Million-rule scale harness: construction, snapshot size, owned load vs
// mmap warm restore, and mapped-vs-owned query throughput as the rule count
// grows (datasets::stanford_scaled islands — Full scale x2 passes 1.5M
// rules, x7 passes 5M).
//
// The claim under test: because the snapshot file IS the in-memory arena
// (engine/arena.hpp), a warm restore is an mmap + CRC + validation pass —
// page faults, not a parse — and must beat cold construction of the
// classifier by >= 10x, while a mapped snapshot classifies at owned-heap
// speed and bit-identically.
//
// Env knobs:
//   APC_BENCH_SCALE=tiny|small|medium|full   island scale (default medium)
//   APC_SCALE_COPIES=N[,N...]                island counts (default 1,2)
//   APC_SCALE_ASSERT=1                       exit nonzero unless
//                                            warm_restore_us < cold_build_us / 10
//                                            and mapped/owned qps within 3x
//                                            (CI bench-smoke sets this)
//
// Rows land in BENCH_scale_rules.json; the mapped-vs-owned differential
// (every trace header classified on both storages) always runs and any
// mismatch fails the run regardless of APC_SCALE_ASSERT.
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "engine/snapshot.hpp"
#include "util/stats.hpp"

using namespace apc;
using namespace apc::bench;

namespace {

std::vector<std::size_t> copies_axis() {
  const char* env = std::getenv("APC_SCALE_COPIES");
  if (!env) return {1, 2};
  std::vector<std::size_t> out;
  for (const char* p = env; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out.empty() ? std::vector<std::size_t>{1} : out;
}

std::size_t file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

}  // namespace

int main() {
  print_header("Scale: construction / snapshot size / warm restore / QPS vs rules");
  BenchJson json("scale_rules");
  const datasets::Scale scale = bench_scale();
  const bool hard_assert = std::getenv("APC_SCALE_ASSERT") != nullptr;
  const std::string dir = "."; // snapshots are scratch files, removed per run
  bool ok = true;

  for (const std::size_t copies : copies_axis()) {
    const std::string tag = "x" + std::to_string(copies);
    datasets::Dataset d = datasets::stanford_scaled(copies, scale);
    const std::size_t rules =
        d.net.total_forwarding_rules() + d.net.total_acl_rules();

    auto mgr = datasets::Dataset::make_manager();
    Stopwatch build_sw;
    ApClassifier clf(d.net, mgr);
    const double cold_build_us = build_sw.seconds() * 1e6;

    Stopwatch freeze_sw;
    const auto snap = engine::FlatSnapshot::build(clf);
    const double freeze_us = freeze_sw.seconds() * 1e6;

    const std::string v2_path = dir + "/scale_rules_" + tag + ".snap";
    engine::save_snapshot(*snap, v2_path);
    const std::size_t snapshot_bytes = file_bytes(v2_path);

    // v2 owned read: same bytes, heap storage (APC_FORCE_NO_MMAP's path).
    engine::FlatSnapshot::Options lo;
    lo.mmap_load = false;
    Stopwatch owned_sw;
    const auto owned = engine::load_snapshot(v2_path, lo);
    const double v2_owned_load_us = owned_sw.seconds() * 1e6;

    // v2 mmap warm restore (the page cache is warm: we just wrote the file).
    lo.mmap_load = true;
    Stopwatch warm_sw;
    const auto mapped = engine::load_snapshot(v2_path, lo);
    const double warm_restore_us = warm_sw.seconds() * 1e6;
    const bool is_mapped = mapped->storage() == engine::Arena::Storage::kMapped;

    // Mapped-vs-owned differential + throughput on a rule-derived trace.
    Rng rng(1234 + copies);
    const auto trace = datasets::rule_trace(d.net, 1u << 14, rng);
    std::vector<AtomId> a(trace.size()), b(trace.size());
    mapped->classify_into(trace.data(), trace.size(), a.data());
    owned->classify_into(trace.data(), trace.size(), b.data());
    std::size_t diff = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) diff += a[i] != b[i];
    if (diff != 0) {
      std::fprintf(stderr, "FAIL %s: mapped vs owned differ on %zu headers\n",
                   tag.c_str(), diff);
      ok = false;
    }
    const double mapped_qps = measure_qps(
        trace, [&](const PacketHeader& h) { (void)mapped->classify(h); }, 0.3);
    const double owned_qps = measure_qps(
        trace, [&](const PacketHeader& h) { (void)owned->classify(h); }, 0.3);

    json.row("scale_rules.rules_" + tag, static_cast<double>(rules), "count");
    json.row("scale_rules.atoms_" + tag, static_cast<double>(clf.atoms().alive_count()), "count");
    json.row("scale_rules.cold_build_us_" + tag, cold_build_us, "us");
    json.row("scale_rules.freeze_us_" + tag, freeze_us, "us");
    json.row("scale_rules.snapshot_bytes_" + tag, static_cast<double>(snapshot_bytes), "bytes");
    json.row("scale_rules.v2_owned_load_us_" + tag, v2_owned_load_us, "us");
    json.row("scale_rules.warm_restore_us_" + tag, warm_restore_us, "us");
    json.row("scale_rules.snapshot_mapped_" + tag, is_mapped ? 1.0 : 0.0, "bool");
    json.row("scale_rules.mapped_query_qps_" + tag, mapped_qps, "qps");
    json.row("scale_rules.owned_query_qps_" + tag, owned_qps, "qps");
    json.row("scale_rules.peak_rss_bytes_" + tag,
             static_cast<double>(util::peak_rss_bytes()), "bytes");

    std::printf(
        "%-6s rules=%9zu atoms=%6zu build=%9.0fus freeze=%8.0fus snap=%8zuB\n"
        "       v2_owned=%8.0fus warm(mmap)=%7.0fus (%5.1fx vs build)\n"
        "       qps mapped=%.2e owned=%.2e  peak_rss=%.1f MiB\n",
        tag.c_str(), rules, static_cast<std::size_t>(clf.atoms().alive_count()),
        cold_build_us, freeze_us, snapshot_bytes, v2_owned_load_us,
        warm_restore_us, warm_restore_us > 0 ? cold_build_us / warm_restore_us : 0.0,
        mapped_qps, owned_qps,
        static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0));

    if (hard_assert) {
      if (is_mapped && warm_restore_us >= cold_build_us / 10.0) {
        std::fprintf(stderr,
                     "FAIL %s: warm restore %.0fus not 10x faster than cold "
                     "construction %.0fus\n",
                     tag.c_str(), warm_restore_us, cold_build_us);
        ok = false;
      }
      if (mapped_qps < owned_qps / 3.0 || owned_qps < mapped_qps / 3.0) {
        std::fprintf(stderr, "FAIL %s: mapped qps %.2e vs owned qps %.2e\n",
                     tag.c_str(), mapped_qps, owned_qps);
        ok = false;
      }
    }

    std::remove(v2_path.c_str());
  }
  return ok ? 0 : 1;
}
