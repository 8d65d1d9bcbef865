// Fig. 12 (concurrent variant) — stage-1 classification throughput of the
// snapshot-based query engine.
//
// Three comparisons per dataset:
//   1. manager-backed tree walk (ApClassifier::classify, the Fig. 12 path)
//      vs FlatSnapshot::classify (the compiled match program), both
//      single-threaded — the snapshot touches no BddManager state and tests
//      no header bit twice;
//   2. classify_batch() aggregate throughput at 1, 2, and 4 worker threads
//      (the calling thread always participates, so "0 extra workers" is the
//      single-threaded batch baseline);
//   3. the same batch sweep for full two-stage query_batch().
//
// Numbers scale with the host's core count: on a single-core machine the
// multi-thread rows show pool overhead, not speedup — run on a multi-core
// host to see the aggregate scaling the engine exists for.
#include <thread>

#include "bench_util.hpp"
#include "engine/engine.hpp"

using namespace apc;
using namespace apc::bench;

namespace {

/// Sustained batch throughput: repeats whole-batch calls until min_seconds.
template <typename Fn>
double measure_batch_qps(std::size_t batch_size, Fn&& fn,
                         double min_seconds = 0.4) {
  Stopwatch sw;
  std::size_t done = 0;
  do {
    fn();
    done += batch_size;
  } while (sw.seconds() < min_seconds);
  return static_cast<double>(done) / sw.seconds();
}

}  // namespace

int main() {
  print_header("Fig. 12 (concurrent): snapshot engine stage-1 throughput");
  BenchJson json("fig12_concurrent");
  std::printf("host reports %u hardware threads\n",
              std::thread::hardware_concurrency());

  for (int which : {0, 1}) {
    World w = make_world(which, bench_scale());
    Rng rng(29);
    const auto trace = datasets::uniform_trace(w.reps, 8192, rng);

    std::printf("\n[%s]  atoms=%zu preds=%zu\n", w.short_name(),
                w.clf->atom_count(), w.clf->predicate_count());

    // 1. Single-threaded: manager walk vs snapshot classify.  The snapshot
    //    row has the behavior table off; stage 1 never reads it.
    const double mgr_qps = measure_qps(
        trace, [&](const PacketHeader& h) { (void)w.clf->classify(h); }, 0.4);
    engine::FlatSnapshot::Options walk_opts;
    walk_opts.behavior_table_budget = 0;
    const auto snap = engine::FlatSnapshot::build(*w.clf, walk_opts);
    const double flat_qps = measure_qps(
        trace, [&](const PacketHeader& h) { (void)snap->classify(h); }, 0.4);
    std::printf("%-34s %14s %10s\n", "single-thread classify", "qps", "vs mgr");
    std::printf("%-34s %14.0f %9.2fx\n", "  tree walk (manager-backed)",
                mgr_qps, 1.0);
    std::printf("%-34s %14.0f %9.2fx\n", "  flat snapshot (match program)",
                flat_qps, flat_qps / mgr_qps);
    std::printf("  snapshot: %zu bdd nodes, %zu tree nodes, %.2f MB\n",
                snap->bdd_node_count(), snap->tree_node_count(),
                static_cast<double>(snap->memory_bytes()) / 1048576.0);

    const std::string prefix =
        std::string("fig12c.") + (which == 0 ? "internet2" : "stanford") + ".";
    json.row(prefix + "classify_manager_qps", mgr_qps, "qps");
    json.row(prefix + "classify_flat_snapshot_qps", flat_qps, "qps");

    // 2./3. Batch fan-out at increasing thread counts.
    std::printf("%-34s %14s %10s\n", "batch throughput (aggregate)", "qps",
                "vs 1thr");
    double base_classify = 0.0, base_query = 0.0;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      engine::QueryEngine::Options opts;
      opts.num_threads = threads - 1;  // caller participates
      engine::QueryEngine eng(*w.clf, opts);

      const double cq = measure_batch_qps(
          trace.size(), [&] { (void)eng.classify_batch(trace); });
      if (threads == 1) base_classify = cq;
      std::printf("  classify_batch @%zu thread%s %11.0f %9.2fx\n", threads,
                  threads == 1 ? "  " : "s ", cq, cq / base_classify);
      json.row(prefix + "classify_batch_qps", cq, "qps", threads);

      const double qq = measure_batch_qps(
          trace.size(), [&] { (void)eng.query_batch(trace, 0); });
      if (threads == 1) base_query = qq;
      std::printf("  query_batch    @%zu thread%s %11.0f %9.2fx\n", threads,
                  threads == 1 ? "  " : "s ", qq, qq / base_query);
      json.row(prefix + "query_batch_qps", qq, "qps", threads);
    }
  }

  std::printf("\nflat-vs-manager is the per-core win; batch rows show\n"
              "aggregate scaling (expect ~linear up to physical cores)\n");
  return 0;
}
