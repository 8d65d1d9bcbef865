// Scale extension: AP Classifier on k-ary fat-tree data centers (the
// paper's introduction motivates data centers with "hundreds of thousands
// of new flows per second" and argues a desired throughput >= 1 Mqps).
// Measures how construction cost, atom count, and query throughput scale
// with the fabric size.
#include "bench_util.hpp"
#include "datasets/topo_gen.hpp"
#include "engine/snapshot.hpp"

using namespace apc;
using namespace apc::bench;

int main() {
  print_header("Scale: AP Classifier on k-ary fat trees");
  std::printf("%-6s %8s %10s %8s %8s %12s %12s %12s %12s\n", "k", "boxes",
              "rules", "preds", "atoms", "build(ms)", "depth", "Mqps",
              "kern Mqps");

  for (const unsigned k : {4u, 6u, 8u}) {
    datasets::Dataset d;
    d.name = "fat-tree";
    d.net.topology = datasets::fat_tree_topology(k);
    datasets::FibGenConfig fc;
    fc.edge_ports_per_box = 2;
    fc.prefixes_per_port = 4;
    fc.seed = 5;
    d.fib_stats = datasets::generate_fibs(d.net, fc);

    auto mgr = datasets::Dataset::make_manager();
    Stopwatch sw;
    const ApClassifier clf(d.net, mgr);
    const double build_ms = sw.millis();

    Rng rng(6);
    const auto reps = datasets::atom_representatives(clf.atoms(), rng);
    const auto trace = datasets::uniform_trace(reps, 8000, rng);
    const double qps = measure_qps(
        trace, [&](const PacketHeader& h) { clf.query(h, 0); }, 0.3);

    // Compiled-kernel column: stage-1 batch classification through the
    // snapshot's match program (best kernel this CPU has).
    engine::FlatSnapshot::Options popts;
    popts.behavior_table_budget = 0;
    const auto snap = engine::FlatSnapshot::build(clf, popts);
    std::vector<AtomId> out(trace.size());
    Stopwatch ksw;
    std::size_t done = 0;
    do {
      snap->classify_into(trace.data(), trace.size(), out.data());
      done += trace.size();
    } while (ksw.seconds() < 0.3);
    const double kernel_qps = static_cast<double>(done) / ksw.seconds();

    std::printf("%-6u %8zu %10zu %8zu %8zu %12.1f %12.1f %12.2f %12.2f\n", k,
                d.net.topology.box_count(), d.net.total_forwarding_rules(),
                clf.predicate_count(), clf.atom_count(), build_ms,
                clf.tree().average_leaf_depth(), qps / 1e6, kernel_qps / 1e6);
  }
  std::printf("\nexpectation: atoms grow ~linearly with edge ports; depth grows\n"
              "logarithmically; throughput stays in the Mqps band the paper's\n"
              "SDN requirements demand (SS I)\n");
  return 0;
}
