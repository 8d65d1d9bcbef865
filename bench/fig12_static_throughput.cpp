// Fig. 12 — query throughput for static networks: AP Classifier (three
// construction methods) against Hassel-style HSA, AP Verifier linear scan,
// and Forwarding Simulation.
//
// Paper: Internet2 OAPT 3.4 Mqps (+102% over BestFromRandom, +52% over
// Quick); Stanford OAPT 1.8 Mqps (+46% / +34%).  Hassel-C: 6 / 4.7 Kqps
// (~1000x slower); Forwarding Simulation 0.2 / 0.16 Mqps.  All methods
// here run the FULL pipeline (stage 1 + stage 2).
#include <algorithm>
#include <bit>

#include "aptree/build.hpp"
#include "baselines/ap_linear.hpp"
#include "baselines/forwarding_sim.hpp"
#include "baselines/hsa.hpp"
#include "baselines/pscan.hpp"
#include "baselines/trie.hpp"
#include "bench_util.hpp"
#include "engine/engine.hpp"

using namespace apc;
using namespace apc::bench;

/// Headers in the FIB-rule trace of the stage-1 rows: the servebench
/// `cold-rules` trace size.
constexpr std::size_t kRuleTraceHeaders = 262144;

int main() {
  print_header("Fig. 12: query throughput for static networks (full queries)");
  BenchJson json("fig12_static_throughput");
  for (int which : {0, 1}) {
    World w = make_world(which, bench_scale());
    Rng rng(23);
    const auto trace = datasets::uniform_trace(w.reps, 8000, rng);
    const BoxId ingress = 0;

    std::printf("\n[%s]\n%-24s %14s %10s\n", w.short_name(), "method", "qps",
                "vs OAPT");

    // AP Classifier with the three construction methods.
    const double oapt_qps = measure_qps(
        trace, [&](const PacketHeader& h) { w.clf->query(h, ingress); }, 0.4);

    const ApTree rand_tree =
        best_from_random(w.clf->registry(), w.clf->atoms(), 100, 7);
    BuildOptions qo;
    qo.method = BuildMethod::QuickOrdering;
    const ApTree quick_tree = build_tree(w.clf->registry(), w.clf->atoms(), qo);
    const auto tree_query = [&](const ApTree& t, const PacketHeader& h) {
      const AtomId a = t.classify(h, w.clf->registry());
      w.clf->behavior_of(a, ingress);
    };
    const double rand_qps = measure_qps(
        trace, [&](const PacketHeader& h) { tree_query(rand_tree, h); }, 0.3);
    const double quick_qps = measure_qps(
        trace, [&](const PacketHeader& h) { tree_query(quick_tree, h); }, 0.3);

    // Baselines.
    const ApLinear lin(w.clf->atoms());
    const double lin_qps = measure_qps(
        trace,
        [&](const PacketHeader& h) {
          w.clf->behavior_of(lin.classify(h), ingress);
        },
        0.3);
    const ForwardingSimulation fsim(w.clf->compiled(), w.data().net.topology,
                                    w.clf->registry());
    const double fsim_qps = measure_qps(
        trace, [&](const PacketHeader& h) { fsim.query(h, ingress); }, 0.3);
    const PScan ps(w.clf->compiled(), w.data().net.topology, w.clf->registry());
    const double ps_qps = measure_qps(
        trace, [&](const PacketHeader& h) { ps.query(h, ingress); }, 0.3);
    const TrieEngine trie(w.data().net);
    const double trie_qps = measure_qps(
        trace, [&](const PacketHeader& h) { trie.query(h, ingress); }, 0.3);
    const HsaEngine hsa(w.data().net);
    const double hsa_qps = measure_qps(
        trace, [&](const PacketHeader& h) { hsa.query(h, ingress); }, 0.3,
        /*max_queries=*/400);

    const std::string prefix =
        std::string("fig12.") + (which == 0 ? "internet2" : "stanford") + ".";
    const auto row = [&](const char* name, const char* slug, double qps) {
      std::printf("%-24s %14.0f %9.2fx\n", name, qps, qps / oapt_qps);
      json.row(prefix + slug + "_qps", qps, "qps");
    };
    row("APC (OAPT)", "oapt", oapt_qps);
    row("APC (Quick-Ordering)", "quick_ordering", quick_qps);
    row("APC (BestFromRandom)", "best_from_random", rand_qps);
    row("APLinear (AP Verifier)", "ap_linear", lin_qps);
    row("Forwarding Simulation", "forwarding_sim", fsim_qps);
    row("PScan", "pscan", ps_qps);
    row("Trie (Veriflow-style)", "trie", trie_qps);
    row("HSA (Hassel-style)", "hsa", hsa_qps);

    // Honest caveat on the trie row: its CPU speed is real, but this is a
    // destination-only trie — it answers point queries on pure LPM state
    // and degrades to linear scans for ACL/multi-field/flow-table matches.
    // The system the paper discusses (Veriflow) indexes all five fields,
    // which is where the "tens of GBs" memory cost of keeping raw rules in
    // the controller comes from (SS II), and a trie cannot answer the
    // atom-level set queries (verification, waypoints) that AP Classifier's
    // stage-1 output enables.
    const auto mem = w.clf->memory();
    std::printf("  memory: APC %.2f MB vs dst-only trie %.2f MB (a faithful "
                "5-field Veriflow trie is orders of magnitude larger)\n",
                static_cast<double>(mem.total()) / 1048576.0,
                static_cast<double>(trie.memory_bytes()) / 1048576.0);

    // Query-path acceleration (docs/architecture.md, "Query path"): full
    // two-stage queries, single-threaded, on a Zipfian trace (s = 1.0 —
    // the skew of real traffic), with the behavior table on vs off (every
    // query then walks the topology).  Both snapshots run the match
    // program for stage 1.  The cached snapshot is warmed with one pass so
    // the measurement reflects the steady state a long-lived snapshot
    // serves.
    Rng zrng(31);
    const auto zt = datasets::zipf_trace(w.reps, w.clf->atoms().capacity(),
                                         8000, zrng, 1.0);
    {
      engine::FlatSnapshot::Options cached_opts;  // default: table on
      const auto cached = engine::FlatSnapshot::build(*w.clf, cached_opts);
      engine::FlatSnapshot::Options walk_opts;
      walk_opts.behavior_table_budget = 0;
      const auto uncached = engine::FlatSnapshot::build(*w.clf, walk_opts);

      const double uncached_qps = measure_qps(
          zt.packets, [&](const PacketHeader& h) { uncached->query(h, ingress); },
          0.3);
      for (const PacketHeader& h : zt.packets) (void)cached->query(h, ingress);
      const double cached_qps = measure_qps(
          zt.packets, [&](const PacketHeader& h) { cached->query(h, ingress); },
          0.3);
      std::printf("  zipf(s=1) query: table on %.0f qps vs off %.0f qps "
                  "(%.2fx); %llu table fills\n",
                  cached_qps, uncached_qps, cached_qps / uncached_qps,
                  static_cast<unsigned long long>(cached->behavior_table_fills()));
      json.row(prefix + "cached_query_qps", cached_qps, "qps");
      json.row(prefix + "uncached_query_qps", uncached_qps, "qps");
      json.row(prefix + "cached_query_speedup", cached_qps / uncached_qps,
               "ratio");
      json.row(prefix + "behavior_table_fills",
               static_cast<double>(cached->behavior_table_fills()), "count");
      json.row(prefix + "behavior_table_build_seconds",
               cached->behavior_table_build_seconds(), "seconds");
    }

    // Compiled match program (docs/architecture.md, "Compiled match
    // program"): stage-1 classification on the uniform trace, behavior
    // table off.  Three rows on one snapshot: the interpreted per-header walk
    // (classify_walk, the stage-1 oracle), the compiled program's scalar
    // kernel, and its AVX2 lane-parallel kernel.
    {
      engine::FlatSnapshot::Options prog_opts;
      prog_opts.behavior_table_budget = 0;
      const auto compiled = engine::FlatSnapshot::build(*w.clf, prog_opts);
      const engine::MatchProgram* prog = compiled->program();

      std::vector<AtomId> out(trace.size());
      const auto batch_qps = [&](auto&& run) {
        run();  // warm-up
        Stopwatch sw;
        std::size_t done = 0;
        do {
          run();
          done += trace.size();
        } while (sw.seconds() < 0.3);
        return static_cast<double>(done) / sw.seconds();
      };
      const double interp_qps = batch_qps([&] {
        for (std::size_t i = 0; i < trace.size(); ++i)
          out[i] = compiled->classify_walk(trace[i]);
      });
      const double scalar_qps = batch_qps([&] {
        prog->run_batch(trace.data(), trace.size(), out.data(),
                        engine::KernelKind::kScalar);
      });
      const double simd_qps = batch_qps([&] {
        prog->run_batch(trace.data(), trace.size(), out.data(),
                        engine::KernelKind::kAvx2);
      });
      const bool avx2 = engine::MatchProgram::avx2_available();
      std::printf("  match program: interpreted %.0f qps, compiled "
                  "%.0f qps (%.2fx), compiled+SIMD %.0f qps (%.2fx)%s\n",
                  interp_qps, scalar_qps, scalar_qps / interp_qps, simd_qps,
                  simd_qps / interp_qps,
                  avx2 ? "" : " [no AVX2: SIMD row ran the scalar kernel]");
      std::printf("  match program: %zu instructions, %.1f KiB, compiled in "
                  "%.0f us, dispatch=%d\n",
                  compiled->program_instructions(),
                  static_cast<double>(compiled->program_bytes()) / 1024.0,
                  compiled->program_compile_seconds() * 1e6,
                  compiled->kernel_dispatch());
      json.row(prefix + "program_interpreted_qps", interp_qps, "qps");
      json.row(prefix + "program_compiled_qps", scalar_qps, "qps");
      json.row(prefix + "program_compiled_simd_qps", simd_qps, "qps");
      json.row(prefix + "program_compiled_speedup", scalar_qps / interp_qps,
               "ratio");
      json.row(prefix + "program_simd_speedup", simd_qps / interp_qps, "ratio");
      json.row(prefix + "program_instructions",
               static_cast<double>(compiled->program_instructions()), "count");
      json.row(prefix + "program_bytes",
               static_cast<double>(compiled->program_bytes()), "bytes");
      json.row(prefix + "program_compile_us",
               compiled->program_compile_seconds() * 1e6, "us");
      json.row(prefix + "program_avx2_available", avx2 ? 1.0 : 0.0, "bool");
      json.row(prefix + "program_kernel_dispatch",
               static_cast<double>(compiled->kernel_dispatch()), "count");

      // Program depth: mean instructions per header on the uniform trace,
      // the longest walk any header can take, and the number of header
      // bits the predicates test (a decision diagram tests each at most
      // once per walk, so max_steps <= tested_bits).
      double steps = 0.0;
      for (const PacketHeader& h : trace) steps += static_cast<double>(prog->steps(h));
      std::size_t tested_bits = 0;
      for (const std::uint64_t word : compiled->tested_bits())
        tested_bits += static_cast<std::size_t>(std::popcount(word));
      std::printf("  match program depth: %.1f steps/header (uniform), max %zu, "
                  "%zu tested header bits\n",
                  steps / static_cast<double>(trace.size()),
                  compiled->program_max_steps(), tested_bits);
      json.row(prefix + "program_steps_per_header",
               steps / static_cast<double>(trace.size()), "count");
      json.row(prefix + "program_max_steps",
               static_cast<double>(compiled->program_max_steps()), "count");
      json.row(prefix + "program_tested_bits", static_cast<double>(tested_bits),
               "count");

      // Stage-1 cost per trace: classify_into ns per header in 64-header
      // calls (the served batch shape) on the uniform and Zipf traces (one
      // representative per atom) and on a FIB-rule trace with random
      // source/port bits (the servebench cold-rules shape).
      Rng rrng(37);
      const auto rt = datasets::rule_trace(w.data().net, kRuleTraceHeaders, rrng);
      const auto ns_per_header = [&](const std::vector<PacketHeader>& hs) {
        std::vector<AtomId> atoms(hs.size());
        const auto pass = [&] {
          for (std::size_t i = 0; i < hs.size(); i += 64)
            compiled->classify_into(hs.data() + i,
                                    std::min<std::size_t>(64, hs.size() - i),
                                    atoms.data() + i);
        };
        pass();  // warm-up
        Stopwatch sw;
        std::size_t done = 0;
        do {
          pass();
          done += hs.size();
        } while (sw.seconds() < 0.2);
        return sw.seconds() * 1e9 / static_cast<double>(done);
      };
      const std::pair<const char*, const std::vector<PacketHeader>*> traces[] = {
          {"uniform", &trace}, {"zipf", &zt.packets}, {"rule", &rt}};
      for (const auto& [name, hs] : traces) {
        const double ns = ns_per_header(*hs);
        std::printf("  classify_into %-7s %.1f ns/header\n", name, ns);
        json.row(prefix + "classify_into_ns_" + name, ns, "ns");
      }
    }

    // Observability overhead: the same engine batch workload with metrics
    // recording on vs off.  Instrumentation is batch-granular (one timer and
    // two histogram records per batch, nothing per packet), so the two runs
    // must agree within noise (< 3% is the design target; the measured
    // fraction is recorded below).
    {
      engine::QueryEngine eng(*w.clf, engine::QueryEngine::Options{});
      const auto batch_qps = [&] {
        (void)eng.classify_batch(trace);  // warm-up
        Stopwatch sw;
        std::size_t done = 0;
        do {
          (void)eng.classify_batch(trace);
          done += trace.size();
        } while (sw.seconds() < 0.25);
        return static_cast<double>(done) / sw.seconds();
      };
      // Alternating best-of-N trials: a single A/B pass cannot resolve a
      // few-percent effect against scheduler/load noise, but the best trial
      // per mode is a stable estimator of achievable throughput.
      double on_qps = 0.0, off_qps = 0.0;
      for (int trial = 0; trial < 10; ++trial) {
        obs::set_enabled(true);
        on_qps = std::max(on_qps, batch_qps());
        obs::set_enabled(false);
        off_qps = std::max(off_qps, batch_qps());
      }
      obs::set_enabled(true);
      const double overhead = off_qps > 0.0 ? (off_qps - on_qps) / off_qps : 0.0;
      std::printf("  obs overhead: batch classify %.0f qps (on) vs %.0f qps "
                  "(off), %+.2f%%\n",
                  on_qps, off_qps, overhead * 100.0);
      json.row(prefix + "engine_batch_obs_on_qps", on_qps, "qps",
               eng.worker_threads() + 1);
      json.row(prefix + "engine_batch_obs_off_qps", off_qps, "qps",
               eng.worker_threads() + 1);
      json.row(prefix + "obs_overhead_fraction", overhead, "fraction",
               eng.worker_threads() + 1);
      // The bench JSON carries the engine's own metric inventory — the same
      // registry stats() serves (engine + pool + classifier + BDD rows).
      rows_from_snapshot(json, eng.stats(), prefix, eng.worker_threads() + 1);
    }
  }
  std::printf("\npaper: OAPT 3.4 / 1.8 Mqps; FwdSim 0.20 / 0.16 Mqps;"
              " Hassel-C 6.0 / 4.7 Kqps\n");
  return 0;
}
