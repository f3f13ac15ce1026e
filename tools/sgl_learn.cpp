// sgl_learn — command-line front end for the SGL library.
//
// Modes:
//   (a) learn from measurement files:
//         sgl_learn --voltages X.mtx [--currents Y.mtx] --out learned.mtx
//       X (and Y) are MatrixMarket dense array files, N×M; the learned
//       graph's Laplacian is written in MatrixMarket coordinate format.
//   (b) end-to-end simulation from a graph file (handy for trying the
//       algorithm on the paper's SuiteSparse matrices):
//         sgl_learn --graph g2_circuit.mtx --measurements 100 --out learned.mtx
//
// Common knobs: --k, --r, --beta, --tol, --noise, --refine, --seed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>

#include "measure/matrix_io.hpp"
#include "sgl.hpp"

namespace {

using namespace sgl;

struct CliArgs {
  std::map<std::string, std::string> kv;

  [[nodiscard]] bool has(const std::string& key) const {
    return kv.count(key) > 0;
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
};

void usage() {
  std::puts(
      "sgl_learn: learn an ultra-sparse resistor network from measurements\n"
      "\n"
      "  from measurements:  sgl_learn --voltages X.mtx [--currents Y.mtx]\n"
      "                                --out learned.mtx\n"
      "  from a graph file:  sgl_learn --graph G.mtx [--measurements 100]\n"
      "                                --out learned.mtx\n"
      "\n"
      "options:\n"
      "  --k <int>       kNN parameter              (default 5)\n"
      "  --r <int>       embedding order            (default 5)\n"
      "  --beta <real>   edge sampling ratio        (default 1e-3)\n"
      "  --tol <real>    sensitivity tolerance      (default 1e-12)\n"
      "  --noise <real>  relative voltage noise     (default 0)\n"
      "  --refine        stagewise weight polish    (off by default)\n"
      "  --seed <int>    measurement RNG seed       (default 2021)\n"
      "  --engine <name> embedding engine: auto, exact, solver-free\n"
      "                  (default auto: solver-free on large graphs)\n"
      "  --incremental <name> incremental relearning: auto, off\n"
      "                  (default off: rebuild every solver from scratch,\n"
      "                  byte-identical to historical output; auto reuses\n"
      "                  the factor while the graph is unchanged, rebuilds\n"
      "                  it on the cached ordering when edges are added,\n"
      "                  and warm-starts the exact engine's eigensolver)\n"
      "  --solver <name> Laplacian solver: auto, cholesky, pcg-amg\n"
      "                  (default auto)\n"
      "  --ordering <name> factorization ordering: auto, amd, rcm, nd,\n"
      "                  natural                     (default auto)\n"
      "  --threads <int> worker threads; 0 = SGL_NUM_THREADS or hardware\n"
      "                  (results are identical for any thread count)\n"
      "  --verbose       print solver/factorization statistics\n"
      "  --quiet         suppress per-iteration log");
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr const char* kValueOptions[] = {
      "voltages", "currents", "graph",   "measurements", "out",
      "k",        "r",        "beta",    "tol",          "noise",
      "seed",     "threads",  "solver",  "ordering",     "engine",
      "incremental"};
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      usage();
      return 2;
    }
    key.erase(0, 2);
    if (key == "refine" || key == "quiet" || key == "verbose" ||
        key == "help") {
      args.kv[key] = "1";
      continue;
    }
    const bool known =
        std::find_if(std::begin(kValueOptions), std::end(kValueOptions),
                     [&key](const char* opt) { return key == opt; }) !=
        std::end(kValueOptions);
    if (!known) {
      std::fprintf(stderr, "unknown option '--%s'\n", key.c_str());
      usage();
      return 2;
    }
    // A following "--word" is the next option, not this one's value.
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      return 2;
    }
    args.kv[key] = argv[++i];
  }
  if (args.has("help") || argc == 1) {
    usage();
    return 0;
  }

  // Strict option policy (PR 1): unknown --solver/--ordering/--engine
  // values are rejected up front (with the valid names) instead of being
  // silently mapped to a default.
  const auto method = solver::parse_laplacian_method(args.str("solver", "auto"));
  if (!method) {
    std::fprintf(stderr, "unknown --solver '%s' (valid: %s)\n",
                 args.str("solver").c_str(),
                 solver::laplacian_method_name_list().c_str());
    usage();
    return 2;
  }
  const auto ordering =
      solver::parse_ordering_method(args.str("ordering", "auto"));
  if (!ordering) {
    std::fprintf(stderr, "unknown --ordering '%s' (valid: %s)\n",
                 args.str("ordering").c_str(),
                 solver::ordering_method_name_list().c_str());
    usage();
    return 2;
  }
  const auto engine =
      spectral::parse_embedding_engine(args.str("engine", "auto"));
  if (!engine) {
    std::fprintf(stderr, "unknown --engine '%s' (valid: %s)\n",
                 args.str("engine").c_str(),
                 spectral::embedding_engine_name_list().c_str());
    usage();
    return 2;
  }
  const auto incremental =
      solver::parse_incremental_mode(args.str("incremental", "off"));
  if (!incremental) {
    std::fprintf(stderr, "unknown --incremental '%s' (valid: %s)\n",
                 args.str("incremental").c_str(),
                 solver::incremental_mode_name_list().c_str());
    usage();
    return 2;
  }

  try {
    la::DenseMatrix x;
    la::DenseMatrix y;
    bool have_currents = false;

    if (args.has("graph")) {
      const graph::Graph g = graph::read_graph_matrix_market(args.str("graph"));
      std::printf("loaded graph: %d nodes, %d edges\n", g.num_nodes(),
                  g.num_edges());
      measure::MeasurementOptions mopt;
      mopt.num_measurements =
          static_cast<Index>(args.num("measurements", 100));
      mopt.seed = static_cast<std::uint64_t>(args.num("seed", 2021));
      mopt.num_threads = static_cast<Index>(args.num("threads", 0));
      mopt.solver.method = *method;
      mopt.solver.ordering = *ordering;
      const measure::Measurements data = measure::generate_measurements(g, mopt);
      x = data.voltages;
      y = data.currents;
      have_currents = true;
    } else if (args.has("voltages")) {
      x = measure::read_dense_matrix_market(args.str("voltages"));
      if (args.has("currents")) {
        y = measure::read_dense_matrix_market(args.str("currents"));
        have_currents = true;
      }
    } else {
      std::fputs("need --voltages or --graph\n", stderr);
      usage();
      return 2;
    }
    std::printf("measurements: %d nodes x %d vectors%s\n", x.rows(), x.cols(),
                have_currents ? " (+currents)" : " (voltage-only)");

    const double noise = args.num("noise", 0.0);
    if (noise > 0.0) {
      measure::add_noise(x, noise,
                         static_cast<std::uint64_t>(args.num("seed", 2021)) + 1);
      std::printf("applied %.0f%% relative measurement noise\n", noise * 100.0);
    }

    core::SglConfig config;
    config.k = static_cast<Index>(args.num("k", 5));
    config.embedding.r = static_cast<Index>(args.num("r", 5));
    config.embedding.engine = *engine;
    config.beta = args.num("beta", 1e-3);
    config.tolerance = args.num("tol", 1e-12);
    config.num_threads = static_cast<Index>(args.num("threads", 0));
    config.embedding.solver.method = *method;
    config.embedding.solver.ordering = *ordering;
    config.incremental = *incremental;
    if (!args.has("quiet")) {
      config.observer = [](Index it, Real smax, Index added) {
        std::printf("  iter %3d  smax %.3e  +%d edges\n", it, smax, added);
      };
    }

    core::SglLearner learner(x, config);
    const core::SglResult result =
        learner.run(have_currents ? &y : nullptr);
    std::printf("learned: %d edges (density %.3f), %d iterations, "
                "converged=%s, knn %.2fs + learn %.2fs\n",
                result.learned.num_edges(), result.learned.density(),
                result.iterations, result.converged ? "yes" : "no",
                result.knn_seconds, result.learn_seconds);

    if (args.has("verbose")) {
      // Engine diagnostics of the learning loop: which engine computed
      // the per-iteration embeddings and, on the solver-free path, how
      // much smoothing/hierarchy work each one ran.
      if (!result.history.empty()) {
        const core::SglIterationStats& last = result.history.back();
        std::printf("engine: %s (requested %s)",
                    spectral::embedding_engine_name(last.engine),
                    spectral::embedding_engine_name(*engine));
        if (last.engine == spectral::EmbeddingEngine::kSolverFree) {
          std::printf(", %d smoother sweeps over %d hierarchy levels",
                      last.smoother_sweeps, last.hierarchy_levels);
        }
        std::printf("\n");
      }
      // Incremental-relearning counters of the learner's SolverContext:
      // how often the warm solver was reused vs rebuilt, and how many
      // rebuilds ran on the cached ordering (DESIGN.md §8).
      {
        const solver::SolverContext& ctx = learner.solver_context();
        const solver::SolverContextStats& cs = ctx.stats();
        std::printf(
            "incremental: mode=%s acquisitions=%d rebuilds=%d "
            "pattern-misses=%d ordering-reuses=%d\n",
            solver::incremental_mode_name(ctx.mode()), cs.acquisitions,
            cs.rebuilds, cs.pattern_misses, cs.ordering_reuses);
      }
      // The solver the run itself built last (its SolverContext's), not
      // a new factorization: the solver-free engine builds none.
      const solver::LaplacianPinvSolver* pinv =
          learner.solver_context().solver();
      if (pinv == nullptr) {
        std::printf("solver: none (solver-free)\n");
      } else {
        std::printf("solver: %s (requested %s, ordering %s), last built for "
                    "%d nodes\n",
                    solver::laplacian_method_name(pinv->method()),
                    solver::laplacian_method_name(*method),
                    solver::ordering_method_name(*ordering),
                    pinv->num_nodes());
        if (const solver::FactorStats* fs = pinv->factor_stats()) {
          std::printf(
              "factor: n=%d nnz=%d supernodes=%d levels=%d "
              "(widest level %d) in %.4fs\n",
              fs->n, fs->factor_nnz, fs->num_supernodes, fs->num_levels,
              fs->max_level_supernodes, fs->factor_seconds);
        } else {
          const solver::PcgBlockStats ps = pinv->pcg_block_stats();
          std::printf(
              "pcg: last block of %d columns, iterations max=%d total=%d, "
              "converged %d/%d\n",
              ps.columns, ps.max_iterations, ps.total_iterations,
              ps.converged_columns, ps.columns);
        }
      }
    }

    graph::Graph learned = result.learned;
    if (args.has("refine")) {
      const core::RefineResult r = core::refine_edge_weights(learned, x);
      std::printf("refined weights: %d iterations, max |log ratio| %.3f\n",
                  r.iterations, r.max_log_ratio);
    }

    const std::string out = args.str("out", "learned.mtx");
    graph::write_laplacian_matrix_market(learned, out);
    std::printf("wrote Laplacian to %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
