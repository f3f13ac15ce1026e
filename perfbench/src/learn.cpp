// learn-exact / learn-auto: the untraced timed learns and the traced run
// that times each layer through its public functions.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "bench.hpp"

namespace perfbench {

using namespace sgl;

namespace {

/// One full learn as a user runs it: construction → run → finalize(&Y).
core::SglResult learn_once(const LearnInputs& in, const core::SglConfig& config) {
  core::SglLearner learner(in.data.voltages, config);
  return learner.run(&in.data.currents);
}

/// Share of the exact k nearest neighbours (by scan) that the HNSW lists
/// contain, over a seeded sample of rows.
double knn_recall(const la::DenseMatrix& x, const knn::KnnResult& approx,
                  Index samples, std::uint64_t seed) {
  const std::vector<Real> data = knn::to_row_major(x);
  const Index n = x.rows();
  const Index k = approx.k;
  Rng rng(seed);
  Index found = 0;
  Index total = 0;
  std::vector<std::pair<Real, Index>> dist(static_cast<std::size_t>(n));
  for (Index s = 0; s < std::min(samples, n); ++s) {
    const Index q = rng.uniform_int(n);
    for (Index j = 0; j < n; ++j)
      dist[static_cast<std::size_t>(j)] = {
          j == q ? std::numeric_limits<Real>::infinity()
                 : knn::point_distance_squared(data, x.cols(), q, j),
          j};
    std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
    const auto row = approx.neighbor.begin() + static_cast<std::ptrdiff_t>(q) * k;
    for (Index j = 0; j < k; ++j) {
      found += std::find(row, row + k, dist[static_cast<std::size_t>(j)].second) !=
                       row + k
                   ? 1
                   : 0;
      ++total;
    }
  }
  return static_cast<double>(found) / static_cast<double>(total);
}

}  // namespace

void run_learn_workload(const Args& args, Report& report) {
  // Set-up: kLearnSetups input generations cycling over the inputs (the
  // last copy of each is kept); setup_s is their median.
  std::vector<double> setup_s;
  std::vector<LearnInputs> inputs(kInputsPerRun);
  static_assert(kLearnSetups >= kInputsPerRun);
  for (Index rep = 0; rep < kLearnSetups; ++rep) {
    const Index i = rep % kInputsPerRun;
    const double t0 = now_seconds();
    inputs[static_cast<std::size_t>(i)] =
        make_learn_inputs(args, input_seed(args.seed, i));
    setup_s.push_back(now_seconds() - t0);
  }

  // Learns go round-robin over the inputs: at least two rounds, and on
  // until args.seconds have passed.
  const core::SglConfig config = learn_config(args.workload, args.threads);
  std::vector<double> learn_s;
  std::vector<std::optional<graph::GraphKey>> keys(kInputsPerRun);
  std::vector<graph::Graph> learned(kInputsPerRun);
  const double start = now_seconds();
  for (std::size_t n = 0;
       n < 2 * keys.size() || n % keys.size() != 0 ||
       now_seconds() - start < args.seconds;
       ++n) {
    const std::size_t i = n % keys.size();
    ++report.ledger.attempted;
    try {
      const double t0 = now_seconds();
      core::SglResult result = learn_once(inputs[i], config);
      learn_s.push_back(now_seconds() - t0);
      const graph::GraphKey k = graph::graph_key(result.learned);
      if (!keys[i]) {
        keys[i] = k;
        check_learned(result, report.checks);
      }
      report.checks.require(k == *keys[i],
                            "learned GraphKey differs between runs");
      learned[i] = std::move(result.learned);
    } catch (const std::exception& e) {
      ++report.ledger.failed;
      report.checks.require(false, std::string("learn failed: ") + e.what());
      return;
    }
  }

  double density = 0.0;
  for (const graph::Graph& g : learned) density += g.density();
  report.e2e.set("learn_s", median(learn_s), "s");
  report.e2e.set("setup_s", median(setup_s), "s");
  report.e2e.set("edges_per_node",
                 density / static_cast<double>(learned.size()), "edges/node");
  std::fprintf(stderr, "learn: %.1f MB peak; s:", self_peak_rss_mb());
  for (const double t : learn_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");
  serve_learned_in_process(args, inputs[0].truth, learned, report);
}

std::pair<graph::Graph, graph::Graph> trace_learn(const Args& args,
                                                  Workload workload,
                                                  Report& report,
                                                  SpanRecorder& spans) {
  MetricSheet& out = report.layers;
  const Index threads = args.threads;
  LearnInputs inputs;
  {
    const ScopedSpan span(spans, "measure.generate");
    inputs = make_learn_inputs(args, args.seed);
  }
  out.set("measure.generate_s", spans.total("measure.generate"), "s");
  const la::DenseMatrix& x = inputs.data.voltages;
  const core::SglConfig config = learn_config(workload, threads);

  // Untraced learn: the GraphKey the traced one must reproduce. A second
  // untraced learn after the traced one gives the warm wall time the
  // tracing overhead and the speed-ups are measured against.
  ++report.ledger.attempted;
  const core::SglResult cold = learn_once(inputs, config);
  check_learned(cold, report.checks);
  const graph::GraphKey reference_key = graph::graph_key(cold.learned);

  // --- knn: the learner's kNN stage, one public call at a time.
  knn::KnnGraphOptions knn_options = config.knn;
  knn_options.k = config.k;
  knn_options.num_threads = threads;
  std::optional<knn::HnswIndex> index;
  {
    const ScopedSpan span(spans, "knn.hnsw_build");
    index.emplace(x, knn_options.hnsw, threads);
  }
  knn::KnnResult approx;
  {
    const ScopedSpan span(spans, "knn.hnsw_search");
    approx = index->knn_all(config.k, threads);
  }
  graph::Graph knn_graph;
  {
    const ScopedSpan span(spans, "knn.graph");
    knn_graph = knn::build_knn_graph(x, knn_options);
  }
  out.set("knn.hnsw_build_s", spans.total("knn.hnsw_build"), "s");
  out.set("knn.hnsw_search_s", spans.total("knn.hnsw_search"), "s");
  out.set("knn.graph_s", spans.total("knn.graph"), "s");
  out.set("knn.recall", knn_recall(x, approx, 200, args.seed ^ 0x5eedULL),
          "ratio");
  {
    const ScopedSpan span(spans, "graph.mst");
    (void)graph::maximum_spanning_forest(knn_graph);
  }
  out.set("graph.mst_s", spans.total("graph.mst"), "s");

  // --- core: drive step() one call at a time; before each step, time the
  // solver acquire and the embedding on the learner's current graph with
  // a shadow context in the learner's mode.
  spectral::EmbeddingOptions embedding = config.embedding;
  embedding.solver.num_threads = threads;
  embedding.lanczos.num_threads = threads;
  embedding.sf.num_threads = threads;
  solver::SolverContextOptions shadow_options;
  shadow_options.mode = config.incremental;
  shadow_options.solver = embedding.solver;
  solver::SolverContext shadow(shadow_options);

  Index lanczos_steps = 0;
  Index sweeps = 0;
  Index unconverged = 0;
  Index levels = 0;
  std::unique_ptr<core::SglLearner> learner;
  core::SglResult traced;
  {
    const ScopedSpan learn_span(spans, "trace.learn");
    {
      const ScopedSpan span(spans, "core.ctor");
      learner = std::make_unique<core::SglLearner>(x, config);
    }
    while (!learner->converged() && !learner->exhausted() &&
           learner->iteration() < config.max_iterations) {
      const graph::Graph& g = learner->current_graph();
      if (spectral::resolve_embedding_engine(embedding.engine, g.num_nodes()) ==
          spectral::EmbeddingEngine::kExact) {
        const ScopedSpan span(spans, "solver.acquire");
        (void)shadow.acquire(g);
      } else {
        // The solver-free engine's hierarchy, built as it builds it.
        const Index dims = std::min(embedding.r - 1, g.num_nodes() - 1);
        const Index tests = std::min(dims + 4, g.num_nodes() - 1);
        const ScopedSpan span(spans, "graph.coarsen");
        levels = graph::build_coarsening_hierarchy(
                     g, std::max(embedding.sf.coarsest_size, tests + 1),
                     embedding.sf.seed)
                     .num_levels();
      }
      spectral::Embedding e;
      {
        const ScopedSpan span(spans, "spectral.embed");
        e = spectral::compute_embedding(g, embedding, &shadow);
      }
      lanczos_steps += e.lanczos_steps;
      sweeps += e.smoother_sweeps;
      unconverged += e.eig_converged ? 0 : 1;
      const ScopedSpan span(spans, "core.step");
      (void)learner->step();
    }
    const ScopedSpan span(spans, "core.finalize");
    traced = learner->finalize(&inputs.data.currents);
  }
  report.checks.require(graph::graph_key(traced.learned) == reference_key,
                        "traced learned GraphKey differs from the untraced run");

  const double ctor_s = spans.total("core.ctor");
  const double step_s = spans.total("core.step");
  const double embed_s = spans.total("spectral.embed");
  const double acquire_s = spans.total("solver.acquire");
  const double finalize_s = spans.total("core.finalize");
  out.set("graph.coarsen_s", spans.total("graph.coarsen"), "s");
  out.set("graph.levels", static_cast<double>(levels), "count");
  out.set("spectral.embed_s", embed_s, "s");
  out.set("spectral.smoother_sweeps", static_cast<double>(sweeps), "count");
  out.set("eig.lanczos_steps", static_cast<double>(lanczos_steps), "count");
  out.set("eig.unconverged", static_cast<double>(unconverged), "count");
  out.set("solver.acquire_s", acquire_s, "s");
  const solver::SolverContextStats& stats = learner->solver_context().stats();
  out.set("solver.rebuilds", static_cast<double>(stats.rebuilds), "count");
  out.set("solver.updates", static_cast<double>(stats.updates_applied), "count");
  out.set("solver.pattern_misses", static_cast<double>(stats.pattern_misses),
          "count");
  out.set("solver.refactorizations",
          static_cast<double>(stats.refactorizations), "count");
  out.set("core.init_s", ctor_s - traced.knn_seconds, "s");
  out.set("core.step_s", step_s, "s");
  // The step's own acquire + embedding cost what the shadow calls cost.
  out.set("core.scan_s", step_s - embed_s - acquire_s, "s");
  out.set("core.scale_s", finalize_s, "s");
  out.set("core.iterations", static_cast<double>(learner->iteration()),
          "count");
  core::SglResult reference;
  double reference_s = 0.0;
  {
    ++report.ledger.attempted;
    ScopedSpan span(spans, "baseline.untraced_learn");
    reference = learn_once(inputs, config);
    reference_s = span.stop();
  }
  report.checks.require(graph::graph_key(reference.learned) == reference_key,
                        "learned GraphKey differs between runs");
  // Tracing overhead: the learner's own spans against the untraced learn.
  out.set("trace.overhead", (ctor_s + step_s + finalize_s) / reference_s - 1.0,
          "ratio");

  // --- 1-thread baseline of the same learn.
  core::SglResult serial;
  {
    ++report.ledger.attempted;
    const ScopedSpan span(spans, "baseline.serial_learn");
    serial = learn_once(inputs, learn_config(workload, 1));
  }
  report.checks.require(graph::graph_key(serial.learned) == reference_key,
                        "learned GraphKey differs between 1 and " +
                            std::to_string(threads) + " threads");
  out.set("knn.speedup", serial.knn_seconds / reference.knn_seconds, "x");
  out.set("core.speedup", serial.learn_seconds / reference.learn_seconds, "x");
  std::fprintf(stderr,
               "trace: learn %.3f s untraced (knn %.3f s, loop %.3f s); "
               "1 thread: knn %.3f s, loop %.3f s\n",
               reference_s, reference.knn_seconds, reference.learn_seconds,
               serial.knn_seconds, serial.learn_seconds);
  return {std::move(inputs.truth), std::move(traced.learned)};
}

}  // namespace perfbench
