// ServeEngine semantics: batched answers are bitwise the serial answers,
// one coalesced batch of solves runs ONE apply_block (the ServeStats
// receipt), resistances are answered inline without a batch, the
// factorization LRU evicts and refills correctly, and every failure
// carries a stable ErrorCode — clients never parse message text.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "measure/measurements.hpp"
#include "serve/serve_engine.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::serve {
namespace {

graph::Graph grid(Index nx, Index ny) {
  return graph::make_grid2d(nx, ny).graph;
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const SglError& e) {
    return e.code();
  }
  return ErrorCode::kOk;
}

TEST(ServeEngine, QueriesWithoutGraphAreTypedNoActiveGraph) {
  ServeEngine engine;
  EXPECT_FALSE(engine.has_active_graph());
  EXPECT_EQ(code_of([&] { (void)engine.solve({1.0, -1.0}); }),
            ErrorCode::kNoActiveGraph);
  EXPECT_EQ(code_of([&] { (void)engine.effective_resistance(0, 1); }),
            ErrorCode::kNoActiveGraph);
  EXPECT_EQ(code_of([&] { (void)engine.embedding(); }),
            ErrorCode::kNoActiveGraph);
  EXPECT_EQ(code_of([&] { (void)engine.active_key(); }),
            ErrorCode::kNoActiveGraph);
  EXPECT_EQ(engine.stats().errors, 3);  // accessors don't count as requests
}

TEST(ServeEngine, DisconnectedGraphIsTypedGraphNotConnected) {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  ServeEngine engine;
  EXPECT_EQ(code_of([&] { (void)engine.load_graph(std::move(g)); }),
            ErrorCode::kGraphNotConnected);
  EXPECT_EQ(code_of([&] { (void)engine.load_graph(graph::Graph(0)); }),
            ErrorCode::kBadRequest);
  EXPECT_FALSE(engine.has_active_graph());
}

TEST(ServeEngine, SolveMatchesDirectSolverBitwise) {
  const graph::Graph g = grid(9, 7);
  const solver::LaplacianPinvSolver reference(g);

  ServeEngine engine;
  (void)engine.load_graph(g);
  la::Vector rhs(static_cast<std::size_t>(g.num_nodes()), 0.0);
  rhs[0] = 2.0;
  rhs[17] = -1.5;
  rhs[62] = -0.5;
  const la::Vector expected = reference.apply(rhs);
  const la::Vector got = engine.solve(rhs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "entry " << i;
  }
}

/// Right-hand side e_i − e_j (i ≠ j) for the solve traffic below.
la::Vector dipole(Index n, Index i, Index j) {
  la::Vector rhs(static_cast<std::size_t>(n), 0.0);
  rhs[static_cast<std::size_t>(i)] = 1.0;
  rhs[static_cast<std::size_t>(j)] = -1.0;
  return rhs;
}

/// Issues rhs.size() solves at once, one std::thread each, and returns
/// the answers in request order. With a flush deadline far above the
/// thread start-up time, a batch_width-b engine coalesces them into
/// full width-b batches only.
std::vector<la::Vector> concurrent_solves(ServeEngine& engine,
                                          const std::vector<la::Vector>& rhs) {
  std::vector<la::Vector> got(rhs.size());
  std::vector<std::exception_ptr> errors(rhs.size());
  std::vector<std::thread> clients;
  clients.reserve(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    clients.emplace_back([&, i] {
      try {
        got[i] = engine.solve(rhs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  return got;
}

/// A deadline no test run comes near: batches flush only when full.
constexpr Index kNeverUs = 30'000'000;

TEST(ServeEngine, BatchedResistanceIsBitwiseSerialAndOneApplyBlock) {
  const graph::Graph g = grid(12, 12);
  const Index n = g.num_nodes();
  const solver::LaplacianPinvSolver reference(g);

  // Serial reference: width-1 engine answers one request per block.
  ServeOptions serial_options;
  serial_options.batch_width = 1;
  ServeEngine serial(serial_options);
  (void)serial.load_graph(g);

  ServeOptions options;  // default width 16
  options.flush_deadline_us = kNeverUs;
  ServeEngine batched(options);
  (void)batched.load_graph(g);

  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < 16; ++i) pairs.emplace_back(i, 143 - i);

  // Resistances are answered inline: bitwise the solver's value, the
  // same single or batched, and no combiner batch.
  const std::vector<Real> block = batched.effective_resistance_batch(pairs);
  ASSERT_EQ(block.size(), pairs.size());
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    const Real one =
        serial.effective_resistance(pairs[j].first, pairs[j].second);
    EXPECT_EQ(block[j], one) << "pair " << j;
    EXPECT_EQ(block[j], reference.effective_resistance(pairs[j].first,
                                                       pairs[j].second))
        << "pair " << j;
  }
  EXPECT_EQ(batched.stats().batches, 0);
  EXPECT_EQ(serial.stats().batches, 0);

  // The receipt: 16 concurrent solves, ONE apply_block of width 16,
  // each answer bitwise the serial one.
  std::vector<la::Vector> rhs;
  for (const auto& [s, t] : pairs) rhs.push_back(dipole(n, s, t));
  const std::vector<la::Vector> got = concurrent_solves(batched, rhs);
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    EXPECT_EQ(got[j], serial.solve(rhs[j])) << "solve " << j;
  }
  const ServeStats stats = batched.stats();
  EXPECT_EQ(stats.requests, 32);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.batched_columns, 16);
  EXPECT_EQ(stats.max_batch_width, 16);

  // The serial engine ran one single-column batch per solve.
  const ServeStats serial_stats = serial.stats();
  EXPECT_EQ(serial_stats.requests, 32);
  EXPECT_EQ(serial_stats.batches, 16);
  EXPECT_EQ(serial_stats.max_batch_width, 1);
}

TEST(ServeEngine, LongBatchRunsInWidthChunksBitwiseSerial) {
  const graph::Graph g = grid(12, 12);
  const Index n = g.num_nodes();
  const solver::LaplacianPinvSolver reference(g);
  ServeOptions serial_options;
  serial_options.batch_width = 1;
  ServeEngine serial(serial_options);
  (void)serial.load_graph(g);

  ServeOptions options;  // default width 16
  options.flush_deadline_us = kNeverUs;
  ServeEngine batched(options);
  (void)batched.load_graph(g);

  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < 64; ++i) pairs.emplace_back(i, (i * 37 + 71) % 144);
  const std::vector<Real> block = batched.effective_resistance_batch(pairs);
  ASSERT_EQ(block.size(), pairs.size());
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    EXPECT_EQ(block[j],
              serial.effective_resistance(pairs[j].first, pairs[j].second))
        << "pair " << j;
    EXPECT_EQ(block[j], reference.effective_resistance(pairs[j].first,
                                                       pairs[j].second))
        << "pair " << j;
  }
  // A shorter batch answers the same way, and neither adds a batch.
  pairs.resize(40);
  const std::vector<Real> ragged = batched.effective_resistance_batch(pairs);
  for (std::size_t j = 0; j < pairs.size(); ++j) EXPECT_EQ(ragged[j], block[j]);
  EXPECT_EQ(batched.stats().batches, 0);

  // 64 concurrent solves ran as four width-16 blocks, never one 64-wide
  // block, bitwise the serial answers.
  std::vector<la::Vector> rhs;
  for (Index i = 0; i < 64; ++i) rhs.push_back(dipole(n, i, (i * 37 + 71) % 144));
  const std::vector<la::Vector> got = concurrent_solves(batched, rhs);
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    EXPECT_EQ(got[j], serial.solve(rhs[j])) << "solve " << j;
  }
  const ServeStats stats = batched.stats();
  EXPECT_EQ(stats.requests, 64 + 40 + 64);
  EXPECT_EQ(stats.batches, 4);
  EXPECT_EQ(stats.batched_columns, 64);
  EXPECT_EQ(stats.max_batch_width, 16);
  EXPECT_EQ(stats.width_flushes, 4);
}

TEST(ServeEngine, ConcurrentMissesOnOneKeyFactorizeOnce) {
  const graph::Graph g = grid(48, 48);
  ServeOptions options;
  options.batch_width = 1;
  // The clients below are pool workers (plus the calling thread) that
  // wait on each other's fill; one solver thread keeps the engine from
  // queuing pool work behind them.
  options.num_threads = 1;
  options.solver.num_threads = 1;
  ServeEngine engine(options);
  const graph::GraphKey key = engine.load_graph(g);

  constexpr Index kClients = 8;
  std::vector<Real> got(static_cast<std::size_t>(kClients), 0.0);
  parallel::parallel_for(0, kClients, kClients, [&](Index i) {
    got[static_cast<std::size_t>(i)] =
        engine.effective_resistance(0, g.num_nodes() - 1, key);
  });
  for (const Real r : got) EXPECT_EQ(r, got.front());

  // Whoever arrived during the build waited for it (a hit); whoever
  // arrived later found it cached (a hit). Exactly one factorization.
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, kClients - 1);
  EXPECT_EQ(stats.cache_evictions, 0);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ServeEngine, InvalidRequestsAreTypedBadRequest) {
  ServeEngine engine;
  (void)engine.load_graph(grid(4, 4));
  EXPECT_EQ(code_of([&] { (void)engine.effective_resistance(3, 3); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(code_of([&] { (void)engine.effective_resistance(0, 99); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(code_of([&] { (void)engine.solve(la::Vector(7, 0.0)); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(code_of([&] {
              (void)engine.effective_resistance_batch({{0, 1}, {2, -1}});
            }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(code_of([&] { engine.activate(graph::GraphKey{}); }),
            ErrorCode::kBadRequest);
  EXPECT_EQ(engine.stats().errors, 5);
}

TEST(ServeEngine, LruEvictsAndRefillsDeterministically) {
  ServeOptions options;
  options.cache_capacity = 2;
  options.batch_width = 1;
  ServeEngine engine(options);

  const graph::GraphKey k1 = engine.load_graph(grid(5, 5));
  const Real r1 = engine.effective_resistance(0, 24);  // miss 1
  const graph::GraphKey k2 = engine.load_graph(grid(6, 5));
  (void)engine.effective_resistance(0, 29);  // miss 2
  const graph::GraphKey k3 = engine.load_graph(grid(7, 5));
  (void)engine.effective_resistance(0, 34);  // miss 3, evicts k1

  ASSERT_NE(k1, k2);
  ASSERT_NE(k2, k3);

  engine.activate(k1);
  EXPECT_EQ(engine.active_key(), k1);
  const Real r1_refill = engine.effective_resistance(0, 24);  // miss 4, evicts k2
  // Re-factorizing the same graph with the same options is bit-identical.
  EXPECT_EQ(r1_refill, r1);
  const Real r1_hit = engine.effective_resistance(0, 24);  // hit
  EXPECT_EQ(r1_hit, r1);

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 4);
  EXPECT_EQ(stats.cache_evictions, 2);
  EXPECT_EQ(stats.cache_hits, 1);
}

/// `g` with each weight scaled by a seeded factor in [0.5, 1.5): a
/// weight variant with the same endpoints.
graph::Graph jittered(const graph::Graph& g, std::uint64_t seed) {
  graph::Graph out = g;
  Rng rng(seed);
  for (Index e = 0; e < out.num_edges(); ++e)
    out.set_weight(e, out.edges()[static_cast<std::size_t>(e)].weight *
                          rng.uniform(0.5, 1.5));
  return out;
}

TEST(ServeEngine, WeightVariantFillsShareTheSymbolicAnalysis) {
  ServeOptions options;
  options.cache_capacity = 2;
  ServeEngine engine(options);
  const graph::Graph base = grid(20, 20);
  const Index n = base.num_nodes();
  std::vector<graph::GraphKey> keys;
  std::vector<graph::Graph> variants;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    variants.push_back(jittered(base, seed));
    keys.push_back(engine.load_graph(variants.back()));
  }
  // Four graphs through two slots, twice: eight fills, of which only the
  // first analyses the pattern. Every answer is the fresh solver's.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const solver::LaplacianPinvSolver fresh(variants[k], options.solver);
      EXPECT_EQ(engine.effective_resistance(3, n - 5, keys[k]),
                fresh.effective_resistance(3, n - 5));
    }
  }
  ServeStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 8);
  EXPECT_EQ(stats.symbolic_reuses, 7);

  // Same node and edge counts, other endpoints: never shares it.
  graph::Graph rewired(n);
  for (const graph::Edge& e : base.edges()) {
    rewired.add_edge(e.s == 0 ? n - 1 : (e.s == n - 1 ? 0 : e.s),
                     e.t == 0 ? n - 1 : (e.t == n - 1 ? 0 : e.t), e.weight);
  }
  ASSERT_EQ(rewired.num_edges(), base.num_edges());
  const graph::GraphKey rewired_key = engine.load_graph(rewired);
  ASSERT_NE(rewired_key.endpoints, keys[0].endpoints);
  EXPECT_EQ(engine.effective_resistance(3, n - 5, rewired_key),
            solver::LaplacianPinvSolver(rewired).effective_resistance(3, n - 5));
  stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 9);
  EXPECT_EQ(stats.symbolic_reuses, 7);
}

TEST(ServeEngine, KeyPinnedQueriesBypassTheActiveGraph) {
  ServeOptions options;
  options.batch_width = 1;
  ServeEngine engine(options);
  const graph::GraphKey small = engine.load_graph(grid(5, 5));
  const graph::GraphKey big = engine.load_graph(grid(9, 9));  // now active

  // Pinning to `small` answers against the 25-node graph even though the
  // 81-node graph is active — and does not change the active graph.
  const Real pinned = engine.effective_resistance(0, 24, small);
  EXPECT_GT(pinned, 0.0);
  EXPECT_EQ(engine.active_key(), big);

  ServeEngine reference(options);
  (void)reference.load_graph(grid(5, 5));
  EXPECT_EQ(pinned, reference.effective_resistance(0, 24));

  // Unknown keys are a typed bad request.
  EXPECT_EQ(code_of([&] {
              (void)engine.effective_resistance(0, 1, graph::GraphKey{});
            }),
            ErrorCode::kBadRequest);
}

TEST(ServeEngine, ReloadingSameGraphIsACacheHit) {
  ServeEngine engine;
  const graph::GraphKey first = engine.load_graph(grid(6, 6));
  (void)engine.effective_resistance(0, 35);
  const graph::GraphKey second = engine.load_graph(grid(6, 6));
  EXPECT_EQ(first, second);
  (void)engine.effective_resistance(0, 35);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST(ServeEngine, LearnActivatesLearnedGraphAndServesQueries) {
  const graph::Graph truth = grid(8, 8);
  measure::MeasurementOptions mopt;
  mopt.num_measurements = 40;
  const measure::Measurements data =
      measure::generate_measurements(truth, mopt);

  ServeEngine engine;
  core::SglConfig config;
  const LearnSummary summary =
      engine.learn(data.voltages, &data.currents, config);
  EXPECT_EQ(summary.num_nodes, truth.num_nodes());
  EXPECT_GT(summary.num_edges, 0);
  EXPECT_TRUE(summary.converged || summary.exhausted);
  EXPECT_TRUE(engine.has_active_graph());
  EXPECT_EQ(engine.active_key(), summary.key);
  EXPECT_EQ(engine.active_num_nodes(), truth.num_nodes());

  const Real r = engine.effective_resistance(0, 63);
  EXPECT_GT(r, 0.0);
  EXPECT_EQ(engine.stats().learns, 1);
}

TEST(ServeEngine, EmbeddingIsCachedPerGraphKey) {
  ServeEngine engine;
  (void)engine.load_graph(grid(8, 8));
  const spectral::Embedding first = engine.embedding();
  const spectral::Embedding second = engine.embedding();
  EXPECT_EQ(engine.stats().embeddings, 1);  // second call was the cache
  ASSERT_EQ(first.eigenvalues.size(), second.eigenvalues.size());
  for (std::size_t i = 0; i < first.eigenvalues.size(); ++i) {
    EXPECT_EQ(first.eigenvalues[i], second.eigenvalues[i]);
  }
  // A different active graph recomputes.
  (void)engine.load_graph(grid(9, 9));
  (void)engine.embedding();
  EXPECT_EQ(engine.stats().embeddings, 2);
}

TEST(ServeEngine, PcgStallSurfacesTypedPcgStalled) {
  ServeOptions options;
  options.solver.method = solver::LaplacianMethod::kPcgAmg;
  options.solver.pcg.max_iterations = 1;
  options.solver.pcg.rel_tolerance = 1e-14;
  ServeEngine engine(options);
  (void)engine.load_graph(grid(16, 16));
  EXPECT_EQ(code_of([&] { (void)engine.effective_resistance(0, 255); }),
            ErrorCode::kPcgStalled);
  EXPECT_EQ(code_of([&] {
              (void)engine.effective_resistance_batch({{0, 1}, {2, 3}});
            }),
            ErrorCode::kPcgStalled);
}

}  // namespace
}  // namespace sgl::serve
