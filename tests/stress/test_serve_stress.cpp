// Concurrent-client stress for the serving layer (TSan-targeted, like
// the rest of the stress module): many oversubscribed workers hammer one
// ServeEngine with mixed solve / effective-resistance traffic while the
// micro-batching combiner coalesces the solves into shared apply_block
// calls and the resistances run inline on the client threads.
// Every concurrent answer must be bitwise equal to a serial replay of
// the same request — the combiner may change BATCH COMPOSITION, never
// bytes. Also covered: LRU eviction/refill under concurrency and the
// typed-error round trip (a bad request fails alone; batchmates still
// get their answers), and a cache fill that never blocks queries on
// other, already cached graphs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "serve/serve_engine.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::serve {
namespace {

constexpr Index kOversubscribedThreads = 16;

graph::Graph grid(Index nx, Index ny) {
  return graph::make_grid2d(nx, ny).graph;
}

TEST(ServeStress, ConcurrentMixedTrafficIsBitwiseSerial) {
  const graph::Graph g = grid(14, 14);
  const Index n = g.num_nodes();
  constexpr Index kRequests = 96;

  // Deterministic request plan: every 3rd request is a solve, the rest
  // are resistance probes with varying pairs.
  struct Plan {
    bool is_solve;
    Index s, t;
  };
  std::vector<Plan> plan;
  plan.reserve(static_cast<std::size_t>(kRequests));
  for (Index i = 0; i < kRequests; ++i) {
    plan.push_back({i % 3 == 0, i % n, (i * 7 + 31) % n});
  }
  for (Plan& p : plan) {
    if (p.s == p.t) p.t = (p.t + 1) % n;
  }

  const auto rhs_for = [n](const Plan& p) {
    la::Vector rhs(static_cast<std::size_t>(n), 0.0);
    rhs[static_cast<std::size_t>(p.s)] = 1.0;
    rhs[static_cast<std::size_t>(p.t)] = -1.0;
    return rhs;
  };

  // Serial replay: width-1 engine, one thread, one request at a time.
  ServeOptions serial_options;
  serial_options.batch_width = 1;
  ServeEngine serial(serial_options);
  (void)serial.load_graph(g);
  const solver::LaplacianPinvSolver reference(g);
  std::vector<la::Vector> expected_solve(plan.size());
  std::vector<Real> expected_value(plan.size(), 0.0);
  Index solves = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].is_solve) {
      expected_solve[i] = serial.solve(rhs_for(plan[i]));
      ++solves;
    } else {
      expected_value[i] = serial.effective_resistance(plan[i].s, plan[i].t);
      // Inline resistances are the solver's own value, bit for bit.
      ASSERT_EQ(expected_value[i],
                reference.effective_resistance(plan[i].s, plan[i].t))
          << "request " << i;
    }
  }

  // Concurrent run against a batching engine, several times so batches
  // form with different compositions.
  for (int round = 0; round < 3; ++round) {
    ServeOptions options;
    options.batch_width = 8;
    options.flush_deadline_us = 100;
    ServeEngine engine(options);
    (void)engine.load_graph(g);

    std::vector<la::Vector> got_solve(plan.size());
    std::vector<Real> got_value(plan.size(), 0.0);
    parallel::parallel_for(
        0, static_cast<Index>(plan.size()), kOversubscribedThreads,
        [&](Index i) {
          const Plan& p = plan[static_cast<std::size_t>(i)];
          if (p.is_solve) {
            got_solve[static_cast<std::size_t>(i)] = engine.solve(rhs_for(p));
          } else {
            got_value[static_cast<std::size_t>(i)] =
                engine.effective_resistance(p.s, p.t);
          }
        });

    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].is_solve) {
        ASSERT_EQ(got_solve[i].size(), expected_solve[i].size());
        for (std::size_t k = 0; k < got_solve[i].size(); ++k) {
          ASSERT_EQ(got_solve[i][k], expected_solve[i][k])
              << "round " << round << " request " << i << " entry " << k;
        }
      } else {
        ASSERT_EQ(got_value[i], expected_value[i])
            << "round " << round << " request " << i;
      }
    }

    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.requests, kRequests);
    // Every solve served once by the combiner; resistances bypass it.
    EXPECT_EQ(stats.batched_columns, solves);
    EXPECT_EQ(stats.errors, 0);
    EXPECT_LE(stats.max_batch_width, options.batch_width);
  }
}

TEST(ServeStress, BadRequestsFailAloneAmongHealthyTraffic) {
  ServeOptions options;
  options.batch_width = 8;
  ServeEngine engine(options);
  (void)engine.load_graph(grid(10, 10));

  const Real expected = [&] {
    ServeOptions serial_options;
    serial_options.batch_width = 1;
    ServeEngine serial(serial_options);
    (void)serial.load_graph(grid(10, 10));
    return serial.effective_resistance(0, 99);
  }();

  std::atomic<int> typed_errors{0};
  std::atomic<int> wrong_errors{0};
  parallel::parallel_for(0, 64, kOversubscribedThreads, [&](Index i) {
    if (i % 4 == 0) {
      // Invalid pair: must come back as kBadRequest, nothing else.
      try {
        (void)engine.effective_resistance(5, 5);
        wrong_errors.fetch_add(1);
      } catch (const SglError& e) {
        (e.code() == ErrorCode::kBadRequest ? typed_errors : wrong_errors)
            .fetch_add(1);
      }
    } else {
      // Healthy probes keep getting exact answers throughout.
      const Real r = engine.effective_resistance(0, 99);
      if (r != expected) wrong_errors.fetch_add(1);
    }
  });
  EXPECT_EQ(typed_errors.load(), 16);
  EXPECT_EQ(wrong_errors.load(), 0);
  EXPECT_EQ(engine.stats().errors, 16);
}

TEST(ServeStress, LruEvictionAndRefillUnderConcurrency) {
  ServeOptions options;
  options.cache_capacity = 2;
  options.batch_width = 4;
  ServeEngine engine(options);

  const graph::GraphKey keys[3] = {
      engine.load_graph(grid(6, 6)),
      engine.load_graph(grid(7, 6)),
      engine.load_graph(grid(8, 6)),
  };
  const Index nodes[3] = {36, 42, 48};

  // Serial reference values, one engine per graph so each is a clean
  // single-graph run.
  Real expected[3];
  for (int k = 0; k < 3; ++k) {
    ServeOptions serial_options;
    serial_options.batch_width = 1;
    ServeEngine serial(serial_options);
    (void)serial.load_graph(grid(static_cast<Index>(6 + k), 6));
    expected[k] = serial.effective_resistance(0, nodes[k] - 1);
  }

  // Key-pinned workers interleave 3 graphs through a 2-entry cache,
  // forcing evictions and refills, while asserting every answer stays
  // exact. shared_ptr-held solvers make eviction safe mid-batch.
  std::atomic<int> mismatches{0};
  for (int round = 0; round < 4; ++round) {
    parallel::parallel_for(0, 24, kOversubscribedThreads, [&](Index i) {
      const int k = static_cast<int>(i % 3);
      const Real r = engine.effective_resistance(0, nodes[k] - 1, keys[k]);
      if (r != expected[k]) mismatches.fetch_add(1);
    });
  }
  EXPECT_EQ(mismatches.load(), 0);

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.errors, 0);
  EXPECT_GE(stats.cache_evictions, 1);  // 3 graphs through 2 slots
  EXPECT_EQ(stats.cache_misses, stats.cache_evictions + 2);
}

TEST(ServeStress, WeightVariantsShareOneSymbolicAnalysis) {
  // Six weight-jittered variants of the 128² grid through a 2-entry LRU
  // from 4 threads: every fill but the first runs the numeric phase only
  // on the one live analysis, and every answer is bitwise a fresh
  // engine's.
  const graph::Graph truth = grid(128, 128);
  const Index n = truth.num_nodes();
  constexpr int kVariants = 6;
  std::vector<graph::Graph> variants;
  for (int k = 0; k < kVariants; ++k) {
    graph::Graph v = truth;
    Rng rng(static_cast<std::uint64_t>(100 + k));
    for (Index e = 0; e < v.num_edges(); ++e)
      v.set_weight(e, rng.uniform(0.5, 1.5));
    variants.push_back(std::move(v));
  }
  const auto pair_of = [n](Index i) {
    return std::pair<Index, Index>{(i * 997) % n, (i * 3571 + n / 2) % n};
  };
  constexpr Index kQueries = 48;
  std::vector<Real> expected(static_cast<std::size_t>(kQueries));
  for (int k = 0; k < kVariants; ++k) {
    ServeEngine fresh;
    (void)fresh.load_graph(variants[static_cast<std::size_t>(k)]);
    for (Index i = k; i < kQueries; i += kVariants) {
      const auto [s, t] = pair_of(i);
      expected[static_cast<std::size_t>(i)] = fresh.effective_resistance(s, t);
    }
  }

  ServeOptions options;
  options.cache_capacity = 2;
  ServeEngine engine(options);
  std::vector<graph::GraphKey> keys;
  for (const graph::Graph& v : variants) keys.push_back(engine.load_graph(v));
  // Client threads, as the daemon runs one per connection: a fill
  // waiting for the pattern's analysis must not sit on a pool worker the
  // analysing fill's numeric phase needs.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (Index c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (Index i = c; i < kQueries; i += 4) {
        const auto [s, t] = pair_of(i);
        const Real r = engine.effective_resistance(
            s, t, keys[static_cast<std::size_t>(i % kVariants)]);
        if (r != expected[static_cast<std::size_t>(i)]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  ServeStats stats = engine.stats();
  EXPECT_EQ(stats.errors, 0);
  EXPECT_GE(stats.cache_misses, kVariants);
  EXPECT_EQ(stats.cache_misses - stats.symbolic_reuses, 1)
      << "the pattern was analysed more than once";

  // Evict every variant with two graphs of other patterns: no cached
  // solver holds the analysis any more, so it is gone, and the next
  // variant fill analyses the pattern again.
  for (const Index side : {Index{30}, Index{31}}) {
    (void)engine.effective_resistance(0, 5, engine.load_graph(grid(side, 30)));
  }
  const Index reuses = engine.stats().symbolic_reuses;
  EXPECT_EQ(engine.effective_resistance(pair_of(0).first, pair_of(0).second,
                                        keys[0]),
            expected[0]);
  stats = engine.stats();
  EXPECT_EQ(stats.symbolic_reuses, reuses);
  EXPECT_EQ(stats.cache_misses - stats.symbolic_reuses, 4);
}

TEST(ServeStress, CacheFillDoesNotBlockHitsOnOtherGraphs) {
  // One solver thread, as sgl_serve runs in the benchmark: the two
  // clients below are the only threads doing work.
  ServeOptions options;
  options.num_threads = 1;
  options.solver.num_threads = 1;
  ServeEngine engine(options);
  const graph::Graph big = grid(256, 256);
  const graph::GraphKey small_key = engine.load_graph(grid(8, 8));
  const Real small_expected = engine.effective_resistance(0, 63);  // miss 1
  const graph::GraphKey big_key = engine.load_graph(big);

  using Clock = std::chrono::steady_clock;
  std::atomic<bool> watcher_ready{false};
  std::atomic<bool> fill_done{false};
  double fill_seconds = 0.0;
  double hit_seconds = 0.0;
  bool hit_during_fill = false;
  Real small_got = 0.0;
  // Index 0 runs the 256² fill; index 1 waits for that fill to start
  // (its cache miss), then times a hit on the small graph. Index 0 waits
  // for index 1 to be running, so the two always overlap.
  parallel::parallel_for(0, 2, 2, [&](Index i) {
    if (i == 0) {
      while (!watcher_ready.load()) {
      }
      const auto t0 = Clock::now();
      (void)engine.effective_resistance(0, big.num_nodes() - 1, big_key);
      fill_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
      fill_done.store(true);
      return;
    }
    watcher_ready.store(true);
    while (engine.stats().cache_misses < 2) {
    }
    const auto t0 = Clock::now();
    small_got = engine.effective_resistance(0, 63, small_key);
    hit_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    hit_during_fill = !fill_done.load();
  });

  EXPECT_EQ(small_got, small_expected);
  EXPECT_TRUE(hit_during_fill);
  EXPECT_LT(hit_seconds, fill_seconds / 4) << "fill " << fill_seconds << " s";
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST(ServePoolFill, SamePatternFillsFromPoolWorkersComplete) {
  // Engine calls from parallel::parallel_for workers. Each round asks
  // for one weight variant the 1-entry LRU has just evicted: the first
  // caller fills it, the rest wait on the engine for that fill. When the
  // filler is the region's caller and every pool worker is such a
  // waiter, the fill's own pool regions have no free worker; they must
  // finish on the caller instead of deadlocking. A hang here fails by
  // the suite's short ctest TIMEOUT (tests/CMakeLists.txt).
  const graph::Graph truth = grid(64, 64);
  const Index n = truth.num_nodes();
  constexpr int kVariants = 3;
  std::vector<graph::Graph> variants;
  for (int k = 0; k < kVariants; ++k) {
    graph::Graph v = truth;
    Rng rng(static_cast<std::uint64_t>(300 + k));
    for (Index e = 0; e < v.num_edges(); ++e)
      v.set_weight(e, rng.uniform(0.5, 1.5));
    variants.push_back(std::move(v));
  }
  constexpr Index kQueries = 16;
  const auto pair_of = [n](Index i) {
    return std::pair<Index, Index>{(i * 389) % n, (i * 2711 + n / 3) % n};
  };
  std::vector<std::vector<Real>> expected(kVariants);
  for (int k = 0; k < kVariants; ++k) {
    ServeEngine fresh;
    (void)fresh.load_graph(variants[static_cast<std::size_t>(k)]);
    for (Index i = 0; i < kQueries; ++i) {
      const auto [s, t] = pair_of(i);
      expected[static_cast<std::size_t>(k)].push_back(
          fresh.effective_resistance(s, t));
    }
  }

  ServeOptions options;
  options.cache_capacity = 1;
  ServeEngine engine(options);
  std::vector<graph::GraphKey> keys;
  for (const graph::Graph& v : variants) keys.push_back(engine.load_graph(v));
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    const int k = round % kVariants;
    std::vector<Real> got(static_cast<std::size_t>(kQueries));
    parallel::parallel_for(0, kQueries, 4, [&](Index i) {
      const auto [s, t] = pair_of(i);
      got[static_cast<std::size_t>(i)] =
          engine.effective_resistance(s, t, keys[static_cast<std::size_t>(k)]);
    });
    EXPECT_EQ(got, expected[static_cast<std::size_t>(k)]) << "round " << round;
  }
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.cache_misses, kRounds);
}

}  // namespace
}  // namespace sgl::serve
