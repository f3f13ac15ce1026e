// Parallel execution primitives shared by every hot path.
//
// A single process-wide thread pool (grown lazily, capped at kMaxThreads)
// backs three building blocks:
//
//   parallel_for        — fn(i) per index, dynamically chunked;
//   parallel_for_slots  — fn(chunk_begin, chunk_end, slot) with a stable
//                         slot id < num_threads, so callers can keep
//                         per-worker scratch state (e.g. HNSW visit marks);
//   parallel_reduce     — deterministic chunked reduction: the range is
//                         split into chunks whose boundaries depend only on
//                         the range size (never on the thread count), chunk
//                         partials are combined serially in chunk order, so
//                         the result is bit-identical for every thread
//                         count, including the serial path.
//
// Thread-count resolution: a per-call request of 0 means "library
// default", which is the SGL_NUM_THREADS environment variable when set to
// a positive integer and std::thread::hardware_concurrency() otherwise.
// Passing 1 (or SGL_NUM_THREADS=1) runs everything on the calling thread;
// no pool threads are ever touched in that case. Nested parallel regions
// degrade to serial execution on the calling worker instead of
// deadlocking the pool, and a region's caller runs any of its slots that
// no worker has picked up by the time its own slot is done, so a region
// completes even when every worker is blocked (say, waiting for a result
// the caller is computing).
//
// Exceptions thrown by worker bodies are captured and the first one is
// rethrown on the calling thread after the region completes.
//
// This is the only translation unit allowed to touch raw threading
// primitives (std::thread & friends) — the determinism lint
// (tools/determinism_lint.py, rule raw-threading) enforces that, and the
// pool internals carry clang thread-safety annotations via the
// common/mutex.hpp capability wrappers (DESIGN.md §7).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace sgl::parallel {

/// Hard upper bound on pool threads (runaway-env-var guard).
inline constexpr Index kMaxThreads = 64;

/// Library default thread count: SGL_NUM_THREADS when set to a positive
/// integer, else std::thread::hardware_concurrency(), clamped to
/// [1, kMaxThreads]. Cached after the first call.
[[nodiscard]] Index default_num_threads();

/// Resolves a per-call request: 0 → default_num_threads(), otherwise the
/// request clamped to [1, kMaxThreads].
[[nodiscard]] Index resolve_num_threads(Index requested);

namespace detail {

/// Runs job(slot) for every slot in [0, slots): slot 0 on the calling
/// thread, the rest on pool workers — except slots no worker has started
/// by the time slot 0 returns, which the caller takes back and runs
/// itself, so a region never waits on a busy or blocked pool. Blocks
/// until all slots finish; rethrows the first exception. Falls back to a
/// serial loop when called from inside a pool worker (nested region) or
/// when slots <= 1.
void run_on_pool(Index slots, const std::function<void(Index)>& job);

}  // namespace detail

/// Chunked parallel loop with worker-slot ids: fn(chunk_begin, chunk_end,
/// slot) over disjoint chunks covering [begin, end), slot < resolved
/// thread count. Chunks are handed out dynamically, so per-slot scratch
/// must not carry order-dependent state across chunks.
template <typename F>
void parallel_for_slots(Index begin, Index end, Index num_threads, F&& fn) {
  const Index n = end - begin;
  if (n <= 0) return;
  const Index threads = std::min(resolve_num_threads(num_threads), n);
  if (threads <= 1) {
    fn(begin, end, Index{0});
    return;
  }
  // Oversplit 8× for load balance; the counter is 64-bit so the final
  // overshooting fetch_add cannot wrap Index.
  const Index chunk = std::max(Index{1}, n / (threads * 8));
  std::atomic<std::int64_t> next{begin};
  detail::run_on_pool(threads, [&](Index slot) {
    for (;;) {
      const std::int64_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      const Index clo = static_cast<Index>(lo);
      fn(clo, std::min<Index>(end, clo + chunk), slot);
    }
  });
}

/// Element-wise parallel loop: fn(i) for every i in [begin, end). Results
/// must be written to disjoint locations; iteration order is unspecified.
template <typename F>
void parallel_for(Index begin, Index end, Index num_threads, F&& fn) {
  parallel_for_slots(begin, end, num_threads,
                     [&fn](Index lo, Index hi, Index /*slot*/) {
                       for (Index i = lo; i < hi; ++i) fn(i);
                     });
}

/// Number of fixed chunks a parallel_reduce splits its range into. The
/// boundaries depend only on the range size, which is what makes the
/// reduction deterministic across thread counts.
inline constexpr Index kReduceChunks = 64;

/// Deterministic chunked reduction. map(chunk_begin, chunk_end) produces a
/// partial T per fixed chunk; partials are combined left-to-right in chunk
/// order starting from `identity`. Bit-identical for every thread count.
template <typename T, typename MapF, typename CombineF>
[[nodiscard]] T parallel_reduce(Index begin, Index end, Index num_threads,
                                T identity, MapF&& map, CombineF&& combine) {
  const Index n = end - begin;
  if (n <= 0) return identity;
  const Index chunk = (n + kReduceChunks - 1) / kReduceChunks;
  const Index num_chunks = (n + chunk - 1) / chunk;
  std::vector<T> partial(static_cast<std::size_t>(num_chunks), identity);
  parallel_for(0, num_chunks, num_threads, [&](Index c) {
    const Index lo = begin + c * chunk;
    partial[static_cast<std::size_t>(c)] = map(lo, std::min(end, lo + chunk));
  });
  T acc = identity;
  for (Index c = 0; c < num_chunks; ++c)
    acc = combine(acc, partial[static_cast<std::size_t>(c)]);
  return acc;
}

}  // namespace sgl::parallel
