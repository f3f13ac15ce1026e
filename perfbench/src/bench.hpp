// Shared pieces of the end-to-end SGL benchmark: arguments, the metric
// sheet, the correctness ledger, the span recorder and the inputs every
// workload derives from its seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sgl.hpp"

namespace perfbench {

using sgl::Index;
using sgl::Real;

enum class Workload { kLearnExact, kLearnAuto, kServeMix };

/// Set-ups per run, setup_s being their median: input generations of a
/// learn run, daemon rounds of a serve-mix run.
inline constexpr Index kLearnSetups = 9;
inline constexpr Index kServeRounds = 3;

/// min(4, CPUs this process may run on).
[[nodiscard]] Index default_threads();

struct Args {
  Workload workload = Workload::kLearnExact;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Side of the ground-truth grid (128 → 16,384 nodes) and the number of
  /// measurement vectors M; the smoke test shrinks both.
  Index grid = 128;
  Index measurements = 100;
  /// Worker threads of the benchmark process and client connections of
  /// every serving phase.
  Index threads = default_threads();
  std::string serve_bin;
  /// Directory (relative to the working directory, so the unix socket
  /// path stays short) for the daemon socket, its log and the span file.
  std::string run_dir;
};

[[nodiscard]] double now_seconds();

/// Median (average of the middle pair for even counts). Empty → 0.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Metrics in emission order, each with its unit.
class MetricSheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] sgl::serve::JsonValue to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Correctness gate: every failed check is recorded with its reason; the
/// run exits nonzero if any check failed.
class Checks {
 public:
  void require(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// Operation ledger behind `attempted` / `failed` (learns and requests).
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// In-memory span recorder for the traced run: (name, start, end,
/// parent), written once at the end. Spans nest strictly because the
/// benchmark records them from one thread.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int open(const std::string& name);
  /// Closes span `id` (the innermost open one) and returns its duration.
  double close(int id);

  /// Sum of durations of every closed span with this name.
  [[nodiscard]] double total(const std::string& name) const;
  /// Per-name self time: duration minus the time covered by child spans.
  [[nodiscard]] std::map<std::string, double> self_times() const;
  /// Chrome trace-event JSON (the spans) plus the self-time table.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double origin_ = now_seconds();
};

/// RAII span: opens on construction, closes on destruction or stop().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), id_(rec.open(name)) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  double stop() {
    const double d = rec_.close(id_);
    id_ = -1;
    return d;
  }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Everything one run reports: end-to-end metrics (printed with
/// --trace 0), per-layer metrics (printed with --trace 1), the
/// correctness gate and the operation ledger.
struct Report {
  MetricSheet e2e;
  MetricSheet layers;
  Checks checks;
  Ledger ledger;
};

/// Ground truth and its measurements: the input of one learn.
struct LearnInputs {
  sgl::graph::Graph truth;
  sgl::measure::Measurements data;
};

/// Measurement sets per learn run: each run learns several inputs drawn
/// from its seed, so its medians do not hang on one draw.
inline constexpr Index kInputsPerRun = 3;

/// Seed of a run's i-th input; input 0 uses the run's seed itself.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, Index i);

[[nodiscard]] LearnInputs make_learn_inputs(const Args& args,
                                            std::uint64_t seed);

/// SGL configuration of a workload. learn-exact pins the exact engine
/// with incremental relearning; learn-auto and the daemon's
/// learn_synthetic keep every default.
[[nodiscard]] sgl::core::SglConfig learn_config(Workload workload,
                                                Index threads);

/// Lowest accepted effective-resistance correlation for a grid side.
[[nodiscard]] double reff_floor(Index grid);

/// Structural checks of one learned graph: converged without exhausting
/// the candidates, connected, and a subset of the kNN candidate graph.
void check_learned(const sgl::core::SglResult& result, Checks& checks);

/// Weight-jittered copies of the grid (log-uniform in [1/2, 2]).
[[nodiscard]] std::vector<sgl::graph::Graph> jittered_variants(
    const sgl::graph::Graph& grid, Index count, std::uint64_t seed);

/// Peak resident set of this process, in MB.
[[nodiscard]] double self_peak_rss_mb();

// --- Learning (learn.cpp) ----------------------------------------------

/// Untraced learn workload: set-ups, timed learns, the correctness gate,
/// then the learned graph served in process (serve_learned_in_process).
void run_learn_workload(const Args& args, Report& report);

/// Traced learn of `workload`'s configuration: per-layer knn / graph /
/// spectral / eig / solver / measure / core metrics, the 1-thread
/// baseline and the tracing overhead. Returns {truth, learned graph}.
std::pair<sgl::graph::Graph, sgl::graph::Graph> trace_learn(
    const Args& args, Workload workload, Report& report, SpanRecorder& spans);

// --- Serving (serve.cpp) -----------------------------------------------

/// Serving metrics of a learn workload: the learned graphs and the truth
/// grid served in process through handle_request by `threads` clients.
/// Sets serve_*, reff_corr (mean over the learned graphs) and the serve.*
/// counters.
void serve_learned_in_process(const Args& args, const sgl::graph::Graph& truth,
                              const std::vector<sgl::graph::Graph>& learned,
                              Report& report);

/// The serve-mix workload end to end: daemon set-ups, socket clients,
/// the in-process bitwise replay. `spans` may be null (untraced run).
void run_serve_mix(const Args& args, Report& report, SpanRecorder* spans);

/// Per-layer solver and serve probes on a learned graph and its truth:
/// factorization cost, apply_block per column, handle_request per op and
/// the JSON costs.
void serve_layer_probes(const Args& args, const sgl::graph::Graph& truth,
                        const sgl::graph::Graph& learned, Report& report,
                        SpanRecorder& spans);

}  // namespace perfbench
