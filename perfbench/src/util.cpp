#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {

using namespace sgl;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Index default_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp<Index>(cpus, 1, 4);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void MetricSheet::set(const std::string& name, double value,
                      const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

serve::JsonValue MetricSheet::to_json() const {
  serve::JsonValue out = serve::JsonValue(serve::JsonValue::Object{});
  for (const auto& [name, entry] : items_) {
    serve::JsonValue m = serve::JsonValue(serve::JsonValue::Object{});
    m.set("value", entry.first);
    m.set("unit", entry.second);
    out.set(name, std::move(m));
  }
  return out;
}

void Checks::require(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

int SpanRecorder::open(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_seconds() - origin_, 0.0,
                    stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

double SpanRecorder::close(int id) {
  SGL_ASSERT(!stack_.empty() && stack_.back() == id,
             "SpanRecorder: spans must close innermost first");
  stack_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_seconds() - origin_;
  return s.end - s.start;
}

double SpanRecorder::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end - s.start;
  return sum;
}

std::map<std::string, double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

std::string SpanRecorder::to_json() const {
  using serve::JsonValue;
  JsonValue events = JsonValue(JsonValue::Array{});
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonValue e = JsonValue(JsonValue::Object{});
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", s.start * 1e6);
    e.set("dur", (s.end - s.start) * 1e6);
    e.set("pid", 1);
    e.set("tid", 1);
    JsonValue args = JsonValue(JsonValue::Object{});
    args.set("id", static_cast<double>(i));
    args.set("parent", s.parent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  JsonValue self = JsonValue(JsonValue::Object{});
  for (const auto& [name, seconds] : self_times()) self.set(name, seconds);
  JsonValue root = JsonValue(JsonValue::Object{});
  root.set("traceEvents", std::move(events));
  root.set("self_time_s", std::move(self));
  return serve::json_serialize(root);
}

std::uint64_t input_seed(std::uint64_t seed, Index i) {
  return seed + 1000003ULL * static_cast<std::uint64_t>(i);
}

LearnInputs make_learn_inputs(const Args& args, std::uint64_t seed) {
  LearnInputs in;
  in.truth = graph::make_grid2d(args.grid, args.grid).graph;
  measure::MeasurementOptions options;
  options.num_measurements = args.measurements;
  options.seed = seed;
  options.num_threads = args.threads;
  in.data = measure::generate_measurements(in.truth, options);
  return in;
}

core::SglConfig learn_config(Workload workload, Index threads) {
  core::SglConfig config;
  config.num_threads = threads;
  if (workload == Workload::kLearnExact) {
    config.embedding.engine = spectral::EmbeddingEngine::kExact;
    config.incremental = solver::IncrementalMode::kAuto;
  }
  return config;
}

double reff_floor(Index grid) {
  // Recorded from seeds 1-10 on each size (lowest seen minus a margin).
  return grid >= 128 ? 0.33 : 0.60;
}

void check_learned(const core::SglResult& result, Checks& checks) {
  checks.require(result.converged, "learn did not converge");
  checks.require(!result.exhausted, "learn exhausted its candidates");
  checks.require(graph::connected_components(result.learned).count == 1,
                 "learned graph is not connected");
  const Index n = result.knn_graph.num_nodes();
  std::unordered_set<std::uint64_t> candidates;
  candidates.reserve(static_cast<std::size_t>(result.knn_graph.num_edges()));
  for (const graph::Edge& e : result.knn_graph.edges())
    candidates.insert(static_cast<std::uint64_t>(e.s) *
                          static_cast<std::uint64_t>(n) +
                      static_cast<std::uint64_t>(e.t));
  bool subset = result.learned.num_nodes() == n;
  for (const graph::Edge& e : result.learned.edges()) {
    subset = subset && candidates.count(static_cast<std::uint64_t>(e.s) *
                                            static_cast<std::uint64_t>(n) +
                                        static_cast<std::uint64_t>(e.t)) > 0;
  }
  checks.require(subset, "learned graph is not a subset of the kNN graph");
}

std::vector<graph::Graph> jittered_variants(const graph::Graph& grid,
                                            Index count, std::uint64_t seed) {
  std::vector<graph::Graph> out;
  Rng rng(seed ^ 0x7a11e5ULL);
  for (Index v = 0; v < count; ++v) {
    graph::Graph g(grid.num_nodes());
    for (const graph::Edge& e : grid.edges())
      g.add_edge(e.s, e.t, e.weight * std::exp(rng.uniform(-1.0, 1.0) *
                                               std::log(2.0)));
    out.push_back(std::move(g));
  }
  return out;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
