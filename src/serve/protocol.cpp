#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "measure/measurements.hpp"

namespace sgl::serve {
namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw SglError(ErrorCode::kBadRequest, what);
}

const JsonValue& require(const JsonValue& root, std::string_view key) {
  const JsonValue* v = root.find(key);
  if (v == nullptr) bad_request("missing field '" + std::string(key) + "'");
  return *v;
}

/// Largest synthetic problem learn_synthetic builds: nx·ny nodes, and
/// nodes × measurements entries in each of the voltage and current
/// matrices (2²⁵ doubles = 256 MiB). A request above either is refused
/// before anything is allocated.
constexpr std::int64_t kMaxSyntheticNodes = std::int64_t{1} << 22;
constexpr std::int64_t kMaxSyntheticEntries = std::int64_t{1} << 25;

/// Number → integer, rejecting non-integral values and magnitudes a
/// double no longer holds exactly.
std::int64_t integer_of(double d, std::string_view what) {
  if (d != std::floor(d) || std::fabs(d) > 9.0e15) {
    bad_request("field '" + std::string(what) + "' must be an integer");
  }
  return static_cast<std::int64_t>(d);
}

/// Number → Index, rejecting values outside the Index range.
Index index_of(double d, std::string_view what) {
  const std::int64_t i = integer_of(d, what);
  if (i < std::numeric_limits<Index>::min() ||
      i > std::numeric_limits<Index>::max()) {
    bad_request("field '" + std::string(what) + "' is out of range (" +
                std::to_string(i) + ")");
  }
  return static_cast<Index>(i);
}

std::int64_t as_integer(const JsonValue& v, std::string_view what) {
  if (!v.is_number()) bad_request("field '" + std::string(what) + "' must be a number");
  return integer_of(v.as_number(), what);
}

Index as_index(const JsonValue& v, std::string_view what) {
  if (!v.is_number()) bad_request("field '" + std::string(what) + "' must be a number");
  return index_of(v.as_number(), what);
}

Index optional_index(const JsonValue& root, std::string_view key,
                     Index fallback) {
  const JsonValue* v = root.find(key);
  return v == nullptr ? fallback : as_index(*v, key);
}

Real optional_real(const JsonValue& root, std::string_view key,
                   Real fallback) {
  const JsonValue* v = root.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) bad_request("field '" + std::string(key) + "' must be a number");
  return v->as_number();
}

la::Vector vector_from_json(const JsonValue& v, std::string_view what) {
  if (!v.is_array()) bad_request("field '" + std::string(what) + "' must be an array");
  la::Vector out;
  out.reserve(v.as_array().size());
  for (const JsonValue& e : v.as_array()) {
    if (!e.is_number()) {
      bad_request("field '" + std::string(what) + "' must hold numbers");
    }
    out.push_back(e.as_number());
  }
  return out;
}

JsonValue json_from_vector(const la::Vector& v) {
  JsonValue::Array a;
  a.reserve(v.size());
  for (const Real x : v) a.emplace_back(x);
  return JsonValue(std::move(a));
}

/// Column-array-of-arrays → DenseMatrix (columns = measurement vectors).
la::DenseMatrix matrix_from_json(const JsonValue& v, std::string_view what) {
  if (!v.is_array() || v.as_array().empty()) {
    bad_request("field '" + std::string(what) +
                "' must be a non-empty array of columns");
  }
  const auto& cols = v.as_array();
  const la::Vector first = vector_from_json(cols[0], what);
  la::DenseMatrix m(static_cast<Index>(first.size()),
                    static_cast<Index>(cols.size()));
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const la::Vector col = vector_from_json(cols[j], what);
    if (col.size() != first.size()) {
      bad_request("field '" + std::string(what) +
                  "' has ragged columns");
    }
    for (std::size_t i = 0; i < col.size(); ++i) {
      m(static_cast<Index>(i), static_cast<Index>(j)) = col[i];
    }
  }
  return m;
}

std::string to_hex(std::uint64_t v) {
  char buf[17];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  SGL_ASSERT(ec == std::errc{}, "to_hex: to_chars failed");
  return {buf, end};
}

std::uint64_t from_hex(const JsonValue& v, std::string_view what) {
  if (!v.is_string() || v.as_string().empty()) {
    bad_request("field '" + std::string(what) + "' must be a hex string");
  }
  const std::string& s = v.as_string();
  std::uint64_t out = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out, 16);
  if (ec != std::errc{} || end != s.data() + s.size()) {
    bad_request("field '" + std::string(what) + "' is not a valid hex value");
  }
  return out;
}

/// Shared SGL config fields of the learn ops.
core::SglConfig config_from_json(const JsonValue& root) {
  core::SglConfig config;
  config.k = optional_index(root, "k", config.k);
  config.beta = optional_real(root, "beta", config.beta);
  config.tolerance = optional_real(root, "tolerance", config.tolerance);
  config.max_iterations =
      optional_index(root, "max_iterations", config.max_iterations);
  config.embedding.r = optional_index(root, "r", config.embedding.r);
  if (const JsonValue* engine = root.find("engine"); engine != nullptr) {
    if (!engine->is_string()) bad_request("field 'engine' must be a string");
    const auto parsed = spectral::parse_embedding_engine(engine->as_string());
    if (!parsed.has_value()) {
      bad_request("unknown embedding engine '" + engine->as_string() + "'");
    }
    config.embedding.engine = *parsed;
  }
  return config;
}

JsonValue learn_summary_to_json(const LearnSummary& summary) {
  JsonValue payload = JsonValue(JsonValue::Object{});
  payload.set("key", graph_key_to_json(summary.key));
  payload.set("num_nodes", summary.num_nodes);
  payload.set("num_edges", summary.num_edges);
  payload.set("iterations", summary.iterations);
  payload.set("converged", summary.converged);
  payload.set("exhausted", summary.exhausted);
  payload.set("final_smax", summary.final_smax);
  return payload;
}

// --- op handlers (each returns the success payload) ---------------------

/// Adds edge (s, t, w) to `g` after the per-edge checks, in the order
/// the protocol has always reported them.
void add_checked_edge(graph::Graph& g, Index s, Index t, Real w) {
  const Index num_nodes = g.num_nodes();
  if (s < 0 || s >= num_nodes || t < 0 || t >= num_nodes || s == t) {
    bad_request("edge (" + std::to_string(s) + ", " + std::to_string(t) +
                ") is out of range for " + std::to_string(num_nodes) +
                " nodes");
  }
  if (!(w > 0.0)) bad_request("edge weights must be positive");
  g.add_edge(s, t, w);
}

/// `edges_capture` holds the edge tuples when the parser read them flat
/// (the usual case); otherwise they are in the tree.
JsonValue op_load_graph(ServeEngine& engine, const JsonValue& root,
                        const TupleCapture& edges_capture) {
  const Index num_nodes = as_index(require(root, "num_nodes"), "num_nodes");
  if (num_nodes <= 0) bad_request("'num_nodes' must be positive");
  const JsonValue& edges = require(root, "edges");
  if (!edges.is_array()) bad_request("field 'edges' must be an array");

  graph::Graph g(num_nodes);
  if (edges_capture.captured) {
    const std::vector<double>& v = edges_capture.tuples;
    for (std::size_t k = 0; k < v.size(); k += 3) {
      const Index s = index_of(v[k], "edge endpoint");
      const Index t = index_of(v[k + 1], "edge endpoint");
      add_checked_edge(g, s, t, v[k + 2]);
    }
  }
  for (const JsonValue& e : edges.as_array()) {
    if (!e.is_array() || e.as_array().size() < 2 || e.as_array().size() > 3) {
      bad_request("each edge must be [s, t] or [s, t, weight]");
    }
    const auto& triple = e.as_array();
    const Index s = as_index(triple[0], "edge endpoint");
    const Index t = as_index(triple[1], "edge endpoint");
    const Real w = triple.size() == 3 ? triple[2].as_number() : 1.0;
    add_checked_edge(g, s, t, w);
  }

  const graph::GraphKey key = engine.load_graph(std::move(g));
  JsonValue payload = JsonValue(JsonValue::Object{});
  payload.set("key", graph_key_to_json(key));
  payload.set("num_nodes", key.num_nodes);
  payload.set("num_edges", key.num_edges);
  return payload;
}

JsonValue op_learn(ServeEngine& engine, const JsonValue& root) {
  const la::DenseMatrix x = matrix_from_json(require(root, "x"), "x");
  la::DenseMatrix y;
  const bool has_y = root.find("y") != nullptr;
  if (has_y) {
    y = matrix_from_json(require(root, "y"), "y");
    if (y.rows() != x.rows() || y.cols() != x.cols()) {
      bad_request("'y' must have the same shape as 'x'");
    }
  }
  const LearnSummary summary =
      engine.learn(x, has_y ? &y : nullptr, config_from_json(root));
  return learn_summary_to_json(summary);
}

JsonValue op_learn_synthetic(ServeEngine& engine, const JsonValue& root) {
  const JsonValue& kind = require(root, "graph");
  if (!kind.is_string()) bad_request("field 'graph' must be a string");
  const bool grid = kind.as_string() == "grid2d";
  if (!grid && kind.as_string() != "tri_mesh") {
    bad_request("unknown synthetic graph '" + kind.as_string() +
                "' (expected 'grid2d' or 'tri_mesh')");
  }
  graph::TriMeshOptions mesh;
  const Index nx = optional_index(root, "nx", grid ? 10 : mesh.nx);
  const Index ny = optional_index(root, "ny", grid ? 10 : mesh.ny);
  if (nx < 2 || ny < 2) bad_request("'nx'/'ny' must be at least 2");
  measure::MeasurementOptions mopt;
  mopt.num_measurements = optional_index(root, "measurements", 50);
  if (mopt.num_measurements < 1) bad_request("'measurements' must be positive");
  const JsonValue* seed = root.find("seed");
  mopt.seed = seed == nullptr
                  ? std::uint64_t{2021}
                  : static_cast<std::uint64_t>(as_integer(*seed, "seed"));
  // Both factors are below 2³¹, so neither product overflows 64 bits.
  const std::int64_t nodes = std::int64_t{nx} * ny;
  if (nodes > kMaxSyntheticNodes ||
      nodes * mopt.num_measurements > kMaxSyntheticEntries) {
    bad_request("learn_synthetic: " + std::to_string(nodes) + " nodes x " +
                std::to_string(mopt.num_measurements) +
                " measurements exceeds the limit of " +
                std::to_string(kMaxSyntheticNodes) + " nodes and " +
                std::to_string(kMaxSyntheticEntries) + " entries");
  }

  graph::Graph truth;
  if (grid) {
    truth = graph::make_grid2d(nx, ny).graph;
  } else {
    mesh.nx = nx;
    mesh.ny = ny;
    truth = graph::make_triangulated_mesh(mesh).graph;
  }
  const measure::Measurements data =
      measure::generate_measurements(truth, mopt);

  const LearnSummary summary =
      engine.learn(data.voltages, &data.currents, config_from_json(root));
  JsonValue payload = learn_summary_to_json(summary);
  payload.set("truth_edges", truth.num_edges());
  return payload;
}

JsonValue op_activate(ServeEngine& engine, const JsonValue& root) {
  const graph::GraphKey key = graph_key_from_json(require(root, "key"));
  engine.activate(key);
  JsonValue payload = JsonValue(JsonValue::Object{});
  payload.set("key", graph_key_to_json(key));
  return payload;
}

/// Optional "key" member of the query ops: pins the request to a
/// registered graph instead of the (racy, mutable) active one.
std::optional<graph::GraphKey> optional_key(const JsonValue& root) {
  const JsonValue* key = root.find("key");
  if (key == nullptr) return std::nullopt;
  return graph_key_from_json(*key);
}

JsonValue op_solve(ServeEngine& engine, const JsonValue& root) {
  const la::Vector rhs = vector_from_json(require(root, "rhs"), "rhs");
  const la::Vector x = engine.solve(rhs, optional_key(root));
  JsonValue payload = JsonValue(JsonValue::Object{});
  payload.set("x", json_from_vector(x));
  return payload;
}

JsonValue op_resistance(ServeEngine& engine, const JsonValue& root) {
  const Index s = as_index(require(root, "s"), "s");
  const Index t = as_index(require(root, "t"), "t");
  const Real value = engine.effective_resistance(s, t, optional_key(root));
  JsonValue payload = JsonValue(JsonValue::Object{});
  payload.set("s", s);
  payload.set("t", t);
  payload.set("value", value);
  return payload;
}

JsonValue op_resistance_batch(ServeEngine& engine, const JsonValue& root) {
  const JsonValue& pairs_json = require(root, "pairs");
  if (!pairs_json.is_array()) bad_request("field 'pairs' must be an array");
  std::vector<std::pair<Index, Index>> pairs;
  pairs.reserve(pairs_json.as_array().size());
  for (const JsonValue& e : pairs_json.as_array()) {
    if (!e.is_array() || e.as_array().size() != 2) {
      bad_request("each pair must be [s, t]");
    }
    pairs.emplace_back(as_index(e.as_array()[0], "pair endpoint"),
                       as_index(e.as_array()[1], "pair endpoint"));
  }
  const std::vector<Real> values =
      engine.effective_resistance_batch(pairs, optional_key(root));
  JsonValue payload = JsonValue(JsonValue::Object{});
  JsonValue::Array out;
  out.reserve(values.size());
  for (const Real v : values) out.emplace_back(v);
  payload.set("values", JsonValue(std::move(out)));
  return payload;
}

JsonValue op_embedding(ServeEngine& engine, const JsonValue& root) {
  const spectral::Embedding emb = engine.embedding();
  JsonValue payload = JsonValue(JsonValue::Object{});
  payload.set("eigenvalues", json_from_vector(emb.eigenvalues));
  payload.set("num_nodes", emb.u.rows());
  payload.set("dims", emb.u.cols());
  payload.set("engine", spectral::embedding_engine_name(emb.engine_used));
  payload.set("eig_converged", emb.eig_converged);
  const JsonValue* include_u = root.find("include_u");
  if (include_u != nullptr && include_u->is_bool() && include_u->as_bool()) {
    JsonValue::Array cols;
    cols.reserve(static_cast<std::size_t>(emb.u.cols()));
    for (Index j = 0; j < emb.u.cols(); ++j) {
      JsonValue::Array col;
      col.reserve(static_cast<std::size_t>(emb.u.rows()));
      for (Index i = 0; i < emb.u.rows(); ++i) col.emplace_back(emb.u(i, j));
      cols.emplace_back(std::move(col));
    }
    payload.set("u", JsonValue(std::move(cols)));
  }
  return payload;
}

JsonValue op_stats(ServeEngine& engine) {
  const ServeStats s = engine.stats();
  JsonValue payload = JsonValue(JsonValue::Object{});
  payload.set("requests", s.requests);
  payload.set("batches", s.batches);
  payload.set("batched_columns", s.batched_columns);
  payload.set("max_batch_width", s.max_batch_width);
  payload.set("width_flushes", s.width_flushes);
  payload.set("deadline_flushes", s.deadline_flushes);
  payload.set("serial_fallbacks", s.serial_fallbacks);
  payload.set("cache_hits", s.cache_hits);
  payload.set("cache_misses", s.cache_misses);
  payload.set("cache_evictions", s.cache_evictions);
  payload.set("symbolic_reuses", s.symbolic_reuses);
  payload.set("graph_loads", s.graph_loads);
  payload.set("learns", s.learns);
  payload.set("embeddings", s.embeddings);
  payload.set("errors", s.errors);
  return payload;
}

JsonValue op_info(ServeEngine& engine) {
  JsonValue payload = JsonValue(JsonValue::Object{});
  const bool active = engine.has_active_graph();
  payload.set("active", active);
  if (active) {
    payload.set("key", graph_key_to_json(engine.active_key()));
    payload.set("num_nodes", engine.active_num_nodes());
  }
  payload.set("batch_width", engine.options().batch_width);
  payload.set("flush_deadline_us", engine.options().flush_deadline_us);
  payload.set("cache_capacity", engine.options().cache_capacity);
  return payload;
}

}  // namespace

JsonValue graph_key_to_json(const graph::GraphKey& key) {
  JsonValue v = JsonValue(JsonValue::Object{});
  v.set("num_nodes", key.num_nodes);
  v.set("num_edges", key.num_edges);
  v.set("endpoints", to_hex(key.endpoints));
  v.set("weights", to_hex(key.weights));
  return v;
}

graph::GraphKey graph_key_from_json(const JsonValue& value) {
  if (!value.is_object()) bad_request("'key' must be an object");
  graph::GraphKey key;
  key.num_nodes = as_index(require(value, "num_nodes"), "key.num_nodes");
  key.num_edges = as_index(require(value, "num_edges"), "key.num_edges");
  key.endpoints = from_hex(require(value, "endpoints"), "key.endpoints");
  key.weights = from_hex(require(value, "weights"), "key.weights");
  return key;
}

ProtocolResult handle_request(ServeEngine& engine, std::string_view line) {
  // The envelope is assembled member-by-member so ok/op/id always lead
  // and serialize in a fixed order (deterministic bytes).
  JsonValue response = JsonValue(JsonValue::Object{});
  std::string op;
  JsonValue request_id;  // kNull until the request names one
  bool shutdown = false;
  // load_graph's edge list is read flat, not as one JsonValue per edge.
  TupleCapture edges_capture;
  edges_capture.member = "edges";
  edges_capture.fill = 1.0;
  try {
    const JsonValue root = json_parse(line, edges_capture);
    if (!root.is_object()) bad_request("request must be a JSON object");
    if (const JsonValue* id = root.find("id"); id != nullptr) {
      request_id = *id;
    }
    const JsonValue& op_json = require(root, "op");
    if (!op_json.is_string()) bad_request("field 'op' must be a string");
    op = op_json.as_string();
    response.set("ok", true);
    response.set("op", op);
    if (!request_id.is_null()) response.set("id", request_id);

    JsonValue payload;
    if (op == "load_graph") {
      payload = op_load_graph(engine, root, edges_capture);
    } else if (op == "learn") {
      payload = op_learn(engine, root);
    } else if (op == "learn_synthetic") {
      payload = op_learn_synthetic(engine, root);
    } else if (op == "activate") {
      payload = op_activate(engine, root);
    } else if (op == "solve") {
      payload = op_solve(engine, root);
    } else if (op == "resistance") {
      payload = op_resistance(engine, root);
    } else if (op == "resistance_batch") {
      payload = op_resistance_batch(engine, root);
    } else if (op == "embedding") {
      payload = op_embedding(engine, root);
    } else if (op == "stats") {
      payload = op_stats(engine);
    } else if (op == "info") {
      payload = op_info(engine);
    } else if (op == "shutdown") {
      shutdown = true;
      payload = JsonValue(JsonValue::Object{});
    } else {
      throw SglError(ErrorCode::kUnknownOperation, "unknown op '" + op + "'");
    }
    for (auto& [key, value] : payload.as_object()) {
      response.set(key, std::move(value));
    }
  } catch (const SglError& e) {
    response = JsonValue(JsonValue::Object{});
    response.set("ok", false);
    if (!op.empty()) response.set("op", op);
    if (!request_id.is_null()) response.set("id", request_id);
    JsonValue error = JsonValue(JsonValue::Object{});
    error.set("code", e.status().code_name());
    error.set("message", e.what());
    response.set("error", std::move(error));
  } catch (const std::exception& e) {
    response = JsonValue(JsonValue::Object{});
    response.set("ok", false);
    if (!op.empty()) response.set("op", op);
    if (!request_id.is_null()) response.set("id", request_id);
    JsonValue error = JsonValue(JsonValue::Object{});
    error.set("code", error_code_name(ErrorCode::kInternal));
    error.set("message", e.what());
    response.set("error", std::move(error));
  }
  return {json_serialize(response), shutdown};
}

}  // namespace sgl::serve
