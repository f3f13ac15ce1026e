// Serving: the request mix, its closed-loop clients (unix socket or in
// process), the sgl_serve daemon's lifecycle, and the serve-layer probes.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

using namespace sgl;
using serve::JsonValue;

namespace {

constexpr Index kVariants = 6;
constexpr Index kBatchPairs = 64;
/// Effective-resistance pairs for reff_corr: a fixed seeded sample, so
/// the metric reflects the learned graph rather than the pair draw.
constexpr Index kReffPairs = 1000;
constexpr std::uint64_t kReffPairSeed = 2021;
/// Every n-th request of each client is kept for the bitwise replay.
constexpr std::int64_t kSampleEvery = 25;
constexpr std::size_t kMaxSamplesPerClient = 100;
/// Unmeasured load before each serving round's measured share.
constexpr double kWarmupSeconds = 1.0;
/// Clients think up to this long between requests. Without it
/// four closed-loop clients lock into one of two batching phases for a
/// daemon's whole life (all four in one batch, or two groups that each
/// wait out the other's batch), which doubles p50 from one daemon to the
/// next.
constexpr double kThinkMs = 1.0;
/// Solver threads of every serving engine (sgl_serve --threads). Each
/// client has one request in flight, so one solver thread per request
/// keeps the runnable threads at the client count. At the library
/// default (one per core) the concurrent requests' fork-join sweeps
/// oversubscribe the cores: a learned-graph resistance that overlaps a
/// 64-column batch takes 5-10x as long, about a third of them do, and
/// p50 falls on the edge between the two modes, moving ±30 % from one
/// daemon to the next.
constexpr Index kSolverThreads = 1;

/// Closed-loop results of one request mix.
struct LoadResult {
  std::vector<double> latencies_ms;
  double wall_s = 0.0;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  /// Sampled (request line, response line) pairs for the bitwise replay.
  std::vector<std::pair<std::string, std::string>> samples;
};

/// Graph keys a request mix addresses, as serialized JSON objects.
struct MixTargets {
  std::vector<std::string> learned_keys;
  std::string truth_key;
  std::vector<std::string> variant_keys;
  /// Pre-serialized load_graph lines of the variants (the write path).
  std::vector<std::string> variant_loads;
  Index num_nodes = 0;
  /// Writes take the variants in turn across all clients: with the LRU
  /// holding the hot learned and truth graphs plus two variants, a query
  /// pinned to the next of six variants always misses, so every run pays
  /// the same number of cache fills per request.
  std::atomic<std::size_t> next_variant{0};
};

std::string key_json(const graph::GraphKey& key) {
  return serve::json_serialize(serve::graph_key_to_json(key));
}

std::string load_graph_line(const graph::Graph& g) {
  JsonValue::Array edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const graph::Edge& e : g.edges())
    edges.emplace_back(JsonValue::Array{e.s, e.t, e.weight});
  JsonValue root = JsonValue(JsonValue::Object{});
  root.set("op", "load_graph");
  root.set("num_nodes", g.num_nodes());
  root.set("edges", JsonValue(std::move(edges)));
  return serve::json_serialize(root);
}

std::string learn_synthetic_line(const Args& args, std::uint64_t seed) {
  return R"({"op":"learn_synthetic","graph":"grid2d","nx":)" +
         std::to_string(args.grid) + R"(,"ny":)" + std::to_string(args.grid) +
         R"(,"measurements":)" + std::to_string(args.measurements) +
         R"(,"seed":)" + std::to_string(seed) + "}";
}

std::string resistance_line(Index s, Index t, const std::string& key) {
  return R"({"op":"resistance","s":)" + std::to_string(s) + R"(,"t":)" +
         std::to_string(t) + R"(,"key":)" + key + "}";
}

std::string batch_line(const std::vector<std::pair<Index, Index>>& pairs,
                       const std::string& key) {
  std::string line = R"({"op":"resistance_batch","pairs":[)";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) line += ',';
    line += '[' + std::to_string(pairs[i].first) + ',' +
            std::to_string(pairs[i].second) + ']';
  }
  return line + R"(],"key":)" + key + "}";
}

std::string solve_line(Index n, Rng& rng, const std::string& key) {
  JsonValue::Array rhs;
  rhs.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) rhs.emplace_back(rng.normal());
  JsonValue root = JsonValue(JsonValue::Object{});
  root.set("op", "solve");
  root.set("rhs", JsonValue(std::move(rhs)));
  std::string line = serve::json_serialize(root);
  line.insert(line.size() - 1, R"(,"key":)" + key);
  return line;
}

bool response_ok(const std::string& response) {
  return response.rfind(R"({"ok":true)", 0) == 0;
}

JsonValue parse_ok(const std::string& response, const char* what) {
  if (!response_ok(response))
    throw std::runtime_error(std::string(what) + " failed: " +
                             response.substr(0, 300));
  return serve::json_parse(response);
}

/// Seeded request stream of one client, the one traffic definition of
/// every serving phase. Every block of 100 requests holds exactly: 80
/// resistance on a learned graph, 10 resistance on the truth grid, 5
/// resistance_batch (64 pairs) and 3 solve on a learned graph, 1
/// load_graph of a variant and 1 resistance pinned to a variant (the
/// writes), in seeded order. A fixed composition keeps the rare, slow
/// requests from changing share between runs.
class RequestMix {
 public:
  RequestMix(MixTargets& targets,
             const std::vector<std::string>& solve_lines, std::uint64_t seed)
      : targets_(targets), solve_lines_(solve_lines), rng_(seed) {}

  std::string next() {
    if (block_.empty()) refill();
    const Kind kind = block_.back();
    block_.pop_back();
    switch (kind) {
      case Kind::kLearned:
        return resistance(learned());
      case Kind::kTruth:
        return resistance(targets_.truth_key);
      case Kind::kBatch: {
        std::vector<std::pair<Index, Index>> pairs;
        for (Index i = 0; i < kBatchPairs; ++i) pairs.push_back(pair());
        return batch_line(pairs, learned());
      }
      case Kind::kSolve:
        return solve_lines_[rng_.uniform_index(solve_lines_.size())];
      case Kind::kLoad:
        return targets_.variant_loads[variant()];
      case Kind::kVariant:
        return resistance(targets_.variant_keys[variant()]);
    }
    return {};
  }

 private:
  enum class Kind { kLearned, kTruth, kBatch, kSolve, kLoad, kVariant };

  void refill() {
    const std::pair<Kind, int> counts[] = {
        {Kind::kLearned, 80}, {Kind::kTruth, 10}, {Kind::kBatch, 5},
        {Kind::kSolve, 3},    {Kind::kLoad, 1},   {Kind::kVariant, 1}};
    for (const auto& [kind, count] : counts) block_.insert(block_.end(), count, kind);
    for (std::size_t i = block_.size(); i > 1; --i)
      std::swap(block_[i - 1], block_[rng_.uniform_index(i)]);
  }
  std::size_t variant() {
    return targets_.next_variant.fetch_add(1) % targets_.variant_keys.size();
  }
  const std::string& learned() {
    return targets_.learned_keys[rng_.uniform_index(
        targets_.learned_keys.size())];
  }
  std::pair<Index, Index> pair() {
    const Index s = rng_.uniform_int(targets_.num_nodes);
    Index t = rng_.uniform_int(targets_.num_nodes - 1);
    if (t >= s) ++t;
    return {s, t};
  }
  std::string resistance(const std::string& key) {
    const auto [s, t] = pair();
    return resistance_line(s, t, key);
  }

  MixTargets& targets_;
  const std::vector<std::string>& solve_lines_;
  Rng rng_;
  std::vector<Kind> block_;
};

/// One blocking unix-socket connection speaking NDJSON.
class SocketClient {
 public:
  explicit SocketClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect(" + path + ") failed");
    }
  }
  ~SocketClient() { ::close(fd_); }
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;
  SocketClient(SocketClient&&) = delete;
  SocketClient& operator=(SocketClient&&) = delete;

  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed by the daemon");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The sgl_serve daemon at default flags apart from --threads
/// kSolverThreads, listening on <run_dir>/sgl.sock. The child changes
/// into run_dir so the socket path stays short, and dies with the
/// benchmark.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& run_dir)
      : socket_path_(run_dir + "/sgl.sock") {
    char resolved[PATH_MAX];
    if (::realpath(binary.c_str(), resolved) == nullptr)
      throw std::runtime_error("sgl_serve binary not found: " + binary);
    const std::string exe = resolved;
    const std::string log = "sgl_serve.log";
    const std::string threads = std::to_string(kSolverThreads);
    const char* argv[] = {exe.c_str(), "--socket",         "sgl.sock",
                          "--threads", threads.c_str(), nullptr};
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork() failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      if (::chdir(run_dir.c_str()) != 0) ::_exit(127);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(exe.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

  /// Blocks until the socket accepts connections.
  void wait_ready() {
    const double deadline = now_seconds() + 60.0;
    while (now_seconds() < deadline) {
      try {
        const SocketClient probe(socket_path_);
        return;
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("sgl_serve exited before listening");
        }
        ::usleep(2000);
      }
    }
    throw std::runtime_error("sgl_serve did not start listening");
  }

  /// Sends shutdown, waits for the exit and returns the daemon's peak
  /// resident set in MB.
  double shutdown() {
    {
      SocketClient client(socket_path_);
      (void)client.call(R"({"op":"shutdown"})");
    }
    int status = 0;
    rusage usage{};
    const pid_t pid = pid_;
    pid_ = -1;
    if (::wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("sgl_serve did not exit cleanly");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

using CallFn = std::function<std::string(const std::string&)>;

/// `clients` closed-loop clients: each sends its next request only after
/// the previous answer arrived, then thinks for a seeded uniform
/// [0, kThinkMs) before the next one, until `seconds` have passed.
LoadResult closed_loop(Index clients,
                       const std::function<CallFn(Index)>& connect,
                       MixTargets& targets,
                       const std::vector<std::string>& solve_lines,
                       std::uint64_t seed, double seconds) {
  struct ClientResult {
    std::vector<double> latencies_ms;
    std::int64_t failed = 0;
    std::vector<std::pair<std::string, std::string>> samples;
    std::string error;
  };
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  std::vector<CallFn> calls;
  for (Index c = 0; c < clients; ++c) calls.push_back(connect(c));

  const double start = now_seconds();
  std::vector<std::thread> threads;
  for (Index c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& r = results[static_cast<std::size_t>(c)];
      RequestMix mix(targets, solve_lines, seed * 1000003ULL + c);
      Rng think(seed ^ (0x7417ULL + static_cast<std::uint64_t>(c)));
      try {
        for (std::int64_t i = 0;; ++i) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              think.uniform(0.0, kThinkMs)));
          const double t0 = now_seconds();
          if (t0 - start >= seconds) break;
          const std::string line = mix.next();
          std::string response = calls[static_cast<std::size_t>(c)](line);
          r.latencies_ms.push_back((now_seconds() - t0) * 1e3);
          if (!response_ok(response)) ++r.failed;
          if (i % kSampleEvery == 0 && r.samples.size() < kMaxSamplesPerClient)
            r.samples.emplace_back(line, std::move(response));
        }
      } catch (const std::exception& e) {
        r.error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult out;
  out.wall_s = now_seconds() - start;
  for (ClientResult& r : results) {
    if (!r.error.empty()) throw std::runtime_error("client: " + r.error);
    out.latencies_ms.insert(out.latencies_ms.end(), r.latencies_ms.begin(),
                            r.latencies_ms.end());
    out.failed += r.failed;
    for (auto& s : r.samples) out.samples.push_back(std::move(s));
  }
  out.requests = static_cast<std::int64_t>(out.latencies_ms.size());
  return out;
}

/// One serving round of args.threads clients: an unmeasured warm-up,
/// which lets the LRU reach its steady state and the engine's threads
/// settle, then `seconds` of measured load.
LoadResult serve_round(const Args& args,
                       const std::function<CallFn(Index)>& connect,
                       MixTargets& targets,
                       const std::vector<std::string>& solve_lines,
                       std::uint64_t seed, double seconds, Checks& checks) {
  const LoadResult warmup = closed_loop(args.threads, connect, targets,
                                        solve_lines, seed ^ 0x3a3aULL,
                                        kWarmupSeconds);
  checks.require(warmup.failed == 0, "warm-up requests failed");
  return closed_loop(args.threads, connect, targets, solve_lines, seed,
                     seconds);
}

void report_load(const LoadResult& load, Report& report) {
  report.ledger.attempted += load.requests;
  report.ledger.failed += load.failed;
  report.checks.require(load.failed == 0,
                        std::to_string(load.failed) + " requests failed");
  report.e2e.set("serve_qps", static_cast<double>(load.requests) / load.wall_s,
                 "1/s");
  report.e2e.set("serve_p50_ms", percentile(load.latencies_ms, 0.50), "ms");
  report.e2e.set("serve_p99_ms", percentile(load.latencies_ms, 0.99), "ms");
  std::fprintf(stderr, "serve: %lld requests in %.3f s\n",
               static_cast<long long>(load.requests), load.wall_s);}

/// Replays sampled requests on `reference` (an in-process engine with
/// batch_width 1) and requires byte-identical responses.
void replay(serve::ServeEngine& reference,
            const std::vector<std::pair<std::string, std::string>>& samples,
            Checks& checks) {
  std::int64_t mismatches = 0;
  for (const auto& [line, response] : samples)
    if (serve::handle_request(reference, line).response != response)
      ++mismatches;
  checks.require(mismatches == 0,
                 std::to_string(mismatches) + " of " +
                     std::to_string(samples.size()) +
                     " sampled responses differ from the batch_width=1 engine");
}

void report_counters(const JsonValue& stats, MetricSheet& out) {
  const auto count = [&](const char* name) {
    const JsonValue* v = stats.find(name);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  const double batches = count("batches");
  const double lookups = count("cache_hits") + count("cache_misses");
  out.set("serve.batch_width_mean",
          batches > 0 ? count("batched_columns") / batches : 0.0, "columns");
  out.set("serve.deadline_flush_ratio",
          batches > 0 ? count("deadline_flushes") / batches : 0.0, "ratio");
  out.set("serve.cache_hit_ratio",
          lookups > 0 ? count("cache_hits") / lookups : 0.0, "ratio");
  out.set("serve.cache_evictions", count("cache_evictions"), "count");
}

std::vector<std::string> make_solve_lines(Index n, std::uint64_t seed,
                                          const std::string& key) {
  Rng rng(seed ^ 0x501feULL);
  std::vector<std::string> lines;
  for (int i = 0; i < 4; ++i) lines.push_back(solve_line(n, rng, key));
  return lines;
}

using ResistanceFn = std::function<std::vector<double>(
    const std::vector<std::pair<Index, Index>>&, const std::string&)>;

/// Mean Pearson correlation of effective resistances between the truth
/// and each learned graph over the fixed pair sample, queried
/// kBatchPairs at a time.
double reff_corr(const graph::Graph& truth, const std::string& truth_key,
                 const std::vector<std::string>& learned_keys,
                 const ResistanceFn& resist) {
  const auto pairs =
      spectral::sample_node_pairs_by_hops(truth, kReffPairs, kReffPairSeed);
  const auto values = [&](const std::string& key) {
    la::Vector out;
    for (std::size_t i = 0; i < pairs.size(); i += kBatchPairs) {
      const std::vector<std::pair<Index, Index>> chunk(
          pairs.begin() + static_cast<std::ptrdiff_t>(i),
          pairs.begin() + static_cast<std::ptrdiff_t>(
                              std::min(pairs.size(), i + kBatchPairs)));
      for (const double v : resist(chunk, key)) out.push_back(v);
    }
    return out;
  };
  const la::Vector on_truth = values(truth_key);
  double sum = 0.0;
  for (const std::string& key : learned_keys)
    sum += spectral::pearson_correlation(on_truth, values(key));
  return sum / static_cast<double>(learned_keys.size());
}

void report_reff_corr(const Args& args, double corr, Report& report) {
  report.e2e.set("reff_corr", corr, "ratio");
  report.checks.require(corr >= reff_floor(args.grid),
                        "reff_corr " + std::to_string(corr) + " below floor");
}

}  // namespace

void serve_learned_in_process(const Args& args, const graph::Graph& truth,
                              const std::vector<graph::Graph>& learned,
                              Report& report) {
  // serve-mix's traffic in process for all of args.seconds, so every
  // workload measures the same amount of load: the daemon's options,
  // with an LRU that holds every learned graph, the truth grid and two
  // variants, as serve-mix's holds its one learned graph.
  serve::ServeOptions options;
  options.num_threads = kSolverThreads;
  options.solver.num_threads = kSolverThreads;
  options.cache_capacity = static_cast<Index>(learned.size()) + 3;
  serve::ServeEngine engine(options);
  const std::vector<graph::Graph> variants =
      jittered_variants(truth, kVariants, args.seed);
  MixTargets targets;
  std::map<std::string, graph::GraphKey> keys;
  const auto register_graph = [&](const graph::Graph& g) {
    const graph::GraphKey key = engine.load_graph(g);
    keys[key_json(key)] = key;
    return key_json(key);
  };
  for (const graph::Graph& g : learned)
    targets.learned_keys.push_back(register_graph(g));
  targets.truth_key = register_graph(truth);
  for (const graph::Graph& v : variants) {
    targets.variant_keys.push_back(register_graph(v));
    targets.variant_loads.push_back(load_graph_line(v));
  }
  targets.num_nodes = truth.num_nodes();

  // Effective-resistance fidelity (outside the timed section); this also
  // fills the factorization cache before the clients start.
  report_reff_corr(
      args,
      reff_corr(truth, targets.truth_key, targets.learned_keys,
                [&](const std::vector<std::pair<Index, Index>>& pairs,
                    const std::string& key) {
                  return engine.effective_resistance_batch(pairs, keys[key]);
                }),
      report);

  const LoadResult load = serve_round(
      args,
      [&](Index) -> CallFn {
        return [&engine](const std::string& line) {
          return serve::handle_request(engine, line).response;
        };
      },
      targets,
      make_solve_lines(targets.num_nodes, args.seed, targets.learned_keys[0]),
      args.seed, args.seconds, report.checks);
  report_load(load, report);
  report_counters(serve::json_parse(serve::handle_request(
                      engine, R"({"op":"stats"})").response),
                  report.layers);

  serve::ServeOptions serial_options = options;
  serial_options.batch_width = 1;
  serve::ServeEngine reference(serial_options);
  for (const graph::Graph& g : learned) (void)reference.load_graph(g);
  (void)reference.load_graph(truth);
  for (const graph::Graph& v : variants) (void)reference.load_graph(v);
  replay(reference, load.samples, report.checks);
}

void run_serve_mix(const Args& args, Report& report, SpanRecorder* spans) {
  const graph::Graph truth = graph::make_grid2d(args.grid, args.grid).graph;
  const std::vector<graph::Graph> variants =
      jittered_variants(truth, kVariants, args.seed);
  std::vector<std::string> load_lines = {load_graph_line(truth)};
  for (const graph::Graph& v : variants) load_lines.push_back(load_graph_line(v));
  MixTargets targets;
  targets.num_nodes = truth.num_nodes();
  targets.variant_loads.assign(load_lines.begin() + 1, load_lines.end());

  // Each round starts a daemon and learns its own input (the timed
  // set-up: start → listening → learn_synthetic → graph loads), checks
  // the learned graph against the truth over the socket, then serves its
  // share of the load. Latencies pool over the rounds, so the metrics do
  // not hang on one learned graph.
  const Index rounds = args.trace ? 1 : kServeRounds;
  std::vector<double> setup_s;
  std::vector<double> learn_s;
  std::vector<double> corr;
  std::vector<double> density;
  std::vector<double> peak_rss;
  LoadResult pooled;
  std::string learn_line;
  std::string learn_response;
  std::vector<std::string> load_responses;
  for (Index i = 0; i < rounds; ++i) {
    const int span = spans != nullptr ? spans->open("serve.setup") : -1;
    const double t0 = now_seconds();
    Daemon daemon(args.serve_bin, args.run_dir);
    daemon.wait_ready();
    SocketClient client(daemon.socket_path());
    learn_line = learn_synthetic_line(args, input_seed(args.seed, i));
    const double t1 = now_seconds();
    learn_response = client.call(learn_line);
    learn_s.push_back(now_seconds() - t1);
    load_responses.clear();
    for (const std::string& line : load_lines)
      load_responses.push_back(client.call(line));
    setup_s.push_back(now_seconds() - t0);
    if (spans != nullptr) spans->close(span);
    report.ledger.attempted += 1 + static_cast<std::int64_t>(load_lines.size());

    const JsonValue learned = parse_ok(learn_response, "learn_synthetic");
    report.checks.require(learned.find("converged")->as_bool() &&
                              !learned.find("exhausted")->as_bool(),
                          "daemon learn did not converge");
    density.push_back(learned.find("num_edges")->as_number() /
                      learned.find("num_nodes")->as_number());
    targets.learned_keys = {serve::json_serialize(*learned.find("key"))};
    targets.truth_key = serve::json_serialize(
        *parse_ok(load_responses[0], "load_graph").find("key"));
    targets.variant_keys.clear();
    for (std::size_t v = 1; v < load_responses.size(); ++v)
      targets.variant_keys.push_back(serve::json_serialize(
          *parse_ok(load_responses[v], "load_graph").find("key")));
    corr.push_back(reff_corr(
        truth, targets.truth_key, targets.learned_keys,
        [&](const std::vector<std::pair<Index, Index>>& pairs,
            const std::string& key) {
          const JsonValue parsed = parse_ok(
              client.call(batch_line(pairs, key)), "resistance_batch");
          std::vector<double> out;
          for (const JsonValue& v : parsed.find("values")->as_array())
            out.push_back(v.as_number());
          return out;
        }));

    const std::string path = daemon.socket_path();
    const int load_span = spans != nullptr ? spans->open("serve.load") : -1;
    LoadResult load = serve_round(
        args,
        [&](Index) -> CallFn {
          auto socket = std::make_shared<SocketClient>(path);
          return [socket](const std::string& line) {
            return socket->call(line);
          };
        },
        targets,
        make_solve_lines(targets.num_nodes, input_seed(args.seed, i),
                         targets.learned_keys[0]),
        input_seed(args.seed, i),
        args.seconds / static_cast<double>(kServeRounds), report.checks);
    if (spans != nullptr) spans->close(load_span);
    pooled.latencies_ms.insert(pooled.latencies_ms.end(),
                               load.latencies_ms.begin(), load.latencies_ms.end());
    pooled.wall_s += load.wall_s;
    pooled.requests += load.requests;
    pooled.failed += load.failed;
    pooled.samples = std::move(load.samples);
    report_counters(parse_ok(client.call(R"({"op":"stats"})"), "stats"),
                    report.layers);
    peak_rss.push_back(daemon.shutdown());
    std::fprintf(stderr,
                 "serve round %d: %lld requests, p50 %.3f ms, p99 %.3f ms, "
                 "%.1f MB\n",
                 static_cast<int>(i), static_cast<long long>(load.requests),
                 percentile(load.latencies_ms, 0.5),
                 percentile(load.latencies_ms, 0.99), peak_rss.back());
  }
  report_load(pooled, report);

  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  report_reff_corr(args, mean(corr), report);
  report.e2e.set("edges_per_node", mean(density), "edges/node");
  report.e2e.set("learn_s", median(learn_s), "s");
  report.e2e.set("setup_s", median(setup_s), "s");
  report.e2e.set("peak_rss_mb", median(peak_rss), "MB");

  // Bitwise replay of the last round on an in-process batch_width=1
  // engine fed the same lines: its learn, every load and the sampled
  // requests must answer byte-identically.
  const int span = spans != nullptr ? spans->open("serve.replay") : -1;
  serve::ServeOptions serial_options;
  serial_options.batch_width = 1;
  serve::ServeEngine reference(serial_options);
  std::vector<std::pair<std::string, std::string>> setup_samples = {
      {learn_line, learn_response}};
  for (std::size_t i = 0; i < load_lines.size(); ++i)
    setup_samples.emplace_back(load_lines[i], load_responses[i]);
  replay(reference, setup_samples, report.checks);
  replay(reference, pooled.samples, report.checks);
  if (spans != nullptr) spans->close(span);
}

void serve_layer_probes(const Args& args, const graph::Graph& truth,
                        const graph::Graph& learned, Report& report,
                        SpanRecorder& spans) {
  MetricSheet& out = report.layers;
  const ScopedSpan probe_span(spans, "probe.serve_layers");
  solver::LaplacianSolverOptions solver_options;
  solver_options.num_threads = args.threads;

  // Factorization of each served graph (median of three).
  std::unique_ptr<solver::LaplacianPinvSolver> learned_solver;
  for (const auto& [name, g] :
       {std::pair<const char*, const graph::Graph*>{"learned", &learned},
        {"truth", &truth}}) {
    std::vector<double> times;
    Index nnz = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_seconds();
      auto s = std::make_unique<solver::LaplacianPinvSolver>(*g, solver_options);
      times.push_back(now_seconds() - t0);
      nnz = s->factor_stats() != nullptr ? s->factor_stats()->factor_nnz : 0;
      if (g == &learned) learned_solver = std::move(s);
    }
    out.set(std::string("solver.factor_s.") + name, median(times), "s");
    out.set(std::string("solver.factor_nnz.") + name, static_cast<double>(nnz),
            "count");
  }

  // apply_block cost per column on the learned graph.
  const Index n = learned.num_nodes();
  Rng rng(args.seed ^ 0xb10cULL);
  for (const Index width : {Index{1}, Index{4}, Index{16}}) {
    la::DenseMatrix y(n, width);
    for (Index j = 0; j < width; ++j)
      for (Index i = 0; i < n; ++i) y(i, j) = rng.normal();
    la::DenseMatrix x(n, width);
    std::vector<double> times;
    const double start = now_seconds();
    while (times.size() < 5 || (times.size() < 200 && now_seconds() - start < 0.3)) {
      const double t0 = now_seconds();
      learned_solver->apply_block(la::view_of(y), la::view_of(x), args.threads);
      times.push_back((now_seconds() - t0) * 1e6 / static_cast<double>(width));
    }
    out.set("solver.apply_block_us.w" + std::to_string(width), median(times),
            "us");
  }

  // handle_request per op, one caller, warm caches.
  serve::ServeOptions options;
  options.num_threads = args.threads;
  serve::ServeEngine engine(options);
  const std::string learned_key = key_json(engine.load_graph(learned));
  (void)engine.load_graph(truth);
  const std::string truth_load =
      load_graph_line(jittered_variants(truth, 1, args.seed)[0]);
  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < kBatchPairs; ++i)
    pairs.emplace_back(rng.uniform_int(n / 2), n / 2 + rng.uniform_int(n / 2));
  const std::string solve = make_solve_lines(n, args.seed, learned_key)[0];
  const auto time_op = [&](const std::string& op, const std::string& line,
                           int reps) {
    (void)serve::handle_request(engine, line);  // warm
    std::vector<double> times;
    bool ok = true;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_seconds();
      ok = ok && response_ok(serve::handle_request(engine, line).response);
      times.push_back((now_seconds() - t0) * 1e6);
    }
    report.checks.require(ok, "probe request '" + op + "' failed");
    out.set("serve.handle_us." + op, median(times), "us");
  };
  time_op("resistance", resistance_line(1, n - 2, learned_key), 200);
  time_op("resistance_batch", batch_line(pairs, learned_key), 50);
  time_op("solve", solve, 20);
  time_op("load_graph", truth_load, 5);

  // JSON costs: serializing a solve response, parsing a load_graph line.
  JsonValue::Array xs;
  for (Index i = 0; i < n; ++i) xs.emplace_back(rng.normal());
  JsonValue response = JsonValue(JsonValue::Object{});
  response.set("ok", true);
  response.set("op", "solve");
  response.set("x", JsonValue(std::move(xs)));
  std::vector<double> ser;
  for (int r = 0; r < 20; ++r) {
    const double t0 = now_seconds();
    const std::string text = serve::json_serialize(response);
    ser.push_back((now_seconds() - t0) * 1e6);
    report.checks.require(!text.empty(), "empty serialization");
  }
  out.set("serve.json_serialize_us.solve", median(ser), "us");
  std::vector<double> parse;
  for (int r = 0; r < 5; ++r) {
    const double t0 = now_seconds();
    const JsonValue parsed = serve::json_parse(truth_load);
    parse.push_back((now_seconds() - t0) * 1e3);
    report.checks.require(parsed.is_object(), "load_graph line did not parse");
  }
  out.set("serve.json_parse_ms.load_graph", median(parse), "ms");
}

}  // namespace perfbench
