// sgl_serve — long-lived serving daemon for the SGL library.
//
// Speaks the newline-delimited JSON protocol (src/serve/protocol.hpp,
// DESIGN.md §10) over a unix-domain stream socket. One thread per
// connection; concurrent `solve` queries from different connections
// coalesce in the ServeEngine's micro-batching combiner into shared
// apply_block calls (resistance queries are answered inline), and every
// response is bitwise identical to what a serial server would have sent
// (solver block bit-equality contract).
//
//   sgl_serve --socket /tmp/sgl.sock [--batch-width 16] [--deadline-us 200]
//             [--cache 4] [--threads 0] [--solver auto] [--engine auto]
//
// Stop it with the {"op": "shutdown"} request (or SIGINT/SIGTERM).
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

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
      "sgl_serve: serve spectral-graph queries over a unix socket\n"
      "\n"
      "  sgl_serve --socket PATH [options]\n"
      "\n"
      "options:\n"
      "  --socket <path>      unix socket path      (default sgl_serve.sock)\n"
      "  --batch-width <int>  coalesce up to b solves per block solve\n"
      "                       (default 16; 1 disables batching)\n"
      "  --deadline-us <int>  batch fill deadline in microseconds\n"
      "                       (default 200)\n"
      "  --cache <int>        factorization LRU capacity (default 4)\n"
      "  --threads <int>      solver threads, 0 = library default\n"
      "  --solver <name>      cholesky|pcg-amg|auto\n"
      "  --engine <name>      embedding engine: exact|solver-free|auto\n"
      "\n"
      "protocol: one JSON request per line, one JSON response per line\n"
      "  {\"op\":\"learn_synthetic\",\"graph\":\"grid2d\",\"nx\":12,"
      "\"ny\":12}\n"
      "  {\"op\":\"resistance\",\"s\":0,\"t\":5}\n"
      "  {\"op\":\"stats\"}   {\"op\":\"shutdown\"}\n"
      "errors: {\"ok\":false,\"error\":{\"code\":\"<stable-code>\",...}}");
}

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

/// send() until the whole buffer is written; false on a dead peer.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void handle_connection(int fd, serve::ServeEngine& engine) {
  std::string buffer;
  char chunk[4096];
  while (!g_stop.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) break;
    if (ready == 0) continue;  // timeout: re-check the stop flag
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed (or error)
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      const std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      const serve::ProtocolResult result =
          serve::handle_request(engine, line);
      if (!send_all(fd, result.response + "\n")) {
        ::close(fd);
        return;
      }
      if (result.shutdown) g_stop.store(true);
    }
    buffer.erase(0, start);
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--help" || key == "-h") {
      usage();
      return 0;
    }
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "sgl_serve: unexpected argument '%s'\n",
                   key.c_str());
      return 2;
    }
    key = key.substr(2);
    std::string value = "1";
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    args.kv[key] = value;
  }

  serve::ServeOptions options;
  options.batch_width = static_cast<Index>(args.num("batch-width", 16));
  options.flush_deadline_us = static_cast<Index>(args.num("deadline-us", 200));
  options.cache_capacity = static_cast<Index>(args.num("cache", 4));
  options.num_threads = static_cast<Index>(args.num("threads", 0));
  options.solver.num_threads = options.num_threads;
  if (args.has("solver")) {
    const auto method = solver::parse_laplacian_method(args.str("solver"));
    if (!method.has_value()) {
      std::fprintf(stderr, "sgl_serve: unknown --solver '%s' (valid: %s)\n",
                   args.str("solver").c_str(),
                   solver::laplacian_method_name_list().c_str());
      return 2;
    }
    options.solver.method = *method;
  }
  if (args.has("engine")) {
    const auto engine = spectral::parse_embedding_engine(args.str("engine"));
    if (!engine.has_value()) {
      std::fprintf(stderr, "sgl_serve: unknown --engine '%s'\n",
                   args.str("engine").c_str());
      return 2;
    }
    options.embedding.engine = *engine;
  }
  if (options.batch_width < 1 || options.flush_deadline_us < 0 ||
      options.cache_capacity < 1) {
    std::fprintf(stderr, "sgl_serve: invalid batching/cache options\n");
    return 2;
  }
  options.embedding.solver = options.solver;

  const std::string socket_path = args.str("socket", "sgl_serve.sock");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "sgl_serve: socket path too long\n");
    return 2;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("sgl_serve: socket");
    return 1;
  }
  ::unlink(socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    std::perror("sgl_serve: bind");
    return 1;
  }
  if (::listen(listen_fd, 64) != 0) {
    std::perror("sgl_serve: listen");
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  serve::ServeEngine engine(options);
  std::printf("sgl_serve: listening on %s (batch width %d, deadline %d us, "
              "cache %d)\n",
              socket_path.c_str(), static_cast<int>(options.batch_width),
              static_cast<int>(options.flush_deadline_us),
              static_cast<int>(options.cache_capacity));
  std::fflush(stdout);

  std::vector<std::thread> workers;
  while (!g_stop.load()) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) break;
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    workers.emplace_back(handle_connection, fd, std::ref(engine));
  }

  ::close(listen_fd);
  for (std::thread& t : workers) t.join();
  ::unlink(socket_path.c_str());

  const serve::ServeStats stats = engine.stats();
  std::printf("sgl_serve: shut down after %d requests in %d batches "
              "(%d cache hits, %d misses, %d evictions, %d errors)\n",
              static_cast<int>(stats.requests), static_cast<int>(stats.batches),
              static_cast<int>(stats.cache_hits),
              static_cast<int>(stats.cache_misses),
              static_cast<int>(stats.cache_evictions),
              static_cast<int>(stats.errors));
  return 0;
}
