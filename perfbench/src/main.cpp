// sgl_perfbench — one run of one workload of the end-to-end benchmark.
//
//   sgl_perfbench --workload learn-exact|learn-auto|serve-mix --seed N
//                 --seconds S --trace 0|1 --serve-bin PATH --run-dir DIR
//                 [--grid G] [--measurements M]
//
// It runs min(4, nproc) threads and client connections.
//
// The last stdout line is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1 (which also writes DIR/spans.json). Exits 1 when a
// correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::fprintf(stderr, "sgl_perfbench: %s\n", why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      have_workload = true;
      if (value == "learn-exact") {
        args.workload = Workload::kLearnExact;
      } else if (value == "learn-auto") {
        args.workload = Workload::kLearnAuto;
      } else if (value == "serve-mix") {
        args.workload = Workload::kServeMix;
      } else {
        return usage("unknown workload '" + value + "'");
      }
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--grid") {
      args.grid = std::atoi(value.c_str());
    } else if (key == "--measurements") {
      args.measurements = std::atoi(value.c_str());
    } else if (key == "--serve-bin") {
      args.serve_bin = value;
    } else if (key == "--run-dir") {
      args.run_dir = value;
    } else {
      return usage("unknown option '" + key + "'");
    }
  }
  if (!have_workload || args.run_dir.empty() || args.grid < 4 ||
      args.measurements < 2 || !(args.seconds > 0.0))
    return usage("missing or invalid arguments");
  if (args.workload == Workload::kServeMix && args.serve_bin.empty())
    return usage("serve-mix needs --serve-bin");

  Report report;
  try {
    if (!args.trace) {
      if (args.workload == Workload::kServeMix) {
        run_serve_mix(args, report, nullptr);
      } else {
        run_learn_workload(args, report);
        report.e2e.set("peak_rss_mb", self_peak_rss_mb(), "MB");
      }
    } else {
      SpanRecorder spans;
      // serve-mix learns with every default, as learn-auto does.
      const Workload learn = args.workload == Workload::kServeMix
                                 ? Workload::kLearnAuto
                                 : args.workload;
      const auto [truth, learned] = trace_learn(args, learn, report, spans);
      if (args.workload == Workload::kServeMix) {
        run_serve_mix(args, report, &spans);
      } else {
        const ScopedSpan span(spans, "serve.in_process");
        serve_learned_in_process(args, truth, {learned}, report);
      }
      serve_layer_probes(args, truth, learned, report, spans);
      std::ofstream(args.run_dir + "/spans.json") << spans.to_json() << "\n";
      for (const auto& [name, self] : spans.self_times())
        std::fprintf(stderr, "self %-28s %10.6f s\n", name.c_str(), self);
    }
  } catch (const std::exception& e) {
    ++report.ledger.failed;
    report.checks.require(false, std::string("run aborted: ") + e.what());
  }
  const double attempted =
      static_cast<double>(std::max<std::int64_t>(report.ledger.attempted, 1));
  report.e2e.set("success_ratio",
                 1.0 - static_cast<double>(report.ledger.failed) / attempted,
                 "ratio");

  for (const std::string& failure : report.checks.failures())
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  sgl::serve::JsonValue result =
      sgl::serve::JsonValue(sgl::serve::JsonValue::Object{});
  result.set("correct", report.checks.ok());
  result.set("attempted", static_cast<double>(attempted));
  result.set("failed", static_cast<double>(report.ledger.failed));
  result.set("metrics",
             args.trace ? report.layers.to_json() : report.e2e.to_json());
  std::printf("%s\n", sgl::serve::json_serialize(result).c_str());
  return report.checks.ok() ? 0 : 1;
}
