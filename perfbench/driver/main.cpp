// perfbench — the repository's benchmark driver.
//
//   perfbench --workload batch_eval|serve_cold|serve_hot --seed N
//             --seconds S --trace 0|1 --fsrd PATH --out-dir DIR
//
// Runs one workload on inputs made from the seed, checks every output,
// and prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end figures; with --trace 1
// the workload's inputs are replayed single-threaded through each
// layer's public functions under spans, and the metrics are per layer.
// A broken workload invariant exits 1 without a result (see
// IntegrityError). Normally started by perfbench/run.py, which builds
// this binary and fsrd first; perfbench/README.md documents every
// metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "common.hpp"

namespace {

/// The end-to-end metrics every workload reports with --trace 0.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},       {"items_per_s", "1/s"},    {"p50_us", "us"},
    {"p99_us", "us"},       {"small_p50_us", "us"},    {"large_p50_us", "us"},
    {"peak_rss_mb", "MiB"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch_eval|serve_cold|serve_hot"
               " --seed N --seconds S --trace 0|1 --fsrd PATH --out-dir DIR\n");
  std::exit(2);
}

pb::Args parse_args(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage();
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage();
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage();
      a.trace = v[0] == '1';
    } else if (arg == "--fsrd") {
      a.fsrd = v;
    } else if (arg == "--out-dir") {
      a.out_dir = v;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || a.out_dir.empty()) usage();
  return a;
}

/// Refuse to print a result whose metric set or values break the
/// output contract; a silent gap would read as "no change".
void check_metrics(const pb::Report& r, bool trace) {
  std::set<std::string> want;
  if (trace) {
    for (const auto& [name, unit] : pb::layer_metric_units()) want.insert(name);
  } else {
    for (const auto& [name, unit] : kEndToEnd) want.insert(name);
  }
  std::set<std::string> got;
  for (const pb::Metric& m : r.metrics) {
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not finite");
    got.insert(m.name);
  }
  if (got != want || got.size() != r.metrics.size())
    throw std::runtime_error("metric set does not match the contract");
  if (!trace) {
    for (const auto& [name, unit] : kEndToEnd)
      for (const pb::Metric& m : r.metrics)
        if (m.name == name && (m.unit != unit || m.value <= 0.0))
          throw std::runtime_error("end-to-end metric " + m.name + " is not positive");
  }
}

void print_result(const pb::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const pb::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Args args = parse_args(argc, argv);
  try {
    pb::Report r;
    if (args.workload == "batch_eval") {
      r = pb::run_batch(args);
    } else if (args.workload == "serve_cold" || args.workload == "serve_hot") {
      if (args.fsrd.empty()) usage();
      r = pb::run_serve(args, args.workload == "serve_hot");
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    if (r.attempted == 0) throw std::runtime_error("no work was attempted");
    check_metrics(r, args.trace);
    print_result(r);
  } catch (const pb::IntegrityError& e) {
    std::fprintf(stderr, "perfbench: workload integrity broken: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
