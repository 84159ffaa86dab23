// Shared pieces of the benchmark driver: arguments, the result record
// every workload fills in, sample statistics, and the traced-run span
// accounting.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "synth/corpus.hpp"

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fsrd;     // path of the fsrd binary (serve workloads)
  std::string out_dir;  // scratch files: sockets, daemon logs, traces
};

/// A broken workload invariant (a cache that should hit missed, a
/// cold window without evictions). The driver exits non-zero without
/// printing a result: the figures of such a run measure something else.
struct IntegrityError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // transport errors, error responses, wrong answers
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolated percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// Throughput and tail latency of a timed stretch per window; callers
/// report medians over windows, so a burst of outside load on a shared
/// machine moves them less than it moves whole-run figures.
struct Windows {
  std::vector<double> rates;  // items completed per second, per full window
  std::vector<double> p99s;   // each full window's 99th percentile
};

/// `at_s[i]` is when item i completed, `value[i]` its latency; only
/// windows that end before the last completion count (a stretch shorter
/// than one window is one window).
Windows per_window(const std::vector<double>& at_s, const std::vector<double>& value,
                   double window_s);

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc();

/// Peak resident set of this process (ru_maxrss) in MiB.
double self_peak_rss_mb();
/// VmHWM of another process in MiB, from /proc/<pid>/status.
double proc_peak_rss_mb(long pid);

/// Every x86/x64 config of the scale-1.0 corpus (1,248 binaries).
std::vector<fsr::synth::BinaryConfig> corpus();

/// Drop the generation cache and regenerate the whole corpus on
/// `workers` threads — the corpus half of every workload's set-up.
void generate_corpus(const std::vector<fsr::synth::BinaryConfig>& configs,
                     std::size_t workers);

/// Set-ups per timed run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Median of `runs` calls of `setup`, which returns the seconds it took.
template <typename F>
double median_setup_seconds(int runs, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < runs; ++i) s.push_back(setup());
  return percentile(std::move(s), 0.5);
}

/// Per-layer sums read back from the in-memory span rings: total span
/// duration (us) per span name.
struct SpanTotals {
  std::map<std::string, double> total_us;
  std::uint64_t items = 0;  // distinct item ids seen on "item" spans

  /// Mean microseconds per item (request or binary) of one layer, so
  /// the layers of a workload add up to its per-item total.
  [[nodiscard]] double per_item_us(const std::string& name) const;
};

/// Write the buffered spans to `path` as Chrome trace JSON, then parse
/// that same document back and total it per span name. Throws when the
/// rings dropped spans (the totals would undercount).
SpanTotals export_and_total_spans(const std::string& path);

/// The per-layer metric names every traced run reports, in output order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Fill every per-layer metric from `values`; names a workload does not
/// exercise read 0 (the layer did no work there).
void add_layer_metrics(Report& r, const std::map<std::string, double>& values);

Report run_batch(const Args& args);
Report run_serve(const Args& args, bool hot);

}  // namespace pb
