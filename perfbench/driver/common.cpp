#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "synth/cache.hpp"

namespace pb {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Windows per_window(const std::vector<double>& at_s, const std::vector<double>& value,
                   double window_s) {
  double last = 0.0;
  for (const double t : at_s) last = std::max(last, t);
  if (!(last > 0.0)) throw std::runtime_error("timed run completed nothing");
  window_s = std::min(window_s, last);
  const auto n = static_cast<std::size_t>(last / window_s);
  std::vector<std::vector<double>> windows(n);
  for (std::size_t i = 0; i < at_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(at_s[i] / window_s);
    if (w < n) windows[w].push_back(value[i]);
  }
  Windows out;
  for (const auto& w : windows) {
    out.rates.push_back(static_cast<double>(w.size()) / window_s);
    out.p99s.push_back(percentile(w, 0.99));
  }
  return out;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double proc_peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

std::vector<fsr::synth::BinaryConfig> corpus() {
  std::vector<fsr::synth::BinaryConfig> out;
  for (const auto& cfg : fsr::synth::corpus_configs(1.0))
    if (cfg.machine != fsr::elf::Machine::kArm64) out.push_back(cfg);
  return out;
}

void generate_corpus(const std::vector<fsr::synth::BinaryConfig>& configs,
                     std::size_t workers) {
  fsr::synth::BinaryCache::instance().clear();
  fsr::synth::for_each_binary_parallel(
      configs, [](const fsr::synth::DatasetEntry&) {}, workers);
}

double SpanTotals::per_item_us(const std::string& name) const {
  const auto it = total_us.find(name);
  if (it == total_us.end() || items == 0) return 0.0;
  return it->second / static_cast<double>(items);
}

SpanTotals export_and_total_spans(const std::string& path) {
  const fsr::obs::TraceStats ts = fsr::obs::trace_stats();
  if (ts.dropped != 0)
    throw std::runtime_error("span rings dropped " + std::to_string(ts.dropped) +
                             " spans; raise the ring capacity");
  if (!fsr::obs::write_chrome_trace(path))
    throw std::runtime_error("cannot write " + path);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = fsr::obs::json_parse(text.str());
  const fsr::obs::JsonValue* events = doc ? doc->find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array())
    throw std::runtime_error(path + " is not a Chrome trace");

  SpanTotals out;
  std::set<double> item_ids;
  for (const fsr::obs::JsonValue& e : events->items()) {
    if (e.get_string("ph") != "X") continue;
    const std::string name = e.get_string("name");
    out.total_us[name] += e.get_number("dur", 0.0);
    if (name == "item") {
      const fsr::obs::JsonValue* a = e.find("args");
      item_ids.insert(a != nullptr ? a->get_number("id", 0.0) : 0.0);
    }
  }
  out.items = item_ids.size();
  return out;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"server.transport_us", "us"},     {"server.transport_p99_us", "us"},
      {"service.handle_us", "us"},       {"service.residual_us", "us"},
      {"obs.json_parse_us", "us"},       {"proto.b64_decode_us", "us"},
      {"proto.request_bytes", "bytes"},  {"cache.content_id_us", "us"},
      {"cache.lookup_us", "us"},         {"cache.image_hit_ratio", "ratio"},
      {"cache.result_hit_ratio", "ratio"}, {"cache.insert_us", "us"},
      {"cache.evictions_per_req", "count"}, {"cache.bytes_per_input_byte", "ratio"},
      {"synth.strip_us", "us"},          {"elf.read_us", "us"},
      {"x86.decode_us", "us"},           {"x86.substrate_us", "us"},
      {"x86.ns_per_insn", "ns"},         {"funseeker.derive_us", "us"},
      {"funseeker.analysis_us", "us"},   {"baselines.ida_us", "us"},
      {"baselines.ghidra_us", "us"},     {"baselines.fetch_us", "us"},
      {"eval.score_us", "us"},           {"eval.pool_busy_ratio", "ratio"},
      {"trace.overhead_pct", "%"},       {"layers.unattributed_pct", "%"},
  };
  return kLayers;
}

void add_layer_metrics(Report& r, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = values.find(name);
    r.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    const auto& known = layer_metric_units();
    const bool listed = std::any_of(known.begin(), known.end(),
                                    [&](const auto& k) { return k.first == name; });
    if (!listed) throw std::logic_error("unlisted layer metric " + name);
  }
}

}  // namespace pb
