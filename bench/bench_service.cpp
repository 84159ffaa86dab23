// Service load bench: drives fsrd servers over their Unix sockets and
// emits BENCH_service.json. Three phases, each with hard gates (nonzero
// exit on violation, so CI runs this directly):
//
//   A. Steady state — an in-process Server, N client threads issuing
//      mixed hot/cold traffic (7 of 8 requests hit a warmed content
//      key, 1 of 8 uploads a never-seen binary paying the full parse +
//      decode + substrate + analysis path). Reports sustained req/s and
//      client-side latency percentiles split by the responses' own
//      "cache" field, cross-checked against the daemon's ingress
//      windows (within 2x).
//
//   B. Pipelining — one client thread, first stop-and-wait then
//      streamed at depth 8 over a single connection, for two
//      workloads. Gate: pipelined ping throughput >= 1.5x serial (ping
//      is pure protocol, so the speedup isolates exactly what
//      pipelining removes — a round trip's wakeups and syscalls per
//      request). The hot-identify speedup is reported alongside but
//      not gated: one connection's requests execute one at a time, so
//      both modes pay the same handler CPU per request, on any number
//      of cores.
//
//   C. Warm restart — a re-exec'ed child daemon (`bench_service
//      --serve`) with a persistent cache segment is warmed, measured,
//      then SIGKILLed mid-traffic; a fresh child on the same segment
//      must serve hits again without recomputing. Gates: post-restart
//      hit p99 <= 2x the pre-kill steady-state hit p99, hits actually
//      observed, client success rate across the whole storm >= 99%,
//      and the replacement daemon's stats show persistent-layer hits
//      and rehydrations.
//
//   bench_service [--seconds S] [--threads N] [--out FILE]
//   bench_service --serve SOCKET [--serve-threads N] [--pcache PATH]
//
// REPRO_SCALE stretches the durations the same way it scales corpora.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "synth/corpus.hpp"

using namespace fsr;
using Clock = std::chrono::steady_clock;

namespace {

struct Sample {
  std::uint64_t ns;
  bool hit;
};

struct ThreadResult {
  std::vector<Sample> samples;
  std::uint64_t errors = 0;
};

std::uint64_t percentile_ns(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

std::string identify_by_key(const std::string& key) {
  return "{\"op\":\"identify\",\"key\":\"" + key + "\",\"tool\":\"funseeker\"}";
}

std::string identify_by_elf(const std::string& b64) {
  return "{\"op\":\"identify\",\"elf\":\"" + b64 + "\",\"tool\":\"funseeker\"}";
}

void client_loop(const std::string& socket_path, Clock::time_point deadline,
                 const std::vector<std::string>& hot_requests,
                 const std::vector<std::vector<std::uint8_t>>& templates,
                 unsigned thread_id, ThreadResult& out) {
  service::Client client;
  if (!client.connect(socket_path)) {
    ++out.errors;
    return;
  }
  out.samples.reserve(1 << 16);
  std::uint64_t seq = 0;
  while (Clock::now() < deadline) {
    std::string request;
    if (seq % 8 == 7) {
      // Unique trailer -> never-seen ContentId -> full cold path.
      // Templates rotate so misses sample the whole size spectrum.
      std::vector<std::uint8_t> cold = templates[(seq / 8) % templates.size()];
      char trailer[32];
      const int n = std::snprintf(trailer, sizeof trailer, "#%u:%llu", thread_id,
                                  static_cast<unsigned long long>(seq));
      cold.insert(cold.end(), trailer, trailer + n);
      request = identify_by_elf(service::b64_encode(cold));
    } else {
      request = hot_requests[seq % hot_requests.size()];
    }
    ++seq;

    const auto t0 = Clock::now();
    const auto response = client.request(request);
    const auto t1 = Clock::now();
    if (!response.has_value()) {
      ++out.errors;
      if (!client.connect(socket_path)) break;
      continue;
    }
    const auto parsed = obs::json_parse(*response);
    if (!parsed.has_value() || !parsed->get_bool("ok", false)) {
      ++out.errors;
      continue;
    }
    out.samples.push_back(
        {static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
         parsed->get_string("cache") == "hit"});
  }
}

struct Split {
  std::vector<std::uint64_t> ns;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  void finalize() {
    std::sort(ns.begin(), ns.end());
    p50 = percentile_ns(ns, 0.50);
    p95 = percentile_ns(ns, 0.95);
    p99 = percentile_ns(ns, 0.99);
  }
};

// -------------------------------------------- phase B: pipelining

struct PipelineMode {
  std::uint64_t serial_requests = 0;
  double serial_rps = 0.0;
  std::uint64_t pipelined_requests = 0;
  double pipelined_rps = 0.0;
  double speedup = 0.0;
};

struct PipelineResult {
  PipelineMode ping;   // protocol-overhead bound — the gated number
  PipelineMode ident;  // hot identify: handler CPU bound — reported
  std::uint64_t errors = 0;
};

/// One workload over one connection: first stop-and-wait, then the
/// same wall-clock budget streamed at `depth`. One thread, so the only
/// difference between the two numbers is pipelining itself.
bool run_pipeline_mode(service::Client& client, const std::string& sock,
                       const std::vector<std::string>& reqs, double seconds,
                       PipelineMode& out, std::uint64_t& errors) {
  constexpr std::size_t kDepth = 8;
  {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    const auto t0 = Clock::now();
    std::uint64_t n = 0;
    while (Clock::now() < deadline) {
      if (!client.request(reqs[n % reqs.size()]).has_value()) {
        ++errors;
        if (!client.connect(sock)) return false;
        continue;
      }
      ++n;
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    out.serial_requests = n;
    out.serial_rps = wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
  }

  {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    const auto t0 = Clock::now();
    std::uint64_t n = 0;
    std::vector<std::string> batch;
    batch.reserve(kDepth);
    while (Clock::now() < deadline) {
      batch.clear();
      for (std::size_t i = 0; i < kDepth; ++i)
        batch.push_back(reqs[(n + i) % reqs.size()]);
      const auto responses = client.call_pipelined(batch);
      if (!responses.has_value()) {
        ++errors;
        if (!client.connect(sock)) return false;
        continue;
      }
      n += responses->size();
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    out.pipelined_requests = n;
    out.pipelined_rps = wall > 0.0 ? static_cast<double>(n) / wall : 0.0;
  }

  out.speedup =
      out.serial_rps > 0.0 ? out.pipelined_rps / out.serial_rps : 0.0;
  return true;
}

/// Two workloads, gated differently. `ping` is pure protocol: the
/// speedup measures exactly what pipelining removes (one round trip's
/// worth of wakeups and syscalls per request) and is the >= 1.5x gate.
/// Hot identify is reported alongside: its handler costs real CPU and
/// one connection's requests execute one at a time, so the speedup
/// legitimately stays near 1x however many cores there are.
bool run_pipeline_phase(const std::string& sock,
                        const std::vector<std::string>& hot, double seconds,
                        PipelineResult& out) {
  service::Client client;
  if (!client.connect(sock)) return false;
  const std::vector<std::string> ping{"{\"op\":\"ping\"}"};
  return run_pipeline_mode(client, sock, ping, seconds, out.ping, out.errors) &&
         run_pipeline_mode(client, sock, hot, seconds, out.ident, out.errors);
}

// ------------------------------------------ phase C: warm restart

struct RestartResult {
  std::uint64_t steady_hit_p99_ns = 0;
  std::uint64_t post_hit_p99_ns = 0;
  double p99_ratio = 0.0;
  std::uint64_t post_hits = 0;
  std::uint64_t storm_ok = 0;
  std::uint64_t storm_failures = 0;
  double success_rate = 0.0;
  double pcache_hits = 0.0;
  double rehydrated_results = 0.0;
  double restart_to_first_hit_ms = -1.0;
};

pid_t spawn_serve_child(const char* exe, const std::string& sock,
                        std::size_t threads, const std::string& pcache) {
  const std::string threads_str = std::to_string(threads);
  // Built before fork: the post-fork path is execv + _exit only.
  std::vector<std::string> arg_store = {exe,       "--serve",       sock,
                                        "--serve-threads", threads_str};
  if (!pcache.empty()) {
    arg_store.push_back("--pcache");
    arg_store.push_back(pcache);
  }
  std::vector<char*> argv;
  for (auto& a : arg_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

service::ClientOptions storm_client_opts(std::uint64_t seed) {
  service::ClientOptions c;
  c.max_attempts = 30;
  c.op_timeout_seconds = 2.0;
  c.total_budget_seconds = 15.0;
  c.backoff_base_ms = 10.0;
  c.backoff_max_ms = 150.0;
  c.backoff_seed = seed;
  return c;
}

/// Hot traffic against `sock` until `deadline`; hit latencies appended
/// to `hits_ns`, ok/failure tallies to the counters.
void hot_loop(const std::string& sock, Clock::time_point deadline,
              const std::vector<std::string>& hot, std::uint64_t seed,
              std::vector<std::uint64_t>& hits_ns, std::uint64_t& ok,
              std::uint64_t& failures) {
  service::Client client(storm_client_opts(seed));
  client.connect(sock);
  std::uint64_t n = 0;
  while (Clock::now() < deadline) {
    const auto t0 = Clock::now();
    const auto resp = client.call(hot[n++ % hot.size()]);
    const auto t1 = Clock::now();
    if (!resp.has_value()) {
      ++failures;
      continue;
    }
    const auto parsed = obs::json_parse(*resp);
    if (!parsed.has_value() || !parsed->get_bool("ok", false)) {
      ++failures;
      continue;
    }
    ++ok;
    if (parsed->get_string("cache") == "hit")
      hits_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
  }
}

bool run_restart_phase(const char* exe,
                       const std::vector<std::vector<std::uint8_t>>& templates,
                       std::size_t serve_threads, double window_seconds,
                       RestartResult& out) {
  const std::string sock =
      "/tmp/fsrd-bench-" + std::to_string(::getpid()) + "-warm.sock";
  const std::string pcache = sock + ".pcache";
  ::unlink(sock.c_str());
  ::unlink(pcache.c_str());

  const pid_t child_a = spawn_serve_child(exe, sock, serve_threads, pcache);
  if (child_a < 0) return false;

  // Warm child A (populates the persistent segment as a side effect)
  // and collect the hot keys.
  std::vector<std::string> hot;
  {
    service::Client warm(storm_client_opts(7));
    warm.connect(sock);  // likely refused pre-listen; call() retries
    for (const auto& bytes : templates) {
      const auto resp = warm.call(identify_by_elf(service::b64_encode(bytes)));
      if (!resp.has_value()) {
        std::fprintf(stderr, "bench_service: warm-restart child never came up\n");
        ::kill(child_a, SIGKILL);
        ::waitpid(child_a, nullptr, 0);
        return false;
      }
      const auto parsed = obs::json_parse(*resp);
      if (!parsed.has_value() || !parsed->get_bool("ok", false)) return false;
      hot.push_back(identify_by_key(parsed->get_string("key")));
    }
  }

  // Pre-kill steady state.
  std::vector<std::uint64_t> steady_ns;
  std::uint64_t steady_ok = 0, steady_failures = 0;
  hot_loop(sock,
           Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(window_seconds)),
           hot, 11, steady_ns, steady_ok, steady_failures);
  if (steady_ns.size() < 50) {
    std::fprintf(stderr, "bench_service: too few steady-state hit samples\n");
    ::kill(child_a, SIGKILL);
    ::waitpid(child_a, nullptr, 0);
    return false;
  }
  std::sort(steady_ns.begin(), steady_ns.end());
  out.steady_hit_p99_ns = percentile_ns(steady_ns, 0.99);

  // SIGKILL mid-traffic: a storm pinger keeps driving requests through
  // the outage (its retries are the "mid-bench" part of the claim).
  std::atomic<bool> storm_stop{false};
  std::vector<std::uint64_t> storm_ns;
  std::uint64_t storm_ok = 0, storm_failures = 0;
  std::thread storm([&] {
    while (!storm_stop.load(std::memory_order_relaxed))
      hot_loop(sock, Clock::now() + std::chrono::milliseconds(100), hot, 13,
               storm_ns, storm_ok, storm_failures);
  });
  ::usleep(100 * 1000);  // the pinger is mid-flight when the kill lands
  ::kill(child_a, SIGKILL);
  ::waitpid(child_a, nullptr, 0);

  const auto t_restart = Clock::now();
  const pid_t child_b = spawn_serve_child(exe, sock, serve_threads, pcache);
  if (child_b < 0) {
    storm_stop.store(true);
    storm.join();
    return false;
  }

  // First post-restart hit: how long the outage looked to a client.
  {
    service::Client probe(storm_client_opts(17));
    probe.connect(sock);
    const auto resp = probe.call(hot[0]);
    if (resp.has_value())
      out.restart_to_first_hit_ms =
          std::chrono::duration<double>(Clock::now() - t_restart).count() * 1e3;
  }

  storm_stop.store(true);
  storm.join();
  out.storm_ok = steady_ok + storm_ok;
  out.storm_failures = steady_failures + storm_failures;

  // Post-restart window against child B: the memory cache is cold, the
  // persistent layer is not — hits must flow again at near-steady cost.
  std::vector<std::uint64_t> post_ns;
  std::uint64_t post_ok = 0, post_failures = 0;
  hot_loop(sock,
           Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(window_seconds)),
           hot, 19, post_ns, post_ok, post_failures);
  out.post_hits = post_ns.size();
  out.storm_ok += post_ok;
  out.storm_failures += post_failures;
  std::sort(post_ns.begin(), post_ns.end());
  out.post_hit_p99_ns = percentile_ns(post_ns, 0.99);
  out.p99_ratio = out.steady_hit_p99_ns > 0
                      ? static_cast<double>(out.post_hit_p99_ns) /
                            static_cast<double>(out.steady_hit_p99_ns)
                      : 0.0;
  const std::uint64_t total = out.storm_ok + out.storm_failures;
  out.success_rate =
      total > 0 ? static_cast<double>(out.storm_ok) / static_cast<double>(total)
                : 0.0;

  // Child B's own account: did the persistent layer actually serve?
  {
    service::Client probe(storm_client_opts(23));
    if (probe.connect(sock)) {
      if (const auto resp = probe.call("{\"op\":\"stats\"}")) {
        if (const auto parsed = obs::json_parse(*resp)) {
          if (const obs::JsonValue* pc = parsed->find("pcache")) {
            out.pcache_hits = pc->get_number("hits", 0);
            out.rehydrated_results = pc->get_number("rehydrated_results", 0);
          }
        }
      }
    }
  }

  // Graceful teardown (shutdown is non-idempotent: plain request).
  {
    service::Client killer(storm_client_opts(29));
    if (killer.connect(sock)) killer.request("{\"op\":\"shutdown\"}");
  }
  int status = 0;
  for (int i = 0; i < 500 && ::waitpid(child_b, &status, WNOHANG) == 0; ++i)
    ::usleep(10 * 1000);
  if (::waitpid(child_b, &status, WNOHANG) == 0) {
    ::kill(child_b, SIGKILL);
    ::waitpid(child_b, nullptr, 0);
  }
  ::unlink(pcache.c_str());
  ::unlink(sock.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Internal mode: the re-exec'ed serving child for the warm-restart
  // phase. Parsed before obs so the serving process is a plain daemon.
  if (argc >= 3 && std::strcmp(argv[1], "--serve") == 0) {
    service::ServerOptions opts;
    opts.socket_path = argv[2];
    opts.threads = 2;
    for (int i = 3; i + 1 < argc; i += 2) {
      if (std::strcmp(argv[i], "--serve-threads") == 0)
        opts.threads = static_cast<std::size_t>(std::atoll(argv[i + 1]));
      else if (std::strcmp(argv[i], "--pcache") == 0)
        opts.service.pcache_path = argv[i + 1];
    }
    try {
      service::Server server(std::move(opts));
      server.start();
      server.wait();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_service --serve: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  char exe[4096];
  const ssize_t exe_n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (exe_n <= 0) {
    std::fprintf(stderr, "bench_service: cannot resolve /proc/self/exe\n");
    return 1;
  }
  exe[exe_n] = '\0';

  argc = bench::obs_init(argc, argv);
  double seconds = 3.0 * bench::corpus_scale();
  std::size_t threads = bench::threads();
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_service: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seconds") seconds = std::atof(value());
    else if (arg == "--threads") threads = static_cast<std::size_t>(std::atoll(value()));
    else if (arg == "--out") out_path = value();
    else {
      std::fprintf(stderr, "usage: bench_service [--seconds S] [--threads N] [--out FILE]\n");
      return 2;
    }
  }
  if (seconds <= 0.0) seconds = 3.0;
  if (threads == 0) threads = 1;

  // Template binaries: the largest x86/x64 corpus entries, so the cold
  // path pays a realistic parse + decode rather than a toy one.
  std::vector<std::vector<std::uint8_t>> binaries;
  for (const auto& cfg : bench::corpus()) {
    if (cfg.machine == elf::Machine::kArm64) continue;
    binaries.push_back(synth::cached_binary(cfg)->stripped_bytes());
  }
  std::sort(binaries.begin(), binaries.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  if (binaries.size() > 6) binaries.resize(6);
  if (binaries.empty()) {
    std::fprintf(stderr, "bench_service: empty corpus\n");
    return 1;
  }

  service::ServerOptions opts;
  opts.socket_path = "/tmp/fsrd-bench-" + std::to_string(::getpid()) + ".sock";
  opts.threads = threads;
  service::Server server(std::move(opts));
  server.start();

  // Warm the cache: one upload per template makes every key hot.
  std::vector<std::string> hot_requests;
  {
    service::Client warm;
    if (!warm.connect(server.socket_path())) {
      std::fprintf(stderr, "bench_service: cannot connect to %s\n",
                   server.socket_path().c_str());
      return 1;
    }
    for (const auto& bytes : binaries) {
      const auto response = warm.request(identify_by_elf(service::b64_encode(bytes)));
      if (!response.has_value()) {
        std::fprintf(stderr, "bench_service: warmup request failed\n");
        return 1;
      }
      const auto parsed = obs::json_parse(*response);
      if (!parsed.has_value() || !parsed->get_bool("ok", false)) {
        std::fprintf(stderr, "bench_service: warmup rejected: %s\n", response->c_str());
        return 1;
      }
      hot_requests.push_back(identify_by_key(parsed->get_string("key")));
    }
  }

  std::printf("bench_service: phase A — %zu client threads, %zu workers, "
              "%.1f s, %zu templates\n",
              threads, server.workers(), seconds, binaries.size());

  const auto t_start = Clock::now();
  const auto deadline =
      t_start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::vector<ThreadResult> results(threads);
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
      workers.emplace_back(client_loop, server.socket_path(), deadline,
                           std::cref(hot_requests), std::cref(binaries),
                           static_cast<unsigned>(t), std::ref(results[t]));
    for (auto& w : workers) w.join();
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  Split hit, miss;
  std::uint64_t errors = 0;
  for (const auto& r : results) {
    errors += r.errors;
    for (const Sample& s : r.samples) (s.hit ? hit : miss).ns.push_back(s.ns);
  }
  hit.finalize();
  miss.finalize();
  const std::uint64_t total = hit.ns.size() + miss.ns.size();
  const double rps = wall > 0.0 ? static_cast<double>(total) / wall : 0.0;
  const double ratio =
      hit.p99 > 0 ? static_cast<double>(miss.p99) / static_cast<double>(hit.p99) : 0.0;

  std::printf("  %llu requests in %.2f s -> %.0f req/s (%llu errors)\n",
              static_cast<unsigned long long>(total), wall, rps,
              static_cast<unsigned long long>(errors));
  std::printf("  hit : %8zu  p50 %7.1f us  p95 %7.1f us  p99 %7.1f us\n", hit.ns.size(),
              hit.p50 / 1e3, hit.p95 / 1e3, hit.p99 / 1e3);
  std::printf("  miss: %8zu  p50 %7.1f us  p95 %7.1f us  p99 %7.1f us\n", miss.ns.size(),
              miss.p50 / 1e3, miss.p95 / 1e3, miss.p99 / 1e3);
  std::printf("  miss p99 / hit p99 = %.1fx\n", ratio);

  // Daemon-side picture for the JSON (cache + pool gauges), and the
  // accuracy check on the daemon's own rolling windows: its 60s hit
  // p99 (measured at ingress, queue wait included) must agree with the
  // client-side hit p99 within 2x in either direction. Only gated when
  // there are enough hit samples for a p99 to mean anything.
  std::string stats = "{}";
  {
    service::Client c;
    if (c.connect(server.socket_path()))
      if (auto r = c.request("{\"op\":\"stats\"}")) stats = *r;
  }

  double daemon_hit_p99 = 0.0;
  if (const auto parsed = obs::json_parse(stats); parsed.has_value()) {
    if (const obs::JsonValue* w = parsed->find("windows"))
      if (const obs::JsonValue* h = w->find("hit"))
        if (const obs::JsonValue* w60 = h->find("last_60s"))
          daemon_hit_p99 = w60->get_number("p99_ns", 0);
  }
  const bool window_gated =
      hit.ns.size() >= 200 && hit.p99 > 0 && daemon_hit_p99 > 0.0;
  const double window_rel =
      hit.p99 > 0 ? daemon_hit_p99 / static_cast<double>(hit.p99) : 0.0;
  // With one client thread the run is closed-loop and client-side
  // latency tracks handle() time, so the daemon window must agree both
  // ways. With more clients, client-side p99 also counts queueing the
  // daemon never sees, so only the upper bound is meaningful.
  const bool window_ok =
      !window_gated ||
      (window_rel <= 2.0 && (threads > 1 || window_rel >= 0.5));
  if (window_gated)
    std::printf("  daemon 60s hit p99 %.1f us vs client %.1f us (%.2fx) — %s\n",
                daemon_hit_p99 / 1e3, hit.p99 / 1e3, window_rel,
                window_ok ? (threads > 1 ? "under 2x (upper bound only)"
                                         : "within 2x")
                          : "OUTSIDE 2x");
  else
    std::printf("  windowed-p99 check skipped (%zu hit samples, need 200)\n",
                hit.ns.size());

  // ---- phase B: pipelined vs stop-and-wait on the same hot keys.
  const double pipe_seconds = std::max(1.0, seconds / 3.0);
  std::printf("bench_service: phase B — pipelining, 1 thread, depth 8, "
              "%.1f s per mode\n",
              pipe_seconds);
  PipelineResult pipe;
  const bool pipe_ran =
      run_pipeline_phase(server.socket_path(), hot_requests, pipe_seconds, pipe);
  const bool pipe_ok = pipe_ran && pipe.errors == 0 && pipe.ping.speedup >= 1.5;
  std::printf("  ping      serial %8.0f req/s -> pipelined %8.0f req/s   "
              "speedup %.2fx — %s\n",
              pipe.ping.serial_rps, pipe.ping.pipelined_rps, pipe.ping.speedup,
              pipe_ok ? "ok (gate >= 1.5x)" : "FAIL (need >= 1.5x)");
  std::printf("  identify  serial %8.0f req/s -> pipelined %8.0f req/s   "
              "speedup %.2fx (handler-bound, not gated)\n",
              pipe.ident.serial_rps, pipe.ident.pipelined_rps,
              pipe.ident.speedup);

  server.stop();
  server.wait();

  // ---- phase C: SIGKILL + warm restart from the persistent segment.
  const double window_seconds = std::max(0.8, seconds / 3.0);
  std::printf("bench_service: phase C — warm restart (SIGKILL mid-traffic, "
              "%.1f s windows)\n",
              window_seconds);
  RestartResult warm;
  const bool warm_ran =
      run_restart_phase(exe, binaries, threads, window_seconds, warm);
  const bool warm_ok = warm_ran && warm.post_hits > 0 &&
                       warm.post_hit_p99_ns > 0 && warm.p99_ratio <= 2.0 &&
                       warm.success_rate >= 0.99 && warm.pcache_hits > 0.0 &&
                       warm.rehydrated_results > 0.0;
  std::printf("  steady hit p99 %.1f us -> post-restart hit p99 %.1f us "
              "(%.2fx, gate <= 2x)\n",
              warm.steady_hit_p99_ns / 1e3, warm.post_hit_p99_ns / 1e3,
              warm.p99_ratio);
  std::printf("  %llu post-restart hits, success rate %.4f, first hit %.0f ms "
              "after respawn\n",
              static_cast<unsigned long long>(warm.post_hits),
              warm.success_rate, warm.restart_to_first_hit_ms);
  std::printf("  replacement daemon: %.0f pcache hits, %.0f rehydrated "
              "results — %s\n",
              warm.pcache_hits, warm.rehydrated_results,
              warm_ok ? "ok" : "FAIL");

  const bool pass = window_ok && pipe_ok && warm_ok &&
                    errors <= total / 100 + 4;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
  } else {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"bench_service\",\n");
    std::fprintf(out, "  \"threads\": %zu,\n", threads);
    std::fprintf(out, "  \"duration_seconds\": %.3f,\n", wall);
    std::fprintf(out, "  \"requests\": %llu,\n", static_cast<unsigned long long>(total));
    std::fprintf(out, "  \"errors\": %llu,\n", static_cast<unsigned long long>(errors));
    std::fprintf(out, "  \"req_per_sec\": %.1f,\n", rps);
    std::fprintf(out, "  \"hit\": {\"count\": %zu, \"p50_ns\": %llu, \"p95_ns\": %llu, \"p99_ns\": %llu},\n",
                 hit.ns.size(), static_cast<unsigned long long>(hit.p50),
                 static_cast<unsigned long long>(hit.p95),
                 static_cast<unsigned long long>(hit.p99));
    std::fprintf(out, "  \"miss\": {\"count\": %zu, \"p50_ns\": %llu, \"p95_ns\": %llu, \"p99_ns\": %llu},\n",
                 miss.ns.size(), static_cast<unsigned long long>(miss.p50),
                 static_cast<unsigned long long>(miss.p95),
                 static_cast<unsigned long long>(miss.p99));
    std::fprintf(out, "  \"miss_p99_over_hit_p99\": %.2f,\n", ratio);
    std::fprintf(out, "  \"daemon_hit_p99_ns\": %.0f,\n", daemon_hit_p99);
    std::fprintf(out, "  \"window_p99_rel\": %.3f,\n", window_rel);
    std::fprintf(out, "  \"window_p99_gated\": %s,\n", window_gated ? "true" : "false");
    std::fprintf(out, "  \"window_p99_ok\": %s,\n", window_ok ? "true" : "false");
    std::fprintf(out, "  \"pipelined\": {\n");
    std::fprintf(out, "    \"depth\": 8,\n");
    std::fprintf(out, "    \"ping\": {\"serial_requests\": %llu, \"serial_req_per_sec\": %.1f, "
                 "\"pipelined_requests\": %llu, \"pipelined_req_per_sec\": %.1f, "
                 "\"speedup\": %.3f},\n",
                 static_cast<unsigned long long>(pipe.ping.serial_requests),
                 pipe.ping.serial_rps,
                 static_cast<unsigned long long>(pipe.ping.pipelined_requests),
                 pipe.ping.pipelined_rps, pipe.ping.speedup);
    std::fprintf(out, "    \"identify_hot\": {\"serial_requests\": %llu, \"serial_req_per_sec\": %.1f, "
                 "\"pipelined_requests\": %llu, \"pipelined_req_per_sec\": %.1f, "
                 "\"speedup\": %.3f},\n",
                 static_cast<unsigned long long>(pipe.ident.serial_requests),
                 pipe.ident.serial_rps,
                 static_cast<unsigned long long>(pipe.ident.pipelined_requests),
                 pipe.ident.pipelined_rps, pipe.ident.speedup);
    std::fprintf(out, "    \"errors\": %llu,\n",
                 static_cast<unsigned long long>(pipe.errors));
    std::fprintf(out, "    \"ok\": %s\n", pipe_ok ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"warm_restart\": {\n");
    std::fprintf(out, "    \"steady_hit_p99_ns\": %llu,\n",
                 static_cast<unsigned long long>(warm.steady_hit_p99_ns));
    std::fprintf(out, "    \"post_restart_hit_p99_ns\": %llu,\n",
                 static_cast<unsigned long long>(warm.post_hit_p99_ns));
    std::fprintf(out, "    \"p99_ratio\": %.3f,\n", warm.p99_ratio);
    std::fprintf(out, "    \"post_restart_hits\": %llu,\n",
                 static_cast<unsigned long long>(warm.post_hits));
    std::fprintf(out, "    \"success_rate\": %.6f,\n", warm.success_rate);
    std::fprintf(out, "    \"restart_to_first_hit_ms\": %.1f,\n",
                 warm.restart_to_first_hit_ms);
    std::fprintf(out, "    \"pcache_hits\": %.0f,\n", warm.pcache_hits);
    std::fprintf(out, "    \"rehydrated_results\": %.0f,\n",
                 warm.rehydrated_results);
    std::fprintf(out, "    \"ok\": %s\n", warm_ok ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"daemon_stats\": %s,\n", stats.c_str());
    std::fprintf(out, "  \"pass\": %s\n", pass ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
  }

  bench::obs_finish();
  if (errors > total / 100 + 4) {
    std::fprintf(stderr, "bench_service: error rate too high\n");
    return 1;
  }
  if (!window_ok) {
    std::fprintf(stderr,
                 "bench_service: daemon windowed hit p99 disagrees with the "
                 "client-side measurement by more than 2x\n");
    return 1;
  }
  if (!pipe_ok) {
    std::fprintf(stderr, "bench_service: pipelined speedup gate failed\n");
    return 1;
  }
  if (!warm_ok) {
    std::fprintf(stderr, "bench_service: warm-restart gate failed\n");
    return 1;
  }
  return 0;
}
