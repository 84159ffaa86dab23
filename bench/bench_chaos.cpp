// Chaos bench: proves the fault-tolerance layer end to end and emits
// BENCH_chaos.json. Three phases, each with hard gates (nonzero exit
// on violation, so CI can run this directly):
//
//   1. Failpoint sweep — every site in util::kFailpointSites is armed
//      in turn (error mode, seeded probability) against a live
//      in-process daemon while a retrying client drives mixed traffic.
//      Gate: zero unrecovered transport failures, and the combined
//      unrecovered rate (transport + structured errors that survive
//      app-level retry) stays under 1%. A second pass arms every site
//      in delay mode at once: latency only, zero errors allowed.
//
//   2. Kill storm — the daemon runs under service::supervise() as a
//      re-exec'ed child (`bench_chaos --serve`) with a persistent
//      cache segment, pinger threads hammer identify while the bench
//      SIGKILLs the serving child three times. Gates: exactly 3
//      restarts observed, client success rate >= 99.9% across the
//      storm, every successful response's function list is
//      bit-identical to the pre-crash baseline, and the surviving
//      daemon's stats prove the persistent layer actually served them
//      (pcache hits and rehydrated results both nonzero — post-restart
//      answers came off the segment, not from recomputation).
//
//   3. Overload flood — two handler slots (max_inflight=2) are pinned by
//      delay-mode decode failpoints while no-retry clients flood them.
//      Gates: structured `overloaded` rejects observed, zero raw
//      transport failures (shedding is always a frame, never a slammed
//      connection), daemon healthy afterwards. Then an EMFILE burst on
//      the accept path (svc.accept failpoint, bounded fires) must not
//      kill the accept loop: a fresh ping succeeds promptly.
//
//   4. Segment corruption — a daemon populates a persistent segment,
//      dies, and one byte of the newest record's payload is flipped on
//      disk. Gates: the restarted daemon detects the damage (corrupt
//      payload counted, tail truncated), keeps every earlier record,
//      serves answers bit-identical to the pre-corruption baseline
//      (rehydrating what survived, recomputing what did not), and the
//      re-verified segment recovers cleanly a second time.
//
// A watchdog thread gives the "zero hangs, zero deadlocks" claim
// teeth: if the whole bench overruns its deadline it _exit(3)s loudly
// instead of wedging CI.
//
//   bench_chaos [--kills N] [--sweep-requests N] [--out FILE]
//   bench_chaos --serve SOCKET [--serve-threads N] [--pcache PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/supervise.hpp"
#include "synth/corpus.hpp"
#include "util/failpoint.hpp"

using namespace fsr;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string identify_by_elf(const std::string& b64) {
  return "{\"op\":\"identify\",\"elf\":\"" + b64 + "\",\"tool\":\"funseeker\"}";
}

/// The `"functions": [...]` slice of an identify response. The array is
/// flat (hex addresses), so the first ']' closes it; comparing the raw
/// text is exactly the bit-identical check the crash gate wants.
std::string functions_of(const std::string& resp) {
  const auto pos = resp.find("\"functions\":");
  if (pos == std::string::npos) return {};
  const auto open = resp.find('[', pos);
  if (open == std::string::npos) return {};
  const auto close = resp.find(']', open);
  if (close == std::string::npos) return {};
  return resp.substr(open, close - open + 1);
}

std::string fresh_socket(const char* tag) {
  static std::atomic<unsigned> counter{0};
  return "/tmp/fsrd-chaos-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// ------------------------------------------------------------ watchdog

class Watchdog {
 public:
  explicit Watchdog(double seconds) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [this] { return done_; })) {
        std::fprintf(stderr,
                     "bench_chaos: WATCHDOG after %.0f s — a client hung or "
                     "the daemon deadlocked\n",
                     seconds);
        std::fflush(nullptr);
        ::_exit(3);
      }
    });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// ------------------------------------------------- phase 1: sweep

struct SweepTotals {
  std::uint64_t requests = 0;
  std::uint64_t transport_failures = 0;  // call() gave up entirely
  std::uint64_t structured_errors = 0;   // ok:false frames seen (retried)
  std::uint64_t unrecovered = 0;         // still failing after app retries
  std::uint64_t failpoint_fires = 0;
  std::uint64_t delay_pass_errors = 0;
};

service::ClientOptions sweep_client_opts() {
  service::ClientOptions c;
  c.max_attempts = 12;
  c.op_timeout_seconds = 2.0;
  c.total_budget_seconds = 12.0;
  c.backoff_base_ms = 2.0;
  c.backoff_max_ms = 50.0;
  return c;
}

/// Drive `requests` mixed requests at `sock` with app-level retry on
/// structured errors. Fresh client every 10 requests so accept/spawn
/// failpoints see new connections, not just a warm one.
void drive_traffic(const std::string& sock, int requests,
                   const std::vector<std::string>& hot,
                   const std::vector<std::vector<std::uint8_t>>& templates,
                   unsigned salt, SweepTotals& totals) {
  auto client = std::make_unique<service::Client>(sweep_client_opts());
  client->connect(sock);  // failure is fine: call() retries via the path
  for (int i = 0; i < requests; ++i) {
    if (i % 10 == 0) {
      client = std::make_unique<service::Client>(sweep_client_opts());
      client->connect(sock);
    }
    std::string req;
    if (i % 5 == 0) {
      req = "{\"op\":\"ping\"}";
    } else if (i % 5 == 1) {
      // Unique trailer -> cold path (decode + cache insert under fire).
      std::vector<std::uint8_t> cold = templates[i % templates.size()];
      char trailer[32];
      const int n =
          std::snprintf(trailer, sizeof trailer, "#%u:%d", salt, i);
      cold.insert(cold.end(), trailer, trailer + n);
      req = identify_by_elf(service::b64_encode(cold));
    } else {
      req = hot[i % hot.size()];
    }

    ++totals.requests;
    bool done = false;
    for (int attempt = 0; attempt < 8 && !done; ++attempt) {
      const auto resp = client->call(req);
      if (!resp.has_value()) {
        ++totals.transport_failures;
        break;
      }
      const auto parsed = obs::json_parse(*resp);
      if (parsed.has_value() && parsed->get_bool("ok", false)) {
        done = true;
      } else {
        // Structured reject (failpoint-induced analysis error or an
        // overload frame). Retry at the app level like a real caller.
        ++totals.structured_errors;
      }
    }
    if (!done) ++totals.unrecovered;
  }
}

/// One registered site -> the error-mode spec the sweep arms for it.
/// Frame-level sites use retryable errnos (that is what a real torn
/// connection produces); exhaustive by construction — a new site in
/// kFailpointSites without an entry here fails the bench loudly.
const char* sweep_spec_for(std::string_view site) {
  if (site == "svc.read_frame") return "svc.read_frame:0.08:error-ECONNRESET";
  if (site == "svc.write_frame") return "svc.write_frame:0.08:error-ECONNRESET";
  if (site == "svc.accept") return "svc.accept:0.25:error-EMFILE";
  if (site == "svc.spawn") return "svc.spawn:0.25:error";
  if (site == "cache.insert_image") return "cache.insert_image:0.4:error";
  if (site == "cache.insert_result") return "cache.insert_result:0.4:error";
  if (site == "cache.build_image") return "cache.build_image:0.3:error";
  if (site == "eval.decode") return "eval.decode:0.3:error";
  if (site == "pcache.write") return "pcache.write:0.4:error";
  return nullptr;
}

bool run_sweep(int requests_per_site,
               const std::vector<std::vector<std::uint8_t>>& templates,
               SweepTotals& totals) {
  unsigned salt = 0;
  for (const std::string_view site : util::kFailpointSites) {
    const char* spec = sweep_spec_for(site);
    if (spec == nullptr) {
      std::fprintf(stderr,
                   "bench_chaos: site '%.*s' has no sweep spec — update "
                   "sweep_spec_for alongside kFailpointSites\n",
                   static_cast<int>(site.size()), site.data());
      return false;
    }

    service::ServerOptions opts;
    opts.socket_path = fresh_socket("sweep");
    opts.threads = 2;
    // Every sweep daemon writes through to a persistent segment so the
    // pcache.write site has real traffic to fire on.
    const std::string pcache = opts.socket_path + ".pcache";
    opts.service.pcache_path = pcache;
    opts.service.pcache_bytes = std::size_t{32} << 20;
    service::Server server(std::move(opts));
    server.start();

    // Warm before arming: the failpoints under test fire on the
    // traffic, not on setup.
    std::vector<std::string> hot;
    for (const auto& bytes : templates)
      hot.push_back(identify_by_elf(service::b64_encode(bytes)));
    {
      service::Client warm(sweep_client_opts());
      warm.connect(server.socket_path());
      for (const auto& req : hot)
        if (!warm.call(req).has_value()) {
          std::fprintf(stderr, "bench_chaos: warmup failed for %s\n", spec);
          return false;
        }
    }

    std::string error;
    if (!util::configure_failpoints(spec, &error)) {
      std::fprintf(stderr, "bench_chaos: bad spec '%s': %s\n", spec,
                   error.c_str());
      return false;
    }
    drive_traffic(server.socket_path(), requests_per_site, hot, templates,
                  salt++, totals);
    totals.failpoint_fires += util::failpoint_fires();
    util::clear_failpoints();

    server.stop();
    server.wait();
    ::unlink(pcache.c_str());
    ::unlink((pcache + ".tmp").c_str());
  }

  // Delay pass: every site at once, latency only. Any error here means
  // a delay-mode failpoint leaked into a failure path.
  {
    std::string all;
    for (const std::string_view site : util::kFailpointSites) {
      if (!all.empty()) all += ",";
      all += std::string(site) + ":0.25:delay-10";
    }
    service::ServerOptions opts;
    opts.socket_path = fresh_socket("delay");
    opts.threads = 2;
    const std::string pcache = opts.socket_path + ".pcache";
    opts.service.pcache_path = pcache;
    opts.service.pcache_bytes = std::size_t{32} << 20;
    service::Server server(std::move(opts));
    server.start();

    std::vector<std::string> hot;
    for (const auto& bytes : templates)
      hot.push_back(identify_by_elf(service::b64_encode(bytes)));

    std::string error;
    if (!util::configure_failpoints(all, &error)) {
      std::fprintf(stderr, "bench_chaos: delay spec rejected: %s\n",
                   error.c_str());
      return false;
    }
    SweepTotals delay_totals;
    drive_traffic(server.socket_path(), 40, hot, templates, 999, delay_totals);
    util::clear_failpoints();
    totals.delay_pass_errors =
        delay_totals.transport_failures + delay_totals.unrecovered;
    totals.requests += delay_totals.requests;

    server.stop();
    server.wait();
    ::unlink(pcache.c_str());
    ::unlink((pcache + ".tmp").c_str());
  }
  return true;
}

// ------------------------------------------- phase 2: kill storm

struct StormResult {
  std::uint64_t ok = 0;
  std::uint64_t failures = 0;
  std::uint64_t mismatches = 0;
  int kills = 0;
  int restarts = 0;
  bool supervisor_returned = false;
  bool clean_exit = false;
  // From the last surviving daemon's stats: proof the storm's
  // post-restart answers came off the persistent segment.
  double pcache_hits = 0.0;
  double rehydrated_results = 0.0;
};

long read_pid_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1;
  long pid = -1;
  if (std::fscanf(f, "%ld", &pid) != 1) pid = -1;
  std::fclose(f);
  return pid;
}

bool run_storm(int kills, const std::vector<std::uint8_t>& binary,
               StormResult& out) {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) {
    std::fprintf(stderr, "bench_chaos: cannot resolve /proc/self/exe\n");
    return false;
  }
  exe[n] = '\0';

  const std::string sock = fresh_socket("storm");
  const std::string pid_file = sock + ".pid";
  const std::string pcache = sock + ".pcache";
  out.kills = kills;

  // argv for the re-exec'ed serving child, built before any fork so the
  // post-fork path is execv + _exit only (async-signal-safe). Every
  // respawn reopens the same persistent segment.
  std::vector<std::string> arg_store = {exe,  "--serve", sock, "--serve-threads",
                                        "2",  "--pcache", pcache};
  std::vector<char*> argv;
  for (auto& a : arg_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  service::SuperviseOptions sup;
  sup.max_restarts = kills + 2;  // headroom: only the forced kills expected
  sup.window_seconds = 120.0;
  sup.backoff_base_ms = 40.0;
  sup.backoff_max_ms = 400.0;
  sup.pid_file = pid_file;
  sup.quiet = true;

  std::atomic<bool> sup_done{false};
  service::SuperviseResult sup_result;
  std::thread supervisor([&] {
    sup_result = service::supervise(
        [&argv](int) -> int {
          ::execv(argv[0], argv.data());
          ::_exit(127);
        },
        sup);
    sup_done.store(true);
  });

  // Wait for the first child to listen.
  const std::string hot = identify_by_elf(service::b64_encode(binary));
  std::string baseline;
  {
    service::ClientOptions c;
    c.max_attempts = 40;
    c.op_timeout_seconds = 2.0;
    c.total_budget_seconds = 20.0;
    c.backoff_base_ms = 20.0;
    c.backoff_max_ms = 200.0;
    service::Client boot(c);
    boot.connect(sock);  // likely refused pre-listen; call() retries
    const auto resp = boot.call(hot);
    if (!resp.has_value()) {
      std::fprintf(stderr, "bench_chaos: supervised daemon never came up\n");
      return false;
    }
    baseline = functions_of(*resp);
    if (baseline.empty()) {
      std::fprintf(stderr, "bench_chaos: baseline has no functions array\n");
      return false;
    }
  }

  // Pingers: identify the same bytes throughout the storm. The cache
  // dies with every SIGKILL, so post-restart responses are fresh
  // recomputations — they must match the baseline bit for bit.
  std::atomic<bool> stop{false};
  constexpr int kPingers = 3;
  struct PingerStats {
    std::uint64_t ok = 0, failures = 0, mismatches = 0;
  };
  std::vector<PingerStats> stats(kPingers);
  std::vector<std::thread> pingers;
  for (int t = 0; t < kPingers; ++t) {
    pingers.emplace_back([&, t] {
      service::ClientOptions c;
      c.max_attempts = 15;
      c.op_timeout_seconds = 2.0;
      c.total_budget_seconds = 10.0;
      c.backoff_base_ms = 15.0;
      c.backoff_max_ms = 150.0;
      c.backoff_seed = 100 + static_cast<std::uint64_t>(t);
      service::Client client(c);
      client.connect(sock);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto resp = client.call(hot);
        if (!resp.has_value()) {
          ++stats[t].failures;
          continue;
        }
        const auto parsed = obs::json_parse(*resp);
        if (!parsed.has_value() || !parsed->get_bool("ok", false)) {
          ++stats[t].failures;
          continue;
        }
        if (functions_of(*resp) != baseline) ++stats[t].mismatches;
        ++stats[t].ok;
      }
    });
  }

  // The storm proper: SIGKILL the serving child, wait for the
  // supervisor to put a fresh pid in the pid file, let the pingers
  // hammer the replacement, repeat.
  bool storm_ok = true;
  for (int k = 0; k < kills && storm_ok; ++k) {
    long pid = -1;
    const auto t0 = Clock::now();
    while ((pid = read_pid_file(pid_file)) <= 0 && seconds_since(t0) < 10.0)
      ::usleep(5000);
    if (pid <= 0) {
      std::fprintf(stderr, "bench_chaos: no pid file before kill %d\n", k + 1);
      storm_ok = false;
      break;
    }
    ::kill(static_cast<pid_t>(pid), SIGKILL);

    long fresh = -1;
    const auto t1 = Clock::now();
    while (seconds_since(t1) < 10.0) {
      fresh = read_pid_file(pid_file);
      if (fresh > 0 && fresh != pid) break;
      fresh = -1;
      ::usleep(5000);
    }
    if (fresh <= 0) {
      std::fprintf(stderr, "bench_chaos: no restart observed after kill %d\n",
                   k + 1);
      storm_ok = false;
      break;
    }
    // Let the pingers exercise the fresh daemon (cold cache) a while.
    ::usleep(300 * 1000);
  }

  stop.store(true);
  for (auto& p : pingers) p.join();

  // The last child is still serving: its stats must show the hot
  // content coming off the persistent segment (a hit on reopen plus
  // results rehydrated into the memory LRU) — bit-identity above plus
  // these counters is the "served from the persistent layer" proof.
  {
    service::ClientOptions c;
    c.max_attempts = 10;
    c.op_timeout_seconds = 2.0;
    c.total_budget_seconds = 8.0;
    service::Client probe(c);
    probe.connect(sock);
    const auto resp = probe.call("{\"op\":\"stats\"}");
    if (resp.has_value()) {
      const auto parsed = obs::json_parse(*resp);
      if (parsed.has_value() && parsed->is_object()) {
        if (const obs::JsonValue* pc = parsed->find("pcache"); pc != nullptr) {
          const obs::JsonValue* hits = pc->find("hits");
          const obs::JsonValue* rehydrated = pc->find("rehydrated_results");
          if (hits != nullptr) out.pcache_hits = hits->as_number(0);
          if (rehydrated != nullptr)
            out.rehydrated_results = rehydrated->as_number(0);
        }
      }
    }
  }

  // Graceful end: ask the daemon to shut down; a clean exit 0 ends the
  // supervise loop. Retried manually because `shutdown` is the one
  // non-idempotent op.
  for (int i = 0; i < 40 && !sup_done.load(); ++i) {
    service::ClientOptions c;
    c.op_timeout_seconds = 1.0;
    service::Client killer(c);
    if (killer.connect(sock)) killer.request("{\"op\":\"shutdown\"}");
    for (int j = 0; j < 25 && !sup_done.load(); ++j) ::usleep(10 * 1000);
  }
  out.supervisor_returned = sup_done.load();
  if (!out.supervisor_returned) {
    // Last resort so the bench exits rather than wedging: signal our own
    // process group? No — just report; the watchdog enforces the exit.
    std::fprintf(stderr, "bench_chaos: supervisor never returned\n");
    supervisor.detach();
    return false;
  }
  supervisor.join();

  for (const auto& p : stats) {
    out.ok += p.ok;
    out.failures += p.failures;
    out.mismatches += p.mismatches;
  }
  out.restarts = sup_result.restarts;
  out.clean_exit = !sup_result.gave_up && sup_result.exit_code == 0;
  ::unlink(pcache.c_str());
  ::unlink((pcache + ".tmp").c_str());
  return storm_ok;
}

// ---------------------------------------- phase 3: overload flood

struct FloodResult {
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t other_errors = 0;
  std::uint64_t transport_failures = 0;
  bool healthy_after = false;
  double emfile_recovery_ms = -1.0;
  std::uint64_t emfile_retries = 0;
  bool emfile_recovered = false;
};

bool run_flood(const std::vector<std::vector<std::uint8_t>>& templates,
               FloodResult& out) {
  service::ServerOptions opts;
  opts.socket_path = fresh_socket("flood");
  opts.threads = 2;
  opts.max_inflight = 2;
  opts.max_connections = 64;
  service::Server server(std::move(opts));
  server.start();
  const std::string sock = server.socket_path();

  // Pin both slots: every decode sleeps 120 ms, so two in-flight cold
  // identifies occupy the whole inflight budget and the flood must be
  // answered with structured `overloaded` frames.
  std::string error;
  if (!util::configure_failpoints("eval.decode:1:delay-120", &error)) {
    std::fprintf(stderr, "bench_chaos: flood spec rejected: %s\n", error.c_str());
    return false;
  }

  constexpr int kFlooders = 8;
  std::atomic<bool> stop{false};
  struct FloodStats {
    std::uint64_t ok = 0, overloaded = 0, other = 0, transport = 0;
  };
  std::vector<FloodStats> stats(kFlooders);
  {
    std::vector<std::thread> flooders;
    for (int t = 0; t < kFlooders; ++t) {
      flooders.emplace_back([&, t] {
        service::ClientOptions c;
        c.op_timeout_seconds = 5.0;  // deadline, not retry: max_attempts=1
        service::Client client(c);
        client.connect(sock);
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          std::vector<std::uint8_t> cold = templates[seq % templates.size()];
          char trailer[32];
          const int n = std::snprintf(trailer, sizeof trailer, "!%d:%llu", t,
                                      static_cast<unsigned long long>(seq));
          cold.insert(cold.end(), trailer, trailer + n);
          ++seq;
          const auto resp =
              client.call(identify_by_elf(service::b64_encode(cold)));
          if (!resp.has_value()) {
            ++stats[t].transport;
            client.connect(sock);
            continue;
          }
          const auto parsed = obs::json_parse(*resp);
          if (!parsed.has_value()) {
            ++stats[t].transport;  // unparseable frame counts as torn
          } else if (parsed->get_bool("ok", false)) {
            ++stats[t].ok;
          } else if (parsed->get_string("code") == "overloaded") {
            ++stats[t].overloaded;
          } else {
            ++stats[t].other;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    stop.store(true);
    for (auto& f : flooders) f.join();
  }
  util::clear_failpoints();

  for (const auto& s : stats) {
    out.ok += s.ok;
    out.overloaded += s.overloaded;
    out.other_errors += s.other;
    out.transport_failures += s.transport;
  }

  // The daemon must be fully healthy once the flood stops.
  {
    service::ClientOptions c;
    c.max_attempts = 5;
    c.op_timeout_seconds = 2.0;
    c.backoff_base_ms = 10.0;
    service::Client probe(c);
    out.healthy_after = probe.connect(sock) &&
                        probe.call("{\"op\":\"ping\"}").has_value() &&
                        probe.call("{\"op\":\"stats\"}").has_value();
  }

  // EMFILE burst: the accept loop eats a bounded run of fd-exhaustion
  // errors (shedding idle connections and backing off) and keeps
  // serving — a fresh client must get through promptly, not hang.
  {
    const double retries_before = obs::counter("svc.accept_retries").value();
    if (!util::configure_failpoints("svc.accept:1:error-EMFILE:6", &error)) {
      std::fprintf(stderr, "bench_chaos: emfile spec rejected: %s\n",
                   error.c_str());
      return false;
    }
    service::ClientOptions c;
    c.max_attempts = 10;
    c.op_timeout_seconds = 2.0;
    c.total_budget_seconds = 8.0;
    c.backoff_base_ms = 5.0;
    service::Client client(c);
    client.connect(sock);
    const auto t0 = Clock::now();
    const auto resp = client.call("{\"op\":\"ping\"}");
    out.emfile_recovery_ms = seconds_since(t0) * 1e3;
    util::clear_failpoints();
    out.emfile_retries = static_cast<std::uint64_t>(
        obs::counter("svc.accept_retries").value() - retries_before);
    out.emfile_recovered = resp.has_value() && out.emfile_recovery_ms < 3000.0;
  }

  server.stop();
  server.wait();
  return true;
}

// ------------------------------------- phase 4: segment corruption

struct CorruptResult {
  bool populated = false;
  bool detected = false;        // recovery counted the damaged payload
  bool answers_match = false;   // every key still answers the baseline
  bool rehydrated = false;      // surviving records actually served
  bool clean_rerecovery = false;
  double torn_truncations = 0.0;
  double corrupt_payloads = 0.0;
  double records_after = 0.0;
};

/// Flip one byte 9 bytes before EOF: record payloads are padded to 8
/// bytes, so the final 8 bytes may be padding the checksum ignores —
/// offset -9 is always inside the newest record's checksummed payload.
bool flip_tail_byte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  bool ok = false;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size >= 9 && std::fseek(f, size - 9, SEEK_SET) == 0) {
      const int c = std::fgetc(f);
      if (c != EOF && std::fseek(f, size - 9, SEEK_SET) == 0)
        ok = std::fputc(c ^ 0xff, f) != EOF;
    }
  }
  std::fclose(f);
  return ok;
}

const obs::JsonValue* stats_pcache(const std::optional<std::string>& resp,
                                   std::optional<obs::JsonValue>& parsed) {
  if (!resp.has_value()) return nullptr;
  parsed = obs::json_parse(*resp);
  if (!parsed.has_value() || !parsed->is_object()) return nullptr;
  return parsed->find("pcache");
}

bool run_corruption(const std::vector<std::vector<std::uint8_t>>& templates,
                    CorruptResult& out) {
  const std::string pcache = fresh_socket("corrupt-seg") + ".pcache";
  service::ClientOptions copts;
  copts.max_attempts = 5;
  copts.op_timeout_seconds = 5.0;

  auto make_opts = [&] {
    service::ServerOptions opts;
    opts.socket_path = fresh_socket("corrupt");
    opts.threads = 2;
    opts.service.pcache_path = pcache;
    opts.service.pcache_bytes = std::size_t{32} << 20;
    return opts;
  };

  std::vector<std::string> keys;
  std::vector<std::string> baselines;

  // Life 1: populate the segment, capture per-content baselines.
  {
    service::Server server(make_opts());
    server.start();
    service::Client client(copts);
    if (!client.connect(server.socket_path())) return false;
    for (const auto& bytes : templates) {
      const auto resp =
          client.call(identify_by_elf(service::b64_encode(bytes)));
      if (!resp.has_value()) return false;
      const auto parsed = obs::json_parse(*resp);
      if (!parsed.has_value() || !parsed->get_bool("ok", false)) return false;
      keys.push_back(parsed->get_string("key"));
      baselines.push_back(functions_of(*resp));
      if (keys.back().empty() || baselines.back().empty()) return false;
    }
    server.stop();
    server.wait();
  }
  out.populated = true;

  // The bit rot, while no daemon is looking.
  if (!flip_tail_byte(pcache)) return false;

  // Life 2: recovery at open must count the damage and truncate the
  // tail; the earlier records survive and every key must still answer
  // the baseline (rehydrated where the record lives, recomputed from
  // the surviving raw image where it was lost).
  {
    service::Server server(make_opts());
    server.start();
    service::Client client(copts);
    if (!client.connect(server.socket_path())) return false;

    std::optional<obs::JsonValue> parsed;
    const obs::JsonValue* pc = stats_pcache(client.call("{\"op\":\"stats\"}"), parsed);
    if (pc == nullptr) return false;
    const obs::JsonValue* corrupt = pc->find("corrupt_payloads");
    const obs::JsonValue* torn = pc->find("torn_truncations");
    out.corrupt_payloads = corrupt != nullptr ? corrupt->as_number(0) : 0.0;
    out.torn_truncations = torn != nullptr ? torn->as_number(0) : 0.0;
    out.detected = out.corrupt_payloads + out.torn_truncations >= 1.0;

    out.answers_match = true;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto resp = client.call("{\"op\":\"identify\",\"key\":\"" + keys[i] +
                                    "\",\"tool\":\"funseeker\"}");
      if (!resp.has_value()) return false;
      const auto r = obs::json_parse(*resp);
      if (!r.has_value() || !r->get_bool("ok", false) ||
          functions_of(*resp) != baselines[i])
        out.answers_match = false;
    }

    std::optional<obs::JsonValue> parsed2;
    const obs::JsonValue* pc2 =
        stats_pcache(client.call("{\"op\":\"stats\"}"), parsed2);
    if (pc2 != nullptr) {
      const obs::JsonValue* rehydrated = pc2->find("rehydrated_results");
      // With a single template its only result record was the damaged
      // one — nothing left to rehydrate — so only gate with >= 2.
      out.rehydrated =
          keys.size() < 2 ||
          (rehydrated != nullptr && rehydrated->as_number(0) >= 1.0);
    }
    server.stop();
    server.wait();
  }

  // Life 3: the truncated-and-repaired segment recovers with zero
  // complaints — the corruption was excised, not papered over.
  {
    service::Server server(make_opts());
    server.start();
    service::Client client(copts);
    if (!client.connect(server.socket_path())) return false;
    std::optional<obs::JsonValue> parsed;
    const obs::JsonValue* pc = stats_pcache(client.call("{\"op\":\"stats\"}"), parsed);
    if (pc != nullptr) {
      const obs::JsonValue* corrupt = pc->find("corrupt_payloads");
      const obs::JsonValue* torn = pc->find("torn_truncations");
      const obs::JsonValue* records = pc->find("records");
      out.records_after = records != nullptr ? records->as_number(0) : 0.0;
      out.clean_rerecovery =
          (corrupt == nullptr || corrupt->as_number(0) == 0.0) &&
          (torn == nullptr || torn->as_number(0) == 0.0) &&
          out.records_after >= 1.0;
    }
    server.stop();
    server.wait();
  }

  ::unlink(pcache.c_str());
  ::unlink((pcache + ".tmp").c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Internal mode: the supervised child. Parsed before obs so the
  // serving process is a plain daemon, not a bench.
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
      std::fprintf(stderr, "bench_chaos --serve: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  argc = bench::obs_init(argc, argv);
  int kills = 3;
  int sweep_requests = 48;
  std::string out_path = "BENCH_chaos.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_chaos: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--kills") kills = std::atoi(value());
    else if (arg == "--sweep-requests") sweep_requests = std::atoi(value());
    else if (arg == "--out") out_path = value();
    else {
      std::fprintf(stderr,
                   "usage: bench_chaos [--kills N] [--sweep-requests N] "
                   "[--out FILE]\n");
      return 2;
    }
  }
  if (kills < 1) kills = 1;
  if (sweep_requests < 10) sweep_requests = 10;

  Watchdog watchdog(240.0);
  util::set_failpoint_seed(0x9e3779b97f4a7c15ULL);

  // Two small-ish x64 templates keep cold identifies cheap enough for
  // CI while still exercising the full parse + decode + cache path.
  std::vector<std::vector<std::uint8_t>> templates;
  {
    std::vector<std::vector<std::uint8_t>> all;
    for (const auto& cfg : bench::corpus()) {
      if (cfg.machine == elf::Machine::kArm64) continue;
      all.push_back(synth::cached_binary(cfg)->stripped_bytes());
    }
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
    for (std::size_t i = 0; i < all.size() && templates.size() < 2; ++i)
      templates.push_back(std::move(all[i]));
  }
  if (templates.empty()) {
    std::fprintf(stderr, "bench_chaos: empty corpus\n");
    return 1;
  }

  const auto bench_start = Clock::now();

  std::printf("bench_chaos: phase 1 — failpoint sweep over %zu sites, %d "
              "requests each\n",
              util::kFailpointSiteCount, sweep_requests);
  SweepTotals sweep;
  const bool sweep_ran = run_sweep(sweep_requests, templates, sweep);
  const bool sweep_ok =
      sweep_ran && sweep.transport_failures == 0 &&
      sweep.delay_pass_errors == 0 &&
      sweep.unrecovered <= std::max<std::uint64_t>(1, sweep.requests / 100);
  std::printf("  %llu requests, %llu failpoint fires, %llu structured errors "
              "retried, %llu unrecovered, %llu transport failures — %s\n",
              static_cast<unsigned long long>(sweep.requests),
              static_cast<unsigned long long>(sweep.failpoint_fires),
              static_cast<unsigned long long>(sweep.structured_errors),
              static_cast<unsigned long long>(sweep.unrecovered),
              static_cast<unsigned long long>(sweep.transport_failures),
              sweep_ok ? "ok" : "FAIL");

  std::printf("bench_chaos: phase 2 — kill storm (%d SIGKILLs under "
              "supervision)\n",
              kills);
  StormResult storm;
  const bool storm_ran = run_storm(kills, templates[0], storm);
  const std::uint64_t storm_total = storm.ok + storm.failures;
  const double success_rate =
      storm_total > 0 ? static_cast<double>(storm.ok) /
                            static_cast<double>(storm_total)
                      : 0.0;
  const bool storm_ok = storm_ran && storm.supervisor_returned &&
                        storm.clean_exit && storm.restarts == kills &&
                        storm.mismatches == 0 && storm_total > 0 &&
                        success_rate >= 0.999 && storm.pcache_hits >= 1.0 &&
                        storm.rehydrated_results >= 1.0;
  std::printf("  %d kills -> %d restarts, %llu/%llu client calls ok "
              "(%.4f%%), %llu mismatches, clean exit %s\n",
              storm.kills, storm.restarts,
              static_cast<unsigned long long>(storm.ok),
              static_cast<unsigned long long>(storm_total),
              success_rate * 100.0,
              static_cast<unsigned long long>(storm.mismatches),
              storm.clean_exit ? "yes" : "NO");
  std::printf("  persistent layer: %.0f pcache hits, %.0f rehydrated results "
              "in the surviving daemon — %s\n",
              storm.pcache_hits, storm.rehydrated_results,
              storm_ok ? "ok" : "FAIL");

  std::printf("bench_chaos: phase 3 — overload flood + EMFILE burst\n");
  FloodResult flood;
  const bool flood_ran = run_flood(templates, flood);
  const bool flood_ok = flood_ran && flood.overloaded >= 10 &&
                        flood.transport_failures == 0 && flood.ok >= 1 &&
                        flood.healthy_after && flood.emfile_recovered &&
                        flood.emfile_retries >= 6;
  std::printf("  %llu ok, %llu overloaded rejects, %llu transport failures, "
              "healthy after: %s; EMFILE burst absorbed in %.0f ms "
              "(%llu accept retries) — %s\n",
              static_cast<unsigned long long>(flood.ok),
              static_cast<unsigned long long>(flood.overloaded),
              static_cast<unsigned long long>(flood.transport_failures),
              flood.healthy_after ? "yes" : "NO", flood.emfile_recovery_ms,
              static_cast<unsigned long long>(flood.emfile_retries),
              flood_ok ? "ok" : "FAIL");

  std::printf("bench_chaos: phase 4 — persistent-segment corruption "
              "(flipped payload byte)\n");
  CorruptResult corrupt;
  const bool corrupt_ran = run_corruption(templates, corrupt);
  const bool corrupt_ok = corrupt_ran && corrupt.populated &&
                          corrupt.detected && corrupt.answers_match &&
                          corrupt.rehydrated && corrupt.clean_rerecovery;
  std::printf("  damage detected (%.0f corrupt, %.0f torn), answers %s "
              "baseline, rehydration %s, clean re-recovery with %.0f "
              "records — %s\n",
              corrupt.corrupt_payloads, corrupt.torn_truncations,
              corrupt.answers_match ? "match" : "DIVERGE from",
              corrupt.rehydrated ? "observed" : "MISSING",
              corrupt.records_after, corrupt_ok ? "ok" : "FAIL");

  const double wall = seconds_since(bench_start);
  const bool pass = sweep_ok && storm_ok && flood_ok && corrupt_ok;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
  } else {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"bench_chaos\",\n");
    std::fprintf(out, "  \"duration_seconds\": %.2f,\n", wall);
    std::fprintf(out, "  \"sweep\": {\n");
    std::fprintf(out, "    \"sites\": %zu,\n", util::kFailpointSiteCount);
    std::fprintf(out, "    \"requests\": %llu,\n",
                 static_cast<unsigned long long>(sweep.requests));
    std::fprintf(out, "    \"failpoint_fires\": %llu,\n",
                 static_cast<unsigned long long>(sweep.failpoint_fires));
    std::fprintf(out, "    \"structured_errors_retried\": %llu,\n",
                 static_cast<unsigned long long>(sweep.structured_errors));
    std::fprintf(out, "    \"unrecovered\": %llu,\n",
                 static_cast<unsigned long long>(sweep.unrecovered));
    std::fprintf(out, "    \"transport_failures\": %llu,\n",
                 static_cast<unsigned long long>(sweep.transport_failures));
    std::fprintf(out, "    \"delay_pass_errors\": %llu,\n",
                 static_cast<unsigned long long>(sweep.delay_pass_errors));
    std::fprintf(out, "    \"ok\": %s\n", sweep_ok ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"kill_storm\": {\n");
    std::fprintf(out, "    \"kills\": %d,\n", storm.kills);
    std::fprintf(out, "    \"restarts\": %d,\n", storm.restarts);
    std::fprintf(out, "    \"client_calls\": %llu,\n",
                 static_cast<unsigned long long>(storm_total));
    std::fprintf(out, "    \"client_failures\": %llu,\n",
                 static_cast<unsigned long long>(storm.failures));
    std::fprintf(out, "    \"success_rate\": %.6f,\n", success_rate);
    std::fprintf(out, "    \"result_mismatches\": %llu,\n",
                 static_cast<unsigned long long>(storm.mismatches));
    std::fprintf(out, "    \"clean_exit\": %s,\n",
                 storm.clean_exit ? "true" : "false");
    std::fprintf(out, "    \"pcache_hits\": %.0f,\n", storm.pcache_hits);
    std::fprintf(out, "    \"rehydrated_results\": %.0f,\n",
                 storm.rehydrated_results);
    std::fprintf(out, "    \"ok\": %s\n", storm_ok ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"overload\": {\n");
    std::fprintf(out, "    \"ok_responses\": %llu,\n",
                 static_cast<unsigned long long>(flood.ok));
    std::fprintf(out, "    \"overloaded_rejects\": %llu,\n",
                 static_cast<unsigned long long>(flood.overloaded));
    std::fprintf(out, "    \"other_errors\": %llu,\n",
                 static_cast<unsigned long long>(flood.other_errors));
    std::fprintf(out, "    \"transport_failures\": %llu,\n",
                 static_cast<unsigned long long>(flood.transport_failures));
    std::fprintf(out, "    \"healthy_after\": %s,\n",
                 flood.healthy_after ? "true" : "false");
    std::fprintf(out, "    \"emfile_recovery_ms\": %.0f,\n",
                 flood.emfile_recovery_ms);
    std::fprintf(out, "    \"emfile_accept_retries\": %llu,\n",
                 static_cast<unsigned long long>(flood.emfile_retries));
    std::fprintf(out, "    \"ok\": %s\n", flood_ok ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"corruption\": {\n");
    std::fprintf(out, "    \"detected\": %s,\n",
                 corrupt.detected ? "true" : "false");
    std::fprintf(out, "    \"corrupt_payloads\": %.0f,\n",
                 corrupt.corrupt_payloads);
    std::fprintf(out, "    \"torn_truncations\": %.0f,\n",
                 corrupt.torn_truncations);
    std::fprintf(out, "    \"answers_match_baseline\": %s,\n",
                 corrupt.answers_match ? "true" : "false");
    std::fprintf(out, "    \"rehydrated_from_survivors\": %s,\n",
                 corrupt.rehydrated ? "true" : "false");
    std::fprintf(out, "    \"clean_rerecovery\": %s,\n",
                 corrupt.clean_rerecovery ? "true" : "false");
    std::fprintf(out, "    \"records_after\": %.0f,\n", corrupt.records_after);
    std::fprintf(out, "    \"ok\": %s\n", corrupt_ok ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"pass\": %s\n", pass ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
  }

  bench::obs_finish();
  if (!pass) {
    std::fprintf(stderr, "bench_chaos: FAILED (see gates above)\n");
    return 1;
  }
  std::printf("bench_chaos: all gates passed in %.1f s\n", wall);
  return 0;
}
