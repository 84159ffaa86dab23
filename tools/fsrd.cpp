// fsrd — persistent analysis daemon for the FunSeeker reproduction.
//
//   fsrd --socket /run/fsrd.sock [--threads N] [--cache-mb N]
//        [--time-budget SECONDS] [--supervise]
//
// Listens on a Unix-domain socket for length-prefixed JSON requests
// (identify / compare / disasm / stats / metrics / tail / ping /
// shutdown — see src/service/proto.hpp for the framing and field
// reference) and serves them out of a content-addressed analysis
// cache: repeated queries against the same ELF bytes skip parsing and
// decoding entirely. SIGINT/SIGTERM drain in-flight requests and flush
// the configured obs artifacts before exiting.
//
// --supervise runs the daemon crash-only: a thin parent forks the
// daemon body, reaps it, and restarts crashed children with capped
// exponential backoff under a restart budget (--restart-limit within
// --restart-window seconds, then give up loudly). The parent stays
// thread-free and obs-free — all observability wiring happens in the
// child, after the fork — so a SIGKILLed child can never leave the
// supervisor holding a poisoned lock.
//
// The structured event log is always on (in-memory rings, so `tail`
// and slow-request dumps work out of the box); --log-out streams it to
// a JSONL file. `fsrtop --socket ...` renders the live stats.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/eventlog.hpp"
#include "obs/obs.hpp"
#include "service/server.hpp"
#include "service/supervise.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/version.hpp"

using namespace fsr;

namespace {

[[noreturn]] void usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: fsrd --socket PATH [options]\n"
               "  --socket PATH        Unix-domain socket to listen on (required)\n"
               "  --threads N          requests executing at once, daemon-wide (default: REPRO_THREADS or cores)\n"
               "  --cache-mb N         analysis cache budget in MiB (default: REPRO_CACHE_MB or 768)\n"
               "  --pcache-path PATH   persistent cache segment file (survives restarts; off by default)\n"
               "  --pcache-mb N        persistent cache budget in MiB (default: 256)\n"
               "  --time-budget SEC    per-request deadline (default: REPRO_TIME_BUDGET or unlimited)\n"
               "  --slow-ms N          dump a slow-request event past N milliseconds (default: 0 = off;\n"
               "                       deadline-expired requests always dump)\n"
               "  --max-inflight N     shed past N requests running or waiting to run (default: 128; 0 = unlimited)\n"
               "  --max-connections N  shed connections past N (default: 256; 0 = unlimited)\n"
               "  --write-timeout SEC  drop clients that stall writes this long (default: 30; 0 = never)\n"
               "  --pid-file PATH      write the serving pid after startup (rewritten per restart)\n"
               "supervision (crash-only restart loop):\n"
               "  --supervise          fork the daemon and restart it when it crashes\n"
               "  --restart-limit N    give up past N restarts per window (default: 5)\n"
               "  --restart-window SEC restart-budget window (default: 60)\n"
               "fault injection (chaos testing):\n"
               "  REPRO_FAILPOINTS=name:prob:mode[:count],...   arm failpoints in the daemon\n"
               "  REPRO_FAILPOINT_SEED=N                        seed the probability rolls\n"
               "  --version            print version and exit\n"
               "  --help               this text\n"
               "observability (also REPRO_TRACE/REPRO_METRICS/REPRO_REPORT/REPRO_LOG):\n"
               "  --trace-out FILE     Chrome trace-event JSON\n"
               "  --metrics-out FILE   counters/gauges/latency snapshot\n"
               "  --report-out FILE    report per-request JSONL\n"
               "  --log-out FILE       stream the structured event log (JSONL, ~200ms flush)\n");
  std::exit(rc);
}

long parse_long(const char* flag, const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "fsrd: %s needs a non-negative integer, got '%s'\n", flag, text);
    std::exit(2);
  }
  return v;
}

double parse_seconds(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "fsrd: %s needs a non-negative number, got '%s'\n", flag, text);
    std::exit(2);
  }
  return v;
}

/// The daemon body: everything from obs wiring to the final flush.
/// Runs directly (no --supervise) or inside the forked child, where
/// `restart_count` says how many crashes the supervisor has absorbed.
int run_daemon(int argc, char** argv, int restart_count,
               const std::string& pid_file) {
  obs::init_from_env();
  argc = obs::parse_cli_flags(argc, argv);
  util::failpoints_init_from_env();

  service::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fsrd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      opts.socket_path = value();
    } else if (arg == "--threads") {
      opts.threads = static_cast<std::size_t>(parse_long("--threads", value()));
    } else if (arg == "--cache-mb") {
      opts.service.cache_bytes = static_cast<std::size_t>(parse_long("--cache-mb", value())) << 20;
    } else if (arg == "--pcache-path") {
      opts.service.pcache_path = value();
    } else if (arg == "--pcache-mb") {
      opts.service.pcache_bytes =
          static_cast<std::size_t>(parse_long("--pcache-mb", value())) << 20;
    } else if (arg == "--time-budget") {
      opts.service.request_deadline_seconds = parse_seconds("--time-budget", value());
    } else if (arg == "--slow-ms") {
      opts.service.slow_request_seconds =
          static_cast<double>(parse_long("--slow-ms", value())) / 1e3;
    } else if (arg == "--max-inflight") {
      opts.max_inflight = static_cast<std::size_t>(parse_long("--max-inflight", value()));
    } else if (arg == "--max-connections") {
      opts.max_connections = static_cast<std::size_t>(parse_long("--max-connections", value()));
    } else if (arg == "--write-timeout") {
      opts.write_budget_seconds = parse_seconds("--write-timeout", value());
    } else {
      std::fprintf(stderr, "fsrd: unknown argument '%s'\n", arg.c_str());
      usage(2);
    }
  }
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "fsrd: --socket PATH is required\n");
    usage(2);
  }
  opts.service.restart_count = restart_count;

  // The event log is always on: its in-memory rings are what the
  // `tail` op and slow-request dumps read. --log-out/REPRO_LOG
  // additionally streams them to disk (handled by obs wiring above).
  obs::set_log_enabled(true);

  const std::size_t cache_mb =
      (opts.service.cache_bytes > 0
           ? opts.service.cache_bytes
           : service::AnalysisCache::default_capacity_bytes()) >>
      20;
  const std::string pcache_path = opts.service.pcache_path;

  int rc = 0;
  try {
    service::Server server(std::move(opts));
    server.start();
    // Signals notify the accept loop through the self-pipe; the normal
    // shutdown path below then drains and flushes.
    obs::install_signal_flush();
    obs::set_signal_notify_fd(server.signal_notify_fd());

    // The serving pid, written by the process that serves (not the
    // supervisor): a fresh value after each restart is the liveness
    // signal kill/restart smoke tests key on.
    if (!pid_file.empty()) {
      if (std::FILE* f = std::fopen(pid_file.c_str(), "w")) {
        std::fprintf(f, "%ld\n", static_cast<long>(::getpid()));
        std::fclose(f);
      }
    }
    if (restart_count > 0 && obs::log_enabled())
      obs::log_event(obs::Severity::kWarn, "svc.restart",
                     obs::LogFields().num("count", restart_count));

    // Startup banner: one parseable line per fact, all on stderr so
    // piped stdout stays clean.
    const service::Service& svc = server.service();
    std::fprintf(stderr, "fsrd %s (%s) pid %ld\n", util::kVersion,
                 util::kProjectName, static_cast<long>(::getpid()));
    std::fprintf(stderr, "fsrd: listening on %s\n", server.socket_path().c_str());
    std::fprintf(stderr, "fsrd: %zu handler threads, %zu MiB analysis cache\n",
                 server.workers(), cache_mb);
    if (!pcache_path.empty())
      std::fprintf(stderr, "fsrd: persistent cache %s\n", pcache_path.c_str());
    if (restart_count > 0)
      std::fprintf(stderr, "fsrd: restart %d (crash-only recovery)\n", restart_count);
    if (svc.deadline_seconds() > 0.0)
      std::fprintf(stderr, "fsrd: per-request deadline %.3fs\n",
                   svc.deadline_seconds());
    if (svc.slow_seconds() > 0.0)
      std::fprintf(stderr, "fsrd: slow-request threshold %.0fms\n",
                   svc.slow_seconds() * 1e3);
    std::fprintf(stderr, "fsrd: event log %s\n",
                 obs::log_path().empty() ? "in-memory (tail op only)"
                                         : obs::log_path().c_str());

    server.wait();
    obs::set_signal_notify_fd(-1);
    if (const int sig = obs::last_signal(); sig != 0)
      std::fprintf(stderr, "fsrd: exiting on signal %d\n", sig);
    else
      std::fprintf(stderr, "fsrd: exiting on shutdown request\n");
    std::fprintf(stderr,
                 "fsrd: served %llu requests (%llu errors, %llu slow)\n",
                 static_cast<unsigned long long>(svc.requests()),
                 static_cast<unsigned long long>(svc.errors()),
                 static_cast<unsigned long long>(svc.slow_requests()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsrd: %s\n", e.what());
    rc = 1;
  }
  // Graceful exits clean up their pid file; a crash leaves it for the
  // supervisor (which rewrites it on restart and unlinks it at the end).
  if (!pid_file.empty()) ::unlink(pid_file.c_str());
  obs::write_outputs();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip supervision flags (plus --version/--help, which must not fork)
  // before anything else: the supervisor parent must stay thread-free,
  // so even obs flag parsing is deferred into the daemon body.
  bool supervise_mode = false;
  std::string pid_file;
  service::SuperviseOptions sup;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fsrd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--version") {
      std::printf("fsrd (%s) %s\n", util::kProjectName, util::kVersion);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--supervise") {
      supervise_mode = true;
    } else if (arg == "--restart-limit") {
      sup.max_restarts = static_cast<int>(parse_long("--restart-limit", value()));
    } else if (arg == "--restart-window") {
      sup.window_seconds = parse_seconds("--restart-window", value());
    } else if (arg == "--pid-file") {
      pid_file = value();
    } else {
      rest.push_back(argv[i]);
    }
  }
  const int rest_argc = static_cast<int>(rest.size());
  // The supervisor also tracks the pid file: it writes the child pid
  // right after each fork (the serving child rewrites it once it is
  // actually listening) and unlinks it when the loop ends.
  sup.pid_file = pid_file;

  if (!supervise_mode)
    return run_daemon(rest_argc, rest.data(), 0, pid_file);

  std::fprintf(stderr, "fsrd: supervisor pid %ld (limit %d restarts / %.0fs)\n",
               static_cast<long>(::getpid()), sup.max_restarts,
               sup.window_seconds);
  const service::SuperviseResult r = service::supervise(
      [&](int restart_count) {
        return run_daemon(rest_argc, rest.data(), restart_count, pid_file);
      },
      sup);
  if (r.gave_up) {
    std::fprintf(stderr, "fsrd: supervisor giving up after %d restarts\n",
                 r.restarts);
    return r.exit_code != 0 ? r.exit_code : 1;
  }
  if (r.restarts > 0)
    std::fprintf(stderr, "fsrd: supervisor exiting (%d restarts absorbed)\n",
                 r.restarts);
  return r.exit_code;
}
