#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace fsr::service {

namespace {

struct ServerMetrics {
  obs::Counter& connections = obs::counter("svc.connections");
  obs::Counter& frames_rejected = obs::counter("svc.frames_rejected");
  obs::Gauge& queue_depth = obs::gauge("svc.queue_depth");
  obs::Gauge& workers = obs::gauge("svc.workers");
  // Ingress latency windows: frame read -> response ready, slot wait
  // included — the figure `stats` reports and fsrtop renders. Always
  // recorded (a handful of relaxed adds per request).
  obs::WindowHistogram& win_request = obs::window("svc.window.request_ns");
  obs::WindowHistogram& win_hit = obs::window("svc.window.hit_ns");
  obs::WindowHistogram& win_miss = obs::window("svc.window.miss_ns");
  // Overload-shedding telemetry: rejected requests/connections, idle
  // connections dropped to free fds, accept(2) transient-errno retries.
  obs::Counter& overloaded = obs::counter("svc.overloaded");
  obs::Counter& shed_connections = obs::counter("svc.shed_connections");
  obs::Counter& accept_retries = obs::counter("svc.accept_retries");
};

ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}

/// A connection's buffered responses are flushed once they reach this
/// size even while more frames are waiting, so a long pipeline streams
/// its answers instead of holding them all.
constexpr std::size_t kFlushBytes = 256u << 10;

constexpr std::string_view kOverloadedFrame =
    "{\"ok\":false,\"code\":\"overloaded\","
    "\"error\":\"server is shedding load; retry with backoff\"}";

/// Liveness-probe a UDS path left behind by a previous daemon. A
/// successful connect means someone is serving on it; a refused one
/// means the bind outlived its process and the path is safe to reclaim.
bool socket_is_live(const sockaddr_un& addr) {
  UniqueFd probe(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!probe.valid()) return false;
  return ::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) == 0;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      service_(opts_.service),
      workers_(std::min(opts_.threads == 0 ? util::ThreadPool::default_workers()
                                           : opts_.threads,
                        util::ThreadPool::kMaxWorkers)),
      slots_(static_cast<std::ptrdiff_t>(workers_)) {}

Server::~Server() {
  stop();
  wait();
}

void Server::start() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_) return;
    started_ = true;
  }
  // A throw below must leave the server stoppable: nothing is running
  // yet, so roll the flag back or ~Server would wait for an accept
  // loop that never existed.
  try {
    start_locked();
  } catch (...) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    started_ = false;
    throw;
  }
}

void Server::start_locked() {
  if (opts_.socket_path.empty()) throw Error("fsrd: socket path must not be empty");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path))
    throw Error("fsrd: socket path too long: " + opts_.socket_path);
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(), sizeof(addr.sun_path) - 1);

  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw Error(std::string("fsrd: socket(): ") + std::strerror(errno));

  // Stale-socket recovery: a SIGKILLed predecessor leaves its bound
  // path behind. Reclaim it only after proving nothing answers there —
  // unlinking a live daemon's socket would silently orphan it — and
  // never unlink a path that is not a socket at all.
  struct stat st{};
  if (::lstat(opts_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode))
      throw Error("fsrd: " + opts_.socket_path + " exists and is not a socket");
    if (socket_is_live(addr))
      throw Error("fsrd: a daemon is already listening on " + opts_.socket_path);
    ::unlink(opts_.socket_path.c_str());
    if (obs::log_enabled())
      obs::log_event(obs::Severity::kInfo, "svc.stale_socket_reclaimed");
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    throw Error("fsrd: bind(" + opts_.socket_path + "): " + std::strerror(errno));
  if (::listen(fd.get(), 64) != 0)
    throw Error(std::string("fsrd: listen(): ") + std::strerror(errno));

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0)
    throw Error(std::string("fsrd: pipe2(): ") + std::strerror(errno));
  pipe_rd_ = UniqueFd(pipe_fds[0]);
  pipe_wr_ = UniqueFd(pipe_fds[1]);

  listen_fd_ = std::move(fd);
  server_metrics().workers.set(static_cast<std::int64_t>(workers_));
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  // Wake the accept loop; it owns the teardown sequence. write() to the
  // nonblocking pipe is safe from any context (including a connection
  // thread that just answered a `shutdown` op).
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(pipe_wr_.get(), &byte, 1);
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  if (!started_) return;
  stopped_cv_.wait(lock, [this] { return stopped_; });
  // stopped_ is the accept loop's final act; reap the thread itself.
  if (accept_thread_.joinable()) accept_thread_.join();
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0}, {pipe_rd_.get(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (stopping_) break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // self-pipe byte: shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;

    int conn;
    int fp_errno = 0;
    if (util::failpoint("svc.accept", &fp_errno)) {
      conn = -1;
      errno = fp_errno != 0 ? fp_errno : EMFILE;
    } else {
      conn = ::accept4(listen_fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
    }
    if (conn < 0) {
      const int err = errno;  // before any allocating/logging call
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Resource exhaustion is transient by definition: free what we
        // can (an idle connection's fd), breathe, and keep accepting.
        // Breaking here would silently wedge the daemon forever.
        server_metrics().accept_retries.add();
        {
          std::lock_guard<std::mutex> lock(conn_mutex_);
          reap_finished_locked();
          shed_oldest_idle_locked();
        }
        if (obs::log_enabled())
          obs::log_event(obs::Severity::kWarn, "svc.accept_backoff",
                         obs::LogFields().num("errno", err));
        accept_pause_ms(10);
        continue;
      }
      if (err == EBADF || err == EINVAL) break;  // listening socket gone
      // Unknown errno: log and keep going — an accept loop that dies
      // quietly is the worst possible failure mode for a daemon.
      if (obs::log_enabled())
        obs::log_event(obs::Severity::kError, "svc.accept_error",
                       obs::LogFields().num("errno", err));
      accept_pause_ms(10);
      continue;
    }
    server_metrics().connections.add();
    if (obs::log_enabled())
      obs::log_event(obs::Severity::kDebug, "svc.connection");
    UniqueFd conn_fd(conn);
    if (opts_.write_budget_seconds > 0.0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(opts_.write_budget_seconds);
      tv.tv_usec = static_cast<suseconds_t>(
          (opts_.write_budget_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
      ::setsockopt(conn_fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    std::lock_guard<std::mutex> lock(conn_mutex_);
    reap_finished_locked();
    if (opts_.max_connections > 0 && connections_.size() >= opts_.max_connections) {
      server_metrics().overloaded.add();
      if (obs::log_enabled())
        obs::log_event(obs::Severity::kWarn, "svc.overloaded",
                       obs::LogFields().str("reason", "connections"));
      write_frame(conn_fd.get(), kOverloadedFrame);
      continue;  // conn_fd closes on scope exit
    }
    auto c = std::make_unique<Connection>();
    c->fd = std::move(conn_fd);
    Connection* raw = c.get();
    bool spawn_failed = util::failpoint("svc.spawn");
    if (!spawn_failed) {
      try {
        raw->thread = std::thread([this, raw] { connection_loop(raw); });
      } catch (const std::system_error&) {
        spawn_failed = true;  // EAGAIN: thread limit reached
      }
    }
    if (spawn_failed) {
      server_metrics().overloaded.add();
      if (obs::log_enabled())
        obs::log_event(obs::Severity::kWarn, "svc.overloaded",
                       obs::LogFields().str("reason", "spawn"));
      write_frame(c->fd.get(), kOverloadedFrame);
      continue;  // Connection (and its fd) destroyed, thread never ran
    }
    connections_.push_back(std::move(c));
  }

  // Teardown: make sure stop() state is set (the loop may have exited
  // via the pipe without stop() being called first).
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  // Unblock every connection reader, then join them.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(connections_);
  }
  for (auto& c : conns)
    if (c->fd.valid()) ::shutdown(c->fd.get(), SHUT_RDWR);
  for (auto& c : conns)
    if (c->thread.joinable()) c->thread.join();
  conns.clear();

  listen_fd_.reset();
  ::unlink(opts_.socket_path.c_str());

  std::lock_guard<std::mutex> lock(state_mutex_);
  stopped_ = true;
  stopped_cv_.notify_all();
}

// Drop entries whose reader has finished (client hung up). Keeps the
// connection list bounded for long-lived daemons with churny clients.
// Caller holds conn_mutex_; `done` is set as the very last statement of
// connection_loop, so join() here returns almost immediately.
void Server::reap_finished_locked() {
  std::vector<std::unique_ptr<Connection>> live;
  live.reserve(connections_.size());
  for (auto& c : connections_) {
    if (c->done.load(std::memory_order_acquire)) {
      if (c->thread.joinable()) c->thread.join();
    } else {
      live.push_back(std::move(c));
    }
  }
  connections_.swap(live);
}

// Free the fd of the longest-idle connection (no request in progress).
// Called under conn_mutex_ when accept(2) hits fd exhaustion: the shed
// reader sees its socket shut down and exits; the entry is reaped on
// the next pass. Busy connections are never shed — their response is
// already paid for.
void Server::shed_oldest_idle_locked() {
  for (auto& c : connections_) {
    if (c->done.load(std::memory_order_acquire)) continue;
    if (c->busy.load(std::memory_order_acquire)) continue;
    ::shutdown(c->fd.get(), SHUT_RDWR);
    server_metrics().shed_connections.add();
    if (obs::log_enabled())
      obs::log_event(obs::Severity::kWarn, "svc.connection_shed");
    return;
  }
}

// Brief accept-loop breather that stays responsive to shutdown: polls
// the self-pipe instead of sleeping, so a stop() during backoff is
// seen on the next loop iteration, not after the nap.
void Server::accept_pause_ms(int ms) {
  pollfd pfd{pipe_rd_.get(), POLLIN, 0};
  ::poll(&pfd, 1, ms);
}

Service::Outcome Server::execute(std::string_view request) {
  ServerMetrics& m = server_metrics();
  const std::int64_t depth = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (opts_.max_inflight > 0 && depth > static_cast<std::int64_t>(opts_.max_inflight)) {
    // Shed rather than queue: the client gets a prompt, structured
    // answer it can back off on, and the connection stays usable.
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    m.overloaded.add();
    if (obs::log_enabled())
      obs::log_event(obs::Severity::kWarn, "svc.overloaded",
                     obs::LogFields().str("reason", "inflight"));
    Service::Outcome out;
    out.json = kOverloadedFrame;
    return out;
  }
  m.queue_depth.set(depth);
  const std::uint64_t start_ns = obs::now_ns();
  slots_.acquire();
  Service::Outcome out = service_.handle(request);
  slots_.release();
  m.queue_depth.set(inflight_.fetch_sub(1, std::memory_order_relaxed) - 1);
  const std::uint64_t latency = obs::now_ns() - start_ns;
  m.win_request.record(latency);
  if (out.analysis) (out.cache_hit ? m.win_hit : m.win_miss).record(latency);
  return out;
}

void Server::connection_loop(Connection* conn) {
  const int fd = conn->fd.get();
  std::string payload;
  std::string outbuf;  // answers not yet sent, in request order
  bool write_ok = true;
  bool oversized = false;
  bool shutdown_requested = false;

  // A failed append or write drops the connection: nothing after it
  // could be answered in order.
  auto flush = [&] {
    write_ok = write_bytes(fd, outbuf);
    outbuf.clear();
    conn->busy.store(false, std::memory_order_release);
    return write_ok;
  };

  while (!shutdown_requested) {
    const FrameStatus st = read_frame(fd, payload);
    if (st == FrameStatus::kOversized) {
      // The announced length is beyond the cap; the stream cannot be
      // resynchronized, so answer once (after everything owed) and drop.
      server_metrics().frames_rejected.add();
      if (obs::log_enabled())
        obs::log_event(obs::Severity::kWarn, "svc.frame_rejected",
                       obs::LogFields().str("reason", "oversized"));
      oversized = true;
      break;
    }
    if (st != FrameStatus::kOk) break;  // EOF, truncation or read error
    conn->busy.store(true, std::memory_order_release);

    Service::Outcome out = execute(payload);
    // Frames behind a `shutdown` are never executed.
    shutdown_requested = out.shutdown;
    if (!append_frame(outbuf, out.json)) {
      write_ok = false;
      break;
    }
    // Hold the answer while the client's burst is still arriving: the
    // whole batch then costs one send. read_frame blocks until a
    // started frame completes, so a client that stalls mid-frame also
    // delays the answers owed before it, bounded by its own send.
    pollfd probe{fd, POLLIN, 0};
    const bool more = ::poll(&probe, 1, 0) > 0 &&
                      (probe.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if ((shutdown_requested || !more || outbuf.size() >= kFlushBytes) && !flush())
      break;
  }

  if (write_ok && !outbuf.empty()) flush();
  if (oversized && write_ok)
    write_frame(fd, "{\"ok\":false,\"code\":\"oversized\","
                    "\"error\":\"frame exceeds the 64 MiB limit\"}");
  // The goodbye is on the wire; take the daemon down.
  if (shutdown_requested) stop();
  // Half-open sockets would leave the peer blocked on a response that
  // will never come; the fd itself is closed when the entry is reaped.
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

}  // namespace fsr::service
