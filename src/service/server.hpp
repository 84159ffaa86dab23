// Unix-domain socket front end for the Service.
//
// Threading model: one accept thread polls the listening socket plus a
// self-pipe; each accepted connection gets its own reader thread, which
// executes that connection's requests itself, one at a time, in arrival
// order. A request runs only while its reader holds one of `threads`
// daemon-wide handler slots (a counting semaphore), so `threads` caps
// concurrent handlers however many connections are open, and a reader
// blocked on socket I/O holds no slot.
//
// Connections may pipeline: the reader pulls frames off the socket in
// bursts and appends each response to one write buffer, flushed in a
// single send once no further frame is already waiting (or the buffer
// has grown large). Responses therefore leave in request order — the
// protocol has no request ids, so order IS the correlation — and each
// request sees the effects of every earlier request on its connection.
// A client that sends one frame and waits sees plain serial behavior.
//
// Shutdown is cooperative and signal-safe: SIGINT/SIGTERM handlers
// (obs::set_signal_notify_fd wired to signal_notify_fd()) write one
// byte to the self-pipe; the accept loop wakes, stops accepting,
// shuts down every live connection, joins the readers (each finishes
// the request it is executing), and unlinks the socket. A `shutdown`
// protocol request takes the same path once its answer, and every
// answer owed before it, has been written.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "service/proto.hpp"
#include "service/service.hpp"

namespace fsr::service {

struct ServerOptions {
  std::string socket_path;  // required
  std::size_t threads = 0;  // concurrent handlers; 0 = REPRO_THREADS / hardware
  ServiceOptions service{};
  // Overload shedding: past these limits the server answers with a
  // structured `overloaded` frame instead of queueing without bound.
  // 0 disables the respective limit.
  std::size_t max_connections = 256;  // concurrent reader threads
  std::size_t max_inflight = 128;     // requests waiting for or holding a slot
  // Slow-client write budget (SO_SNDTIMEO): a peer that stops draining
  // its socket for this long gets its connection dropped instead of
  // parking a reader thread forever. 0 disables.
  double write_budget_seconds = 30.0;
};

class Server {
public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the accept thread. Throws fsr::Error when
  /// the socket cannot be created (path too long, address in use, ...).
  void start();

  /// Request a graceful stop (idempotent, callable from any thread).
  void stop();

  /// Block until the server has fully stopped (accept thread and every
  /// connection joined). Returns immediately if never started.
  void wait();

  /// Write end of the self-pipe: a single byte written here (e.g. by
  /// the obs signal handler) triggers the same graceful stop as stop().
  [[nodiscard]] int signal_notify_fd() const { return pipe_wr_.get(); }

  [[nodiscard]] const std::string& socket_path() const { return opts_.socket_path; }
  [[nodiscard]] Service& service() { return service_; }
  /// Handler slots: how many requests may execute at once.
  [[nodiscard]] std::size_t workers() const { return workers_; }

private:
  struct Connection {
    UniqueFd fd;
    std::thread thread;
    std::atomic<bool> done{false};
    std::atomic<bool> busy{false};  // a request read but not yet answered
  };

  void start_locked();
  void accept_loop();
  void reap_finished_locked();
  void shed_oldest_idle_locked();
  void accept_pause_ms(int ms);
  void connection_loop(Connection* conn);
  /// Run one request under a handler slot, or shed it past max_inflight.
  Service::Outcome execute(std::string_view request);

  ServerOptions opts_;
  Service service_;
  const std::size_t workers_;
  std::counting_semaphore<> slots_;
  std::atomic<std::int64_t> inflight_{0};  // waiting for or holding a slot

  UniqueFd listen_fd_;
  UniqueFd pipe_rd_, pipe_wr_;
  std::thread accept_thread_;

  std::mutex conn_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::mutex state_mutex_;
  std::condition_variable stopped_cv_;
  bool started_ = false;
  bool stopping_ = false;
  bool stopped_ = false;
};

}  // namespace fsr::service
