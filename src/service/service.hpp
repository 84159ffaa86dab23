// Request executor for the fsrd daemon.
//
// Service is the socket-independent middle: it takes one request's
// JSON text, runs it against the content-addressed AnalysisCache, and
// returns the response JSON. The Unix-domain Server calls handle() on
// each connection's own thread, at most `threads` calls at once across
// connections; the tests and the load bench can also call it
// in-process. handle() is safe to call concurrently.
//
// Containment contract (the daemon's survival property): handle()
// never throws and never crashes the process on hostile input. Every
// request runs under a cooperative util::Deadline (REPRO_TIME_BUDGET
// or the explicit option), exceptions from parsing/decoding/analysis
// are caught and become {"ok":false,...} error responses, and work
// performed under an expired deadline is never inserted into the cache
// (partial substrates must not poison later exact answers).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "service/cache.hpp"

namespace fsr::obs {
class JsonValue;
}

namespace fsr::service {

struct ServiceOptions {
  std::size_t cache_bytes = 0;          // 0: AnalysisCache::default_capacity_bytes()
  double request_deadline_seconds = 0;  // <=0: REPRO_TIME_BUDGET (unset = unlimited)
  double slow_request_seconds = 0;      // >0: dump a slow-request event past this
  int restart_count = 0;                // crashes survived (set by --supervise)
  // Cross-restart persistence (pcache.hpp). Empty path: memory-only.
  // A store that fails to open degrades to memory-only with a stderr
  // note — persistence must never keep the daemon from serving.
  std::string pcache_path;
  std::size_t pcache_bytes = 0;         // 0: PersistentStore default budget
};

/// Protocol operations, including the telemetry surface. kUnknown also
/// covers unparseable requests; every op has a request + error counter
/// reported by `stats`.
enum class OpKind : std::uint8_t {
  kPing = 0,
  kIdentify,
  kCompare,
  kDisasm,
  kStats,
  kMetrics,
  kTail,
  kShutdown,
  kUnknown,
};
inline constexpr std::size_t kOpCount = 9;
const char* to_string(OpKind op);

class Service {
public:
  explicit Service(ServiceOptions opts = {});

  struct Outcome {
    std::string json;        // the response frame payload
    bool shutdown = false;   // request asked the daemon to stop
    bool cache_hit = false;  // served without decode or analysis
    bool analysis = false;   // identify/compare/disasm (vs control ops)
    bool ok = true;
    OpKind op = OpKind::kUnknown;
    std::string code;        // machine-readable error code when !ok
  };

  /// Execute one request. Never throws. While the event log is enabled,
  /// the request runs under a FlightScope and, when it exceeds the slow
  /// threshold or expires its deadline, leaves a "svc.slow_request"
  /// event carrying its span tree.
  Outcome handle(std::string_view request_json);

  [[nodiscard]] AnalysisCache& cache() { return cache_; }
  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t slow_requests() const {
    return slow_requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t op_requests(OpKind op) const {
    return op_requests_[static_cast<std::size_t>(op)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t op_errors(OpKind op) const {
    return op_errors_[static_cast<std::size_t>(op)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] double deadline_seconds() const { return deadline_seconds_; }
  [[nodiscard]] double slow_seconds() const { return slow_seconds_; }
  [[nodiscard]] int restart_count() const { return restart_count_; }

private:
  Outcome dispatch(std::string_view request_json);
  Outcome do_identify(const obs::JsonValue& req);
  Outcome do_compare(const obs::JsonValue& req);
  Outcome do_disasm(const obs::JsonValue& req);
  Outcome do_tail(const obs::JsonValue& req);
  [[nodiscard]] std::string stats_json() const;

  AnalysisCache cache_;
  double deadline_seconds_;
  double slow_seconds_;
  int restart_count_ = 0;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> slow_requests_{0};
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> op_requests_[kOpCount]{};
  std::atomic<std::uint64_t> op_errors_[kOpCount]{};
  std::uint64_t start_ns_;
};

}  // namespace fsr::service
