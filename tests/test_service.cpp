// fsrd service tests: protocol plumbing (framing, base64, the JSON
// value parser) and an end-to-end integration pass — a real Server on a
// temp socket, a real client, every request type, hostile uploads from
// the fault injector, malformed frames, and both shutdown paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "inject/fault.hpp"
#include "obs/eventlog.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/proto.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "synth/corpus.hpp"
#include "util/failpoint.hpp"

using namespace fsr;

namespace {

// ---------------------------------------------------------------- base64

TEST(Base64, RoundTrips) {
  for (std::size_t n = 0; n < 32; ++n) {
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < n; ++i)
      bytes.push_back(static_cast<std::uint8_t>(i * 37 + n));
    const std::string enc = service::b64_encode(bytes);
    const auto dec = service::b64_decode(enc);
    ASSERT_TRUE(dec.has_value()) << "n=" << n;
    EXPECT_EQ(*dec, bytes) << "n=" << n;
  }
}

TEST(Base64, KnownVectors) {
  const std::vector<std::uint8_t> man = {'M', 'a', 'n'};
  EXPECT_EQ(service::b64_encode(man), "TWFu");
  const std::vector<std::uint8_t> ma = {'M', 'a'};
  EXPECT_EQ(service::b64_encode(ma), "TWE=");
  EXPECT_EQ(service::b64_encode({}), "");
}

TEST(Base64, RejectsMalformedInput) {
  EXPECT_FALSE(service::b64_decode("TWF").has_value());    // bad length
  EXPECT_FALSE(service::b64_decode("TW!u").has_value());   // bad alphabet
  EXPECT_FALSE(service::b64_decode("TW=u").has_value());   // data after pad
  EXPECT_FALSE(service::b64_decode("====").has_value());
  EXPECT_TRUE(service::b64_decode("").has_value());
}

// ------------------------------------------------------------ JSON values

TEST(JsonValue, ParsesNestedStructures) {
  const auto v = obs::json_parse(
      R"({"op":"identify","n":3.5,"flag":true,"nil":null,"arr":[1,"two"],"obj":{"k":"v"}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_string("op"), "identify");
  EXPECT_DOUBLE_EQ(v->get_number("n", 0), 3.5);
  EXPECT_TRUE(v->get_bool("flag", false));
  const obs::JsonValue* arr = v->find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items().size(), 2u);
  EXPECT_DOUBLE_EQ(arr->items()[0].as_number(0), 1.0);
  EXPECT_EQ(arr->items()[1].as_string(""), "two");
  const obs::JsonValue* obj = v->find("obj");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->get_string("k"), "v");
}

TEST(JsonValue, UnescapesStrings) {
  const auto v = obs::json_parse(R"({"s":"a\"b\\c\ndA"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_string("s"), "a\"b\\c\ndA");
}

TEST(JsonValue, RejectsGarbage) {
  EXPECT_FALSE(obs::json_parse("").has_value());
  EXPECT_FALSE(obs::json_parse("{").has_value());
  EXPECT_FALSE(obs::json_parse("{\"a\":}").has_value());
  EXPECT_FALSE(obs::json_parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(obs::json_parse("\x01\x02\x03").has_value());
}

// ------------------------------------------------------------ integration

std::vector<std::uint8_t> sample_binary() {
  synth::BinaryConfig cfg;
  cfg.kind = elf::BinaryKind::kPie;
  return synth::make_binary(cfg).stripped_bytes();
}

class ServiceIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    service::ServerOptions opts;
    opts.socket_path =
        "/tmp/fsrd-test-" + std::to_string(::getpid()) + "-" +
        std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xffff) + ".sock";
    opts.threads = 2;
    server_ = std::make_unique<service::Server>(std::move(opts));
    server_->start();
    ASSERT_TRUE(client_.connect(server_->socket_path())) << client_.last_error();
  }

  void TearDown() override {
    client_.close();
    server_->stop();
    server_->wait();
  }

  obs::JsonValue roundtrip(const std::string& request) {
    const auto response = client_.request(request);
    EXPECT_TRUE(response.has_value()) << client_.last_error();
    if (!response.has_value()) return obs::JsonValue{};
    const auto parsed = obs::json_parse(*response);
    EXPECT_TRUE(parsed.has_value()) << *response;
    return parsed.value_or(obs::JsonValue{});
  }

  std::unique_ptr<service::Server> server_;
  service::Client client_;
};

TEST_F(ServiceIntegration, PingReportsVersion) {
  const auto r = roundtrip("{\"op\":\"ping\"}");
  EXPECT_TRUE(r.get_bool("ok", false));
  EXPECT_FALSE(r.get_string("version").empty());
}

TEST_F(ServiceIntegration, IdentifyThenHitByKey) {
  const auto bytes = sample_binary();
  const auto cold = roundtrip("{\"op\":\"identify\",\"elf\":\"" +
                              service::b64_encode(bytes) + "\"}");
  ASSERT_TRUE(cold.get_bool("ok", false)) << cold.get_string("error");
  EXPECT_EQ(cold.get_string("cache"), "miss");
  EXPECT_GT(cold.get_number("count", 0), 0.0);
  const std::string key = cold.get_string("key");
  ASSERT_FALSE(key.empty());

  // Same content by key: result-layer hit, identical function list.
  const auto hot = roundtrip("{\"op\":\"identify\",\"key\":\"" + key + "\"}");
  ASSERT_TRUE(hot.get_bool("ok", false));
  EXPECT_EQ(hot.get_string("cache"), "hit");
  ASSERT_NE(cold.find("functions"), nullptr);
  ASSERT_NE(hot.find("functions"), nullptr);
  ASSERT_EQ(hot.find("functions")->items().size(), cold.find("functions")->items().size());
  for (std::size_t i = 0; i < hot.find("functions")->items().size(); ++i)
    EXPECT_EQ(hot.find("functions")->items()[i].as_string(""),
              cold.find("functions")->items()[i].as_string(""));

  // Re-uploading the same bytes dedups content-addressed, no key needed.
  const auto dedup = roundtrip("{\"op\":\"identify\",\"elf\":\"" +
                               service::b64_encode(bytes) + "\"}");
  EXPECT_EQ(dedup.get_string("cache"), "hit");
  EXPECT_EQ(dedup.get_string("key"), key);
}

TEST_F(ServiceIntegration, CompareRunsAllFourTools) {
  const auto r = roundtrip("{\"op\":\"compare\",\"elf\":\"" +
                           service::b64_encode(sample_binary()) + "\"}");
  ASSERT_TRUE(r.get_bool("ok", false)) << r.get_string("error");
  const obs::JsonValue* tools = r.find("tools");
  ASSERT_NE(tools, nullptr);
  ASSERT_EQ(tools->items().size(), 4u);
  EXPECT_EQ(tools->items()[0].get_string("tool"), "FunSeeker");
  for (const auto& t : tools->items()) EXPECT_GT(t.get_number("count", 0), 0.0);
}

TEST_F(ServiceIntegration, DisasmReturnsLines) {
  const auto r = roundtrip("{\"op\":\"disasm\",\"elf\":\"" +
                           service::b64_encode(sample_binary()) +
                           "\",\"count\":16}");
  ASSERT_TRUE(r.get_bool("ok", false)) << r.get_string("error");
  const obs::JsonValue* lines = r.find("lines");
  ASSERT_NE(lines, nullptr);
  EXPECT_EQ(lines->items().size(), 16u);
  EXPECT_FALSE(lines->items()[0].as_string("").empty());
}

TEST_F(ServiceIntegration, StatsReflectTraffic) {
  roundtrip("{\"op\":\"identify\",\"elf\":\"" + service::b64_encode(sample_binary()) +
            "\"}");
  const auto r = roundtrip("{\"op\":\"stats\"}");
  ASSERT_TRUE(r.get_bool("ok", false));
  EXPECT_GE(r.get_number("requests", 0), 2.0);
  const obs::JsonValue* cache = r.find("cache");
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(cache->find("images"), nullptr);
  EXPECT_GE(cache->find("images")->get_number("entries", -1), 1.0);
}

TEST_F(ServiceIntegration, StatsRoundTripPerOpCounters) {
  // Known traffic mix: 2 ok pings + 1 failing identify, then read the
  // per-op counters back. The stats request itself is counted after
  // dispatch, so it never perturbs the numbers it reports.
  EXPECT_TRUE(roundtrip("{\"op\":\"ping\"}").get_bool("ok", false));
  EXPECT_TRUE(roundtrip("{\"op\":\"ping\"}").get_bool("ok", false));
  EXPECT_FALSE(roundtrip("{\"op\":\"identify\"}").get_bool("ok", true));

  const auto r = roundtrip("{\"op\":\"stats\"}");
  ASSERT_TRUE(r.get_bool("ok", false));
  const obs::JsonValue* ops = r.find("ops");
  ASSERT_NE(ops, nullptr);
  const obs::JsonValue* ping = ops->find("ping");
  ASSERT_NE(ping, nullptr);
  EXPECT_EQ(ping->get_number("requests", -1), 2.0);
  EXPECT_EQ(ping->get_number("errors", -1), 0.0);
  const obs::JsonValue* identify = ops->find("identify");
  ASSERT_NE(identify, nullptr);
  EXPECT_EQ(identify->get_number("requests", -1), 1.0);
  EXPECT_EQ(identify->get_number("errors", -1), 1.0);

  // Ingress windows: the server recorded every request so far (the
  // snapshot runs inside the 4th, so at least the first 3 are in).
  const obs::JsonValue* windows = r.find("windows");
  ASSERT_NE(windows, nullptr);
  const obs::JsonValue* req_win = windows->find("request");
  ASSERT_NE(req_win, nullptr);
  const obs::JsonValue* w10 = req_win->find("last_10s");
  ASSERT_NE(w10, nullptr);
  EXPECT_GE(w10->get_number("count", 0), 3.0);
  EXPECT_GT(w10->get_number("rate_per_sec", 0), 0.0);
  ASSERT_NE(windows->find("hit"), nullptr);
  ASSERT_NE(windows->find("miss"), nullptr);

  const obs::JsonValue* log = r.find("log");
  ASSERT_NE(log, nullptr);
  ASSERT_NE(log->find("enabled"), nullptr);
  ASSERT_NE(log->find("recorded"), nullptr);
}

TEST_F(ServiceIntegration, MetricsOpReturnsRegistrySnapshot) {
  const auto r = roundtrip("{\"op\":\"metrics\"}");
  ASSERT_TRUE(r.get_bool("ok", false));
  const obs::JsonValue* registry = r.find("registry");
  ASSERT_NE(registry, nullptr);
  ASSERT_TRUE(registry->is_object());
  EXPECT_NE(registry->find("counters"), nullptr);
  EXPECT_NE(registry->find("windows"), nullptr);
}

TEST_F(ServiceIntegration, TailOpReturnsRecentEvents) {
  const bool was_on = obs::log_enabled();
  obs::set_log_enabled(true);
  obs::log_event(obs::Severity::kInfo, "test.tail_marker",
                 obs::LogFields{}.integer("n", 17));

  const auto r = roundtrip("{\"op\":\"tail\",\"count\":500}");
  ASSERT_TRUE(r.get_bool("ok", false));
  EXPECT_TRUE(r.get_bool("log_enabled", false));
  const obs::JsonValue* events = r.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool found = false;
  for (const obs::JsonValue& e : events->items())
    if (e.get_string("event") == "test.tail_marker" &&
        e.get_number("n", 0) == 17.0)
      found = true;
  EXPECT_TRUE(found);
  obs::set_log_enabled(was_on);
}

TEST_F(ServiceIntegration, RejectsBadRequestsWithoutDying) {
  EXPECT_FALSE(roundtrip("{\"op\":\"identify\"}").get_bool("ok", true));
  EXPECT_FALSE(roundtrip("{\"op\":\"identify\",\"elf\":\"!!notb64!!\"}").get_bool("ok", true));
  EXPECT_FALSE(roundtrip("{\"op\":\"identify\",\"key\":\"bogus\"}").get_bool("ok", true));
  EXPECT_FALSE(roundtrip("{\"op\":\"frobnicate\"}").get_bool("ok", true));
  EXPECT_FALSE(roundtrip("this is not json").get_bool("ok", true));
  // The daemon is still healthy afterwards.
  EXPECT_TRUE(roundtrip("{\"op\":\"ping\"}").get_bool("ok", false));
}

TEST_F(ServiceIntegration, SurvivesHostileUploads) {
  const auto base = sample_binary();
  // One mutant per mutation family. Responses may be ok (salvage) or a
  // structured error; the requirement is no crash and a live daemon.
  for (const inject::FaultPlan& plan : inject::make_plans(7, inject::kMutationCount)) {
    const auto mutant = inject::mutate(base, plan);
    const auto r = roundtrip("{\"op\":\"identify\",\"elf\":\"" +
                             service::b64_encode(mutant) + "\"}");
    EXPECT_NE(r.find("ok"), nullptr) << plan.label();
  }
  EXPECT_TRUE(roundtrip("{\"op\":\"ping\"}").get_bool("ok", false));
}

TEST_F(ServiceIntegration, OversizedFrameIsRejectedAndConnectionDropped) {
  // A length prefix way past kMaxFrameBytes. The server answers with a
  // structured error, then closes (the stream cannot be resynced).
  const std::uint32_t huge = service::kMaxFrameBytes + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  ASSERT_TRUE(client_.send_bytes(std::string_view(prefix, 4)));
  service::FrameStatus st = service::FrameStatus::kOk;
  const auto r = client_.read_response(&st);
  ASSERT_TRUE(r.has_value());
  const auto parsed = obs::json_parse(*r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->get_bool("ok", true));
  EXPECT_EQ(parsed->get_string("code"), "oversized");
  // Connection is gone; a fresh one works.
  EXPECT_FALSE(client_.request("{\"op\":\"ping\"}").has_value());
  ASSERT_TRUE(client_.connect(server_->socket_path()));
  EXPECT_TRUE(roundtrip("{\"op\":\"ping\"}").get_bool("ok", false));
}

TEST_F(ServiceIntegration, TruncatedFrameDropsConnectionOnly) {
  // Announce 100 bytes, send 3, hang up: the reader sees a truncated
  // frame and closes without wedging the daemon.
  const std::uint32_t len = 100;
  char prefix[4];
  std::memcpy(prefix, &len, 4);
  ASSERT_TRUE(client_.send_bytes(std::string_view(prefix, 4)));
  ASSERT_TRUE(client_.send_bytes("abc"));
  client_.close();
  ASSERT_TRUE(client_.connect(server_->socket_path()));
  EXPECT_TRUE(roundtrip("{\"op\":\"ping\"}").get_bool("ok", false));
}

TEST_F(ServiceIntegration, ShutdownOpStopsTheServer) {
  const auto r = roundtrip("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(r.get_bool("ok", false));
  server_->wait();  // returns: the shutdown op triggered a full stop
  // The socket is unlinked; new connections fail.
  service::Client late;
  EXPECT_FALSE(late.connect(server_->socket_path()));
}

TEST(ServiceInProcess, HandleNeverThrowsOnFuzzedRequests) {
  service::Service svc;
  const char* nasty[] = {
      "",
      "{",
      "[]",
      "42",
      "{\"op\":\"identify\",\"elf\":123}",
      "{\"op\":\"disasm\",\"elf\":\"AAAA\"}",
      "{\"op\":\"compare\",\"key\":\"0000000000000000-0\"}",
      "{\"op\":[1,2],\"elf\":null}",
  };
  for (const char* request : nasty) {
    const service::Service::Outcome out = svc.handle(request);
    EXPECT_FALSE(out.json.empty());
    EXPECT_FALSE(out.ok) << request;
  }
}

/// Flight-recorder acceptance: with an immediately-expiring deadline,
/// EVERY handled request — including the hostile-upload mutants — must
/// leave exactly one svc.slow_request event behind.
TEST(ServiceInProcess, DeadlineExpiredRequestsEmitSlowRequestEvents) {
  const bool was_on = obs::log_enabled();
  obs::set_log_enabled(true);
  obs::set_log_rate_limit(1u << 16);  // the tally must not be rate-limited here
  obs::clear_log();

  service::ServiceOptions opts;
  opts.request_deadline_seconds = 1e-9;  // expires before any work happens
  service::Service svc(opts);

  const auto base = sample_binary();
  std::size_t handled = 0;
  std::size_t timeouts = 0;
  for (const inject::FaultPlan& plan : inject::make_plans(11, inject::kMutationCount)) {
    const auto mutant = inject::mutate(base, plan);
    const auto out = svc.handle("{\"op\":\"identify\",\"elf\":\"" +
                                service::b64_encode(mutant) + "\"}");
    ++handled;
    const auto parsed = obs::json_parse(out.json);
    ASSERT_TRUE(parsed.has_value()) << plan.label();
    EXPECT_FALSE(parsed->get_bool("ok", true)) << plan.label();
    if (parsed->get_string("code") == "timeout") ++timeouts;
  }
  ASSERT_GT(handled, 0u);
  EXPECT_GT(timeouts, 0u);  // the cooperative deadline actually fired

  // One dump per expired request — no more, no less — and each one
  // carries the flight recorder's span list plus the op/elapsed facts.
  std::size_t dumps = 0;
  for (const obs::LogEvent& e : obs::log_tail(1000)) {
    if (e.event != "svc.slow_request") continue;
    dumps += 1 + e.suppressed;
    const auto parsed = obs::json_parse(e.to_json());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->get_string("op"), "identify");
    EXPECT_TRUE(parsed->get_bool("deadline_expired", false));
    EXPECT_NE(parsed->find("spans"), nullptr);
    EXPECT_GE(parsed->get_number("elapsed_us", -1), 0.0);
  }
  EXPECT_EQ(dumps, handled);
  EXPECT_EQ(svc.slow_requests(), handled);

  obs::clear_log();
  obs::set_log_rate_limit(128);
  obs::set_log_enabled(was_on);
}

// ------------------------------------------------- robustness (PR 9)

std::string fresh_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/fsrd-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Minimal hand-rolled server for client-hardening tests: listens on
/// `path`, accepts ONE connection, runs `handler(conn_fd)`, closes.
/// Returns the thread to join; the listening fd closes when the thread
/// finishes, so start-up ordering is handled by the caller connecting.
std::thread fake_server_once(const std::string& path,
                             std::function<void(int)> handler) {
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(listen_fd, 0);
  EXPECT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(listen_fd, 4), 0);
  return std::thread([listen_fd, handler = std::move(handler)] {
    const int conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn >= 0) {
      handler(conn);
      ::close(conn);
    }
    ::close(listen_fd);
  });
}

TEST(ClientHardening, TruncatedFrameMidReadIsARetryableError) {
  // The server dies after the length prefix and 10 of the announced
  // 100 payload bytes: the client must fail promptly (no hang) and
  // classify the death as retryable (connection reset).
  const std::string path = fresh_socket_path("trunc");
  std::thread server = fake_server_once(path, [](int conn) {
    std::string req;
    service::read_frame(conn, req);
    const std::uint32_t len = 100;
    char prefix[4];
    std::memcpy(prefix, &len, 4);
    (void)!::send(conn, prefix, 4, MSG_NOSIGNAL);
    (void)!::send(conn, "0123456789", 10, MSG_NOSIGNAL);
    // close: the remaining 90 bytes never arrive
  });
  service::Client client;
  ASSERT_TRUE(client.connect(path));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.request("{\"op\":\"ping\"}").has_value());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 5);
  EXPECT_EQ(client.last_errno(), ECONNRESET);
  server.join();
  ::unlink(path.c_str());
}

TEST(ClientHardening, NeverRespondingServerHitsTheOpDeadline) {
  // The server accepts and reads but never answers; SO_RCVTIMEO must
  // bound the client's wait.
  const std::string path = fresh_socket_path("silent");
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::thread server = fake_server_once(path, [&](int conn) {
    std::string req;
    service::read_frame(conn, req);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  });

  service::ClientOptions copts;
  copts.op_timeout_seconds = 0.25;
  service::Client client(copts);
  ASSERT_TRUE(client.connect(path));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.request("{\"op\":\"ping\"}").has_value());
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(ms, 200);
  EXPECT_LT(ms, 3000);
  EXPECT_TRUE(client.timed_out());
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_one();
  }
  server.join();
  ::unlink(path.c_str());
}

TEST(ClientHardening, RetrySucceedsAfterServerRestart) {
  // The daemon is down when the first attempt happens; it comes back
  // ~300ms later on the same path. call() with retry must make the
  // outage invisible to the caller.
  const std::string path = fresh_socket_path("retry");
  {
    service::ServerOptions opts;
    opts.socket_path = path;
    opts.threads = 1;
    service::Server first(std::move(opts));
    first.start();
    service::Client warm;
    ASSERT_TRUE(warm.connect(path));
    first.stop();
    first.wait();  // socket unlinked: full outage
  }

  std::thread restarter([&path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    service::ServerOptions opts;
    opts.socket_path = path;
    opts.threads = 1;
    service::Server second(std::move(opts));
    second.start();
    // Serve until the test's request has been answered, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    second.stop();
    second.wait();
  });

  service::ClientOptions copts;
  copts.max_attempts = 10;
  copts.op_timeout_seconds = 2.0;
  copts.total_budget_seconds = 8.0;
  copts.backoff_base_ms = 50.0;
  service::Client client(copts);
  client.connect(path);  // may fail: the retry loop reconnects
  const auto r = client.call("{\"op\":\"ping\"}");
  ASSERT_TRUE(r.has_value()) << client.last_error();
  const auto parsed = obs::json_parse(*r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->get_bool("ok", false));
  EXPECT_GT(client.retries(), 0u);
  restarter.join();
  ::unlink(path.c_str());
}

TEST(ServerRobustness, AcceptLoopSurvivesForcedEmfile) {
  // Regression for the fatal `break` on transient accept errnos: force
  // EMFILE three times via the failpoint; the accept loop must back
  // off, keep accepting, and serve the very connection that triggered
  // the storm.
  util::clear_failpoints();
  service::ServerOptions opts;
  opts.socket_path = fresh_socket_path("emfile");
  opts.threads = 1;
  service::Server server(std::move(opts));
  server.start();

  const std::uint64_t retries_before = obs::counter("svc.accept_retries").value();
  util::FailpointConfig cfg;
  cfg.name = "svc.accept";
  cfg.arg = EMFILE;
  cfg.max_fires = 3;
  util::set_failpoint(cfg);

  service::Client client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  const auto r = client.request("{\"op\":\"ping\"}");
  ASSERT_TRUE(r.has_value()) << client.last_error();
  EXPECT_NE(r->find("\"ok\":true"), std::string::npos);
  EXPECT_GE(obs::counter("svc.accept_retries").value(), retries_before + 3);

  util::clear_failpoints();
  server.stop();
  server.wait();
}

TEST(ServerRobustness, StaleSocketIsReclaimedLiveSocketIsRefused) {
  const std::string path = fresh_socket_path("stale");
  // Simulate a SIGKILLed predecessor: a bound socket whose owner is
  // gone (fd closed, path left behind — exactly what kill -9 leaves).
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(fd, 1), 0);
    ::close(fd);  // no unlink: stale path remains
  }

  service::ServerOptions opts;
  opts.socket_path = path;
  opts.threads = 1;
  service::Server server(std::move(opts));
  server.start();  // must probe, reclaim, and bind
  service::Client client;
  ASSERT_TRUE(client.connect(path));
  EXPECT_TRUE(client.request("{\"op\":\"ping\"}").has_value());

  // A second server on the same path must refuse: the socket is live.
  service::ServerOptions dup;
  dup.socket_path = path;
  dup.threads = 1;
  service::Server second(std::move(dup));
  EXPECT_THROW(second.start(), Error);
  // And the refusal must not have unlinked the live daemon's socket.
  service::Client again;
  EXPECT_TRUE(again.connect(path));

  server.stop();
  server.wait();
}

TEST(ServerRobustness, RefusesToReclaimANonSocketPath) {
  const std::string path = fresh_socket_path("notsock");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("precious user data\n", f);
  std::fclose(f);

  service::ServerOptions opts;
  opts.socket_path = path;
  service::Server server(std::move(opts));
  EXPECT_THROW(server.start(), Error);
  // The file survived.
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  ::unlink(path.c_str());
}

TEST(ServerRobustness, InflightCapShedsWithStructuredReject) {
  util::clear_failpoints();
  service::ServerOptions opts;
  opts.socket_path = fresh_socket_path("inflight");
  opts.threads = 1;
  opts.max_inflight = 1;
  service::Server server(std::move(opts));
  server.start();

  // Pin one slow request in flight: the build_image failpoint delays
  // the (uncached) identify for 600ms in the single handler slot.
  util::FailpointConfig cfg;
  cfg.name = "cache.build_image";
  cfg.mode = util::FailMode::kDelay;
  cfg.arg = 600;
  cfg.max_fires = 1;
  util::set_failpoint(cfg);

  const auto bytes = sample_binary();
  std::thread slow([&] {
    service::Client c;
    ASSERT_TRUE(c.connect(server.socket_path()));
    const auto r = c.request("{\"op\":\"identify\",\"elf\":\"" +
                             service::b64_encode(bytes) + "\"}");
    EXPECT_TRUE(r.has_value());
  });

  // Give the slow request time to be submitted, then expect shedding.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  service::Client fast;
  ASSERT_TRUE(fast.connect(server.socket_path()));
  const auto r = fast.request("{\"op\":\"ping\"}");
  ASSERT_TRUE(r.has_value()) << fast.last_error();
  const auto parsed = obs::json_parse(*r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->get_bool("ok", true));
  EXPECT_EQ(parsed->get_string("code"), "overloaded");
  // The connection survived the reject: once the slow request drains,
  // the same client is served normally.
  slow.join();
  const auto ok = fast.request("{\"op\":\"ping\"}");
  ASSERT_TRUE(ok.has_value());
  EXPECT_NE(ok->find("\"ok\":true"), std::string::npos);

  util::clear_failpoints();
  server.stop();
  server.wait();
}

TEST(ServerThreads, OneThreadRunsOneRequestAtATime) {
  // `threads` caps the requests executing at once over all
  // connections: two uploads sent at the same moment on two
  // connections, each held for kDelayMs by the build_image failpoint,
  // must run one after the other.
  util::clear_failpoints();
  service::ServerOptions opts;
  opts.socket_path = fresh_socket_path("threads");
  opts.threads = 1;
  service::Server server(std::move(opts));
  server.start();

  constexpr int kDelayMs = 300;
  util::FailpointConfig cfg;
  cfg.name = "cache.build_image";
  cfg.mode = util::FailMode::kDelay;
  cfg.arg = kDelayMs;
  cfg.max_fires = 2;
  util::set_failpoint(cfg);

  synth::BinaryConfig other;
  other.kind = elf::BinaryKind::kPie;
  other.program_index = 1;
  const std::vector<std::string> uploads = {
      "{\"op\":\"identify\",\"elf\":\"" + service::b64_encode(sample_binary()) + "\"}",
      "{\"op\":\"identify\",\"elf\":\"" +
          service::b64_encode(synth::make_binary(other).stripped_bytes()) + "\"}",
  };
  service::Client clients[2];
  for (service::Client& c : clients) ASSERT_TRUE(c.connect(server.socket_path()));

  // The clock starts before either request is sent; neither can start
  // executing earlier, so the later answer needs both delays in turn.
  using Clock = std::chrono::steady_clock;
  std::latch go(1);
  Clock::time_point answered[2];
  bool ok[2] = {false, false};
  std::vector<std::thread> senders;
  for (int i = 0; i < 2; ++i)
    senders.emplace_back([&, i] {
      go.wait();
      const auto r = clients[i].request(uploads[i]);
      answered[i] = Clock::now();
      ok[i] = r.has_value() && r->find("\"ok\":true") != std::string::npos;
    });
  const Clock::time_point sent = Clock::now();
  go.count_down();
  for (std::thread& t : senders) t.join();

  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
  const auto second_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::max(answered[0], answered[1]) - sent)
                             .count();
  EXPECT_GE(second_ms, 2 * kDelayMs);

  util::clear_failpoints();
  server.stop();
  server.wait();
}

// ------------------------------------------- persistence (PR 10)

/// Functions array as raw text — the bit-identity comparator.
std::string functions_text(const obs::JsonValue& r) {
  const obs::JsonValue* fns = r.find("functions");
  if (fns == nullptr) return {};
  std::string out;
  for (const obs::JsonValue& f : fns->items()) out += f.as_string("") + ",";
  return out;
}

TEST(ServicePersistence, WarmRestartServesFromPersistentLayer) {
  const std::string sock = fresh_socket_path("pcache");
  const std::string pcache = sock + ".pcache";
  ::unlink(pcache.c_str());
  const auto bytes = sample_binary();

  // First daemon lifetime: populate.
  std::string key, cold_functions;
  {
    service::ServerOptions opts;
    opts.socket_path = sock;
    opts.threads = 2;
    opts.service.pcache_path = pcache;
    opts.service.pcache_bytes = 64u << 20;
    service::Server server(std::move(opts));
    server.start();
    service::Client client;
    ASSERT_TRUE(client.connect(sock));
    const auto resp = client.request("{\"op\":\"identify\",\"elf\":\"" +
                                     service::b64_encode(bytes) + "\"}");
    ASSERT_TRUE(resp.has_value());
    const auto parsed = obs::json_parse(*resp);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->get_bool("ok", false)) << *resp;
    key = parsed->get_string("key");
    cold_functions = functions_text(*parsed);
    ASSERT_FALSE(key.empty());
    ASSERT_FALSE(cold_functions.empty());
    server.stop();
    server.wait();
  }

  // Second lifetime, same segment file: a key-only identify — which a
  // memory-only daemon would refuse as unknown-key — must be served as
  // a hit from the persistent layer, bit-identical, without rebuilding.
  {
    service::ServerOptions opts;
    opts.socket_path = sock;
    opts.threads = 2;
    opts.service.pcache_path = pcache;
    opts.service.pcache_bytes = 64u << 20;
    service::Server server(std::move(opts));
    server.start();
    service::Client client;
    ASSERT_TRUE(client.connect(sock));
    const auto resp =
        client.request("{\"op\":\"identify\",\"key\":\"" + key + "\"}");
    ASSERT_TRUE(resp.has_value());
    const auto parsed = obs::json_parse(*resp);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->get_bool("ok", false)) << *resp;
    EXPECT_EQ(parsed->get_string("cache"), "hit");
    EXPECT_EQ(functions_text(*parsed), cold_functions);

    // compare also rides the meta fast path (all four results persisted
    // by the first lifetime's... only funseeker ran; compare misses the
    // other tools, rebuilds from persisted raw bytes, and still agrees.
    const auto cmp =
        client.request("{\"op\":\"compare\",\"key\":\"" + key + "\"}");
    ASSERT_TRUE(cmp.has_value());
    const auto cparsed = obs::json_parse(*cmp);
    ASSERT_TRUE(cparsed.has_value());
    EXPECT_TRUE(cparsed->get_bool("ok", false)) << *cmp;

    // And disasm, which genuinely needs an image, rebuilds from raw.
    const auto dis = client.request("{\"op\":\"disasm\",\"key\":\"" + key +
                                    "\",\"count\":4}");
    ASSERT_TRUE(dis.has_value());
    const auto dparsed = obs::json_parse(*dis);
    ASSERT_TRUE(dparsed.has_value());
    EXPECT_TRUE(dparsed->get_bool("ok", false)) << *dis;

    // The stats op reports the persistent layer's counters.
    const auto stats = client.request("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.has_value());
    const auto sparsed = obs::json_parse(*stats);
    ASSERT_TRUE(sparsed.has_value());
    const obs::JsonValue* pc = sparsed->find("pcache");
    ASSERT_NE(pc, nullptr);
    EXPECT_TRUE(pc->get_bool("enabled", false));
    EXPECT_GT(pc->get_number("hits", 0), 0.0);
    EXPECT_GT(pc->get_number("rehydrated_results", 0), 0.0);
    EXPECT_EQ(pc->get_number("torn_truncations", -1), 0.0);
    server.stop();
    server.wait();
  }
  ::unlink(pcache.c_str());
}

TEST(ServicePersistence, UnusablePcachePathDegradesToMemoryOnly) {
  service::ServerOptions opts;
  opts.socket_path = fresh_socket_path("badpcache");
  opts.threads = 1;
  opts.service.pcache_path = "/nonexistent-dir/sub/pcache.bin";
  service::Server server(std::move(opts));
  server.start();  // must come up anyway
  service::Client client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  const auto resp = client.request("{\"op\":\"identify\",\"elf\":\"" +
                                   service::b64_encode(sample_binary()) + "\"}");
  ASSERT_TRUE(resp.has_value());
  const auto parsed = obs::json_parse(*resp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->get_bool("ok", false));
  const auto stats = client.request("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats.has_value());
  const auto sparsed = obs::json_parse(*stats);
  ASSERT_TRUE(sparsed.has_value());
  const obs::JsonValue* pc = sparsed->find("pcache");
  ASSERT_NE(pc, nullptr);
  EXPECT_FALSE(pc->get_bool("enabled", true));
  server.stop();
  server.wait();
}

// ------------------------------------------- pipelining (PR 10)

TEST_F(ServiceIntegration, PipelinedResponsesArriveInRequestOrder) {
  // Every upload is followed at once by an identify by its key, all in
  // one pipeline. The key only exists once the upload has run, so the
  // answers prove in-order execution, not only in-order delivery.
  constexpr int kBinaries = 16;
  std::vector<std::string> keys;
  std::vector<std::string> reqs = {"{\"op\":\"ping\"}"};
  for (int i = 0; i < kBinaries; ++i) {
    synth::BinaryConfig cfg;
    cfg.kind = elf::BinaryKind::kPie;
    cfg.program_index = i;
    const auto bytes = synth::make_binary(cfg).stripped_bytes();
    keys.push_back(service::content_id(bytes).to_string());
    reqs.push_back("{\"op\":\"identify\",\"elf\":\"" + service::b64_encode(bytes) + "\"}");
    reqs.push_back("{\"op\":\"identify\",\"key\":\"" + keys.back() + "\"}");
  }
  reqs.push_back("{\"op\":\"stats\"}");
  ASSERT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(), keys.size());

  const auto resps = client_.call_pipelined(reqs);
  ASSERT_TRUE(resps.has_value()) << client_.last_error();
  ASSERT_EQ(resps->size(), reqs.size());
  std::vector<obs::JsonValue> parsed;
  for (const std::string& r : *resps) {
    auto p = obs::json_parse(r);
    ASSERT_TRUE(p.has_value()) << r;
    EXPECT_TRUE(p->get_bool("ok", false)) << r;
    parsed.push_back(std::move(*p));
  }
  EXPECT_FALSE(parsed.front().get_string("version").empty());
  for (int i = 0; i < kBinaries; ++i) {
    const obs::JsonValue& upload = parsed[1 + 2 * i];
    const obs::JsonValue& by_key = parsed[2 + 2 * i];
    EXPECT_EQ(upload.get_string("key"), keys[i]) << "binary " << i;
    EXPECT_EQ(by_key.get_string("key"), keys[i]) << "binary " << i;
    EXPECT_EQ(by_key.get_string("cache"), "hit") << "binary " << i;
    EXPECT_EQ(functions_text(by_key), functions_text(upload)) << "binary " << i;
  }
  EXPECT_NE(parsed.back().find("ops"), nullptr);
}

TEST(ServerPipelining, FlowControlCapStillAnswersEverything) {
  service::ServerOptions opts;
  opts.socket_path = fresh_socket_path("pipecap");
  opts.threads = 2;
  service::Server server(std::move(opts));
  server.start();

  service::Client client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  const auto up = client.request("{\"op\":\"identify\",\"elf\":\"" +
                                 service::b64_encode(sample_binary()) + "\"}");
  ASSERT_TRUE(up.has_value()) << client.last_error();
  const auto uploaded = obs::json_parse(*up);
  ASSERT_TRUE(uploaded.has_value());
  const std::string key = uploaded->get_string("key");
  ASSERT_FALSE(key.empty()) << *up;

  // A 64-frame burst whose answers differ by size, so each answer
  // names its request; together they are far larger than one socket
  // buffer, so the server must flush mid-burst and still keep order.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i)
    ASSERT_TRUE(client.pipeline_send("{\"op\":\"disasm\",\"key\":\"" + key +
                                     "\",\"count\":" + std::to_string(8 * (i + 1)) + "}"));
  std::size_t answered_bytes = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto r = client.pipeline_recv();
    ASSERT_TRUE(r.has_value()) << "response " << i << ": " << client.last_error();
    answered_bytes += r->size();
    const auto parsed = obs::json_parse(*r);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->get_bool("ok", false)) << *r;
    EXPECT_EQ(parsed->get_number("count", 0), 8.0 * (i + 1)) << "response " << i;
  }
  EXPECT_GT(answered_bytes, std::size_t{1} << 20);
  server.stop();
  server.wait();
}

TEST(ServerPipelining, ShutdownMidPipelineAnswersEveryOwedFrame) {
  service::ServerOptions opts;
  opts.socket_path = fresh_socket_path("pipeshut");
  opts.threads = 2;
  service::Server server(std::move(opts));
  server.start();

  service::Client client;
  ASSERT_TRUE(client.connect(server.socket_path()));
  ASSERT_TRUE(client.pipeline_send("{\"op\":\"ping\"}"));
  ASSERT_TRUE(client.pipeline_send("{\"op\":\"ping\"}"));
  ASSERT_TRUE(client.pipeline_send("{\"op\":\"shutdown\"}"));
  for (int i = 0; i < 3; ++i) {
    const auto r = client.pipeline_recv();
    ASSERT_TRUE(r.has_value()) << "response " << i;
    const auto parsed = obs::json_parse(*r);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->get_bool("ok", false));
  }
  server.wait();  // the pipelined shutdown stopped the server
  service::Client late;
  EXPECT_FALSE(late.connect(server.socket_path()));
}

TEST(ServerRobustness, ConnectionCapShedsNewcomers) {
  service::ServerOptions opts;
  opts.socket_path = fresh_socket_path("connlimit");
  opts.threads = 1;
  opts.max_connections = 1;
  service::Server server(std::move(opts));
  server.start();

  service::Client first;
  ASSERT_TRUE(first.connect(server.socket_path()));
  ASSERT_TRUE(first.request("{\"op\":\"ping\"}").has_value());

  // The second connection is told why it was turned away, then closed.
  service::Client second;
  ASSERT_TRUE(second.connect(server.socket_path()));
  service::FrameStatus st = service::FrameStatus::kOk;
  const auto reject = second.read_response(&st);
  ASSERT_TRUE(reject.has_value());
  const auto parsed = obs::json_parse(*reject);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_string("code"), "overloaded");

  // The first (admitted) client is unaffected.
  EXPECT_TRUE(first.request("{\"op\":\"ping\"}").has_value());
  server.stop();
  server.wait();
}

}  // namespace
