// serve_cold and serve_hot: a real fsrd process driven closed-loop by
// this process on kConnections connections (fsrd's callers are tools
// that wait for each reply). Every request is an `identify`.
//
//   serve_cold  uploads a never-seen binary: a corpus binary drawn
//               across the whole size range plus a unique trailer. The
//               image cache is filled to its budget first, so the timed
//               window runs at steady eviction.
//   serve_hot   alternates identify-by-key and a re-upload of the same
//               bytes (a content hit with no key) over a working set
//               that fits the cache budget.
//
// The daemon's `stats` op, read before, during and after the timed
// window, proves each workload did what it claims (IntegrityError
// otherwise).
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "baselines/common.hpp"
#include "common.hpp"
#include "elf/reader.hpp"
#include "eval/runner.hpp"
#include "funseeker/disassemble.hpp"
#include "obs/eventlog.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/proto.hpp"
#include "service/service.hpp"
#include "synth/cache.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

extern char** environ;

namespace pb {
namespace {

using namespace fsr;
using Clock = std::chrono::steady_clock;

constexpr int kConnections = 2;
constexpr const char* kDaemonThreads = "2";
// Many size strata keep the draw's mix of sizes, and so each figure,
// about the same from one seed to the next: the slowest 1% of requests
// spans a few templates rather than hanging on the one drawn from the
// largest stratum.
constexpr std::size_t kColdTemplates = 256;
constexpr std::size_t kHotWorkingSet = 128;
constexpr int kFunSeekerConfig = 4;  // the daemon's default identify config
constexpr std::size_t kMaxWarmupRequests = 10000;
constexpr double kWindowSeconds = 1.0;

/// A corpus binary used as request content, with the answer an
/// in-process FunSeeker run gives on its bytes.
struct Template {
  std::string b64;  // cold: bytes zero-padded to a multiple of 3; hot: exact
  std::string key;  // content id of the exact bytes (hot requests by key)
  std::vector<std::uint64_t> functions;
  bool small = false;  // below the median template size
};

struct Inputs {
  bool hot = false;
  std::uint64_t seed = 0;
  std::vector<Template> templates;
};

/// Draw `n` corpus binaries, one per size stratum, so every draw spans
/// the corpus from its smallest to its largest binary.
Inputs make_inputs(const std::vector<synth::BinaryConfig>& configs, bool hot,
                   std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> by_size;  // (size, config index)
  for (std::size_t i = 0; i < configs.size(); ++i)
    by_size.push_back({synth::cached_binary(configs[i])->stripped_bytes().size(), i});
  std::sort(by_size.begin(), by_size.end());

  Inputs in;
  in.hot = hot;
  in.seed = seed;
  const std::size_t n = hot ? kHotWorkingSet : kColdTemplates;
  util::Rng rng(seed ^ (hot ? 0x686f74u : 0x636f6c64u));
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t lo = by_size.size() * s / n, hi = by_size.size() * (s + 1) / n - 1;
    const auto& cfg = configs[by_size[rng.range(lo, hi)].second];
    std::vector<std::uint8_t> bytes = synth::cached_binary(cfg)->stripped_bytes();
    Template t;
    t.key = service::content_id(bytes).to_string();
    t.functions = eval::run_tool_on(eval::Tool::kFunSeeker, elf::read_elf(bytes),
                                    funseeker::Options::config(kFunSeekerConfig))
                      .found;
    // A cold request appends its trailer's base64 to this text, which
    // encodes template + padding + trailer only when this part's byte
    // count is a multiple of 3.
    if (!hot) bytes.resize((bytes.size() + 2) / 3 * 3, 0);
    t.b64 = service::b64_encode(bytes);
    t.small = s < n / 2;
    in.templates.push_back(std::move(t));
  }
  return in;
}

std::string identify_upload(const std::string& b64) {
  return "{\"op\":\"identify\",\"tool\":\"funseeker\",\"elf\":\"" + b64 + "\"}";
}

std::string identify_key(const std::string& key) {
  return "{\"op\":\"identify\",\"tool\":\"funseeker\",\"key\":\"" + key + "\"}";
}

/// An identify that uploads `t`'s bytes plus a trailer no other
/// request carries: it names the seed, the stream and a counter.
std::string cold_upload(const Inputs& in, const Template& t, std::uint32_t stream,
                        std::uint32_t n) {
  std::uint8_t trailer[18] = {'p', 'b'};
  std::memcpy(trailer + 2, &in.seed, 8);
  std::memcpy(trailer + 10, &stream, 4);
  std::memcpy(trailer + 14, &n, 4);
  return identify_upload(t.b64 + service::b64_encode(trailer));
}

struct Request {
  std::string json;
  const Template* tmpl = nullptr;
  bool small = false;
  std::uint32_t n = 0;  // position in its stream
};

/// The seeded request sequence of one connection. Streams never repeat
/// a cold trailer: it carries the seed, the stream id and a counter.
class RequestStream {
 public:
  RequestStream(const Inputs& in, std::uint32_t stream)
      : in_(in), stream_(stream), rng_(in.seed * 0x9e3779b97f4a7c15ULL + stream) {}

  Request next() {
    Request r;
    r.n = static_cast<std::uint32_t>(count_);
    if (in_.hot) {
      // Pairs: identify by key, then re-upload the same bytes.
      if (count_ % 2 == 0) pick_ = rng_.range(0, in_.templates.size() - 1);
      r.tmpl = &in_.templates[pick_];
      r.small = count_ % 2 == 0;
      r.json = r.small ? identify_key(r.tmpl->key) : identify_upload(r.tmpl->b64);
    } else {
      r.tmpl = &in_.templates[rng_.range(0, in_.templates.size() - 1)];
      r.small = r.tmpl->small;
      r.json = cold_upload(in_, *r.tmpl, stream_, r.n);
    }
    ++count_;
    return r;
  }

 private:
  const Inputs& in_;
  std::uint32_t stream_;
  util::Rng rng_;
  std::uint64_t count_ = 0;
  std::size_t pick_ = 0;
};

/// True when `response` is a successful identify that lists exactly the
/// template's functions and reports the expected cache outcome.
bool response_correct(const std::string& response, const Request& req, bool hot) {
  const auto doc = obs::json_parse(response);
  if (!doc || !doc->get_bool("ok", false)) return false;
  if (doc->get_string("cache") != (hot ? "hit" : "miss")) return false;
  const obs::JsonValue* fns = doc->find("functions");
  if (fns == nullptr || fns->items().size() != req.tmpl->functions.size()) return false;
  for (std::size_t i = 0; i < fns->items().size(); ++i)
    if (std::strtoull(fns->items()[i].as_string("").c_str(), nullptr, 16) !=
        req.tmpl->functions[i])
      return false;
  return true;
}

struct CacheCounts {
  std::uint64_t image_hits = 0, image_misses = 0, image_evictions = 0;
  std::uint64_t result_hits = 0, result_misses = 0, result_evictions = 0;
  std::uint64_t identify = 0;

  static CacheCounts of(const util::LruStats& img, const util::LruStats& res) {
    return {img.hits, img.misses, img.evictions, res.hits, res.misses, res.evictions, 0};
  }
  CacheCounts operator-(const CacheCounts& o) const {
    return {image_hits - o.image_hits,       image_misses - o.image_misses,
            image_evictions - o.image_evictions, result_hits - o.result_hits,
            result_misses - o.result_misses, result_evictions - o.result_evictions,
            identify - o.identify};
  }
  CacheCounts& operator+=(const CacheCounts& o) {
    image_hits += o.image_hits;
    image_misses += o.image_misses;
    image_evictions += o.image_evictions;
    result_hits += o.result_hits;
    result_misses += o.result_misses;
    result_evictions += o.result_evictions;
    identify += o.identify;
    return *this;
  }
};

/// One fsrd process. The destructor stops it and waits for it.
class Daemon {
 public:
  Daemon(const Args& args, const std::string& tag)
      : socket_(args.out_dir + "/fsrd-" + std::to_string(::getpid()) + ".sock") {
    const std::string log = args.out_dir + "/fsrd-" + tag + ".log";
    // The cache budget is fsrd's default; run.py clears REPRO_CACHE_MB.
    const char* argv[] = {args.fsrd.c_str(), "--socket", socket_.c_str(), "--threads",
                          kDaemonThreads,    nullptr};
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, args.fsrd.c_str(), &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + args.fsrd + ": " + std::strerror(rc));
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    while (!control_.connect(socket_)) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("fsrd exited during start-up; see " + log);
      }
      if (Clock::now() > give_up) throw std::runtime_error("fsrd did not start; see " + log);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] double peak_rss_mb() const { return proc_peak_rss_mb(pid_); }

  CacheCounts stats() {
    const auto resp = control_.request("{\"op\":\"stats\"}");
    const auto doc = resp ? obs::json_parse(*resp) : std::nullopt;
    const obs::JsonValue* cache = doc ? doc->find("cache") : nullptr;
    if (cache == nullptr) throw std::runtime_error("fsrd stats failed");
    auto num = [](const obs::JsonValue* o, const char* key) {
      return static_cast<std::uint64_t>(o != nullptr ? o->get_number(key, 0.0) : 0.0);
    };
    const obs::JsonValue* img = cache->find("images");
    const obs::JsonValue* res = cache->find("results");
    const obs::JsonValue* ops = doc->find("ops");
    return {num(img, "hits"),    num(img, "misses"),    num(img, "evictions"),
            num(res, "hits"),    num(res, "misses"),    num(res, "evictions"),
            num(ops != nullptr ? ops->find("identify") : nullptr, "requests")};
  }

  /// Ask for a clean shutdown, then make sure the process is gone.
  void stop() {
    if (pid_ < 0) return;
    control_.request("{\"op\":\"shutdown\"}");
    control_.close();
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  service::Client control_;
};

struct Load {
  std::vector<double> us;
  std::vector<double> at_s;  // completion time since the load started
  std::vector<char> small;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Closed loop: kConnections threads, each sending its stream's next
/// request when the previous reply arrived, until `seconds` pass or
/// each sent `max_per_conn`. `tick` runs on this thread about once a
/// second while they do, and once after they finish.
Load drive(const std::string& socket, const Inputs& in, std::uint32_t& next_stream,
           double seconds, std::uint64_t max_per_conn, const std::function<void()>& tick) {
  std::vector<Load> per(kConnections);
  std::atomic<int> ready{0}, done{0};
  std::atomic<bool> go{false};
  Clock::time_point start, deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c, stream = next_stream++] {
      Load& out = per[c];
      RequestStream requests(in, stream);
      service::ClientOptions copts;
      copts.op_timeout_seconds = 60.0;
      service::Client client(copts);
      const bool connected = client.connect(socket);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (connected && out.attempted < max_per_conn && Clock::now() < deadline) {
        const Request req = requests.next();
        const auto t0 = Clock::now();
        const auto resp = client.request(req.json);
        const auto t1 = Clock::now();
        ++out.attempted;
        if (!resp || !response_correct(*resp, req, in.hot)) {
          ++out.failed;
          continue;
        }
        out.us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        out.at_s.push_back(std::chrono::duration<double>(t1 - start).count());
        out.small.push_back(req.small);
      }
      if (!connected) out.failed = out.attempted = 1;
      done.fetch_add(1);
    });
  }
  while (ready.load() < kConnections) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  go.store(true);
  // A throwing tick must not skip the joins below.
  std::exception_ptr error;
  const auto safe_tick = [&] {
    try {
      if (!error) tick();
    } catch (...) {
      error = std::current_exception();
    }
  };
  auto next_tick = Clock::now() + std::chrono::seconds(1);
  while (done.load() < kConnections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (Clock::now() >= next_tick && done.load() == 0) {
      safe_tick();
      next_tick += std::chrono::seconds(1);
    }
  }
  for (auto& t : threads) t.join();
  safe_tick();
  if (error) std::rethrow_exception(error);

  Load total;
  for (const Load& l : per) {
    total.us.insert(total.us.end(), l.us.begin(), l.us.end());
    total.at_s.insert(total.at_s.end(), l.at_s.begin(), l.at_s.end());
    total.small.insert(total.small.end(), l.small.begin(), l.small.end());
    total.attempted += l.attempted;
    total.failed += l.failed;
  }
  return total;
}

/// Bring a fresh daemon to the workload's steady state: the hot working
/// set cached, or the cold image cache full and evicting.
void warm_up(Daemon& d, const Inputs& in, std::uint32_t& next_stream) {
  const auto noop = [] {};
  if (in.hot) {
    for (const Template& t : in.templates) {
      service::Client c;
      const auto resp = c.connect(d.socket()) ? c.request(identify_upload(t.b64)) : std::nullopt;
      const auto doc = resp ? obs::json_parse(*resp) : std::nullopt;
      if (!doc || doc->get_string("key") != t.key)
        throw std::runtime_error("hot warm-up upload failed");
    }
    const CacheCounts s = d.stats();
    if (s.image_evictions != 0 || s.result_evictions != 0)
      throw IntegrityError("hot working set does not fit the cache budget");
    return;
  }
  std::uint64_t sent = 0;
  for (bool full = false;;) {
    const Load l = drive(d.socket(), in, next_stream, 1e9, 8, noop);
    if (l.failed != 0) throw std::runtime_error("cold warm-up request failed");
    sent += l.attempted;
    if (full) return;  // one more round past the first eviction
    full = d.stats().image_evictions > 0;
    if (sent > kMaxWarmupRequests) throw IntegrityError("cold warm-up never filled the cache");
  }
}

struct Session {
  Inputs inputs;
  std::unique_ptr<Daemon> daemon;
  std::uint32_t next_stream = 0;
};

/// Set-up: corpus generation, input draw with reference answers, daemon
/// start and warm-up.
void set_up(Session& s, const Args& args, bool hot,
            const std::vector<synth::BinaryConfig>& configs) {
  generate_corpus(configs, nproc());
  s.inputs = make_inputs(configs, hot, args.seed);
  s.daemon = std::make_unique<Daemon>(args, args.workload);
  s.next_stream = 0;
  warm_up(*s.daemon, s.inputs, s.next_stream);
}

/// One timed stretch on the session's freshly set-up daemon.
struct Segment {
  Load load;
  CacheCounts delta;              // the daemon's counters over the stretch
  std::size_t stats_windows = 0;  // intervals between counter samples
  double peak_rss_mb = 0.0;       // the daemon's VmHWM
};

/// Closed-loop load for `seconds` with the daemon's counters sampled
/// about once a second, then stop the daemon and check from its
/// counters that the stretch did what the workload claims.
Segment run_segment(Session& s, double seconds) {
  Daemon& d = *s.daemon;
  std::vector<std::pair<Clock::time_point, CacheCounts>> samples;
  const auto sample = [&] { samples.push_back({Clock::now(), d.stats()}); };
  sample();
  Segment seg;
  seg.load = drive(d.socket(), s.inputs, s.next_stream, seconds, ~std::uint64_t{0}, sample);
  seg.peak_rss_mb = d.peak_rss_mb();
  d.stop();
  seg.stats_windows = samples.size() - 1;

  const CacheCounts& delta = seg.delta = samples.back().second - samples.front().second;
  if (delta.identify != seg.load.attempted)
    throw IntegrityError("daemon saw " + std::to_string(delta.identify) + " identify requests, " +
                         std::to_string(seg.load.attempted) + " were sent");
  if (s.inputs.hot) {
    if (delta.image_misses != 0 || delta.result_misses != 0 || delta.image_hits == 0)
      throw IntegrityError("serve_hot missed the cache");
    return seg;
  }
  if (delta.image_hits != 0 || delta.result_hits != 0)
    throw IntegrityError("serve_cold hit the cache");
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double span_s =
        std::chrono::duration<double>(samples[i].first - samples[i - 1].first).count();
    const CacheCounts w = samples[i].second - samples[i - 1].second;
    if (span_s >= 0.5 && w.image_evictions == 0)
      throw IntegrityError("serve_cold window " + std::to_string(i) + " had no evictions");
  }
  return seg;
}

// ---- traced replay ------------------------------------------------------

struct ChainOut {
  bool correct = false;
  double substrate_s = 0.0;
  std::size_t insns = 0;
  std::size_t cached_bytes = 0;  // inserted image's CachedImage::approx_bytes
  std::size_t input_bytes = 0;   // inserted image's upload size
};

/// One identify through each layer's public functions, in the order
/// Service::handle calls them.
ChainOut replay_request(service::AnalysisCache& cache, const Request& req, std::uint64_t id) {
  const obs::ScopedItemId item_id(id);
  TRACE_SPAN("item");
  ChainOut out;
  std::optional<obs::JsonValue> parsed;
  const std::string* elf_b64 = nullptr;
  {
    TRACE_SPAN("obs.json_parse");
    parsed = obs::json_parse(req.json);
    if (!parsed) return out;
    if (const obs::JsonValue* e = parsed->find("elf"); e != nullptr && e->is_string())
      elf_b64 = &e->as_string("");
  }
  std::optional<std::vector<std::uint8_t>> bytes;
  if (elf_b64 != nullptr) {
    TRACE_SPAN("proto.b64_decode");
    bytes = service::b64_decode(*elf_b64);
    if (!bytes) return out;
  }
  service::ContentId cid;
  {
    TRACE_SPAN("cache.content_id");
    if (bytes) {
      cid = service::content_id(*bytes);
    } else if (const auto k = service::ContentId::parse(parsed->get_string("key"))) {
      cid = *k;
    } else {
      return out;
    }
  }
  const service::ResultKey rk{cid, static_cast<int>(eval::Tool::kFunSeeker), kFunSeekerConfig};
  std::shared_ptr<const service::CachedImage> img;
  std::shared_ptr<const eval::RunResult> res;
  {
    TRACE_SPAN("cache.lookup");
    img = cache.find_image(cid);
    res = cache.find_result(rk);
  }
  const bool image_miss = img == nullptr;
  if (image_miss) {
    if (!bytes) return out;  // a key the cache no longer holds
    service::CachedImage ci;
    ci.input_bytes = bytes->size();
    {
      TRACE_SPAN("elf.read");
      ci.image = elf::read_elf(*bytes, elf::ReadOptions{true, &ci.diagnostics});
    }
    {
      TRACE_SPAN("x86.decode");
      ci.decode.view =
          std::make_shared<const x86::CodeView>(baselines::build_code_view(ci.image));
    }
    {
      TRACE_SPAN("funseeker.derive");
      ci.decode.sweep = std::make_shared<const funseeker::DisasmSets>(
          funseeker::derive_sets(*ci.decode.view));
    }
    out.substrate_s = ci.decode.view->substrate_seconds;
    out.insns = ci.decode.view->insns.size();
    img = std::make_shared<const service::CachedImage>(std::move(ci));
  }
  if (res == nullptr) {
    util::Diagnostics diags;
    eval::RunResult run;
    {
      TRACE_SPAN("funseeker.analysis");
      run = eval::run_tool_on(eval::Tool::kFunSeeker, img->image, img->decode,
                              funseeker::Options::config(kFunSeekerConfig), &diags);
    }
    {
      TRACE_SPAN("cache.insert");
      if (image_miss) cache.insert_image(cid, img, *bytes);
      res = cache.insert_result(rk, std::move(run));
    }
    if (image_miss) {
      out.cached_bytes = img->approx_bytes();
      out.input_bytes = img->input_bytes;
    }
  }
  out.correct = res->found == req.tmpl->functions;
  return out;
}

/// Warm an in-process service the way warm_up() warms the daemon.
void warm_in_process(const Inputs& in, std::uint32_t stream, service::Service& svc) {
  const auto evictions = [&] { return svc.cache().image_stats().evictions; };
  if (in.hot) {
    for (const Template& t : in.templates) svc.handle(identify_upload(t.b64));
    if (evictions() != 0) throw IntegrityError("hot working set does not fit the cache budget");
    return;
  }
  RequestStream warm(in, stream);
  std::size_t extra = 0, sent = 0;
  while (extra < 16) {
    svc.handle(warm.next().json);
    if (evictions() > 0) ++extra;
    if (++sent > kMaxWarmupRequests) throw IntegrityError("cold warm-up never filled the cache");
  }
}

Report run_traced(const Args& args, Session& s) {
  const bool hot = s.inputs.hot;
  Report r;
  auto tally = [&r](bool ok) {
    ++r.attempted;
    if (!ok) ++r.failed;
  };

  // In process, configured like fsrd (event log on, default cache
  // budget): one Service, warmed the way the daemon was. Service::handle
  // and the layer chain, untraced and traced, all run on its cache. On
  // serve_cold each of the three gets its own trailer (streams
  // kReplayStream + 0, 1, 2), so every one of them uploads unseen bytes
  // of the same size.
  obs::set_log_enabled(true);
  obs::set_trace_buffer_capacity(std::size_t{1} << 21);
  service::Service svc;
  service::AnalysisCache& cache = svc.cache();
  constexpr std::uint32_t kReplayStream = 1000, kWarmStream = 2000;
  warm_in_process(s.inputs, kWarmStream, svc);
  const auto cache_counts = [&] {
    return CacheCounts::of(cache.image_stats(), cache.result_stats());
  };
  CacheCounts traced_delta;  // the traced replays' own cache traffic

  // Rounds until --seconds pass. Each round sends its requests through
  // the daemon one at a time (client round trip), then runs each one
  // in process three ways in rotating order, so none is always first to
  // touch a template's bytes.
  service::Client client;
  if (!client.connect(s.daemon->socket())) throw std::runtime_error("cannot reach fsrd");
  RequestStream gen(s.inputs, kReplayStream);
  std::vector<double> rtt_us, handle_us;
  double chain_s[2] = {0.0, 0.0}, request_bytes = 0.0;
  ChainOut sum;
  std::uint64_t id = 0;
  const std::size_t round = hot ? 500 : 100;
  util::Stopwatch elapsed;
  while (elapsed.seconds() < args.seconds) {
    std::vector<Request> batch;
    for (std::size_t i = 0; i < round; ++i) batch.push_back(gen.next());
    for (const Request& req : batch) {
      util::Stopwatch w;
      const auto resp = client.request(req.json);
      rtt_us.push_back(w.seconds() * 1e6);
      tally(resp && response_correct(*resp, req, hot));
    }
    for (const Request& req : batch) {
      ++id;
      request_bytes += static_cast<double>(req.json.size());
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t step = (id + k) % 3;
        util::Stopwatch w;
        if (step == 0) {
          const service::Service::Outcome o = svc.handle(req.json);
          handle_us.push_back(w.seconds() * 1e6);
          tally(o.ok && response_correct(o.json, req, hot));
          continue;
        }
        Request variant = req;
        if (!hot) variant.json = cold_upload(s.inputs, *req.tmpl, kReplayStream + step, req.n);
        const CacheCounts c0 = cache_counts();
        w.reset();
        obs::set_trace_enabled(step == 2);
        const ChainOut c = replay_request(cache, variant, id);
        obs::set_trace_enabled(false);
        chain_s[step - 1] += w.seconds();
        tally(c.correct);
        if (step == 2) {
          traced_delta += cache_counts() - c0;
          sum.substrate_s += c.substrate_s;
          sum.insns += c.insns;
          sum.cached_bytes += c.cached_bytes;
          sum.input_bytes += c.input_bytes;
        }
      }
    }
  }
  client.close();
  s.daemon->stop();
  obs::set_log_enabled(false);

  const SpanTotals spans =
      export_and_total_spans(args.out_dir + "/trace-" + args.workload + ".json");
  if (spans.items != id) throw std::runtime_error("traced replay lost requests");
  const double nreq = static_cast<double>(id);
  std::map<std::string, double> m;
  double chain_us = 0.0;
  for (const char* name : {"obs.json_parse", "proto.b64_decode", "cache.content_id",
                           "cache.lookup", "elf.read", "funseeker.derive",
                           "funseeker.analysis", "cache.insert"}) {
    m[std::string(name) + "_us"] = spans.per_item_us(name);
    chain_us += m[std::string(name) + "_us"];
  }
  m["x86.substrate_us"] = sum.substrate_s / nreq * 1e6;
  m["x86.decode_us"] = spans.per_item_us("x86.decode") - m["x86.substrate_us"];
  chain_us += spans.per_item_us("x86.decode");
  if (sum.insns > 0)
    m["x86.ns_per_insn"] = m["x86.decode_us"] * nreq * 1e3 / static_cast<double>(sum.insns);
  const double rtt = mean(rtt_us), handle = mean(handle_us);
  std::vector<double> transport;
  for (std::size_t i = 0; i < rtt_us.size(); ++i) transport.push_back(rtt_us[i] - handle_us[i]);
  m["server.transport_us"] = rtt - handle;
  m["server.transport_p99_us"] = percentile(transport, 0.99);
  m["service.handle_us"] = handle;
  m["service.residual_us"] = handle - chain_us;
  m["proto.request_bytes"] = request_bytes / nreq;
  const CacheCounts& d = traced_delta;
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
  };
  m["cache.image_hit_ratio"] = ratio(d.image_hits, d.image_misses);
  m["cache.result_hit_ratio"] = ratio(d.result_hits, d.result_misses);
  m["cache.evictions_per_req"] =
      static_cast<double>(d.image_evictions + d.result_evictions) / nreq;
  if (sum.input_bytes > 0)
    m["cache.bytes_per_input_byte"] =
        static_cast<double>(sum.cached_bytes) / static_cast<double>(sum.input_bytes);
  m["layers.unattributed_pct"] = m["service.residual_us"] / rtt * 100.0;
  m["trace.overhead_pct"] = (chain_s[1] - chain_s[0]) / chain_s[0] * 100.0;
  std::fprintf(stderr,
               "%s traced: %zu requests; round trip %.1f us = transport %.1f + handle %.1f"
               " (layers %.1f, residual %.1f)\n",
               args.workload.c_str(), rtt_us.size(), rtt, rtt - handle, handle, chain_us,
               handle - chain_us);
  add_layer_metrics(r, m);
  return r;
}

}  // namespace

Report run_serve(const Args& args, bool hot) {
  const std::vector<synth::BinaryConfig> configs = corpus();
  Session s;
  if (args.trace) {
    set_up(s, args, hot, configs);
    return run_traced(args, s);
  }
  // Each set-up is timed (setup_s is their median), then its fresh
  // daemon serves one timed segment of --seconds / kSetups. Pooling the
  // windows of kSetups daemon instances keeps what one instance happens
  // to get (thread placement, heap layout) from moving a run's figures.
  Report r;
  std::vector<double> setups, rss, all_us, small_us, large_us;
  Windows w;
  CacheCounts total;
  std::size_t stats_windows = 0;
  for (int i = 0; i < kSetups; ++i) {
    s.daemon.reset();  // the previous segment's daemon, outside the timing
    util::Stopwatch watch;
    set_up(s, args, hot, configs);
    setups.push_back(watch.seconds());
    const Segment seg = run_segment(s, args.seconds / kSetups);
    const Windows sw = per_window(seg.load.at_s, seg.load.us, kWindowSeconds);
    w.rates.insert(w.rates.end(), sw.rates.begin(), sw.rates.end());
    w.p99s.insert(w.p99s.end(), sw.p99s.begin(), sw.p99s.end());
    for (std::size_t k = 0; k < seg.load.us.size(); ++k)
      (seg.load.small[k] ? small_us : large_us).push_back(seg.load.us[k]);
    all_us.insert(all_us.end(), seg.load.us.begin(), seg.load.us.end());
    rss.push_back(seg.peak_rss_mb);
    r.attempted += seg.load.attempted;
    r.failed += seg.load.failed;
    total += seg.delta;
    stats_windows += seg.stats_windows;
  }

  const auto ull = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  if (hot) {
    std::fprintf(stderr,
                 "serve_hot: image hit ratio 1.0 (%llu of %llu), result hit ratio 1.0"
                 " (%llu of %llu)\n",
                 ull(total.image_hits), ull(total.image_hits + total.image_misses),
                 ull(total.result_hits), ull(total.result_hits + total.result_misses));
  } else {
    std::fprintf(stderr,
                 "serve_cold: image hit ratio 0.0 (0 of %llu), result hit ratio 0.0"
                 " (0 of %llu), %llu evictions over %zu stats windows\n",
                 ull(total.image_misses), ull(total.result_misses), ull(total.image_evictions),
                 stats_windows);
  }
  const double rate = percentile(w.rates, 0.5), p99 = percentile(w.p99s, 0.5);
  std::fprintf(stderr,
               "%s: %llu requests over %d daemons (%llu failed), %zu latency samples;"
               " %zu windows of %.0fs, median %.0f requests/s, median p99 %.0f us\n",
               args.workload.c_str(), ull(r.attempted), kSetups, ull(r.failed), all_us.size(),
               w.rates.size(), kWindowSeconds, rate, p99);
  r.add("setup_s", percentile(setups, 0.5), "s");
  r.add("items_per_s", rate, "1/s");
  r.add("p50_us", percentile(all_us, 0.5), "us");
  r.add("p99_us", p99, "us");
  r.add("small_p50_us", percentile(small_us, 0.5), "us");
  r.add("large_p50_us", percentile(large_us, 0.5), "us");
  r.add("peak_rss_mb", percentile(rss, 0.5), "MiB");
  return r;
}

}  // namespace pb
