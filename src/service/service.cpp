#include "service/service.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bti/btiseeker.hpp"
#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "service/pcache.hpp"
#include "service/proto.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/str.hpp"
#include "util/version.hpp"
#include "x86/format.hpp"

namespace fsr::service {

const char* to_string(OpKind op) {
  switch (op) {
    case OpKind::kPing: return "ping";
    case OpKind::kIdentify: return "identify";
    case OpKind::kCompare: return "compare";
    case OpKind::kDisasm: return "disasm";
    case OpKind::kStats: return "stats";
    case OpKind::kMetrics: return "metrics";
    case OpKind::kTail: return "tail";
    case OpKind::kShutdown: return "shutdown";
    case OpKind::kUnknown: return "unknown";
  }
  return "unknown";
}

namespace {

OpKind parse_op(std::string_view op) {
  if (op == "ping") return OpKind::kPing;
  if (op == "identify") return OpKind::kIdentify;
  if (op == "compare") return OpKind::kCompare;
  if (op == "disasm") return OpKind::kDisasm;
  if (op == "stats") return OpKind::kStats;
  if (op == "metrics") return OpKind::kMetrics;
  if (op == "tail") return OpKind::kTail;
  if (op == "shutdown") return OpKind::kShutdown;
  return OpKind::kUnknown;
}

}  // namespace

namespace {

struct SvcMetrics {
  obs::Counter& requests = obs::counter("svc.requests");
  obs::Counter& errors = obs::counter("svc.errors");
  obs::Counter& cache_hits = obs::counter("svc.cache.hit_requests");
  obs::Counter& cache_misses = obs::counter("svc.cache.miss_requests");
  obs::Histogram& latency_hit = obs::histogram("svc.latency.hit_ns");
  obs::Histogram& latency_miss = obs::histogram("svc.latency.miss_ns");
};

SvcMetrics& svc_metrics() {
  static SvcMetrics m;
  return m;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  out += obs::json_escape(s);
  out += '"';
  return out;
}

/// Minimal JSON object builder (keys are trusted literals, values are
/// escaped where they are strings).
class ObjBuilder {
 public:
  ObjBuilder() : out_("{") {}

  void raw(std::string_view key, std::string_view json) {
    sep();
    out_ += quoted(key);
    out_ += ':';
    out_ += json;
  }
  void str(std::string_view key, std::string_view value) { raw(key, quoted(value)); }
  void boolean(std::string_view key, bool v) { raw(key, v ? "true" : "false"); }
  void num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    raw(key, buf);
  }
  void integer(std::string_view key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }

  std::string close() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  void sep() {
    if (out_.size() > 1) out_ += ',';
  }
  std::string out_;
};

std::string hex_array(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(util::hex(values[i]));
  }
  out += ']';
  return out;
}

std::string diag_array(const std::vector<util::Diagnostic>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(items[i].to_string());
  }
  out += ']';
  return out;
}

std::string diag_array(const util::Diagnostics& diags) {
  return diag_array(diags.items());
}

std::string lru_stats_json(const util::LruStats& s) {
  ObjBuilder b;
  b.integer("hits", s.hits);
  b.integer("misses", s.misses);
  b.integer("evictions", s.evictions);
  b.integer("rejected", s.rejected);
  b.integer("bytes", s.bytes);
  b.integer("entries", s.entries);
  return b.close();
}

/// Tool-name parsing: accepts the short protocol spellings and the
/// display names eval::to_string emits, case-insensitively on the
/// leading token.
std::optional<eval::Tool> parse_tool(std::string_view name) {
  auto starts = [&](std::string_view prefix) {
    if (name.size() < prefix.size()) return false;
    for (std::size_t i = 0; i < prefix.size(); ++i)
      if (std::tolower(static_cast<unsigned char>(name[i])) != prefix[i]) return false;
    return true;
  };
  if (name.empty() || starts("funseeker")) return eval::Tool::kFunSeeker;
  if (starts("ida")) return eval::Tool::kIdaLike;
  if (starts("ghidra")) return eval::Tool::kGhidraLike;
  if (starts("fetch")) return eval::Tool::kFetchLike;
  return std::nullopt;
}

/// The request's content identity, resolved before any expensive work:
/// either from uploaded bytes (decoded and hashed) or from a `key`.
struct ResolvedId {
  ContentId id;
  std::optional<std::vector<std::uint8_t>> upload;  // decoded elf bytes
  std::string error;  // non-empty: resolution failed
  std::string code;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

ResolvedId resolve_id(const obs::JsonValue& req) {
  auto fail_id = [](std::string code, std::string error) {
    ResolvedId r;
    r.code = std::move(code);
    r.error = std::move(error);
    return r;
  };
  ResolvedId r;
  const std::string key = req.get_string("key");
  const obs::JsonValue* elf = req.find("elf");
  if (elf != nullptr && elf->is_string()) {
    auto bytes = b64_decode(elf->as_string(""));
    if (!bytes.has_value())
      return fail_id("bad-request", "elf field is not valid base64");
    r.id = content_id(*bytes);
    r.upload = std::move(bytes);
    return r;
  }
  if (!key.empty()) {
    const auto id = ContentId::parse(key);
    if (!id.has_value()) return fail_id("bad-key", "malformed content key");
    r.id = *id;
    return r;
  }
  return fail_id("bad-request",
                 "request needs \"elf\" (base64) or a cached \"key\"");
}

/// The resolved input of an analysis request: the cached (or freshly
/// prepared) image plus whether the image layer was a hit.
struct ResolvedImage {
  std::shared_ptr<const CachedImage> img;
  ContentId id;
  bool hit = false;
  std::string error;  // non-empty: resolution failed
  std::string code;
};

ResolvedImage fail(std::string code, std::string error) {
  ResolvedImage r;
  r.code = std::move(code);
  r.error = std::move(error);
  return r;
}

/// Locate (or build and insert) the request's binary. Upload dedup is
/// content-addressed: re-uploading bytes the cache already holds is a
/// hit even without a `key`. A key whose image fell out of memory is
/// rebuilt from the persistent layer's raw bytes when it has them —
/// only then does the request fail with unknown-key. Images built under
/// an already-expired deadline are served but never cached — a partial
/// substrate must not answer later requests.
ResolvedImage resolve_image(AnalysisCache& cache, const ResolvedId& in,
                            std::shared_ptr<const CachedImage> mem_hit) {
  ResolvedImage r;
  r.id = in.id;
  if (mem_hit != nullptr) {
    r.img = std::move(mem_hit);
    r.hit = true;
    return r;
  }
  std::span<const std::uint8_t> bytes;
  std::optional<std::vector<std::uint8_t>> persisted;
  if (in.upload.has_value()) {
    bytes = std::span(in.upload->data(), in.upload->size());
  } else {
    persisted = cache.persistent_raw(in.id);
    if (!persisted.has_value())
      return fail("unknown-key", "content key not cached (evicted?); re-upload elf");
    bytes = std::span(persisted->data(), persisted->size());
  }
  try {
    TRACE_SPAN("svc.prepare");
    auto built = std::make_shared<const CachedImage>(make_cached_image(bytes));
    if (util::deadline_expired_now())
      return fail("timeout", "request deadline expired during decode");
    r.img = cache.insert_image(r.id, std::move(built), bytes);
  } catch (const std::exception& e) {
    return fail("parse-failed", std::string("unusable binary: ") + e.what());
  }
  return r;
}

/// One tool's result for a resolved image, through the result layer.
struct ToolRun {
  std::shared_ptr<const eval::RunResult> result;
  bool hit = false;
  std::string tool_name;
};

ToolRun run_tool_cached(AnalysisCache& cache, const ResolvedImage& r,
                        eval::Tool tool, int config) {
  ToolRun tr;
  tr.tool_name = eval::to_string(tool);
  const bool is_fs = tool == eval::Tool::kFunSeeker;
  const ResultKey rk{r.id, static_cast<int>(tool), is_fs ? config : 0};
  if (auto hit = cache.find_result(rk)) {
    tr.result = std::move(hit);
    tr.hit = true;
    return tr;
  }
  util::Diagnostics diags;  // lenient exception-table reads mid-analysis
  eval::RunResult res = eval::run_tool_on(
      tool, r.img->image, r.img->decode,
      is_fs ? funseeker::Options::config(config) : funseeker::Options{}, &diags);
  if (util::deadline_expired_now()) {
    // Partial answer: serve it once, never cache it.
    tr.result = std::make_shared<const eval::RunResult>(std::move(res));
  } else {
    tr.result = cache.insert_result(rk, std::move(res));
  }
  return tr;
}

/// The daemon's AArch64 path: BtiSeeker wrapped into the same result
/// shape (the x86 eval::Tool enum has no BTI member; kToolBti keys it).
ToolRun run_bti_cached(AnalysisCache& cache, const ResolvedImage& r) {
  ToolRun tr;
  tr.tool_name = "BtiSeeker";
  const ResultKey rk{r.id, kToolBti, 0};
  if (auto hit = cache.find_result(rk)) {
    tr.result = std::move(hit);
    tr.hit = true;
    return tr;
  }
  util::Stopwatch watch;
  eval::RunResult res;
  {
    TRACE_SPAN("svc.bti");
    res.found = bti::analyze(r.img->image).functions;
  }
  res.seconds = watch.seconds();
  if (util::deadline_expired_now()) {
    tr.result = std::make_shared<const eval::RunResult>(std::move(res));
  } else {
    tr.result = cache.insert_result(rk, std::move(res));
  }
  return tr;
}

Service::Outcome error_outcome(std::string_view op, std::string_view code,
                               std::string_view message) {
  ObjBuilder b;
  b.boolean("ok", false);
  if (!op.empty()) b.str("op", op);
  b.str("code", code);
  b.str("error", message);
  Service::Outcome out;
  out.json = b.close();
  out.ok = false;
  out.code = code;
  return out;
}

std::string window_json(const obs::WindowHistogram& w) {
  const auto view = [](const obs::WindowHistogram::Snapshot& v) {
    ObjBuilder b;
    b.integer("count", v.count);
    b.num("rate_per_sec", v.rate_per_sec);
    b.num("p50_ns", v.p50_ns);
    b.num("p95_ns", v.p95_ns);
    b.num("p99_ns", v.p99_ns);
    b.integer("max_ns", v.max_ns);
    return b.close();
  };
  ObjBuilder b;
  b.raw("last_10s", view(w.snapshot(10)));
  b.raw("last_60s", view(w.snapshot(60)));
  return b.close();
}

}  // namespace

Service::Service(ServiceOptions opts)
    : cache_(opts.cache_bytes > 0 ? opts.cache_bytes
                                  : AnalysisCache::default_capacity_bytes()),
      deadline_seconds_(opts.request_deadline_seconds),
      slow_seconds_(opts.slow_request_seconds),
      restart_count_(opts.restart_count),
      start_ns_(obs::now_ns()) {
  if (deadline_seconds_ <= 0.0) {
    if (const char* env = std::getenv("REPRO_TIME_BUDGET"); env != nullptr) {
      const double v = std::atof(env);
      if (v > 0.0) deadline_seconds_ = v;
    }
  }
  if (!opts.pcache_path.empty()) {
    PersistentStore::Options popts;
    popts.path = opts.pcache_path;
    if (opts.pcache_bytes > 0) popts.budget_bytes = opts.pcache_bytes;
    std::string err;
    auto store = PersistentStore::open(std::move(popts), &err);
    if (store != nullptr) {
      cache_.attach_persistent(std::move(store));
    } else {
      // Memory-only degradation: persistence is an optimization, and a
      // daemon that refuses to serve over a bad cache path would turn
      // a disk problem into an outage.
      std::fprintf(stderr, "fsrd: pcache disabled: %s\n", err.c_str());
      if (obs::log_enabled())
        obs::log_event(obs::Severity::kError, "svc.pcache_open_failed",
                       obs::LogFields().str("error", err));
    }
  }
}

Service::Outcome Service::handle(std::string_view request_json) {
  // Request id: ambient for the whole execution, so every span and
  // every log event this request produces carries it.
  const std::uint64_t rid = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const obs::ScopedItemId request_scope(rid);
  requests_.fetch_add(1, std::memory_order_relaxed);
  SvcMetrics& m = svc_metrics();
  m.requests.add();
  util::Stopwatch watch;
  const std::uint64_t begin_ns = obs::now_ns();

  // Flight recorder: while the event log is on, capture this request's
  // spans so a slow/expired request can dump its stage breakdown. Fast
  // requests pay a thread-local store and drop the vector on return.
  std::optional<obs::FlightScope> flight;
  if (obs::log_enabled()) flight.emplace();
  TRACE_SPAN("svc.request");

  Outcome out;
  // Every request runs under its own cooperative deadline; hostile
  // content that drags decode or analysis into pathological territory
  // is cut off and answered with a timeout error instead of holding a
  // handler slot forever.
  const util::ScopedDeadline guard(
      deadline_seconds_ > 0.0 ? util::Deadline::after_seconds(deadline_seconds_)
                              : util::Deadline());
  try {
    out = dispatch(request_json);
  } catch (const std::exception& e) {
    ObjBuilder b;
    b.boolean("ok", false);
    b.str("code", "internal");
    b.str("error", e.what());
    out.json = b.close();
    out.ok = false;
    out.code = "internal";
  } catch (...) {
    ObjBuilder b;
    b.boolean("ok", false);
    b.str("code", "internal");
    b.str("error", "unknown error");
    out.json = b.close();
    out.ok = false;
    out.code = "internal";
  }

  op_requests_[static_cast<std::size_t>(out.op)].fetch_add(
      1, std::memory_order_relaxed);
  if (!out.ok) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    op_errors_[static_cast<std::size_t>(out.op)].fetch_add(
        1, std::memory_order_relaxed);
    m.errors.add();
  }
  // The hit/miss latency split only makes sense for analysis ops;
  // control traffic (ping/stats/shutdown) would pollute both series.
  const std::uint64_t elapsed_ns = watch.elapsed_ns();
  if (out.analysis) {
    if (out.cache_hit) {
      m.cache_hits.add();
      m.latency_hit.record(elapsed_ns);
    } else {
      m.cache_misses.add();
      m.latency_miss.record(elapsed_ns);
    }
  }

  // Slow-request dump: threshold exceeded or deadline expired (the
  // deadline guard is still in scope here). Severity warn; the rate
  // limiter caps a pathological flood.
  const bool expired = util::deadline_expired_now();
  const bool slow = slow_seconds_ > 0.0 &&
                    static_cast<double>(elapsed_ns) / 1e9 >= slow_seconds_;
  if ((slow || expired) && obs::log_enabled()) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
    obs::LogFields f;
    f.str("op", to_string(out.op))
        .integer("elapsed_us", elapsed_ns / 1000)
        .boolean("ok", out.ok)
        .boolean("deadline_expired", expired)
        .str("cache", out.analysis ? (out.cache_hit ? "hit" : "miss") : "n/a");
    if (!out.code.empty()) f.str("code", out.code);
    if (flight.has_value()) {
      f.integer("span_count", flight->span_count())
          .raw("spans", flight->spans_json(begin_ns));
    }
    obs::log_event(obs::Severity::kWarn, "svc.slow_request", f);
  } else if (slow || expired) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

Service::Outcome Service::dispatch(std::string_view request_json) {
  const auto parsed = obs::json_parse(request_json);
  if (!parsed.has_value() || !parsed->is_object())
    return error_outcome("", "bad-request", "request is not a JSON object");
  const obs::JsonValue& req = *parsed;
  const std::string op = req.get_string("op");
  const OpKind kind = parse_op(op);

  Outcome out;
  switch (kind) {
    case OpKind::kPing: {
      ObjBuilder b;
      b.boolean("ok", true);
      b.str("op", "ping");
      b.str("version", util::kVersion);
      out.json = b.close();
      break;
    }
    case OpKind::kStats:
      out.json = stats_json();
      break;
    case OpKind::kMetrics: {
      ObjBuilder b;
      b.boolean("ok", true);
      b.str("op", "metrics");
      b.raw("registry", obs::Registry::instance().to_json());
      out.json = b.close();
      break;
    }
    case OpKind::kTail:
      out = do_tail(req);
      break;
    case OpKind::kShutdown: {
      ObjBuilder b;
      b.boolean("ok", true);
      b.str("op", "shutdown");
      out.json = b.close();
      out.shutdown = true;
      break;
    }
    case OpKind::kIdentify:
      out = do_identify(req);
      break;
    case OpKind::kCompare:
      out = do_compare(req);
      break;
    case OpKind::kDisasm:
      out = do_disasm(req);
      break;
    case OpKind::kUnknown:
      out = error_outcome(op, "unknown-op",
                          "unknown op (expected ping/identify/compare/disasm/"
                          "stats/metrics/tail/shutdown)");
      break;
  }
  out.op = kind;
  return out;
}

Service::Outcome Service::do_tail(const obs::JsonValue& req) {
  std::size_t count = 50;
  if (const obs::JsonValue* c = req.find("count"); c != nullptr && c->is_number())
    count = static_cast<std::size_t>(std::clamp(c->as_number(50), 1.0, 1000.0));

  std::string events = "[";
  bool first = true;
  for (const obs::LogEvent& e : obs::log_tail(count)) {
    if (!first) events += ',';
    first = false;
    events += e.to_json();
  }
  events += ']';

  Outcome out;
  ObjBuilder b;
  b.boolean("ok", true);
  b.str("op", "tail");
  b.boolean("log_enabled", obs::log_enabled());
  b.raw("events", events);
  out.json = b.close();
  return out;
}

Service::Outcome Service::do_identify(const obs::JsonValue& req) {
  const ResolvedId in = resolve_id(req);
  if (!in.ok()) return error_outcome("identify", in.code, in.error);
  int config = static_cast<int>(req.get_number("config", 4));
  config = std::clamp(config, 1, 4);

  auto respond = [&](std::string_view tool_name, bool fs_config, bool hit,
                     const eval::RunResult& res, double decode_seconds,
                     std::uint64_t diag_total,
                     const std::vector<util::Diagnostic>& diag_items) {
    Outcome out;
    out.analysis = true;
    out.cache_hit = hit;
    ObjBuilder b;
    b.boolean("ok", true);
    b.str("op", "identify");
    b.str("key", in.id.to_string());
    b.str("tool", tool_name);
    if (fs_config) b.integer("config", static_cast<std::uint64_t>(config));
    b.str("cache", hit ? "hit" : "miss");
    b.integer("count", res.found.size());
    b.raw("functions", hex_array(res.found));
    b.num("analysis_seconds", res.seconds);
    b.num("decode_seconds", decode_seconds);
    if (diag_total > 0) {
      b.integer("diagnostic_count", diag_total);
      b.raw("diagnostics", diag_array(diag_items));
    }
    out.json = b.close();
    return out;
  };

  std::shared_ptr<const CachedImage> mem = cache_.find_image(in.id);

  // Warm-restart fast path: the image fell out of memory (typically a
  // fresh process after a crash) but the persistent layer still knows
  // this content AND the requested result. Serve straight from the
  // persisted meta + rehydrated result — no parse, no decode, no
  // analysis. This is what keeps post-restart hit p99 near steady
  // state instead of at cold-miss latency.
  if (mem == nullptr && cache_.persistent() != nullptr) {
    if (const auto meta = cache_.persistent_meta(in.id)) {
      const bool is_x86 =
          meta->machine != static_cast<std::uint32_t>(elf::Machine::kArm64);
      ResultKey rk{in.id, kToolBti, 0};
      std::string tool_name = "BtiSeeker";
      bool is_fs = false;
      if (is_x86) {
        const auto tool = parse_tool(req.get_string("tool"));
        if (!tool.has_value())
          return error_outcome("identify", "bad-request",
                               "unknown tool (expected funseeker/ida/ghidra/fetch)");
        is_fs = *tool == eval::Tool::kFunSeeker;
        rk = ResultKey{in.id, static_cast<int>(*tool), is_fs ? config : 0};
        tool_name = eval::to_string(*tool);
      }
      if (const auto res = cache_.find_result(rk))
        return respond(tool_name, is_fs, true, *res, meta->decode_seconds,
                       meta->diag_total, meta->diags);
    }
  }

  const ResolvedImage r = resolve_image(cache_, in, std::move(mem));
  if (!r.error.empty()) return error_outcome("identify", r.code, r.error);

  ToolRun tr;
  const bool is_x86 = r.img->image.machine != elf::Machine::kArm64;
  if (is_x86) {
    const auto tool = parse_tool(req.get_string("tool"));
    if (!tool.has_value())
      return error_outcome("identify", "bad-request",
                           "unknown tool (expected funseeker/ida/ghidra/fetch)");
    tr = run_tool_cached(cache_, r, *tool, config);
  } else {
    tr = run_bti_cached(cache_, r);
  }
  if (util::deadline_expired_now())
    return error_outcome("identify", "timeout", "request deadline expired");

  return respond(tr.tool_name, is_x86 && tr.tool_name == "FunSeeker",
                 r.hit && tr.hit, *tr.result, r.img->decode.decode_seconds,
                 r.img->diagnostics.total(), r.img->diagnostics.items());
}

Service::Outcome Service::do_compare(const obs::JsonValue& req) {
  const ResolvedId in = resolve_id(req);
  if (!in.ok()) return error_outcome("compare", in.code, in.error);

  constexpr eval::Tool kAllTools[] = {eval::Tool::kFunSeeker, eval::Tool::kIdaLike,
                                      eval::Tool::kGhidraLike, eval::Tool::kFetchLike};

  auto respond = [&](bool hit, const std::string& tools, double decode_seconds,
                     std::uint64_t diag_total,
                     const std::vector<util::Diagnostic>& diag_items) {
    Outcome out;
    out.analysis = true;
    out.cache_hit = hit;
    ObjBuilder b;
    b.boolean("ok", true);
    b.str("op", "compare");
    b.str("key", in.id.to_string());
    b.str("cache", hit ? "hit" : "miss");
    b.raw("tools", tools);
    b.num("decode_seconds", decode_seconds);
    if (diag_total > 0) {
      b.integer("diagnostic_count", diag_total);
      b.raw("diagnostics", diag_array(diag_items));
    }
    out.json = b.close();
    return out;
  };

  std::shared_ptr<const CachedImage> mem = cache_.find_image(in.id);

  // Warm-restart fast path: serve from persisted meta when ALL four
  // tool results are already available (memory or persistent layer) —
  // a partial set would force a rebuild anyway, so only the complete
  // case skips it.
  if (mem == nullptr && cache_.persistent() != nullptr) {
    if (const auto meta = cache_.persistent_meta(in.id);
        meta.has_value() &&
        meta->machine != static_cast<std::uint32_t>(elf::Machine::kArm64)) {
      std::string tools = "[";
      bool all = true;
      for (const eval::Tool tool : kAllTools) {
        const auto res = cache_.find_result(
            {in.id, static_cast<int>(tool),
             tool == eval::Tool::kFunSeeker ? 4 : 0});
        if (res == nullptr) {
          all = false;
          break;
        }
        ObjBuilder tb;
        tb.str("tool", eval::to_string(tool));
        tb.integer("count", res->found.size());
        tb.num("analysis_seconds", res->seconds);
        tb.str("cache", "hit");
        if (tools.size() > 1) tools += ',';
        tools += tb.close();
      }
      if (all) {
        tools += ']';
        return respond(true, tools, meta->decode_seconds, meta->diag_total,
                       meta->diags);
      }
    }
  }

  const ResolvedImage r = resolve_image(cache_, in, std::move(mem));
  if (!r.error.empty()) return error_outcome("compare", r.code, r.error);
  if (r.img->image.machine == elf::Machine::kArm64)
    return error_outcome("compare", "unsupported", "compare runs the x86 tool set");

  bool all_hit = true;
  std::string tools = "[";
  for (const eval::Tool tool : kAllTools) {
    const ToolRun tr = run_tool_cached(cache_, r, tool, 4);
    if (util::deadline_expired_now())
      return error_outcome("compare", "timeout", "request deadline expired");
    all_hit = all_hit && tr.hit;
    ObjBuilder tb;
    tb.str("tool", tr.tool_name);
    tb.integer("count", tr.result->found.size());
    tb.num("analysis_seconds", tr.result->seconds);
    tb.str("cache", tr.hit ? "hit" : "miss");
    if (tools.size() > 1) tools += ',';
    tools += tb.close();
  }
  tools += ']';

  return respond(r.hit && all_hit, tools, r.img->decode.decode_seconds,
                 r.img->diagnostics.total(), r.img->diagnostics.items());
}

Service::Outcome Service::do_disasm(const obs::JsonValue& req) {
  const ResolvedId in = resolve_id(req);
  if (!in.ok()) return error_outcome("disasm", in.code, in.error);
  // No meta fast path here: formatting needs the decoded view, so the
  // best persistence can do is rebuild from the stored raw bytes.
  const ResolvedImage r = resolve_image(cache_, in, cache_.find_image(in.id));
  if (!r.error.empty()) return error_outcome("disasm", r.code, r.error);
  const auto& view_ptr = r.img->decode.view;
  if (view_ptr == nullptr)
    return error_outcome("disasm", "unsupported", "disasm supports x86/x86-64 binaries");
  const x86::CodeView& view = *view_ptr;

  std::uint64_t at = view.text_begin;
  if (const std::string at_str = req.get_string("at"); !at_str.empty())
    at = std::strtoull(at_str.c_str(), nullptr, 16);
  std::size_t count = 32;
  if (const obs::JsonValue* c = req.find("count"); c != nullptr && c->is_number())
    count = static_cast<std::size_t>(std::clamp(c->as_number(32), 1.0, 4096.0));

  std::string lines = "[";
  std::size_t shown = 0;
  for (std::size_t pos = view.first_pos_at_or_after(at);
       pos < view.insns.size() && shown < count; ++pos, ++shown) {
    if (shown != 0) lines += ',';
    lines += quoted(x86::format_line(view.insns[pos], view.bytes, view.text_begin));
  }
  lines += ']';

  Outcome out;
  out.analysis = true;
  out.cache_hit = r.hit;  // formatting is trivial; the image is the cost
  ObjBuilder b;
  b.boolean("ok", true);
  b.str("op", "disasm");
  b.str("key", r.id.to_string());
  b.str("cache", out.cache_hit ? "hit" : "miss");
  b.integer("count", shown);
  b.raw("lines", lines);
  b.integer("bad_bytes", view.bad_bytes);
  out.json = b.close();
  return out;
}

std::string Service::stats_json() const {
  ObjBuilder b;
  b.boolean("ok", true);
  b.str("op", "stats");
  b.str("version", util::kVersion);
  b.num("uptime_seconds", static_cast<double>(obs::now_ns() - start_ns_) / 1e9);
  b.integer("requests", requests_.load(std::memory_order_relaxed));
  b.integer("errors", errors_.load(std::memory_order_relaxed));
  b.integer("slow_requests", slow_requests_.load(std::memory_order_relaxed));
  b.integer("restarts", static_cast<std::uint64_t>(
                            restart_count_ < 0 ? 0 : restart_count_));
  b.num("deadline_seconds", deadline_seconds_);
  b.num("slow_seconds", slow_seconds_);
  {
    // Per-op request/error counters, only for ops seen at least once
    // (keeps the object small and the round-trip test honest).
    ObjBuilder ops;
    for (std::size_t i = 0; i < kOpCount; ++i) {
      const std::uint64_t n = op_requests_[i].load(std::memory_order_relaxed);
      const std::uint64_t e = op_errors_[i].load(std::memory_order_relaxed);
      if (n == 0 && e == 0) continue;
      ObjBuilder one;
      one.integer("requests", n);
      one.integer("errors", e);
      ops.raw(to_string(static_cast<OpKind>(i)), one.close());
    }
    b.raw("ops", ops.close());
  }
  {
    // Rolling windows, recorded by the Server at ingress (queue wait
    // included — the closest the daemon can get to what clients see).
    ObjBuilder win;
    win.raw("request", window_json(obs::window("svc.window.request_ns")));
    win.raw("hit", window_json(obs::window("svc.window.hit_ns")));
    win.raw("miss", window_json(obs::window("svc.window.miss_ns")));
    b.raw("windows", win.close());
  }
  {
    const obs::LogStats ls = obs::log_stats();
    ObjBuilder log;
    log.boolean("enabled", obs::log_enabled());
    log.integer("recorded", ls.recorded);
    log.integer("dropped", ls.dropped);
    log.integer("suppressed", ls.suppressed);
    b.raw("log", log.close());
  }
  {
    ObjBuilder cache_obj;
    cache_obj.integer("capacity_bytes", cache_.capacity_bytes());
    cache_obj.raw("images", lru_stats_json(cache_.image_stats()));
    cache_obj.raw("results", lru_stats_json(cache_.result_stats()));
    b.raw("cache", cache_obj.close());
  }
  {
    // Persistent-layer counters: all zeros (enabled=false) for a
    // memory-only service, the full picture when --pcache-path is set.
    ObjBuilder pc;
    const PersistentStore* store = cache_.persistent();
    pc.boolean("enabled", store != nullptr);
    if (store != nullptr) {
      const PersistentStore::Stats ps = store->stats();
      pc.str("path", store->path());
      pc.integer("budget_bytes", store->budget_bytes());
      pc.integer("hits", ps.hits);
      pc.integer("misses", ps.misses);
      pc.integer("bytes", ps.resident_bytes);
      pc.integer("records", ps.resident_records);
      pc.integer("appended_records", ps.appended_records);
      pc.integer("appended_bytes", ps.appended_bytes);
      pc.integer("skipped_existing", ps.skipped_existing);
      pc.integer("write_failures", ps.write_failures);
      pc.integer("rejected", ps.rejected);
      pc.integer("torn_truncations", ps.torn_truncations);
      pc.integer("corrupt_payloads", ps.corrupt_payloads);
      pc.integer("compactions", ps.compactions);
      pc.integer("generation", ps.generation);
      pc.integer("rehydrated_results", cache_.rehydrated_results());
      pc.integer("rehydrated_images", cache_.rehydrated_images());
    }
    b.raw("pcache", pc.close());
  }
  {
    // Overload-shedding counters, recorded by the Server; zeros for an
    // in-process Service.
    ObjBuilder ov;
    ov.integer("rejected_requests",
               obs::counter("svc.overloaded").value());
    ov.integer("shed_connections",
               obs::counter("svc.shed_connections").value());
    ov.integer("accept_retries",
               obs::counter("svc.accept_retries").value());
    b.raw("overload", ov.close());
  }
  {
    // The server mirrors its handler slots (workers) and the requests
    // waiting for or holding one (queue_depth) into these gauges; a
    // Service used in-process (tests, bench warmup) reports zeros.
    ObjBuilder pool;
    pool.integer("workers",
                 static_cast<std::uint64_t>(obs::gauge("svc.workers").value()));
    pool.integer("queue_depth",
                 static_cast<std::uint64_t>(obs::gauge("svc.queue_depth").value()));
    pool.integer("queue_depth_max",
                 static_cast<std::uint64_t>(obs::gauge("svc.queue_depth").max()));
    b.raw("pool", pool.close());
  }
  return b.close();
}

}  // namespace fsr::service
