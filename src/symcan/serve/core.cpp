#include "symcan/serve/core.hpp"

#include <optional>
#include <sstream>

#include "symcan/can/kmatrix_io.hpp"
#include "symcan/obs/export.hpp"
#include "symcan/obs/obs.hpp"

namespace symcan::serve {

namespace {

obs::WindowConfig window_config(const TelemetryConfig& t) {
  obs::WindowConfig w;
  w.bucket_width_ns = t.window_bucket_ms * 1'000'000;
  w.bucket_count = t.window_buckets;
  return w;
}

}  // namespace

std::int64_t SloTargets::for_kind(RequestKind kind) const {
  switch (kind) {
    case RequestKind::kAnalyze: return analyze_ms;
    case RequestKind::kExplain: return explain_ms;
    case RequestKind::kValidate: return validate_ms;
    case RequestKind::kOptimize: return optimize_ms;
    case RequestKind::kHealth: return health_ms;
    case RequestKind::kTelemetry: return telemetry_ms;
    case RequestKind::kProb: return prob_ms;
  }
  return 0;
}

ServeCore::ServeCore(ServeConfig cfg)
    : cfg_{std::move(cfg)},
      epoch_{std::chrono::steady_clock::now()},
      rta_{cfg_.cache},
      flight_{cfg_.telemetry.flight_capacity},
      window_service_us_{window_config(cfg_.telemetry),
                         obs::MetricsRegistry::default_latency_bounds_us()},
      window_requests_{window_config(cfg_.telemetry)},
      window_errors_{window_config(cfg_.telemetry)} {
  if (cfg_.matrix_cache_capacity == 0)
    throw std::invalid_argument("matrix cache capacity must be positive");
  if (cfg_.batch_max == 0) throw std::invalid_argument("batch size must be positive");
  for (const RequestKind k :
       {RequestKind::kAnalyze, RequestKind::kExplain, RequestKind::kValidate,
        RequestKind::kOptimize, RequestKind::kHealth, RequestKind::kTelemetry,
        RequestKind::kProb}) {
    const std::int64_t target_ms = cfg_.telemetry.slo.for_kind(k);
    if (target_ms <= 0) continue;
    obs::SloConfig sc;
    sc.target_ns = target_ms * 1'000'000;
    sc.objective = cfg_.telemetry.slo_objective;
    sc.window = window_config(cfg_.telemetry);
    slo_[kind_index(k)] = std::make_unique<obs::SloTracker>(sc);
  }
}

std::int64_t ServeCore::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch_)
      .count();
}

std::shared_ptr<const KMatrix> ServeCore::matrix_for(const std::string& csv, bool* hit) {
  // The diagnostic policy is fixed per core, so the exact CSV text alone
  // identifies a parse.
  if (hit) *hit = false;
  {
    std::lock_guard<std::mutex> lock(matrix_m_);
    const auto it = matrix_map_.find(csv);
    if (it != matrix_map_.end()) {
      matrix_lru_.splice(matrix_lru_.begin(), matrix_lru_, it->second);
      ++matrix_hits_;
      if (hit) *hit = true;
      obs::count("serve.matrix_cache.hits");
      return it->second->second;
    }
    ++matrix_misses_;
  }
  obs::count("serve.matrix_cache.misses");

  // Parse outside the lock; a concurrent duplicate parse of the same
  // text yields an identical matrix, so the race is benign.
  Diagnostics diags{cfg_.policy};
  auto km = kmatrix_from_csv(csv, diags);
  diags.throw_if_failed();
  if (!km) throw ParseError{diags};
  auto shared = std::make_shared<const KMatrix>(std::move(*km));

  std::lock_guard<std::mutex> lock(matrix_m_);
  if (matrix_map_.count(csv) == 0) {
    matrix_lru_.emplace_front(csv, shared);
    matrix_map_.emplace(csv, matrix_lru_.begin());
    while (matrix_lru_.size() > cfg_.matrix_cache_capacity) {
      matrix_map_.erase(matrix_lru_.back().first);
      matrix_lru_.pop_back();
    }
  }
  return shared;
}

ServeResponse ServeCore::handle(const ServeRequest& req) {
  RequestTelemetry t;
  t.set_id(req.id);
  t.kind = req.kind;
  t.start_ns = now_ns();
  t.flow = flow_seq_.fetch_add(1, std::memory_order_relaxed) + 1;

  // Install the request's trace context for everything this thread (and
  // any nested fan-out) records while handling it.
  obs::FlowScope flow_scope{t.flow};
  SYMCAN_OBS_SPAN("serve.request");

  ServeResponse resp;
  resp.id = req.id;
  resp.kind = req.kind;
  obs::count("serve.requests");

  const auto finish = [&](ServeResponse& r) -> ServeResponse& {
    t.finish_ns = now_ns();
    t.outcome = r.status;
    t.exit_code = r.exit_code;
    t.response_bytes = r.output.size() + r.health_json.size();
    finish_telemetry(t);
    return r;
  };

  try {
    if (req.kind == RequestKind::kHealth) {
      resp.health_json = health_json();
      ok_.fetch_add(1, std::memory_order_relaxed);
      return finish(resp);
    }
    if (req.kind == RequestKind::kTelemetry) {
      resp.health_json = telemetry_json();
      if (req.dump) dump_flight("request");
      ok_.fetch_add(1, std::memory_order_relaxed);
      return finish(resp);
    }

    bool matrix_hit = false;
    const std::shared_ptr<const KMatrix> base = matrix_for(req.matrix_csv, &matrix_hit);
    t.matrix_cache = matrix_hit ? 1 : 0;
    // Jitter assumptions mutate the matrix, so they work on a copy; the
    // memoized matrix stays pristine for the next request.
    std::optional<KMatrix> adjusted;
    const KMatrix* km = base.get();
    if (req.jitter) {
      adjusted.emplace(*base);
      pipeline::apply_matrix_spec(*adjusted, {*req.jitter, req.override_known});
      km = &*adjusted;
    }

    std::ostringstream out;
    int rc = 0;
    switch (req.kind) {
      case RequestKind::kAnalyze:
        rc = pipeline::render_analyze(*km, pipeline::assumptions_for(req.preset), out, &rta_);
        break;
      case RequestKind::kProb: {
        pipeline::ProbSpec spec;
        spec.fault_ppm = req.fault_ppm;
        spec.stuff_ppm = req.stuff_ppm;
        spec.jitter_ppm = req.jitter_ppm;
        spec.max_rungs = req.max_rungs;
        // The transport already runs requests in parallel; the
        // convolution fan-out inside each stays serial (results are
        // bit-identical at any width, so this is a scheduling choice only).
        spec.jobs = 1;
        rc = pipeline::render_prob(*km, pipeline::assumptions_for(req.preset), spec, out, &rta_);
        break;
      }
      case RequestKind::kExplain:
        rc = pipeline::render_explain(*km, pipeline::assumptions_for(req.preset), req.message,
                                      req.json, out);
        break;
      case RequestKind::kValidate: {
        pipeline::ValidateSpec spec;
        spec.millis = req.millis;
        spec.seed = req.seed.value_or(1);
        spec.errors = {req.errors, req.error_gap_ms.value_or(-1)};
        spec.json = req.json;
        rc = pipeline::render_validate(*km, spec, out, &rta_);
        break;
      }
      case RequestKind::kOptimize: {
        pipeline::OptimizeSpec spec;
        spec.seed = req.seed.value_or(7);
        spec.generations = req.generations;
        spec.population = req.population;
        spec.target_jitter = req.target_jitter;
        spec.best_case = req.preset == pipeline::AssumptionPreset::kBestCase;
        // The transport already runs requests in parallel; the GA inside
        // each stays serial (its results are bit-identical at any width).
        spec.jobs = 1;
        spec.cache = cfg_.cache;
        rc = pipeline::render_optimize(*km, spec, out);
        break;
      }
      case RequestKind::kHealth:
      case RequestKind::kTelemetry:
        break;  // Handled above.
    }
    resp.output = out.str();
    resp.exit_code = rc;
    resp.status = rc == 0 ? ResponseStatus::kOk : ResponseStatus::kFailed;
    (rc == 0 ? ok_ : failed_).fetch_add(1, std::memory_order_relaxed);
    return finish(resp);
  } catch (const ParseError& e) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.requests.invalid");
    ServeResponse bad = invalid_response(req.id, e.diagnostics());
    bad.kind = req.kind;
    return finish(bad);
  } catch (const std::exception& e) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.requests.invalid");
    resp.status = ResponseStatus::kInvalid;
    resp.exit_code = 2;
    Diagnostic d;
    d.source = "serve";
    d.message = e.what();
    resp.diagnostics = {d};
    resp.output.clear();
    resp.health_json.clear();
    return finish(resp);
  }
}

void ServeCore::finish_telemetry(RequestTelemetry& t) {
  flight_.record(t);
  const std::int64_t now = t.finish_ns;
  window_requests_.add(now);
  window_service_us_.record(now, static_cast<double>(t.service_ns()) / 1000.0);
  if (t.outcome != ResponseStatus::kOk) window_errors_.add(now);
  if (const auto& slo = slo_[kind_index(t.kind)]) slo->record(now, t.service_ns());

  if (obs::enabled()) {
    obs::metrics()
        .histogram("serve.request.service_us")
        .observe(static_cast<double>(t.service_ns()) / 1000.0);
  }
}

bool ServeCore::dump_flight(const char* reason) {
  obs::count("serve.flight.dump_triggers");
  if (cfg_.telemetry.flight_path.empty()) return false;
  std::lock_guard<std::mutex> lock(dump_m_);
  try {
    std::string out;
    obs::JsonOut{out}.begin_object().field("reason", reason).end_object().end_line();
    out += flight_.dump_jsonl();
    obs::write_file(cfg_.telemetry.flight_path, out);
  } catch (const std::exception&) {
    return false;  // A failed dump must never take a request down with it.
  }
  dumps_.fetch_add(1, std::memory_order_relaxed);
  obs::instant("serve.flight.dump");
  return true;
}

void ServeCore::write_window_sections(obs::JsonOut& w, std::int64_t now) const {
  const obs::WindowStats ws = window_service_us_.snapshot(now);
  w.key("window").begin_object().field("windowed_total", window_requests_.window_count(now));
  w.field("rate_per_sec", window_requests_.window_rate(now));
  w.field("errors", window_errors_.window_count(now)).field("window_ms", ws.window_ns / 1'000'000);
  w.key("service_us").begin_object().field("count", ws.count).field("mean", ws.mean);
  w.field("p50", ws.p50).field("p95", ws.p95).field("p99", ws.p99).end_object().end_object();
  w.key("slo").begin_object();
  for (const RequestKind k :
       {RequestKind::kAnalyze, RequestKind::kProb, RequestKind::kExplain,
        RequestKind::kValidate, RequestKind::kOptimize, RequestKind::kHealth,
        RequestKind::kTelemetry}) {
    const auto& slo = slo_[kind_index(k)];
    if (!slo) continue;
    const obs::SloStats s = slo->snapshot(now);
    w.key(to_string(k)).begin_object().field("target_ms", s.target_ns / 1'000'000);
    w.field("objective", s.objective).field("total", s.total);
    w.field("over_target", s.over_target).field("window_total", s.window_total);
    w.field("window_over", s.window_over).field("burn_rate", s.burn_rate);
    w.field("budget_used", s.budget_used).end_object();
  }
  w.end_object().key("flight_recorder").begin_object().field("capacity", flight_.capacity());
  w.field("recorded", flight_.recorded());
  w.field("dumps", dumps_.load(std::memory_order_relaxed)).end_object();
}

std::string ServeCore::telemetry_json() const {
  const std::int64_t now = now_ns();
  std::string out;
  obs::JsonOut w{out};
  w.begin_object().field("uptime_ms", now / 1'000'000);
  write_window_sections(w, now);
  w.end_object();
  return out;
}

std::string ServeCore::health_json() const {
  const analysis::RtaCacheStats cs = rta_.stats();
  std::int64_t mhits = 0, mmisses = 0;
  std::size_t msize = 0;
  {
    std::lock_guard<std::mutex> lock(matrix_m_);
    mhits = matrix_hits_;
    mmisses = matrix_misses_;
    msize = matrix_lru_.size();
  }
  const std::int64_t now = now_ns();
  std::string out;
  obs::JsonOut w{out};
  // Always 0; perfbench/src/serve_workload.cpp parses it as serve.rejected.
  w.begin_object().key("ring").begin_object().field("rejected", 0).field("timed_out", 0);
  w.field("dropped_oldest", 0).end_object();
  w.key("rta_cache").begin_object().field("shards", rta_.shard_count());
  w.field("capacity", rta_.config().capacity).field("size", rta_.size());
  w.field("hits", cs.hits).field("misses", cs.misses).field("evictions", cs.evictions);
  w.field("hit_rate", cs.hit_rate()).end_object();
  w.key("matrix_cache").begin_object().field("capacity", cfg_.matrix_cache_capacity);
  w.field("size", msize).field("hits", mhits).field("misses", mmisses).end_object();
  w.key("requests").begin_object().field("handled", handled());
  w.field("ok", ok_.load(std::memory_order_relaxed));
  w.field("failed", failed_.load(std::memory_order_relaxed));
  w.field("invalid", invalid_.load(std::memory_order_relaxed));
  // Always 0; perfbench/src/serve_workload.cpp parses it as serve.shed.
  w.field("shed", 0).end_object();
  w.field("uptime_ms", now / 1'000'000).field("build", cfg_.build_info);
  write_window_sections(w, now);
  w.end_object();
  return out;
}

}  // namespace symcan::serve
