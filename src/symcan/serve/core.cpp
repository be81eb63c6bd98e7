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
      pool_{cfg_.jobs},
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
  const std::uint64_t flow = flow_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t batch_id = batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  return handle_one(req, flow, batch_id, 0);
}

ServeResponse ServeCore::handle_one(const ServeRequest& req, std::uint64_t flow,
                                    std::uint64_t batch_id, std::int64_t enqueue_ns) {
  RequestTelemetry t;
  t.set_id(req.id);
  t.kind = req.kind;
  t.start_ns = now_ns();
  t.enqueue_ns = enqueue_ns != 0 ? enqueue_ns : t.start_ns;
  t.batch_id = batch_id;
  t.flow = flow;

  // Install the request's trace context for everything this worker (and
  // any nested fan-out) records while handling it.
  obs::FlowScope flow_scope{flow};
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
        // Batch workers already run in parallel; the convolution fan-out
        // inside each stays serial (results are bit-identical at any
        // width, so this is a scheduling choice only).
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
        // Batch workers already run in parallel; the GA inside each
        // stays serial (its results are bit-identical at any width).
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
  if (const auto& slo = slo_[kind_index(t.kind)]) {
    // SLO latency is end-to-end: queue wait counts against the target.
    slo->record(now, t.finish_ns - t.enqueue_ns);
  }

  // Dump trigger: the first bound violation is the moment an operator
  // will want the surrounding request history.
  if (t.exit_code == 1 && (t.kind == RequestKind::kAnalyze || t.kind == RequestKind::kValidate)) {
    if (!dumped_on_violation_.exchange(true, std::memory_order_relaxed))
      dump_flight("bound-violation");
  }

  if (obs::enabled()) {
    auto& m = obs::metrics();
    m.histogram("serve.request.queue_wait_us")
        .observe(static_cast<double>(t.queue_wait_ns()) / 1000.0);
    m.histogram("serve.request.service_us")
        .observe(static_cast<double>(t.service_ns()) / 1000.0);
  }
}

std::vector<ServeResponse> ServeCore::handle_batch(const std::vector<ServeRequest>& reqs) {
  if (reqs.empty()) return {};
  const std::int64_t enqueue_ns = now_ns();
  const std::uint64_t first_flow = flow_seq_.fetch_add(reqs.size(), std::memory_order_relaxed);
  const std::uint64_t batch_id = batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  return pool_.parallel_map_indexed(reqs.size(), [&](std::size_t i) {
    return handle_one(reqs[i], first_flow + i + 1, batch_id, enqueue_ns);
  });
}

bool ServeCore::dump_flight(const char* reason) {
  obs::count("serve.flight.dump_triggers");
  if (cfg_.telemetry.flight_path.empty()) return false;
  std::lock_guard<std::mutex> lock(dump_m_);
  try {
    std::string out = "{\"reason\":\"" + std::string(reason) + "\"}\n";
    out += flight_.dump_jsonl();
    obs::write_file(cfg_.telemetry.flight_path, out);
  } catch (const std::exception&) {
    return false;  // A failed dump must never take a request down with it.
  }
  dumps_.fetch_add(1, std::memory_order_relaxed);
  obs::instant("serve.flight.dump");
  return true;
}

namespace {

std::string slo_json(const obs::SloStats& s) {
  using obs::json_number;
  std::string out = "{\"target_ms\":" + std::to_string(s.target_ns / 1'000'000);
  out += ",\"objective\":" + json_number(s.objective);
  out += ",\"total\":" + std::to_string(s.total);
  out += ",\"over_target\":" + std::to_string(s.over_target);
  out += ",\"window_total\":" + std::to_string(s.window_total);
  out += ",\"window_over\":" + std::to_string(s.window_over);
  out += ",\"burn_rate\":" + json_number(s.burn_rate);
  out += ",\"budget_used\":" + json_number(s.budget_used) + "}";
  return out;
}

}  // namespace

void ServeCore::append_window_sections(std::string& out, std::int64_t now) const {
  using obs::json_number;
  const obs::WindowStats w = window_service_us_.snapshot(now);
  out += ",\"window\":{\"windowed_total\":" + std::to_string(window_requests_.window_count(now));
  out += ",\"rate_per_sec\":" + json_number(window_requests_.window_rate(now));
  out += ",\"errors\":" + std::to_string(window_errors_.window_count(now));
  out += ",\"window_ms\":" + std::to_string(w.window_ns / 1'000'000);
  out += ",\"service_us\":{\"count\":" + std::to_string(w.count);
  out += ",\"mean\":" + json_number(w.mean);
  out += ",\"p50\":" + json_number(w.p50);
  out += ",\"p95\":" + json_number(w.p95);
  out += ",\"p99\":" + json_number(w.p99) + "}}";
  out += ",\"slo\":{";
  bool first = true;
  for (const RequestKind k :
       {RequestKind::kAnalyze, RequestKind::kProb, RequestKind::kExplain,
        RequestKind::kValidate, RequestKind::kOptimize, RequestKind::kHealth,
        RequestKind::kTelemetry}) {
    const auto& slo = slo_[kind_index(k)];
    if (!slo) continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + std::string(to_string(k)) + "\":" + slo_json(slo->snapshot(now));
  }
  out += "}";
  out += ",\"flight_recorder\":{\"capacity\":" + std::to_string(flight_.capacity());
  out += ",\"recorded\":" + std::to_string(flight_.recorded());
  out += ",\"dumps\":" + std::to_string(dumps_.load(std::memory_order_relaxed)) + "}";
}

std::string ServeCore::telemetry_json() const {
  const std::int64_t now = now_ns();
  std::string out = "{\"uptime_ms\":" + std::to_string(now / 1'000'000);
  append_window_sections(out, now);
  out += "}";
  return out;
}

std::string ServeCore::health_json() const {
  using obs::json_number;
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
  // Always 0; perfbench/src/serve_workload.cpp parses it as serve.rejected.
  std::string out = "{\"ring\":{\"rejected\":0,\"timed_out\":0,\"dropped_oldest\":0}";
  out += ",\"rta_cache\":{\"shards\":" + std::to_string(rta_.shard_count());
  out += ",\"capacity\":" + std::to_string(rta_.config().capacity);
  out += ",\"size\":" + std::to_string(rta_.size());
  out += ",\"hits\":" + std::to_string(cs.hits);
  out += ",\"misses\":" + std::to_string(cs.misses);
  out += ",\"evictions\":" + std::to_string(cs.evictions);
  out += ",\"hit_rate\":" + json_number(cs.hit_rate()) + "}";
  out += ",\"matrix_cache\":{\"capacity\":" + std::to_string(cfg_.matrix_cache_capacity);
  out += ",\"size\":" + std::to_string(msize);
  out += ",\"hits\":" + std::to_string(mhits);
  out += ",\"misses\":" + std::to_string(mmisses) + "}";
  out += ",\"requests\":{\"handled\":" + std::to_string(handled());
  out += ",\"ok\":" + std::to_string(ok_.load(std::memory_order_relaxed));
  out += ",\"failed\":" + std::to_string(failed_.load(std::memory_order_relaxed));
  out += ",\"invalid\":" + std::to_string(invalid_.load(std::memory_order_relaxed));
  // Always 0; perfbench/src/serve_workload.cpp parses it as serve.shed.
  out += ",\"shed\":0}";
  out += ",\"uptime_ms\":" + std::to_string(now / 1'000'000);
  out += ",\"build\":\"" + obs::json_escape(cfg_.build_info) + "\"";
  append_window_sections(out, now);
  out += "}";
  return out;
}

}  // namespace symcan::serve
