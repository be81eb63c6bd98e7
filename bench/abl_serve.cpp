// Ablation — analysis-as-a-service throughput (`symcan serve`). The
// service's pitch over the one-shot CLI is amortization: the parsed
// matrix and the per-message RTA verdicts stay warm across requests, so
// a request stream pays the solver once and the renderer every time.
// Two rungs are measured on case-study analyze requests, one request at
// a time through ServeCore::handle:
//
//   single   RTA cache off — the one-shot CLI cost floor (parse
//            amortized, solve paid every time),
//   warm     the serve default of 8 shards, every verdict a cache hit.
//
// CI gates one warm request (BM_ServeWarmSingle) at <= 0.1 ms and at
// <= 0.5x the cache-off single request (BM_ServeThroughputSingle).
// BM_ServeWarmShared runs the warm request on four threads against one
// shared core; it is reported, not gated.

#include <chrono>
#include <memory>

#include "common.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/request.hpp"

namespace symcan::bench {
namespace {

/// handle() calls that fill the telemetry windows before a read-side
/// bench.
constexpr int kFill = 64;

const std::string& case_study_csv() {
  static const std::string csv = kmatrix_to_csv(case_study_matrix());
  return csv;
}

serve::ServeRequest analyze_request(const std::string& id) {
  serve::ServeRequest req;
  req.id = id;
  req.kind = serve::RequestKind::kAnalyze;
  req.matrix_csv = case_study_csv();
  return req;
}

serve::ServeConfig serve_config(bool cache_enabled, std::size_t shards) {
  serve::ServeConfig cfg;
  cfg.cache.enabled = cache_enabled;
  cfg.cache.shards = shards;
  return cfg;
}

/// Requests/s for `count` requests, one at a time through one core (a
/// first request absorbs the parse and cold misses outside the timing).
double measure_reqs_per_sec(serve::ServeCore& core, int count) {
  const serve::ServeRequest req = analyze_request("r");
  core.handle(req);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < count; ++i) core.handle(req);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return secs > 0 ? static_cast<double>(count) / secs : 0.0;
}

void reproduce() {
  banner("symcan serve: case-study analyze requests, two rungs");
  constexpr int kRequests = 1000;

  serve::ServeCore single{serve_config(false, 1)};
  const double single_rps = measure_reqs_per_sec(single, kRequests);
  serve::ServeCore warm{serve_config(true, 8)};
  const double warm_rps = measure_reqs_per_sec(warm, kRequests);

  TextTable t;
  t.header({"rung", "rta cache", "shards", "requests/s", "vs single"});
  t.row({"single", "off", "1", strprintf("%.0f", single_rps), "1.00x"});
  t.row({"warm", "warm", "8", strprintf("%.0f", warm_rps),
         strprintf("%.2fx", single_rps > 0 ? warm_rps / single_rps : 0.0)});
  t.print(std::cout);
  std::cout << "Gates: a warm request <= 0.1 ms and <= 0.5x the cache-off\n"
               "single request (CI reads BENCH_abl_serve.json).\n";
}

/// The cost floor: every request re-solves the whole matrix (cache off),
/// as the one-shot CLI does after parsing.
void BM_ServeThroughputSingle(benchmark::State& state) {
  serve::ServeCore core{serve_config(false, 1)};
  const serve::ServeRequest req = analyze_request("single");
  for (auto _ : state) {
    const serve::ServeResponse resp = core.handle(req);
    benchmark::DoNotOptimize(resp.exit_code);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeThroughputSingle);

/// One request at a time against a warm cache with the serve default of
/// 8 shards: every verdict is a cache hit, so this is the per-request
/// cost above the solver (validate, fingerprint, lookups, render). CI
/// gates its min_wall_ms at 0.100.
void BM_ServeWarmSingle(benchmark::State& state) {
  serve::ServeCore core{serve_config(true, 8)};
  const serve::ServeRequest req = analyze_request("warm");
  core.handle(req);  // absorb the cold misses outside the timing
  for (auto _ : state) {
    const serve::ServeResponse resp = core.handle(req);
    benchmark::DoNotOptimize(resp.exit_code);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeWarmSingle);

/// The warm request on four threads against one shared core: the
/// in-process scaling of concurrent handle() calls (shard locks, matrix
/// memo, telemetry). Reported, not gated.
void BM_ServeWarmShared(benchmark::State& state) {
  static std::unique_ptr<serve::ServeCore> core;
  const serve::ServeRequest req = analyze_request("shared");
  if (state.thread_index() == 0) {
    core = std::make_unique<serve::ServeCore>(serve_config(true, 8));
    core->handle(req);  // absorb the cold misses outside the timing
  }
  for (auto _ : state) {
    const serve::ServeResponse resp = core->handle(req);
    benchmark::DoNotOptimize(resp.exit_code);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) core.reset();
}
BENCHMARK(BM_ServeWarmShared)->Threads(4)->UseRealTime();

// The request benchmarks above run with the telemetry plane always on
// (per-request records, windowed aggregates, SLO counters, flight
// recorder), so the warm-request gate already bounds its overhead. The
// two benchmarks below price the read-side surfaces themselves.

/// A core whose windows and SLO counters hold kFill warm requests.
std::unique_ptr<serve::ServeCore> filled_core() {
  auto core = std::make_unique<serve::ServeCore>(serve_config(true, 8));
  const serve::ServeRequest req = analyze_request("fill");
  for (int i = 0; i < kFill; ++i) core->handle(req);
  return core;
}

/// Rendering the `telemetry` payload: windowed snapshot + SLO merge.
void BM_ServeTelemetrySnapshot(benchmark::State& state) {
  const std::unique_ptr<serve::ServeCore> core = filled_core();
  for (auto _ : state) {
    const std::string json = core->telemetry_json();
    benchmark::DoNotOptimize(json.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeTelemetrySnapshot);

/// The full health dashboard, windowed sections included.
void BM_ServeHealthJson(benchmark::State& state) {
  const std::unique_ptr<serve::ServeCore> core = filled_core();
  for (auto _ : state) {
    const std::string json = core->health_json();
    benchmark::DoNotOptimize(json.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeHealthJson);

}  // namespace
}  // namespace symcan::bench

int main(int argc, char** argv) {
  symcan::bench::json_arg(argc, argv);
  symcan::bench::reproduce();
  return symcan::bench::run_benchmarks(argc, argv);
}
