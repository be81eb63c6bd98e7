// Ablation — analysis-as-a-service throughput (`symcan serve`). The
// service's pitch over the one-shot CLI is amortization: the parsed
// matrix and the per-message RTA verdicts stay warm across requests, so
// a request stream pays the solver once and the renderer every time.
// Three rungs are measured on case-study analyze requests:
//
//   single   one request at a time, RTA cache off — the one-shot
//            CLI cost floor (parse amortized, solve paid every time),
//   batched  handle_batch over a warm single-shard cache,
//   sharded  the same batch against the serve default of 8 shards.
//
// CI gates the batched/sharded rungs at >= 10k requests/s on the case
// study and the acceptance bar of >= 2x over the single-request
// baseline (kBatch below is mirrored by the gate's arithmetic), and one
// warm request at a time (BM_ServeWarmSingle) at <= 0.1 ms.

#include <chrono>

#include "common.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/request.hpp"

namespace symcan::bench {
namespace {

/// Requests per handle_batch call; the CI gate divides by this.
constexpr std::size_t kBatch = 64;

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

std::vector<serve::ServeRequest> request_batch() {
  std::vector<serve::ServeRequest> batch;
  batch.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    batch.push_back(analyze_request("b" + std::to_string(i)));
  return batch;
}

serve::ServeConfig serve_config(bool cache_enabled, std::size_t shards) {
  serve::ServeConfig cfg;
  cfg.cache.enabled = cache_enabled;
  cfg.cache.shards = shards;
  return cfg;
}

/// Requests/s for `rounds` passes of the batch through one core (warm:
/// the first pass is excluded so it absorbs the cache misses).
double measure_reqs_per_sec(serve::ServeCore& core, int rounds) {
  const std::vector<serve::ServeRequest> batch = request_batch();
  core.handle_batch(batch);  // warm-up / miss-absorbing pass
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) core.handle_batch(batch);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
  return secs > 0 ? static_cast<double>(rounds) * static_cast<double>(kBatch) / secs : 0.0;
}

void reproduce() {
  banner("symcan serve: case-study analyze requests, three rungs");
  constexpr int kRounds = 20;

  serve::ServeCore single{serve_config(false, 1)};
  const double single_rps = measure_reqs_per_sec(single, kRounds);
  serve::ServeCore batched{serve_config(true, 1)};
  const double batched_rps = measure_reqs_per_sec(batched, kRounds);
  serve::ServeCore sharded{serve_config(true, 8)};
  const double sharded_rps = measure_reqs_per_sec(sharded, kRounds);

  TextTable t;
  t.header({"rung", "rta cache", "shards", "requests/s", "vs single"});
  t.row({"single", "off", "1", strprintf("%.0f", single_rps), "1.00x"});
  t.row({"batched", "warm", "1", strprintf("%.0f", batched_rps),
         strprintf("%.2fx", single_rps > 0 ? batched_rps / single_rps : 0.0)});
  t.row({"sharded", "warm", "8", strprintf("%.0f", sharded_rps),
         strprintf("%.2fx", single_rps > 0 ? sharded_rps / single_rps : 0.0)});
  t.print(std::cout);
  std::cout << "Gates: batched and sharded >= 10k requests/s and >= 2x the\n"
               "cache-off single-request floor (CI reads BENCH_abl_serve.json).\n";
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

/// Warm-cache batch against one shard: per-iteration wall time covers
/// kBatch requests (the CI gate divides accordingly).
void BM_ServeThroughputBatched(benchmark::State& state) {
  serve::ServeCore core{serve_config(true, 1)};
  const std::vector<serve::ServeRequest> batch = request_batch();
  core.handle_batch(batch);  // absorb the cold misses outside the timing
  for (auto _ : state) {
    const std::vector<serve::ServeResponse> resps = core.handle_batch(batch);
    benchmark::DoNotOptimize(resps.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ServeThroughputBatched);

/// The serve default: 8 shards, so parallel batch workers do not
/// serialize on one cache lock.
void BM_ServeThroughputSharded(benchmark::State& state) {
  serve::ServeCore core{serve_config(true, 8)};
  const std::vector<serve::ServeRequest> batch = request_batch();
  core.handle_batch(batch);
  for (auto _ : state) {
    const std::vector<serve::ServeResponse> resps = core.handle_batch(batch);
    benchmark::DoNotOptimize(resps.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ServeThroughputSharded);

// The throughput rungs above run with the telemetry plane always on
// (per-request records, windowed aggregates, SLO counters, flight
// recorder), so the >= 10k requests/s gate already bounds its overhead.
// The two benchmarks below price the read-side surfaces themselves.

/// Rendering the `telemetry` payload: windowed snapshot + SLO merge.
void BM_ServeTelemetrySnapshot(benchmark::State& state) {
  serve::ServeCore core{serve_config(true, 8)};
  core.handle_batch(request_batch());  // populate windows and SLO counters
  for (auto _ : state) {
    const std::string json = core.telemetry_json();
    benchmark::DoNotOptimize(json.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeTelemetrySnapshot);

/// The full health dashboard, windowed sections included.
void BM_ServeHealthJson(benchmark::State& state) {
  serve::ServeCore core{serve_config(true, 8)};
  core.handle_batch(request_batch());
  for (auto _ : state) {
    const std::string json = core.health_json();
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
