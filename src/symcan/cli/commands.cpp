#include "symcan/cli/commands.hpp"

#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "symcan/analysis/load.hpp"
#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/can/dbc_import.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/cli/args.hpp"
#include "symcan/obs/export.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/obs/prometheus.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/sensitivity/extensibility.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/server.hpp"
#include "symcan/supplychain/budget.hpp"
#include "symcan/sensitivity/robustness.hpp"
#include "symcan/sim/simulator.hpp"
#include "symcan/sim/trace_export.hpp"
#include "symcan/sim/trace_stats.hpp"
#include "symcan/sim/validation.hpp"
#include "symcan/stream/analyzer.hpp"
#include "symcan/stream/health.hpp"
#include "symcan/stream/trace_reader.hpp"
#include "symcan/util/csv.hpp"
#include "symcan/util/diagnostics.hpp"
#include "symcan/util/table.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::cli {

namespace {

/// Shared option handling: --worst-case / --best-case assumption presets
/// and the --jitter fraction applied to (unknown) jitters.
pipeline::AssumptionPreset preset_from(const Args& args) {
  if (args.has_flag("worst-case")) return pipeline::AssumptionPreset::kWorstCase;
  if (args.has_flag("best-case")) return pipeline::AssumptionPreset::kBestCase;
  return pipeline::AssumptionPreset::kDefault;
}

CanRtaConfig assumptions_from(const Args& args) {
  return pipeline::assumptions_for(preset_from(args));
}

/// --strict escalates ingest warnings (zero cycle times, stray signal
/// lines, non-0|1 boolean columns, ...) to hard errors.
DiagnosticPolicy policy_from(const Args& args) {
  return args.has_flag("strict") ? DiagnosticPolicy::kStrict : DiagnosticPolicy::kLenient;
}

/// Load through the diagnostics-collecting parsers so a malformed file
/// reports every problem at once; ParseError is rendered by run_cli as
/// one line per diagnostic, exit code 2.
KMatrix load_matrix_file(const std::string& path, bool is_dbc, DiagnosticPolicy policy,
                         const DbcImportOptions& opt = {}) {
  Diagnostics diags{policy};
  const std::string text = read_file(path);
  auto km = is_dbc ? kmatrix_from_dbc(text, opt, diags) : kmatrix_from_csv(text, diags);
  diags.throw_if_failed();
  if (!km) throw ParseError{diags};
  return std::move(*km);
}

KMatrix load_matrix(const Args& args, std::size_t positional_index = 0) {
  if (args.positionals().size() <= positional_index)
    throw std::invalid_argument("missing K-Matrix path");
  const std::string& path = args.positionals()[positional_index];
  const bool is_dbc =
      args.has_flag("dbc") || (path.size() > 4 && path.substr(path.size() - 4) == ".dbc");
  KMatrix km = load_matrix_file(path, is_dbc, policy_from(args));
  const double jitter = args.double_option_or("jitter", -1.0);
  if (jitter >= 0) assume_jitter_fraction(km, jitter, args.has_flag("override-known"));
  return km;
}

/// Upper bound of --jobs. Every unit of width is an OS thread started
/// up front, so an unchecked value could ask for millions of threads.
constexpr std::int64_t kMaxJobs = 256;

/// `v`, the value of option --`name`, or exit 2 when it exceeds `max`.
/// Caps the options that size threads or memory set up front.
std::int64_t at_most(const std::string& name, std::int64_t v, std::int64_t max) {
  if (v > max)
    throw std::invalid_argument("option --" + name + " must be <= " + std::to_string(max));
  return v;
}

/// --jobs N: worker threads for the parallel fan-out commands (analyze
/// --prob, sweep, sensitivity, optimize, extend, report, serve). 0 = one
/// per hardware thread, the default — results are bit-identical at any
/// width, so there is no reason not to use the whole machine
/// interactively. 1 = serial. Values above kMaxJobs are rejected (exit 2).
int jobs_from(const Args& args) {
  return static_cast<int>(at_most("jobs", args.count_option_or("jobs", 0), kMaxJobs));
}

/// RTA memoization for the commands that re-analyze edited matrices.
/// --rta-cache-capacity N bounds the number of cached per-message
/// verdicts (summed over shards; rejected unless a positive integer).
RtaCacheConfig rta_cache_from(const Args& args) {
  RtaCacheConfig cache;
  cache.capacity =
      static_cast<std::size_t>(args.positive_option_or("rta-cache-capacity", 65536));
  return cache;
}

void fail_on_unused(const Args& args) {
  const auto unused = args.unused();
  if (!unused.empty())
    throw std::invalid_argument("unknown option --" + unused.front());
}

int cmd_generate(const Args& args, std::ostream& out) {
  PowertrainConfig cfg = PowertrainConfig::case_study();
  cfg.seed = static_cast<std::uint64_t>(args.int_option_or("seed", 42));
  cfg.message_count = static_cast<int>(args.positive_option_or("messages", cfg.message_count));
  cfg.ecu_count = static_cast<int>(args.positive_option_or("ecus", cfg.ecu_count));
  cfg.target_utilization = args.double_option_or("util", cfg.target_utilization);
  cfg.bitrate_bps = args.positive_option_or("bitrate", cfg.bitrate_bps);
  const std::string output = args.option_or("out", "");
  KMatrix km = generate_powertrain(cfg);
  if (args.has_flag("tt-offsets")) {
    snap_periods(km, Duration::ms(1));
    assign_tt_offsets(km);
  }
  fail_on_unused(args);
  if (output.empty()) {
    out << kmatrix_to_csv(km);
  } else {
    save_kmatrix(km, output);
    out << "wrote " << km.size() << " messages to " << output << "\n";
  }
  return 0;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  const CanRtaConfig cfg = assumptions_from(args);
  if (args.has_flag("prob")) {
    // Probabilistic mode: deadline-miss distributions instead of a
    // binary verdict. Probabilities are exact ppm integers; the
    // defaults are degenerate, reproducing the deterministic table's
    // verdicts and exit code bit-for-bit.
    pipeline::ProbSpec spec;
    spec.fault_ppm = args.int_option_or("fault-ppm", 1'000'000);
    spec.stuff_ppm = args.int_option_or("stuff-ppm", 1'000'000);
    spec.jitter_ppm = args.int_option_or("jitter-ppm", 1'000'000);
    spec.max_rungs = args.positive_option_or("max-rungs", 96);
    spec.jobs = jobs_from(args);
    fail_on_unused(args);
    return pipeline::render_prob(km, cfg, spec, out);
  }
  fail_on_unused(args);
  return pipeline::render_analyze(km, cfg, out);
}

int cmd_sweep(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  if (args.has_flag("prob")) {
    // Miss-probability vs error rate: log-spaced fault probabilities,
    // one probabilistic analysis per point. The rung ladders are shared
    // across points, so the sweep costs one ladder build plus cheap
    // binomial re-mixes.
    FaultSweepConfig cfg;
    cfg.rta = assumptions_from(args);
    cfg.from_ppm = args.int_option_or("from-ppm", 1'000'000);
    cfg.to_ppm = args.int_option_or("to-ppm", 1);
    cfg.points = static_cast<int>(args.positive_option_or("points", 13));
    cfg.stuff_ppm = args.int_option_or("stuff-ppm", 1'000'000);
    cfg.jitter_ppm = args.int_option_or("jitter-ppm", 1'000'000);
    cfg.max_rungs = args.positive_option_or("max-rungs", 96);
    cfg.parallelism = jobs_from(args);
    cfg.cache = rta_cache_from(args);
    fail_on_unused(args);
    const FaultSweepResult res = sweep_fault_probability(km, cfg);
    out << "fault_ppm,at_risk_fraction,worst_miss_ppm\n";
    for (std::size_t i = 0; i < res.fault_ppm.size(); ++i)
      out << strprintf("%lld,%.6f,%lld\n", static_cast<long long>(res.fault_ppm[i]),
                       res.at_risk_fraction(i), static_cast<long long>(res.worst_miss_ppm(i)));
    return 0;
  }
  JitterSweepConfig cfg;
  cfg.rta = assumptions_from(args);
  cfg.from = args.double_option_or("from", 0.0);
  cfg.to = args.double_option_or("to", 0.60);
  cfg.step = args.double_option_or("step", 0.05);
  cfg.parallelism = jobs_from(args);
  cfg.cache = rta_cache_from(args);
  fail_on_unused(args);
  const JitterSweepResult res = sweep_jitter(km, cfg);
  out << "jitter_fraction,miss_fraction,miss_count\n";
  for (std::size_t i = 0; i < res.fractions.size(); ++i)
    out << strprintf("%.4f,%.6f,%zu\n", res.fractions[i], res.miss_fraction(i),
                     res.results[i].miss_count());
  return 0;
}

int cmd_sensitivity(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  JitterSweepConfig cfg;
  cfg.rta = assumptions_from(args);
  cfg.parallelism = jobs_from(args);
  cfg.cache = rta_cache_from(args);
  fail_on_unused(args);
  const SensitivityReport rep = analyze_sensitivity(km, cfg);
  TextTable t;
  t.header({"message", "class", "growth", "max tolerable jitter"});
  for (const auto& m : rep.messages)
    t.row({m.name, to_string(m.cls), strprintf("%+.0f%%", 100 * m.relative_growth),
           strprintf("%.1f%%", 100 * m.max_tolerable_fraction)});
  t.print(out);
  return 0;
}

int cmd_optimize(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  pipeline::OptimizeSpec spec;
  spec.best_case = args.has_flag("best-case");
  spec.seed = static_cast<std::uint64_t>(args.int_option_or("seed", 7));
  spec.generations = static_cast<int>(args.positive_option_or("generations", 25));
  spec.population = static_cast<int>(args.positive_option_or("population", 32));
  spec.target_jitter = args.double_option_or("target-jitter", 0.25);
  spec.jobs = jobs_from(args);
  spec.cache = rta_cache_from(args);
  const std::string output = args.option_or("out", "");
  fail_on_unused(args);

  if (output.empty()) return pipeline::render_optimize(km, spec, out);
  const pipeline::OptimizeOutcome o = pipeline::run_optimize(km, spec);
  out << strprintf("GA: %d evaluations, best misses %.0f, robustness cost %.3f\n",
                   o.result.evaluations, o.result.best.misses, o.result.best.robustness_cost);
  save_kmatrix(o.optimized, output);
  out << "wrote optimized matrix to " << output << "\n";
  return o.result.best.misses == 0 ? 0 : 1;
}

/// Shared --errors none|sporadic|burst [--error-gap-ms N] parsing for the
/// simulation commands. The gap is only read (and validated) when an
/// error process asks for it, exactly as before the pipeline refactor.
pipeline::ErrorSpec error_spec_from(const Args& args) {
  pipeline::ErrorSpec spec;
  spec.kind = args.option_or("errors", "none");
  if (spec.kind == "sporadic") spec.gap_ms = args.positive_option_or("error-gap-ms", 40);
  if (spec.kind == "burst") spec.gap_ms = args.positive_option_or("error-gap-ms", 25);
  return spec;
}

SimErrorProcess sim_errors_from(const Args& args) {
  return pipeline::sim_errors_for(error_spec_from(args));
}

int cmd_simulate(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  SimConfig cfg;
  cfg.duration = Duration::ms(args.positive_option_or("millis", 2000));
  cfg.seed = static_cast<std::uint64_t>(args.int_option_or("seed", 1));
  cfg.errors = sim_errors_from(args);
  const std::optional<std::string> jsonl_out = args.path_option("trace-jsonl");
  const std::optional<std::string> chrome_out = args.path_option("trace-chrome");
  const std::optional<std::string> stats_json_out = args.path_option("stats-json");
  const bool print_stats = args.has_flag("stats");
  const Duration stats_window = Duration::ms(args.positive_option_or("window-ms", 100));
  cfg.record_trace = jsonl_out || chrome_out || stats_json_out || print_stats;
  fail_on_unused(args);

  const SimResult res = simulate(km, cfg);
  if (jsonl_out) obs::write_file(*jsonl_out, trace_to_jsonl(res.trace));
  if (chrome_out) obs::write_file(*chrome_out, sim_trace_to_chrome_json(res.trace, km));
  if (stats_json_out || print_stats) {
    const TraceStats stats = compute_trace_stats(res.trace, res.simulated, stats_window);
    if (stats_json_out) obs::write_file(*stats_json_out, trace_stats_to_json(stats) + "\n");
    if (print_stats) out << trace_stats_to_text(stats);
  }
  TextTable t;
  t.header({"message", "activations", "completed", "lost", "retx", "wcrt obs", "avg"});
  for (const auto& m : res.messages)
    t.row({m.name, strprintf("%lld", static_cast<long long>(m.activations)),
           strprintf("%lld", static_cast<long long>(m.completions)),
           strprintf("%lld", static_cast<long long>(m.losses)),
           strprintf("%lld", static_cast<long long>(m.retransmissions)),
           to_string(m.wcrt_observed), strprintf("%.0f us", m.avg_response_us)});
  t.print(out);
  std::int64_t losses = 0;
  for (const auto& m : res.messages) losses += m.losses;
  out << strprintf("simulated %s, %lld errors injected, %lld losses\n",
                   to_string(res.simulated).c_str(),
                   static_cast<long long>(res.total_errors_injected),
                   static_cast<long long>(losses));
  return losses == 0 ? 0 : 1;
}

int cmd_explain(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  if (args.positionals().size() < 2)
    throw std::invalid_argument("usage: explain FILE MESSAGE [--worst-case|--best-case] [--json]");
  const std::string& name = args.positionals()[1];
  const CanRtaConfig cfg = assumptions_from(args);
  const bool json = args.has_flag("json");
  fail_on_unused(args);
  return pipeline::render_explain(km, cfg, name, json, out);
}

int cmd_validate(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  pipeline::ValidateSpec spec;
  spec.millis = args.positive_option_or("millis", 2000);
  spec.seed = static_cast<std::uint64_t>(args.int_option_or("seed", 1));
  spec.errors = error_spec_from(args);
  spec.json = args.has_flag("json");
  fail_on_unused(args);
  return pipeline::render_validate(km, spec, out);
}

int cmd_monitor(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  SimConfig sim;
  sim.duration = Duration::ms(args.positive_option_or("millis", 2000));
  sim.seed = static_cast<std::uint64_t>(args.int_option_or("seed", 1));
  sim.errors = sim_errors_from(args);
  sim.record_trace = true;
  const std::optional<std::string> from_trace = args.path_option("from-trace");
  const std::optional<std::string> stats_json_out = args.path_option("stats-json");
  const std::optional<std::string> events_out = args.path_option("events-jsonl");
  const bool json = args.has_flag("json");
  const bool no_bounds = args.has_flag("no-bounds");
  fail_on_unused(args);

  stream::StreamAnalyzer analyzer;
  if (!no_bounds) {
    // Same sound pairing as `validate`: the bounds must dominate what the
    // stream can contain, or an online "violation" means nothing.
    CanRtaConfig rta;
    rta.worst_case_stuffing = true;
    rta.deadline_override = DeadlinePolicy::kPeriod;
    rta.errors = pipeline::matching_error_model(sim.errors);
    analyzer.set_bounds(analysis::analyze_uncached(km, rta));
  }

  Trace trace;
  Duration span = Duration::zero();
  if (from_trace) {
    Diagnostics diags{policy_from(args)};
    auto parsed = stream::trace_from_jsonl(read_file(*from_trace), diags);
    diags.throw_if_failed();
    if (!parsed) throw ParseError{diags};
    trace = std::move(*parsed);
    if (!trace.events().empty()) span = trace.events().back().time;
  } else {
    SimResult res = simulate(km, sim);
    trace = std::move(res.trace);
    span = res.simulated;
  }

  // Chunked ingest stands in for the arrival batches a live capture
  // would deliver; results are chunk-invariant by contract.
  constexpr std::size_t chunk = 4096;
  const auto& events = trace.events();
  for (std::size_t i = 0; i < events.size(); i += chunk)
    analyzer.ingest(events.data() + i, std::min(chunk, events.size() - i));
  analyzer.advance_to(span);

  const stream::StreamStats stats = analyzer.stats();
  if (stats_json_out)
    obs::write_file(*stats_json_out, stream::stream_stats_to_json(stats) + "\n");
  if (events_out) obs::write_file(*events_out, stream::health_events_to_jsonl(analyzer.events()));
  if (json) {
    out << stream::stream_stats_to_json(stats) << "\n";
  } else {
    out << stream::stream_stats_to_text(stats);
  }
  return stats.violations > 0 ? 1 : 0;
}

int cmd_budget(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  const CanRtaConfig cfg = assumptions_from(args);
  fail_on_unused(args);
  const BudgetReport budgets = allocate_jitter_budgets(km, cfg, 0.02);
  out << strprintf("jointly safe uniform jitter: %.0f%% of each period\n",
                   100 * budgets.joint_fraction);
  TextTable t;
  t.header({"message", "joint budget", "individual max", "tradeable bonus"});
  for (const std::size_t i : km.priority_order())
    t.row({km.messages()[i].name, to_string(budgets.joint_budget[i]),
           to_string(budgets.individual_budget[i]), to_string(budgets.bonus(i))});
  t.print(out);
  return 0;
}

int cmd_report(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  const CanRtaConfig cfg = assumptions_from(args);
  const int jobs = jobs_from(args);
  const RtaCacheConfig cache = rta_cache_from(args);
  fail_on_unused(args);

  out << "# Network integration report: " << km.bus_name() << "\n\n";
  const LoadReport load = analyze_load(km, cfg.worst_case_stuffing);
  out << strprintf("- %zu messages on %zu nodes, %.0f kbit/s\n", km.size(), km.nodes().size(),
                   load.bandwidth_bps / 1000);
  out << strprintf("- bus load: %.1f%% (40%% limit: %s, 60%% limit: %s)\n",
                   100 * load.utilization, within_load_limit(load, 0.4) ? "ok" : "EXCEEDED",
                   within_load_limit(load, 0.6) ? "ok" : "EXCEEDED");

  const BusResult res = analysis::analyze_uncached(km, cfg);
  out << strprintf("- schedulability: %zu/%zu messages meet their deadline\n",
                   res.messages.size() - res.miss_count(), res.messages.size());
  Duration worst = Duration::zero();
  std::string worst_name;
  for (const auto& m : res.messages) {
    if (m.wcrt.is_infinite()) continue;
    if (m.wcrt > worst) {
      worst = m.wcrt;
      worst_name = m.name;
    }
  }
  out << strprintf("- largest worst-case response: %s (%s)\n", to_string(worst).c_str(),
                   worst_name.c_str());

  out << "\n## Deadline misses\n\n";
  bool any_miss = false;
  for (const auto& m : res.messages) {
    if (m.schedulable) continue;
    any_miss = true;
    out << strprintf("- %s: wcrt %s vs deadline %s\n", m.name.c_str(),
                     to_string(m.wcrt).c_str(), to_string(m.deadline).c_str());
  }
  if (!any_miss) out << "none\n";

  if (res.all_schedulable()) {
    out << "\n## Jitter budgets (Section 5.2)\n\n";
    const BudgetReport budgets = allocate_jitter_budgets(km, cfg, 0.02);
    out << strprintf("- jointly safe uniform jitter: %.0f%% of each period\n",
                     100 * budgets.joint_fraction);
    // The three largest tradeable reserves.
    std::vector<std::size_t> idx(km.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return budgets.bonus(a) > budgets.bonus(b); });
    for (std::size_t k = 0; k < 3 && k < idx.size(); ++k)
      out << strprintf("- %s: joint %s, individually up to %s\n",
                       km.messages()[idx[k]].name.c_str(),
                       to_string(budgets.joint_budget[idx[k]]).c_str(),
                       to_string(budgets.individual_budget[idx[k]]).c_str());

    out << "\n## Extensibility (Section 2)\n\n";
    ExtensionProfile profile;
    profile.first_id = 0x600;
    const ExtensibilityReport ext = max_additional_messages(km, cfg, profile, 64, jobs, cache);
    out << strprintf("- %s%zu additional 20 ms / 8 B messages provable (load at max: %.0f%%)\n",
                     ext.capped ? ">= " : "", ext.max_additional_messages,
                     100 * ext.utilization_at_max);
  }
  return res.all_schedulable() ? 0 : 1;
}

int cmd_import(const Args& args, std::ostream& out) {
  if (args.positionals().empty()) throw std::invalid_argument("missing DBC path");
  DbcImportOptions opt;
  opt.default_bitrate_bps = args.int_option_or("bitrate", opt.default_bitrate_bps);
  opt.bus_name = args.option_or("bus-name", opt.bus_name);
  const KMatrix km = load_matrix_file(args.positionals()[0], true, policy_from(args), opt);
  const std::string output = args.option_or("out", "");
  fail_on_unused(args);
  if (output.empty()) {
    out << kmatrix_to_csv(km);
  } else {
    save_kmatrix(km, output);
    out << "imported " << km.size() << " messages from DBC to " << output << "\n";
  }
  return 0;
}

int cmd_extend(const Args& args, std::ostream& out) {
  const KMatrix km = load_matrix(args);
  ExtensionProfile profile;
  profile.period = Duration::ms(args.positive_option_or("period-ms", 20));
  profile.payload_bytes = static_cast<int>(args.count_option_or("bytes", 8));
  profile.jitter_fraction = args.double_option_or("profile-jitter", 0.25);
  profile.first_id = static_cast<CanId>(args.int_option_or("first-id", 0x600));
  const CanRtaConfig cfg = assumptions_from(args);
  const int jobs = jobs_from(args);
  const RtaCacheConfig cache = rta_cache_from(args);
  fail_on_unused(args);
  const ExtensibilityReport r = max_additional_messages(km, cfg, profile, 128, jobs, cache);
  out << strprintf("headroom: %s%zu additional %lldms/%dB messages (util at max: %.1f%%)\n",
                   r.capped ? ">= " : "", r.max_additional_messages,
                   static_cast<long long>(profile.period.count_ns() / 1'000'000),
                   profile.payload_bytes, 100 * r.utilization_at_max);
  if (!r.capped && !r.steps.empty() && !r.steps.back().first_miss.empty())
    out << "first failure: " << r.steps.back().first_miss << "\n";
  return 0;
}

/// `symcan serve --stdio`: the long-running analysis service. All knobs
/// are validated up front (garbage exits 2 before any request is read).
int cmd_serve(const Args& args, std::istream& in, std::ostream& out) {
  if (!args.has_flag("stdio"))
    throw std::invalid_argument("serve requires --stdio (the only transport today)");
  serve::ServeConfig cfg;
  cfg.cache = rta_cache_from(args);
  cfg.batch_max = static_cast<std::size_t>(args.positive_option_or("batch", 32));
  cfg.jobs = jobs_from(args);
  cfg.matrix_cache_capacity =
      static_cast<std::size_t>(args.positive_option_or("matrix-cache", 64));
  cfg.policy = policy_from(args);

  // Telemetry plane: always on (the windows and flight ring are cheap);
  // the flags pick where dumps land and how much history is retained.
  // The ring and the window buckets are allocated when the core starts,
  // and the bucket width is converted to nanoseconds, so each is capped.
  if (const auto flight = args.path_option("flight-recorder"))
    cfg.telemetry.flight_path = *flight;
  const auto capped = [&](const std::string& name, std::int64_t fallback, std::int64_t max) {
    return at_most(name, args.positive_option_or(name, fallback), max);
  };
  cfg.telemetry.flight_capacity =
      static_cast<std::size_t>(capped("flight-capacity", 256, 65'536));
  cfg.telemetry.window_bucket_ms = capped("window-bucket-ms", 5000, 86'400'000);
  cfg.telemetry.window_buckets = static_cast<std::size_t>(capped("window-buckets", 12, 4096));
  // SLO objective: the burn-rate denominator is (1 - objective), so 1.0
  // (or anything outside the open interval) would divide by zero and
  // poison the telemetry/health JSON — reject it here, before the
  // service starts (exit 2), rather than crash on the first snapshot.
  cfg.telemetry.slo_objective = args.double_option_or("slo-objective", 0.99);
  if (!(cfg.telemetry.slo_objective > 0.0) || !(cfg.telemetry.slo_objective < 1.0))
    throw std::invalid_argument("--slo-objective must lie strictly between 0 and 1");
  cfg.build_info = version_string();
  if (const auto prom = args.path_option("metrics-prom")) cfg.metrics_prom_path = *prom;
  fail_on_unused(args);
  serve::ServeCore core{cfg};
  return serve::run_stdio_serve(core, in, out);
}

}  // namespace

std::string version_string() {
#ifndef SYMCAN_VERSION
#define SYMCAN_VERSION "0.0.0"
#endif
#ifndef SYMCAN_BUILD_TYPE
#define SYMCAN_BUILD_TYPE "unspecified"
#endif
#ifndef SYMCAN_SANITIZE_NAME
#define SYMCAN_SANITIZE_NAME "none"
#endif
  return std::string("symcan ") + SYMCAN_VERSION + " (build: " + SYMCAN_BUILD_TYPE +
         ", sanitizer: " + SYMCAN_SANITIZE_NAME + ", C++" +
         std::to_string(__cplusplus / 100 % 100) + ")";
}

std::string usage() {
  return "usage: symcan <command> [options]\n"
         "  generate    [--seed N] [--messages N] [--ecus N] [--util X] [--bitrate BPS]\n"
         "              [--tt-offsets] [--out FILE]      synthesize a K-Matrix CSV\n"
         "  analyze     FILE [--worst-case|--best-case] [--jitter F] [--override-known]\n"
         "              [--prob [--fault-ppm N] [--stuff-ppm N] [--jitter-ppm N]\n"
         "              [--max-rungs N] [--jobs N]]\n"
         "              --prob reports per-message deadline-miss probabilities:\n"
         "              the response-time distribution from convolving per-fault-\n"
         "              count bounds (each admitted fault materializes with\n"
         "              probability --fault-ppm/1e6), worst-case stuffing and\n"
         "              activation jitter; the deterministic WCRT is the\n"
         "              distribution's upper support point, and all-1e6 ppm\n"
         "              (the default) reproduces the deterministic verdicts\n"
         "  sweep       FILE [--from F] [--to F] [--step F] [--jobs N]\n"
         "              [--worst-case|--best-case]\n"
         "              [--prob [--from-ppm N] [--to-ppm N] [--points N]\n"
         "              [--stuff-ppm N] [--jitter-ppm N] [--max-rungs N]]\n"
         "              --prob sweeps the fault probability instead of jitter:\n"
         "              miss-probability vs error rate, log-spaced ppm points\n"
         "              (rung ladders are shared across points via the cache)\n"
         "  import      FILE.dbc [--bitrate BPS] [--bus-name NAME] [--out FILE]\n"
         "  report      FILE [--worst-case|--best-case] [--jitter F]   markdown summary\n"
         "  budget      FILE [--worst-case|--best-case]   jitter budgets (Section 5.2)\n"
         "  sensitivity FILE [--worst-case|--best-case] [--jobs N]\n"
         "  optimize    FILE [--generations N] [--population N] [--seed N]\n"
         "              [--target-jitter F] [--jobs N] [--out FILE]\n"
         "  simulate    FILE [--millis N] [--seed N] [--errors none|sporadic|burst]\n"
         "              [--error-gap-ms N] [--stats] [--window-ms N] [--stats-json FILE]\n"
         "              [--trace-jsonl FILE] [--trace-chrome FILE]\n"
         "  explain     FILE MESSAGE [--worst-case|--best-case] [--json]\n"
         "              why the RTA bound is what it is: blocking frame, per-\n"
         "              interferer shares, error overhead, fixed-point trajectory\n"
         "  validate    FILE [--millis N] [--seed N] [--errors none|sporadic|burst]\n"
         "              [--error-gap-ms N] [--json]    bound-vs-observed report;\n"
         "              exit 1 if any simulated response exceeds its RTA bound\n"
         "  monitor     FILE [--millis N] [--seed N] [--errors none|sporadic|burst]\n"
         "              [--error-gap-ms N] [--from-trace FILE.jsonl]\n"
         "              [--json] [--stats-json FILE] [--events-jsonl FILE] [--no-bounds]\n"
         "              stream the trace through the online health analyzer:\n"
         "              per-message EWMA baselines, jitter/drift/stall/arrhythmia\n"
         "              onset+clear events; exit 1 if a response crossed its bound\n"
         "  extend      FILE [--period-ms N] [--bytes N] [--profile-jitter F]\n"
         "              [--first-id N] [--jobs N] [--worst-case|--best-case]\n"
         "  serve       --stdio [--rta-cache-capacity N]\n"
         "              [--batch N] [--jobs N] [--matrix-cache N] [--strict]\n"
         "              [--flight-recorder FILE] [--flight-capacity N]\n"
         "              [--window-bucket-ms N] [--window-buckets N]\n"
         "              [--metrics-prom FILE] [--slo-objective X]\n"
         "              long-running analysis service: one JSON request per stdin\n"
         "              line (analyze/prob/explain/validate/optimize/health/\n"
         "              telemetry),\n"
         "              one JSON response per stdout line, in input order and\n"
         "              sent as soon as ready, bit-identical to the one-shot CLI\n"
         "              on the same inputs (see DESIGN.md). --batch N bounds the\n"
         "              lines read but not yet answered (default 32); every line\n"
         "              read is answered. Every request gets a telemetry record\n"
         "              (service time, cache hit, outcome); the 'telemetry'\n"
         "              kind returns windowed rates, latency quantiles, and\n"
         "              per-kind SLO burn.\n"
         "              --flight-recorder FILE keeps the last N records (default\n"
         "              256, at most 65536, --flight-capacity) and dumps them as\n"
         "              JSONL on a telemetry request with \"dump\":true, or shutdown.\n"
         "              The rolling window is --window-buckets N buckets (default\n"
         "              12, at most 4096) of --window-bucket-ms N each (default\n"
         "              5000, at most 86400000).\n"
         "              --metrics-prom FILE rewrites a Prometheus text-format\n"
         "              scrape file at most once per window bucket and at\n"
         "              shutdown.\n"
         "  version     print version and build configuration\n"
         "  help\n"
         "--jobs N selects N worker threads for analyze --prob/sweep/\n"
         "sensitivity/optimize/extend/report/serve (0 = all hardware threads,\n"
         "the default; at most 256; results are bit-identical at any width).\n"
         "--strict escalates ingest warnings (zero cycle times, stray\n"
         "signal lines, non-0|1 boolean columns) to errors. Malformed input\n"
         "prints one line-numbered diagnostic per problem and exits 2.\n"
         "Those commands memoize per-message RTA verdicts across the\n"
         "re-analyses they perform; cached results are bit-identical to\n"
         "fresh ones. --rta-cache-capacity N (default 65536) bounds the\n"
         "cached verdicts, which are split across 8 independently locked\n"
         "LRU shards.\n"
         "--trace-out FILE / --metrics-out FILE / --metrics-prom FILE work\n"
         "with every command: they record spans (chrome://tracing JSON) and\n"
         "metrics (counters, histograms, per-iteration series; --metrics-prom\n"
         "uses Prometheus text exposition) for the run and write them on\n"
         "exit.\n";
}

int run_cli(const std::vector<std::string>& argv_tail, std::ostream& out, std::ostream& err) {
  return run_cli(argv_tail, std::cin, out, err);
}

int run_cli(const std::vector<std::string>& argv_tail, std::istream& in, std::ostream& out,
            std::ostream& err) {
  if (argv_tail.empty() || argv_tail[0] == "help" || argv_tail[0] == "--help") {
    out << usage();
    return argv_tail.empty() ? 2 : 0;
  }
  if (argv_tail[0] == "version" || argv_tail[0] == "--version") {
    out << version_string() << "\n";
    return 0;
  }
  const std::string command = argv_tail[0];
  const std::vector<std::string> rest(argv_tail.begin() + 1, argv_tail.end());
  try {
    const std::vector<std::string> flags = {"worst-case", "best-case", "override-known",
                                            "tt-offsets", "dbc",       "json",
                                            "stats",      "strict",    "no-bounds",
                                            "stdio",      "prob"};
    const Args args = Args::parse(rest, flags);

    // Observability exports apply to every command: validate the paths up
    // front (so a bad path fails before a long run) and enable recording
    // only when at least one export was requested.
    const std::optional<std::string> trace_out = args.path_option("trace-out");
    const std::optional<std::string> metrics_out = args.path_option("metrics-out");
    const std::optional<std::string> metrics_prom = args.path_option("metrics-prom");
    if (trace_out || metrics_out || metrics_prom) {
      obs::reset();
      obs::set_enabled(true);
    }

    const auto dispatch = [&]() -> int {
      if (command == "generate") return cmd_generate(args, out);
      if (command == "analyze") return cmd_analyze(args, out);
      if (command == "sweep") return cmd_sweep(args, out);
      if (command == "import") return cmd_import(args, out);
      if (command == "report") return cmd_report(args, out);
      if (command == "budget") return cmd_budget(args, out);
      if (command == "sensitivity") return cmd_sensitivity(args, out);
      if (command == "optimize") return cmd_optimize(args, out);
      if (command == "simulate") return cmd_simulate(args, out);
      if (command == "explain") return cmd_explain(args, out);
      if (command == "validate") return cmd_validate(args, out);
      if (command == "monitor") return cmd_monitor(args, out);
      if (command == "extend") return cmd_extend(args, out);
      if (command == "serve") return cmd_serve(args, in, out);
      err << "symcan: unknown command '" << command << "'\n" << usage();
      return 2;
    };
    const int rc = dispatch();

    if (trace_out || metrics_out || metrics_prom) {
      obs::set_enabled(false);
      if (metrics_out) obs::write_file(*metrics_out, obs::metrics_to_json(obs::metrics()));
      if (metrics_prom)
        obs::write_file(*metrics_prom, obs::metrics_to_prometheus(obs::metrics()));
      if (trace_out) obs::write_file(*trace_out, obs::trace_to_chrome_json(obs::tracer()));
    }
    return rc;
  } catch (const ParseError& e) {
    // Malformed input: one line per collected diagnostic, then exit 2.
    obs::set_enabled(false);
    const Diagnostics& d = e.diagnostics();
    err << "symcan " << command << ": " << d.source() << ": " << d.error_count() << " error(s)";
    if (d.warning_count() > 0) err << ", " << d.warning_count() << " warning(s)";
    err << "\n" << d.format();
    return 2;
  } catch (const std::exception& e) {
    obs::set_enabled(false);
    err << "symcan " << command << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace symcan::cli
