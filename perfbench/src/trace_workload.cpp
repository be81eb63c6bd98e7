// trace_replay: simulated bus traffic replayed through the monitoring
// path. Two seeded buses, one with sporadic and one with burst errors.
// One query runs kReplays replays on kWidth threads, half of them on each
// bus, each with a fresh simulation seed; a replay solves the bus's bounds once under the
// pairing that keeps them sound (worst-case stuffing, an error model
// dominating the injected faults), simulates kFrames frames of traffic,
// feeds the trace in chunks through a StreamAnalyzer with the bounds
// armed, and reduces it offline with compute_trace_stats and
// compare_bound_vs_observed. The query ends by parsing the committed
// case-study trace (JSONL) and monitoring it.
//
// Each bus's simulated span is sized to its frame rate, so queries cost
// the same whatever buses the workload seed draws. The replays run on all
// kWidth threads, several per thread, because a single-threaded replay
// moved by a third between runs on a shared host as the vCPU it landed on
// changed speed; a query spread over every vCPU averages that out.

#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/sim/simulator.hpp"
#include "symcan/sim/trace_stats.hpp"
#include "symcan/sim/validation.hpp"
#include "symcan/stream/analyzer.hpp"
#include "symcan/stream/trace_reader.hpp"
#include "symcan/util/parallel.hpp"
#include "symcan/util/rng.hpp"
#include "symcan/workload/powertrain.hpp"

namespace perfbench {
namespace {

using namespace symcan;

/// Frames simulated per replay (about three trace events each), and
/// replays per query, half on each bus.
constexpr double kFrames = 5000;
constexpr std::size_t kReplays = 4 * kWidth;
/// Events handed to the stream analyzer per ingest call.
constexpr std::size_t kChunk = 4096;
const char* const kCommittedTrace = "data/case_study_trace.jsonl";

struct ReplayBus {
  KMatrix km;
  SimErrorProcess errors;
  CanRtaConfig rta;
  Duration span;  ///< Simulated time holding about kFrames frames.
};

struct Inputs {
  std::vector<ReplayBus> buses;
  std::string committed;  ///< The committed trace's JSONL text.
  std::size_t committed_events = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const char* kinds[] = {"sporadic", "burst"};
  for (std::uint64_t b = 0; b < 2; ++b) {
    PowertrainConfig pc;
    pc.seed = stream_seed(seed, 20, b);
    pc.target_utilization = 0.55;
    ReplayBus bus{generate_powertrain(pc), pipeline::sim_errors_for({kinds[b], -1}), {}, {}};
    double frames_per_s = 0;
    for (const CanMessage& m : bus.km.messages())
      frames_per_s += 1e9 / static_cast<double>(m.period.count_ns());
    bus.span = Duration::ns(static_cast<std::int64_t>(1e9 * kFrames / frames_per_s));
    bus.rta.worst_case_stuffing = true;
    bus.rta.deadline_override = DeadlinePolicy::kPeriod;
    bus.rta.errors = pipeline::matching_error_model(bus.errors);
    in.buses.push_back(std::move(bus));
  }
  std::ifstream f{kCommittedTrace};
  if (!f) throw std::runtime_error(std::string("cannot read ") + kCommittedTrace);
  std::ostringstream text;
  text << f.rdbuf();
  in.committed = text.str();
  for (const char c : in.committed) in.committed_events += c == '\n' ? 1 : 0;
  return in;
}

struct Samples {
  std::vector<double> analyze_us, sim_us, stream_us, stats_us, validate_us, reader_us, pack_us,
      solve_us;
  double sim_events = 0, stream_events = 0, reader_bytes = 0;
  double burst_violations = 0;  ///< Bound violations on the burst-error bus.

  Samples& operator+=(const Samples& o) {
    for (auto [to, from] : {std::pair{&analyze_us, &o.analyze_us}, {&sim_us, &o.sim_us},
                            {&stream_us, &o.stream_us}, {&stats_us, &o.stats_us},
                            {&validate_us, &o.validate_us}})
      to->insert(to->end(), from->begin(), from->end());
    sim_events += o.sim_events;
    stream_events += o.stream_events;
    burst_violations += o.burst_violations;
    return *this;
  }
};

/// One replay's timings and output checks.
struct Replay {
  Samples samples;
  bool sound = false;  ///< No bound violation, online or offline (sporadic bus).
  bool agree = false;  ///< Stream verdicts and counts equal the offline ones.
};

class TraceBench {
 public:
  TraceBench(const Options& opt, Result& result) : opt_{opt}, result_{result}, pool_{kWidth} {}

  void run() {
    // Set-up: the inputs plus one warm-up query (first-touch allocations),
    // so work moved out of a query shows here.
    const double setup = median_seconds(kSetupRepeats, [&] {
      in_ = make_inputs(opt_.seed);
      query();
    });
    if (!opt_.trace) {
      result_.metric("setup_s", setup);
      const auto t0 = Clock::now();
      std::vector<double> latency_ms;
      do {
        latency_ms.push_back(query());
      } while (seconds_between(t0, Clock::now()) < opt_.seconds);
      result_.metric("p50_ms", quantile(latency_ms, 0.50));
      result_.metric("p90_ms", quantile(latency_ms, 0.90));
      result_.metric("rps", 1e3 / mean(latency_ms));
      return;
    }

    const auto t0 = Clock::now();
    // Traced: each of 12 queries runs untraced and then again traced (same
    // seeds), so slow drifts of the host cancel out of the overhead; then
    // traced queries for the rest of the run.
    double plain = 0, traced = 0;
    for (int i = 0; i < 12; ++i) {
      set_tracing(false);
      plain += query();
      set_tracing(true);
      --next_;  // the same query again
      traced += query();
    }
    result_.metric("bench.tracing_overhead", traced / plain - 1);
    samples_ = Samples{};
    const CpuMeter cpu;
    while (seconds_between(t0, Clock::now()) < opt_.seconds) query();
    result_.metric("util.cpu_util", cpu.value());

    const Samples& s = samples_;
    const auto per_s = [](double n, const std::vector<double>& us) {
      double total = 0;
      for (const double x : us) total += x;
      return total > 0 ? n / (total * 1e-6) : 0.0;
    };
    result_.metric("analysis.analyze_us", mean(s.analyze_us));
    result_.metric("analysis.pack_us", mean(s.pack_us));
    result_.metric("analysis.solve_us", mean(s.solve_us));
    result_.metric("sim.events_per_s", per_s(s.sim_events, s.sim_us));
    result_.metric("sim.trace_stats_ms", mean(s.stats_us) / 1e3);
    result_.metric("sim.validation_ms", mean(s.validate_us) / 1e3);
    result_.metric("sim.burst_bound_violations", s.burst_violations);
    result_.metric("stream.ingest_events_per_s", per_s(s.stream_events, s.stream_us));
    result_.metric("stream.reader_mb_per_s", per_s(s.reader_bytes / 1e6, s.reader_us));
  }

 private:
  /// One query; returns its latency in ms.
  double query() {
    const std::size_t q = next_++;
    const auto t0 = Clock::now();
    const std::vector<Replay> replays = pool_.parallel_map_indexed(
        kReplays, [&](std::size_t j) {
          return replay(in_.buses[j % in_.buses.size()], stream_seed(opt_.seed, 30 + j, q));
        });
    const double ms = 1e3 * seconds_between(t0, Clock::now());
    for (const Replay& r : replays) {
      samples_ += r.samples;
      result_.check(r.sound, "no bound violations on the sporadic-error bus");
      result_.check(r.agree, "stream verdicts and counts equal the offline reduction");
    }
    if (tracing()) layer_probes();
    return ms + committed_trace();
  }

  /// Runs on a pool thread: touches nothing but its arguments and locals.
  static Replay replay(const ReplayBus& bus, std::uint64_t sim_seed) {
    Replay out;
    Samples& s = out.samples;
    const auto t0 = Clock::now();
    IncrementalRta cold;
    const BusResult bounds =
        timed("analysis.analyze", s.analyze_us, [&] { return cold.analyze(bus.km, bus.rta); });
    SimConfig sc;
    sc.duration = bus.span;
    sc.seed = sim_seed;
    sc.errors = bus.errors;
    sc.stuffing = StuffingMode::kRandom;
    sc.record_trace = true;
    const SimResult sim = timed("sim.simulate", s.sim_us, [&] { return simulate(bus.km, sc); });
    const std::vector<TraceEvent>& events = sim.trace.events();
    s.sim_events += static_cast<double>(events.size());

    stream::StreamAnalyzer analyzer;
    analyzer.set_bounds(bounds);
    timed("stream.ingest", s.stream_us, [&] {
      for (std::size_t i = 0; i < events.size(); i += kChunk)
        analyzer.ingest(events.data() + i, std::min(kChunk, events.size() - i));
      analyzer.advance_to(bus.span);
    });
    s.stream_events += static_cast<double>(events.size());
    const stream::StreamStats live = analyzer.stats();

    const TraceStats offline = timed("sim.trace_stats", s.stats_us, [&] {
      return compute_trace_stats(sim.trace, bus.span, Duration::ms(10));
    });
    const BoundValidation v = timed("sim.validation", s.validate_us,
                                    [&] { return compare_bound_vs_observed(bounds, sim); });

    // Under the forced-sound pairing no response may cross its bound, and
    // the online monitor must reach the offline verdicts and counts. The
    // burst pairing is not sound on every simulation seed (README,
    // Findings), so its violations are counted rather than failed; the
    // monitor must still agree with the offline reduction on them.
    const bool burst = bus.errors.kind == SimErrorProcess::Kind::kBurst;
    if (burst) s.burst_violations += static_cast<double>(v.violations);
    out.sound = burst || (v.violations == 0 && live.violations == 0);
    out.agree = live.frames == static_cast<std::int64_t>(events.size());
    for (const BoundObservation& o : v.messages) {
      const stream::MessageStreamStats* m = live.find(o.name);
      const MessageTraceStats* t = offline.find(o.name);
      out.agree = out.agree && m && t && m->violation() == o.violation &&
                  m->completions == t->completions && m->latency_max == t->observed_max;
    }
    record_span("trace_replay.replay", t0, Clock::now());
    return out;
  }

  /// Traced runs only: the solver layers on the replayed buses.
  void layer_probes() {
    for (const ReplayBus& bus : in_.buses) {
      analysis::ColumnarBus packed;
      timed("analysis.pack", samples_.pack_us,
            [&] { analysis::pack_bus(bus.km, bus.rta, packed); });
      timed("analysis.solve", samples_.solve_us, [&] {
        for (std::size_t m = 0; m < packed.size(); ++m) analysis::solve_columnar(packed, m);
      });
    }
  }

  double committed_trace() {
    Samples& s = samples_;
    const Trace trace = timed("stream.read_jsonl", s.reader_us,
                              [&] { return stream::trace_from_jsonl(in_.committed); });
    s.reader_bytes += static_cast<double>(in_.committed.size());
    stream::StreamAnalyzer analyzer;
    timed("stream.ingest", s.stream_us, [&] { analyzer.ingest(trace); });
    s.stream_events += static_cast<double>(trace.events().size());
    result_.check(trace.events().size() == in_.committed_events &&
                      analyzer.frames_ingested() == static_cast<std::int64_t>(in_.committed_events),
                  "committed trace parsed and monitored in full");
    return (s.reader_us.back() + s.stream_us.back()) / 1e3;
  }

  const Options& opt_;
  Result& result_;
  ParallelExecutor pool_;
  Inputs in_;
  Samples samples_;
  std::size_t next_ = 0;
};

}  // namespace

void run_trace_replay(const Options& opt, Result& result) { TraceBench{opt, result}.run(); }

}  // namespace perfbench
