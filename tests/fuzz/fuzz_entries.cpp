#include "fuzz_entries.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/prob_rta.hpp"
#include "symcan/can/dbc_import.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/cli/commands.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/sim/trace_export.hpp"
#include "symcan/stream/analyzer.hpp"
#include "symcan/stream/trace_reader.hpp"
#include "symcan/util/diagnostics.hpp"

namespace symcan::fuzz {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw FuzzPropertyViolation{what};
}

/// Parsed matrix must come back iff no error was recorded — the two
/// failure signals may never disagree.
void require_consistent(const std::optional<KMatrix>& km, const Diagnostics& diags) {
  require(km.has_value() == diags.ok(),
          "loader returned " + std::string(km ? "a matrix" : "nullopt") + " but recorded " +
              std::to_string(diags.error_count()) + " error(s)");
}

/// Strict escalates warnings, so it must fail on a superset of the
/// inputs lenient fails on.
void require_strict_superset(bool lenient_ok, bool strict_ok) {
  require(!(strict_ok && !lenient_ok), "strict accepted an input lenient rejected");
}

/// An accepted matrix must survive export -> import bit-identically.
void require_roundtrip(const KMatrix& km) {
  const std::string csv = kmatrix_to_csv(km);
  Diagnostics diags{DiagnosticPolicy::kLenient};
  const auto back = kmatrix_from_csv(csv, diags);
  require(back.has_value(), "exported matrix failed to re-import:\n" + diags.format());
  require(kmatrix_to_csv(*back) == csv, "CSV round trip is not bit-identical");
}

/// Bounded RTA over an accepted matrix: with saturating time arithmetic
/// the fixed point either converges or hits the horizon — never wraps,
/// never throws. Skipped for matrices where the iteration count itself
/// would be unbounded for the harness (sub-100us periods, huge fleets).
void require_bounded_rta(const KMatrix& km) {
  if (km.size() > 64) return;
  for (const auto& m : km.messages())
    if (m.period < Duration::us(100)) return;
  CanRtaConfig cfg;
  cfg.horizon = Duration::ms(10);
  const BusResult res = CanRta{km, cfg}.analyze();
  for (const auto& m : res.messages) {
    require(m.wcrt >= Duration::zero(), "negative wcrt for " + m.name + " (arithmetic wrap)");
    require(m.busy_period >= Duration::zero(), "negative busy period for " + m.name);
  }
}

/// The pack must emit a structurally sound CSR image of its rows: one
/// scalar row per packed message, monotonic index rows closed by the column
/// lengths, and all four hp lanes in lockstep. A malformed layout would
/// make the per-field solve comparison below read garbage, so it is
/// checked first with its own messages.
void require_packed_layout(const analysis::ColumnarBus& bus, std::size_t n) {
  require(bus.size() == n, "pack emitted " + std::to_string(bus.size()) + " scalar rows for " +
                               std::to_string(n) + " requested rows");
  require(bus.hp_begin.size() == n + 1, "hp_begin is not n+1 rows");
  require(bus.tt_begin.size() == n + 1, "tt_begin is not n+1 rows");
  require(bus.hp_begin.front() == 0 && bus.tt_begin.front() == 0, "CSR index rows must start at 0");
  for (std::size_t i = 0; i < n; ++i) {
    require(bus.hp_begin[i] <= bus.hp_begin[i + 1], "hp_begin is not monotonic");
    require(bus.tt_begin[i] <= bus.tt_begin[i + 1], "tt_begin is not monotonic");
  }
  require(bus.hp_begin.back() == bus.hp_period.size(), "hp_begin does not close the hp columns");
  require(bus.tt_begin.back() == bus.tt_groups.size(), "tt_begin does not close the group column");
  require(bus.hp_period.size() == bus.hp_jitter.size() &&
              bus.hp_period.size() == bus.hp_dmin.size() &&
              bus.hp_period.size() == bus.hp_cost.size(),
          "hp lanes have diverging lengths");
}

/// Every field of two verdicts, iteration counts included.
void require_same_verdict(const MessageResult& a, const MessageResult& b, const std::string& who) {
  require(a.wcrt == b.wcrt, who + "wcrt differs");
  require(a.bcrt == b.bcrt, who + "bcrt differs");
  require(a.deadline == b.deadline, who + "deadline differs");
  require(a.blocking == b.blocking, who + "blocking differs");
  require(a.busy_period == b.busy_period, who + "busy period differs");
  require(a.instances == b.instances, who + "instance count differs");
  require(a.fixedpoint_iterations == b.fixedpoint_iterations, who + "iteration count differs");
  require(a.schedulable == b.schedulable, who + "schedulability differs");
  require(a.diverged == b.diverged, who + "divergence flag differs");
}

/// The row-packing contract on an accepted matrix under one config: the
/// whole-bus pack is well formed; a labelled one-row pack of message i
/// is well formed too, names every entry of its row, and solves
/// bit-identically to row i of the whole-bus pack; and the recording
/// solve `explain` runs equals the plain solve.
void require_row_packs_agree(const KMatrix& km, const CanRtaConfig& cfg) {
  const analysis::ColumnarBus bus = analysis::pack_bus(km, cfg);
  require_packed_layout(bus, km.size());
  analysis::ColumnarBus one;
  std::vector<analysis::ContextLabels> labels;
  for (std::size_t i = 0; i < km.size(); ++i) {
    const std::string who = "message " + km.messages()[i].name + ": ";
    const std::size_t row[] = {i};
    analysis::pack_bus(km, cfg, one, row, &labels);
    require_packed_layout(one, 1);
    require(labels.size() == 1, who + "one-row pack did not label one row");
    require(labels[0].hp.size() == one.hp_period.size(), who + "hp labels out of step");
    require(labels[0].tt_sender.size() == one.tt_groups.size() &&
                labels[0].tt_members.size() == one.tt_groups.size(),
            who + "group labels out of step");
    const MessageResult whole = analysis::solve_columnar(bus, i);
    const MessageResult single = analysis::solve_columnar(one, 0);
    require_same_verdict(whole, single, who + "one-row pack vs whole bus: ");
    analysis::SolveTrace trace;
    const MessageResult traced = analysis::solve_columnar(one, 0, *one.errors, trace);
    require_same_verdict(single, traced, who + "recording vs plain solve: ");
    require(single.diverged || !trace.busy_iterates.empty(), who + "recorder saw no iterate");
  }
}

}  // namespace

void check_dbc_input(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const std::string text{data};
  Diagnostics lenient{DiagnosticPolicy::kLenient};
  const auto km = kmatrix_from_dbc(text, {}, lenient);
  require_consistent(km, lenient);
  Diagnostics strict{DiagnosticPolicy::kStrict};
  const auto km_strict = kmatrix_from_dbc(text, {}, strict);
  require_consistent(km_strict, strict);
  require_strict_superset(km.has_value(), km_strict.has_value());
  if (km) {
    require_roundtrip(*km);
    require_bounded_rta(*km);
  }
}

void check_kmatrix_csv_input(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const std::string text{data};
  Diagnostics lenient{DiagnosticPolicy::kLenient};
  const auto km = kmatrix_from_csv(text, lenient);
  require_consistent(km, lenient);
  Diagnostics strict{DiagnosticPolicy::kStrict};
  const auto km_strict = kmatrix_from_csv(text, strict);
  require_consistent(km_strict, strict);
  require_strict_superset(km.has_value(), km_strict.has_value());
  if (km) {
    require_roundtrip(*km);
    require_bounded_rta(*km);
  }
}

void check_columnar_pack(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const std::string text{data};
  Diagnostics lenient{DiagnosticPolicy::kLenient};
  const auto km = kmatrix_from_csv(text, lenient);
  require_consistent(km, lenient);
  if (!km) return;  // malformed input diagnosed — that's a pass
  // Same harness bounds as require_bounded_rta: the check runs 3n + n
  // solves per config, so hostile periods would make it unbounded.
  if (km->size() > 64) return;
  for (const auto& m : km->messages())
    if (m.period < Duration::us(100)) return;

  CanRtaConfig cfg;
  cfg.horizon = Duration::ms(10);
  require_row_packs_agree(*km, cfg);

  // Invert every assumption the pack resolves differently: unstuffed
  // costs, offset-blind groups, no controller-queue blocking, and the
  // worst-case deadline override.
  cfg.worst_case_stuffing = false;
  cfg.use_offsets = false;
  cfg.model_controller_queues = false;
  cfg.deadline_override = DeadlinePolicy::kMinReArrival;
  require_row_packs_agree(*km, cfg);
}

void check_prob_rta(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const std::string text{data};
  Diagnostics lenient{DiagnosticPolicy::kLenient};
  const auto km = kmatrix_from_csv(text, lenient);
  require_consistent(km, lenient);
  if (!km) return;  // malformed input diagnosed — that's a pass
  // Same harness bounds as require_bounded_rta, plus a short ladder so a
  // hostile error model cannot make the rung count itself unbounded.
  if (km->size() > 64) return;
  for (const auto& m : km->messages())
    if (m.period < Duration::us(100)) return;

  ProbRtaConfig cfg;
  cfg.rta.horizon = Duration::ms(10);
  cfg.max_rungs = 16;

  // Degenerate gate: the all-certain defaults reproduce the
  // deterministic engine bit for bit, point mass at the WCRT included.
  const ProbBusResult degenerate = analysis::analyze_prob(*km, cfg);
  const BusResult det = CanRta{*km, cfg.rta}.analyze();
  require(degenerate.messages.size() == det.messages.size(),
          "probabilistic analysis dropped or invented messages");
  for (std::size_t i = 0; i < det.messages.size(); ++i) {
    const MessageResult& d = det.messages[i];
    const MessageResult& p = degenerate.messages[i].det;
    const std::string who = "message " + d.name + ": degenerate prob ";
    require(p.wcrt == d.wcrt, who + "wcrt diverged from deterministic");
    require(p.bcrt == d.bcrt, who + "bcrt diverged from deterministic");
    require(p.deadline == d.deadline, who + "deadline diverged from deterministic");
    require(p.blocking == d.blocking, who + "blocking diverged from deterministic");
    require(p.busy_period == d.busy_period, who + "busy period diverged from deterministic");
    require(p.instances == d.instances, who + "instance count diverged from deterministic");
    require(p.fixedpoint_iterations == d.fixedpoint_iterations,
            who + "iteration count diverged from deterministic");
    require(p.schedulable == d.schedulable, who + "schedulability diverged from deterministic");
    require(p.diverged == d.diverged, who + "divergence flag diverged from deterministic");
    if (!d.diverged) {
      require(degenerate.messages[i].response.degenerate(),
              who + "distribution is not a point mass");
      require(degenerate.messages[i].response.max_value() == d.wcrt,
              who + "point mass is not at the WCRT");
    }
    require(degenerate.messages[i].miss_weight ==
                (d.schedulable ? std::uint64_t{0} : analysis::Pmf::kOne),
            who + "miss weight disagrees with the binary verdict");
  }

  // A fuzzed interior fault probability (FNV-1a over the input bytes) so
  // the corpus explores the ppm range, not just the 0 / 10^6 rails.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  const std::int64_t fuzzed_ppm = static_cast<std::int64_t>(h % 999'999) + 1;

  // Tail monotonicity in fault probability, with the documented residue
  // tolerance of ~8*(k+1)^2 ulps per k-rung ladder. The upper support
  // point stays pinned at the deterministic WCRT throughout.
  std::vector<std::int64_t> ppms = {0, fuzzed_ppm / 2, fuzzed_ppm, 1'000'000};
  std::sort(ppms.begin(), ppms.end());
  std::vector<std::uint64_t> prev(km->size(), 0);
  for (const std::int64_t ppm : ppms) {
    cfg.fault_ppm = ppm;
    const ProbBusResult res = analysis::analyze_prob(*km, cfg);
    for (std::size_t i = 0; i < res.messages.size(); ++i) {
      const auto& m = res.messages[i];
      std::uint64_t total = 0;
      for (const auto& atom : m.response.atoms()) total += atom.weight;
      require(total == analysis::Pmf::kOne,
              "message " + m.det.name + ": mass leaked (sum != kOne)");
      if (!m.det.diverged)
        require(m.response.max_value() == m.det.wcrt,
                "message " + m.det.name + ": upper support point moved off the WCRT");
      const std::uint64_t k = m.rungs.size();
      const std::uint64_t tol = 8 * (k + 1) * (k + 1);
      require(m.miss_weight + tol >= prev[i],
              "message " + m.det.name + ": miss weight not monotone in fault_ppm at " +
                  std::to_string(ppm));
      prev[i] = m.miss_weight;
    }
  }
}

std::vector<std::string> sanitize_argv(std::string_view data) {
  std::vector<std::string> argv;
  std::string cur;
  const auto flush = [&] {
    if (cur.empty()) return;
    // Neutralise tokens that would read arbitrary filesystem paths (a
    // token "/dev/zero" must not hang the harness) and clamp numeric
    // tokens so --millis/--messages cannot turn one input into a
    // minutes-long run. Output-file options are dropped entirely.
    if (cur.front() == '/' || cur.find("..") != std::string::npos) cur = "no-such-file";
    bool numeric = true;
    for (std::size_t i = cur.front() == '-' ? 1 : 0; i < cur.size(); ++i)
      if (!std::isdigit(static_cast<unsigned char>(cur[i]))) numeric = false;
    if (numeric && cur.size() > 3) cur.resize(3);
    argv.push_back(std::move(cur));
    cur.clear();
  };
  for (const char c : data) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
      flush();
    else
      cur.push_back(c);
  }
  flush();
  static const char* kWriters[] = {"--out",        "--trace-out",   "--metrics-out",
                                   "--stats-json", "--trace-jsonl", "--trace-chrome",
                                   "--events-jsonl"};
  std::vector<std::string> out;
  for (std::size_t i = 0; i < argv.size() && out.size() < 16; ++i) {
    bool writer = false;
    for (const char* w : kWriters) writer = writer || argv[i] == w;
    if (writer) {
      ++i;  // skip the option and its value
      continue;
    }
    out.push_back(argv[i]);
  }
  return out;
}

void check_cli_argv_input(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const auto argv = sanitize_argv(data);
  // An empty request stream, so a fuzzed "serve --stdio" serves zero
  // requests and returns instead of waiting on the harness's stdin.
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::run_cli(argv, in, out, err);  // nothing may escape
  require(rc == 0 || rc == 1 || rc == 2, "run_cli returned exit code " + std::to_string(rc));
}

void check_serve_request_input(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const std::string text{data};
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    std::string line = text.substr(start, nl == std::string::npos ? nl : nl - start);
    start = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    Diagnostics lenient{DiagnosticPolicy::kLenient, "serve request"};
    const auto req = serve::request_from_jsonl(line, line_no, lenient);
    require(req.has_value() == lenient.ok(),
            "serve request parser returned " + std::string(req ? "a request" : "nullopt") +
                " but recorded " + std::to_string(lenient.error_count()) + " error(s)");
    Diagnostics strict{DiagnosticPolicy::kStrict, "serve request"};
    const auto req_strict = serve::request_from_jsonl(line, line_no, strict);
    require(req_strict.has_value() == strict.ok(), "strict serve request parser is inconsistent");
    require_strict_superset(req.has_value(), req_strict.has_value());
    if (!req) continue;

    // parse ∘ serialize ∘ parse must be the identity on accepted
    // requests, and the canonical spelling a fixed point.
    const std::string wire = serve::request_to_jsonl(*req);
    Diagnostics again{DiagnosticPolicy::kLenient, "serve request"};
    const auto back = serve::request_from_jsonl(wire, line_no, again);
    require(back.has_value(),
            "canonical form of an accepted request failed to re-parse:\n" + again.format());
    require(*back == *req, "serialize/parse round trip changed the request: " + wire);
    require(serve::request_to_jsonl(*back) == wire,
            "canonical spelling is not a fixed point: " + wire);
  }
}

void check_trace_jsonl_input(std::string_view data) {
  if (data.size() > kMaxInputBytes) return;
  const std::string text{data};
  Diagnostics lenient{DiagnosticPolicy::kLenient};
  const auto trace = stream::trace_from_jsonl(text, lenient);
  require(trace.has_value() == lenient.ok(),
          "trace reader returned " + std::string(trace ? "a trace" : "nullopt") +
              " but recorded " + std::to_string(lenient.error_count()) + " error(s)");
  Diagnostics strict{DiagnosticPolicy::kStrict};
  const auto trace_strict = stream::trace_from_jsonl(text, strict);
  require(trace_strict.has_value() == strict.ok(), "strict trace reader is inconsistent");
  require_strict_superset(trace.has_value(), trace_strict.has_value());
  if (!trace) return;

  // parse ∘ serialize ∘ parse must be the identity on event lists.
  const std::string serialized = trace_to_jsonl(*trace);
  Diagnostics again_diags{DiagnosticPolicy::kLenient};
  const auto again = stream::trace_from_jsonl(serialized, again_diags);
  require(again.has_value(),
          "serialized form of an accepted trace failed to re-parse:\n" + again_diags.format());
  const auto& a = trace->events();
  const auto& b = again->events();
  require(a.size() == b.size(), "round trip changed the event count");
  for (std::size_t i = 0; i < a.size(); ++i)
    require(a[i].time == b[i].time && a[i].type == b[i].type && a[i].message == b[i].message &&
                a[i].instance == b[i].instance,
            "round trip changed event " + std::to_string(i));

  // Any accepted trace must stream through the analyzer without throwing
  // — saturating time math, bounded event log, fixed in-flight slots.
  stream::StreamAnalyzer an;
  an.ingest(*trace);
  if (!a.empty()) an.advance_to(a.back().time);
  require(an.frames_ingested() == static_cast<std::int64_t>(a.size()),
          "analyzer lost frames during ingest");
  const stream::StreamStats stats = an.stats();
  require(stats.frames == an.frames_ingested(), "stats disagree with the frame counter");
}

}  // namespace symcan::fuzz
