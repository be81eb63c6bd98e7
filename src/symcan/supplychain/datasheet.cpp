#include "symcan/supplychain/datasheet.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "symcan/analysis/provenance.hpp"
#include "symcan/supplychain/budget.hpp"
#include "symcan/util/csv.hpp"

namespace symcan {

namespace {

/// "inf" or a non-negative nanosecond count; nullopt with a diagnostic
/// otherwise.
std::optional<Duration> parse_duration_ns(const std::string& s, std::size_t line_no,
                                          const char* what, Diagnostics& diags) {
  if (s == "inf") return Duration::infinite();
  std::int64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size()) {
    diags.error(line_no, std::string("bad duration for ") + what + ": '" + s + "'");
    return std::nullopt;
  }
  if (v < 0) {
    diags.error(line_no, std::string(what) + " must be >= 0, got " + s);
    return std::nullopt;
  }
  return Duration::ns(v);
}

std::string duration_field(Duration d) {
  return d.is_infinite() ? "inf" : std::to_string(d.count_ns());
}

}  // namespace

std::string datasheet_to_csv(const EcuDatasheet& ds) {
  std::ostringstream os;
  os << "# symcan ECU datasheet\n";
  os << format_csv_row({"ecu", ds.ecu}) << '\n';
  for (const auto& g : ds.send_guarantees)
    os << format_csv_row({"send", g.message, std::to_string(g.jitter.count_ns())}) << '\n';
  for (const auto& r : ds.arrival_requirements)
    os << format_csv_row({"need", r.message, r.receiver, duration_field(r.max_latency),
                          duration_field(r.max_response_jitter)})
       << '\n';
  return os.str();
}

std::optional<EcuDatasheet> datasheet_from_csv(const std::string& text, Diagnostics& diags) {
  diags.set_source("datasheet CSV");
  std::optional<EcuDatasheet> ds;
  for (const auto& [line_no, row] : parse_csv_numbered(text)) {
    if (diags.exhausted()) {
      diags.error(0, "too many problems; giving up");
      break;
    }
    if (row.empty() || row[0].empty()) continue;
    const std::string& kind = row[0];
    if (kind == "ecu") {
      if (row.size() != 2) {
        diags.error(line_no, "ecu record needs 2 fields, got " + std::to_string(row.size()));
        continue;
      }
      if (ds) {
        diags.error(line_no, "duplicate ecu record");
        continue;
      }
      if (row[1].empty()) {
        diags.error(line_no, "empty ecu name");
        continue;
      }
      ds.emplace();
      ds->ecu = row[1];
    } else if (kind == "send") {
      if (!ds) {
        diags.error(line_no, "send record before ecu record");
        continue;
      }
      if (row.size() != 3) {
        diags.error(line_no, "send record needs 3 fields, got " + std::to_string(row.size()));
        continue;
      }
      if (row[1].empty()) {
        diags.error(line_no, "empty message name");
        continue;
      }
      const auto jitter = parse_duration_ns(row[2], line_no, "jitter_ns", diags);
      if (!jitter) continue;
      if (jitter->is_infinite()) {
        diags.error(line_no, "a send guarantee cannot have infinite jitter");
        continue;
      }
      ds->send_guarantees.push_back({row[1], *jitter});
    } else if (kind == "need") {
      if (!ds) {
        diags.error(line_no, "need record before ecu record");
        continue;
      }
      if (row.size() != 5) {
        diags.error(line_no, "need record needs 5 fields, got " + std::to_string(row.size()));
        continue;
      }
      if (row[1].empty() || row[2].empty()) {
        diags.error(line_no, "empty message or receiver name");
        continue;
      }
      const auto latency = parse_duration_ns(row[3], line_no, "max_latency_ns", diags);
      const auto jitter = parse_duration_ns(row[4], line_no, "max_response_jitter_ns", diags);
      if (!latency || !jitter) continue;
      if (*latency == Duration::zero())
        diags.warning(line_no, "max_latency_ns of 0 is unsatisfiable by any bus");
      ds->arrival_requirements.push_back({row[1], row[2], *latency, *jitter});
    } else {
      diags.error(line_no, "unknown record kind '" + kind + "'");
    }
  }
  if (!ds) {
    diags.error(0, "missing ecu record");
    return std::nullopt;
  }
  if (!diags.ok()) return std::nullopt;
  return ds;
}

EcuDatasheet datasheet_from_csv(const std::string& text) {
  Diagnostics diags{DiagnosticPolicy::kLenient, "datasheet CSV"};
  auto ds = datasheet_from_csv(text, diags);
  diags.throw_if_failed();
  if (!ds) throw ParseError{diags};  // unreachable unless diags/ok desynchronize
  return std::move(*ds);
}

Duration max_own_jitter(const KMatrix& km, const CanRtaConfig& rta, const std::string& message,
                        Duration tolerance) {
  const std::optional<std::size_t> index = analysis::find_message(km, message);
  if (!index) throw std::invalid_argument("unknown message '" + message + "'");
  KMatrix own = km;
  own.messages()[*index].jitter = Duration::zero();
  if (!analysis::analyze_uncached(own, rta).all_schedulable()) return Duration::zero();
  return max_single_jitter(std::move(own), rta, *index, Duration::zero(), tolerance);
}

std::vector<SendJitterRequirement> derive_send_jitter_requirements(const KMatrix& km,
                                                                   const CanRtaConfig& rta,
                                                                   const std::string& ecu,
                                                                   double safety_margin) {
  if (safety_margin <= 0 || safety_margin > 1)
    throw std::invalid_argument("derive_send_jitter_requirements: margin must be in (0,1]");
  std::vector<SendJitterRequirement> out;
  for (const auto& m : km.messages()) {
    if (!ecu.empty() && m.sender != ecu) continue;
    const Duration tolerable = max_own_jitter(km, rta, m.name);
    SendJitterRequirement req;
    req.message = m.name;
    req.max_jitter = Duration::ns(static_cast<std::int64_t>(
        safety_margin * static_cast<double>(tolerable.count_ns())));
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<ArrivalRequirement> derive_arrival_guarantees(const KMatrix& km,
                                                          const CanRtaConfig& rta) {
  const BusResult res = analysis::analyze_uncached(km, rta);
  std::vector<ArrivalRequirement> out;
  for (std::size_t i = 0; i < km.size(); ++i) {
    const auto& m = km.messages()[i];
    for (const auto& receiver : m.receivers) {
      ArrivalRequirement g;
      g.message = m.name;
      g.receiver = receiver;
      g.max_latency = res.messages[i].wcrt;
      g.max_response_jitter = res.messages[i].wcrt.is_infinite()
                                  ? Duration::infinite()
                                  : res.messages[i].response_jitter();
      out.push_back(std::move(g));
    }
  }
  return out;
}

DualityReport check_duality(const KMatrix& km, const CanRtaConfig& rta,
                            const std::vector<SendJitterRequirement>& oem_requirements,
                            const std::vector<EcuDatasheet>& supplier_datasheets) {
  DualityReport report;

  // Requirement -> guarantee direction.
  for (const auto& req : oem_requirements) {
    const CanMessage* msg = km.find_message(req.message);
    if (msg == nullptr) {
      report.violations.push_back({DualityViolation::Kind::kMissingGuarantee, req.message,
                                   "requirement references unknown message"});
      continue;
    }
    const SendJitterGuarantee* found = nullptr;
    for (const auto& ds : supplier_datasheets) {
      if (ds.ecu != msg->sender) continue;
      for (const auto& g : ds.send_guarantees)
        if (g.message == req.message) found = &g;
    }
    if (found == nullptr) {
      report.violations.push_back({DualityViolation::Kind::kMissingGuarantee, req.message,
                                   "no supplier guarantee for sender " + msg->sender});
    } else if (found->jitter > req.max_jitter) {
      report.violations.push_back(
          {DualityViolation::Kind::kSendJitterExceeded, req.message,
           "guaranteed " + to_string(found->jitter) + " > required " + to_string(req.max_jitter)});
    }
  }

  // Supplier arrival requirements vs what the bus analysis delivers. The
  // analysis is run on the matrix *with guarantees substituted in* — the
  // refinement step of Section 5.2.
  KMatrix refined = km;
  for (const auto& ds : supplier_datasheets) {
    for (const auto& g : ds.send_guarantees) {
      for (auto& m : refined.messages()) {
        if (m.name != g.message) continue;
        m.jitter = g.jitter;
        m.jitter_known = true;
      }
    }
  }
  const std::vector<ArrivalRequirement> delivered = derive_arrival_guarantees(refined, rta);

  // A failed guarantee should name its dominant interferers: the
  // provenance of the refined-matrix bound tells the supplier *which*
  // traffic to renegotiate, without exposing anyone's internals beyond
  // the K-Matrix they already share.
  const auto blame = [&](const std::string& message) -> std::string {
    const std::optional<std::size_t> idx = analysis::find_message(refined, message);
    if (!idx) return "";
    const analysis::Provenance p = analysis::explain_message(refined, rta, *idx);
    std::string out;
    std::size_t named = 0;
    for (const auto& s : p.interference) {
      if (named == 3 || s.contribution <= Duration::zero()) break;
      out += out.empty() ? "; dominant interferers: " : ", ";
      out += s.name + (s.offset_group ? " (offset group, " : " (") +
             to_string(s.contribution) + ")";
      ++named;
    }
    if (!p.blocking_frame.empty() && p.bus_blocking > Duration::zero())
      out += "; blocked by " + p.blocking_frame + " (" + to_string(p.bus_blocking) + ")";
    return out;
  };

  for (const auto& ds : supplier_datasheets) {
    for (const auto& need : ds.arrival_requirements) {
      const ArrivalRequirement* got = nullptr;
      for (const auto& d : delivered)
        if (d.message == need.message && d.receiver == need.receiver) got = &d;
      if (got == nullptr) {
        report.violations.push_back({DualityViolation::Kind::kLatencyNotMet, need.message,
                                     "receiver " + need.receiver + " is not in the K-Matrix"});
        continue;
      }
      if (got->max_latency > need.max_latency) {
        report.violations.push_back(
            {DualityViolation::Kind::kLatencyNotMet, need.message,
             "bus delivers " + to_string(got->max_latency) + " > needed " +
                 to_string(need.max_latency) + blame(need.message)});
      }
      if (got->max_response_jitter > need.max_response_jitter) {
        report.violations.push_back(
            {DualityViolation::Kind::kArrivalJitterNotMet, need.message,
             "bus jitter " + to_string(got->max_response_jitter) + " > needed " +
                 to_string(need.max_response_jitter) + blame(need.message)});
      }
    }
  }
  return report;
}

}  // namespace symcan
