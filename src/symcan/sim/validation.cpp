#include "symcan/sim/validation.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "symcan/obs/export.hpp"

namespace symcan {

BoundValidation compare_bound_vs_observed(const BusResult& analysis, const SimResult& sim) {
  BoundValidation v;
  v.messages.reserve(analysis.messages.size());
  for (const MessageResult& r : analysis.messages) {
    BoundObservation o;
    o.name = r.name;
    o.bound = r.wcrt;
    o.diverged = r.diverged;
    if (const MessageStats* s = sim.find(r.name)) {
      o.observed_max = s->wcrt_observed;
      o.observed_p99 = s->percentile(0.99);
      o.completions = s->completions;
    }
    // A diverged analysis has no finite bound to violate; anything the
    // sim observed is trivially below infinity.
    o.violation = exceeds_bound(o.diverged, o.completions, o.observed_max, o.bound);
    if (o.violation) ++v.violations;
    if (!o.diverged && o.completions > 0)
      v.worst_tightness = std::max(v.worst_tightness, o.tightness());
    v.messages.push_back(std::move(o));
  }
  return v;
}

std::string validation_to_text(const BoundValidation& v) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "bound vs observed: %zu messages, %zu violations, worst tightness %.1f%%\n",
                v.messages.size(), v.violations, v.worst_tightness * 100.0);
  out += buf;
  std::snprintf(buf, sizeof buf, "%-20s %12s %12s %12s %12s %9s\n", "message", "bound",
                "observed max", "observed p99", "gap", "tight");
  out += buf;
  for (const BoundObservation& o : v.messages) {
    std::snprintf(buf, sizeof buf, "%-20s %12s %12s %12s %12s %8.1f%%%s\n", o.name.c_str(),
                  to_string(o.bound).c_str(), to_string(o.observed_max).c_str(),
                  to_string(o.observed_p99).c_str(), to_string(o.gap()).c_str(),
                  o.tightness() * 100.0,
                  o.violation ? "  <-- VIOLATION: sim exceeds analytic bound" : "");
    out += buf;
  }
  return out;
}

std::string validation_to_json(const BoundValidation& v) {
  std::string out = "{";
  char buf[128];
  std::snprintf(buf, sizeof buf, "\"violations\":%zu,", v.violations);
  out += buf;
  out += "\"worst_tightness\":" + obs::json_number(v.worst_tightness) + ",";
  out += "\"messages\":[";
  for (std::size_t i = 0; i < v.messages.size(); ++i) {
    const BoundObservation& o = v.messages[i];
    if (i) out += ",";
    out += "{\"name\":\"" + obs::json_escape(o.name) + "\",";
    std::snprintf(buf, sizeof buf,
                  "\"bound_ns\":%" PRId64 ",\"observed_max_ns\":%" PRId64
                  ",\"observed_p99_ns\":%" PRId64 ",\"completions\":%" PRId64 ",",
                  o.bound.count_ns(), o.observed_max.count_ns(), o.observed_p99.count_ns(),
                  o.completions);
    out += buf;
    out += "\"diverged\":";
    out += o.diverged ? "true" : "false";
    out += ",\"violation\":";
    out += o.violation ? "true" : "false";
    out += ",\"tightness\":" + obs::json_number(o.tightness()) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace symcan
