#include "symcan/serve/request.hpp"

#include "symcan/obs/json.hpp"
#include "symcan/util/jsonl.hpp"

namespace symcan::serve {

namespace {

using jsonl::Cursor;
using pipeline::AssumptionPreset;

/// Presence bookkeeping: the grammar is order-independent, so values are
/// collected first and the kind-dependent rules are checked at the end.
struct Seen {
  bool id = false, kind = false, matrix = false, preset = false, jitter = false;
  bool override_known = false, message = false, json = false, millis = false;
  bool seed = false, errors = false, error_gap_ms = false, generations = false;
  bool population = false, target_jitter = false, dump = false;
  bool fault_ppm = false, stuff_ppm = false, jitter_ppm = false, max_rungs = false;
};

bool check_kind_rules(const ServeRequest& req, const Seen& seen, std::size_t line_no,
                      Diagnostics& diags) {
  const RequestKind k = req.kind;
  const char* name = to_string(k);
  bool ok = true;
  const auto only_for = [&](bool present, const char* key, bool allowed) {
    if (!present || allowed) return;
    diags.error(line_no, std::string("key \"") + key + "\" is not valid for " + name + " requests");
    ok = false;
  };
  const bool has_matrix = k != RequestKind::kHealth && k != RequestKind::kTelemetry;
  only_for(seen.matrix, "matrix_csv", has_matrix);
  only_for(seen.preset, "preset",
           k == RequestKind::kAnalyze || k == RequestKind::kProb ||
               k == RequestKind::kExplain || k == RequestKind::kOptimize);
  only_for(seen.jitter, "jitter", has_matrix);
  only_for(seen.override_known, "override_known", has_matrix);
  only_for(seen.message, "message", k == RequestKind::kExplain);
  only_for(seen.json, "json", k == RequestKind::kExplain || k == RequestKind::kValidate);
  only_for(seen.millis, "millis", k == RequestKind::kValidate);
  only_for(seen.seed, "seed", k == RequestKind::kValidate || k == RequestKind::kOptimize);
  only_for(seen.errors, "errors", k == RequestKind::kValidate);
  only_for(seen.error_gap_ms, "error_gap_ms", k == RequestKind::kValidate);
  only_for(seen.generations, "generations", k == RequestKind::kOptimize);
  only_for(seen.population, "population", k == RequestKind::kOptimize);
  only_for(seen.target_jitter, "target_jitter", k == RequestKind::kOptimize);
  only_for(seen.dump, "dump", k == RequestKind::kTelemetry);
  only_for(seen.fault_ppm, "fault_ppm", k == RequestKind::kProb);
  only_for(seen.stuff_ppm, "stuff_ppm", k == RequestKind::kProb);
  only_for(seen.jitter_ppm, "jitter_ppm", k == RequestKind::kProb);
  only_for(seen.max_rungs, "max_rungs", k == RequestKind::kProb);

  if (has_matrix && !seen.matrix) {
    diags.error(line_no, std::string("missing key \"matrix_csv\" for ") + name + " request");
    ok = false;
  }
  if (k == RequestKind::kExplain && !seen.message) {
    diags.error(line_no, "missing key \"message\" for explain request");
    ok = false;
  }
  return ok;
}

}  // namespace

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kExplain: return "explain";
    case RequestKind::kValidate: return "validate";
    case RequestKind::kOptimize: return "optimize";
    case RequestKind::kHealth: return "health";
    case RequestKind::kTelemetry: return "telemetry";
    case RequestKind::kProb: return "prob";
    case RequestKind::kAnalyze: break;
  }
  return "analyze";
}

bool request_kind_from_string(const std::string& text, RequestKind& out) {
  if (text == "analyze") out = RequestKind::kAnalyze;
  else if (text == "explain") out = RequestKind::kExplain;
  else if (text == "validate") out = RequestKind::kValidate;
  else if (text == "optimize") out = RequestKind::kOptimize;
  else if (text == "health") out = RequestKind::kHealth;
  else if (text == "telemetry") out = RequestKind::kTelemetry;
  else if (text == "prob") out = RequestKind::kProb;
  else return false;
  return true;
}

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kFailed: return "failed";
    case ResponseStatus::kInvalid: return "invalid";
    case ResponseStatus::kOk: break;
  }
  return "ok";
}

std::optional<ServeRequest> request_from_jsonl(const std::string& line, std::size_t line_no,
                                               Diagnostics& diags) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) {
    diags.error(line_no, "expected a JSON object");
    return std::nullopt;
  }
  ServeRequest req;
  Seen seen;
  std::string key, text;

  const auto dup = [&](bool already, const char* what) {
    if (!already) return false;
    diags.error(line_no, std::string("duplicate key \"") + what + "\"");
    return true;
  };
  const auto positive = [&](std::int64_t v, const char* what) {
    if (v > 0) return true;
    diags.error(line_no, std::string(what) + " must be positive");
    return false;
  };

  c.skip_ws();
  if (!c.eat('}')) {
    while (true) {
      if (!jsonl::parse_string(c, line_no, "key", key, diags)) return std::nullopt;
      if (!c.eat(':')) {
        diags.error(line_no, "expected ':' after key \"" + key + "\"");
        return std::nullopt;
      }
      if (key == "id") {
        if (dup(seen.id, "id")) return std::nullopt;
        if (!jsonl::parse_string(c, line_no, "id", req.id, diags)) return std::nullopt;
        seen.id = true;
      } else if (key == "kind") {
        if (dup(seen.kind, "kind")) return std::nullopt;
        if (!jsonl::parse_string(c, line_no, "kind", text, diags)) return std::nullopt;
        if (!request_kind_from_string(text, req.kind)) {
          diags.error(line_no,
                      "unknown kind '" + text +
                          "' (expected analyze|prob|explain|validate|optimize|health|telemetry)");
          return std::nullopt;
        }
        seen.kind = true;
      } else if (key == "matrix_csv") {
        if (dup(seen.matrix, "matrix_csv")) return std::nullopt;
        if (!jsonl::parse_string(c, line_no, "matrix_csv", req.matrix_csv, diags))
          return std::nullopt;
        seen.matrix = true;
      } else if (key == "preset") {
        if (dup(seen.preset, "preset")) return std::nullopt;
        if (!jsonl::parse_string(c, line_no, "preset", text, diags)) return std::nullopt;
        if (!pipeline::preset_from_string(text, req.preset)) {
          diags.error(line_no,
                      "unknown preset '" + text + "' (expected default|worst-case|best-case)");
          return std::nullopt;
        }
        seen.preset = true;
      } else if (key == "jitter") {
        if (dup(seen.jitter, "jitter")) return std::nullopt;
        double v = 0;
        if (!jsonl::parse_double(c, line_no, "jitter", v, diags)) return std::nullopt;
        if (v < 0) {
          diags.error(line_no, "jitter must be non-negative");
          return std::nullopt;
        }
        req.jitter = v;
        seen.jitter = true;
      } else if (key == "override_known") {
        if (dup(seen.override_known, "override_known")) return std::nullopt;
        if (!jsonl::parse_bool(c, line_no, "override_known", req.override_known, diags))
          return std::nullopt;
        seen.override_known = true;
      } else if (key == "message") {
        if (dup(seen.message, "message")) return std::nullopt;
        if (!jsonl::parse_string(c, line_no, "message", req.message, diags)) return std::nullopt;
        seen.message = true;
      } else if (key == "json") {
        if (dup(seen.json, "json")) return std::nullopt;
        if (!jsonl::parse_bool(c, line_no, "json", req.json, diags)) return std::nullopt;
        seen.json = true;
      } else if (key == "millis") {
        if (dup(seen.millis, "millis")) return std::nullopt;
        if (!jsonl::parse_i64(c, line_no, "millis", req.millis, diags)) return std::nullopt;
        if (!positive(req.millis, "millis")) return std::nullopt;
        seen.millis = true;
      } else if (key == "seed") {
        if (dup(seen.seed, "seed")) return std::nullopt;
        std::int64_t v = 0;
        if (!jsonl::parse_i64(c, line_no, "seed", v, diags)) return std::nullopt;
        if (v < 0) {
          diags.error(line_no, "seed must be non-negative");
          return std::nullopt;
        }
        req.seed = static_cast<std::uint64_t>(v);
        seen.seed = true;
      } else if (key == "errors") {
        if (dup(seen.errors, "errors")) return std::nullopt;
        if (!jsonl::parse_string(c, line_no, "errors", req.errors, diags)) return std::nullopt;
        if (req.errors != "none" && req.errors != "sporadic" && req.errors != "burst") {
          diags.error(line_no, "errors must be none|sporadic|burst");
          return std::nullopt;
        }
        seen.errors = true;
      } else if (key == "error_gap_ms") {
        if (dup(seen.error_gap_ms, "error_gap_ms")) return std::nullopt;
        std::int64_t v = 0;
        if (!jsonl::parse_i64(c, line_no, "error_gap_ms", v, diags)) return std::nullopt;
        if (!positive(v, "error_gap_ms")) return std::nullopt;
        req.error_gap_ms = v;
        seen.error_gap_ms = true;
      } else if (key == "generations") {
        if (dup(seen.generations, "generations")) return std::nullopt;
        std::int64_t v = 0;
        if (!jsonl::parse_i64(c, line_no, "generations", v, diags)) return std::nullopt;
        if (!positive(v, "generations")) return std::nullopt;
        if (v > 1'000'000) {
          diags.error(line_no, "generations is implausibly large");
          return std::nullopt;
        }
        req.generations = static_cast<int>(v);
        seen.generations = true;
      } else if (key == "population") {
        if (dup(seen.population, "population")) return std::nullopt;
        std::int64_t v = 0;
        if (!jsonl::parse_i64(c, line_no, "population", v, diags)) return std::nullopt;
        if (!positive(v, "population")) return std::nullopt;
        if (v > 1'000'000) {
          diags.error(line_no, "population is implausibly large");
          return std::nullopt;
        }
        req.population = static_cast<int>(v);
        seen.population = true;
      } else if (key == "target_jitter") {
        if (dup(seen.target_jitter, "target_jitter")) return std::nullopt;
        if (!jsonl::parse_double(c, line_no, "target_jitter", req.target_jitter, diags))
          return std::nullopt;
        seen.target_jitter = true;
      } else if (key == "dump") {
        if (dup(seen.dump, "dump")) return std::nullopt;
        if (!jsonl::parse_bool(c, line_no, "dump", req.dump, diags)) return std::nullopt;
        seen.dump = true;
      } else if (key == "fault_ppm" || key == "stuff_ppm" || key == "jitter_ppm") {
        bool& was = key == "fault_ppm" ? seen.fault_ppm
                    : key == "stuff_ppm" ? seen.stuff_ppm
                                         : seen.jitter_ppm;
        if (dup(was, key.c_str())) return std::nullopt;
        std::int64_t v = 0;
        if (!jsonl::parse_i64(c, line_no, key.c_str(), v, diags)) return std::nullopt;
        if (v < 0 || v > 1'000'000) {
          diags.error(line_no, key + " must lie in [0, 1000000]");
          return std::nullopt;
        }
        (key == "fault_ppm" ? req.fault_ppm
         : key == "stuff_ppm" ? req.stuff_ppm
                              : req.jitter_ppm) = v;
        was = true;
      } else if (key == "max_rungs") {
        if (dup(seen.max_rungs, "max_rungs")) return std::nullopt;
        if (!jsonl::parse_i64(c, line_no, "max_rungs", req.max_rungs, diags)) return std::nullopt;
        if (req.max_rungs < 1 || req.max_rungs > 4096) {
          diags.error(line_no, "max_rungs must lie in [1, 4096]");
          return std::nullopt;
        }
        seen.max_rungs = true;
      } else {
        diags.warning(line_no, "unknown key \"" + key + "\" ignored");
        if (!jsonl::skip_scalar(c, line_no, diags)) return std::nullopt;
        if (diags.policy() == DiagnosticPolicy::kStrict) return std::nullopt;
      }
      if (c.eat(',')) continue;
      if (c.eat('}')) break;
      diags.error(line_no, "expected ',' or '}'");
      return std::nullopt;
    }
  }
  c.skip_ws();
  if (!c.done()) {
    diags.error(line_no, "trailing characters after object");
    return std::nullopt;
  }
  if (!seen.id) {
    diags.error(line_no, "missing key \"id\"");
    return std::nullopt;
  }
  if (!seen.kind) {
    diags.error(line_no, "missing key \"kind\"");
    return std::nullopt;
  }
  if (!check_kind_rules(req, seen, line_no, diags)) return std::nullopt;
  return req;
}

std::string request_to_jsonl(const ServeRequest& req) {
  std::string out;
  out.reserve(128 + req.id.size() + req.matrix_csv.size() * 9 / 8 + req.message.size());
  obs::JsonOut w{out};
  w.begin_object().field("id", req.id).field("kind", to_string(req.kind));
  if (req.kind != RequestKind::kHealth && req.kind != RequestKind::kTelemetry)
    w.field("matrix_csv", req.matrix_csv);
  if (req.preset != AssumptionPreset::kDefault) w.field("preset", pipeline::to_string(req.preset));
  if (req.jitter) w.field("jitter", *req.jitter);
  if (req.override_known) w.field("override_known", true);
  // `message` is mandatory for explain, so it is always spelled there
  // (an empty name is a present-but-empty value, not an absent key).
  if (req.kind == RequestKind::kExplain) w.field("message", req.message);
  if (req.json) w.field("json", true);
  if (req.millis != 2000) w.field("millis", req.millis);
  if (req.seed) w.field("seed", *req.seed);
  if (req.errors != "none") w.field("errors", req.errors);
  if (req.error_gap_ms) w.field("error_gap_ms", *req.error_gap_ms);
  if (req.generations != 25) w.field("generations", req.generations);
  if (req.population != 32) w.field("population", req.population);
  if (req.target_jitter != 0.25) w.field("target_jitter", req.target_jitter);
  if (req.fault_ppm != 1'000'000) w.field("fault_ppm", req.fault_ppm);
  if (req.stuff_ppm != 1'000'000) w.field("stuff_ppm", req.stuff_ppm);
  if (req.jitter_ppm != 1'000'000) w.field("jitter_ppm", req.jitter_ppm);
  if (req.max_rungs != 96) w.field("max_rungs", req.max_rungs);
  if (req.dump) w.field("dump", true);
  w.end_object();
  return out;
}

std::string response_to_jsonl(const ServeResponse& resp) {
  std::string out;
  out.reserve(128 + resp.id.size() + resp.output.size() * 9 / 8 + resp.health_json.size());
  obs::JsonOut w{out};
  w.begin_object().field("id", resp.id).field("kind", to_string(resp.kind));
  w.field("status", to_string(resp.status)).field("exit_code", resp.exit_code);
  if (!resp.output.empty()) w.field("output", resp.output);
  if (!resp.diagnostics.empty()) {
    w.key("diagnostics").begin_array();
    for (const Diagnostic& d : resp.diagnostics) {
      w.begin_object().field("severity", to_string(d.severity)).field("line", d.line);
      w.field("message", d.message).end_object();
    }
    w.end_array();
  }
  if (!resp.health_json.empty())
    w.key(resp.kind == RequestKind::kTelemetry ? "telemetry" : "health").raw(resp.health_json);
  w.end_object();
  return out;
}

ServeResponse invalid_response(const std::string& id, const Diagnostics& diags) {
  ServeResponse resp;
  resp.id = id;
  resp.status = ResponseStatus::kInvalid;
  resp.exit_code = 2;
  resp.diagnostics = diags.entries();
  return resp;
}

}  // namespace symcan::serve
