#include "symcan/serve/request.hpp"

#include <array>
#include <initializer_list>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <utility>

#include "symcan/obs/json.hpp"
#include "symcan/util/jsonl.hpp"

namespace symcan::serve {

namespace {

using jsonl::Cursor;
using enum RequestKind;

/// Wire spellings, indexed by RequestKind.
constexpr const char* kKindNames[] = {"analyze", "explain",   "validate", "optimize",
                                      "health",  "telemetry", "prob"};

/// A set of request kinds, one bit per RequestKind.
using Kinds = std::uint8_t;

constexpr Kinds kinds(std::initializer_list<RequestKind> list) {
  unsigned out = 0;
  for (const RequestKind k : list) out |= 1u << static_cast<unsigned>(k);
  return static_cast<Kinds>(out);
}

constexpr Kinds kEveryKind = (1u << std::size(kKindNames)) - 1;
constexpr Kinds kMatrixKinds = kinds({kAnalyze, kExplain, kValidate, kOptimize, kProb});

/// What a field's reader works on: the line's cursor and diagnostics, the
/// request being filled and the field's wire key.
struct FieldIn {
  Cursor& c;
  std::size_t line_no;
  Diagnostics& diags;
  ServeRequest& req;
  const char* key;

  template <class T>
  bool parse(T& v) const {
    if constexpr (std::is_same_v<T, std::string>)
      return jsonl::parse_string(c, line_no, key, v, diags);
    else if constexpr (std::is_same_v<T, bool>)
      return jsonl::parse_bool(c, line_no, key, v, diags);
    else if constexpr (std::is_same_v<T, double>)
      return jsonl::parse_double(c, line_no, key, v, diags);
    else
      return jsonl::parse_i64(c, line_no, key, v, diags);
  }
  bool reject(const std::string& message) const {
    diags.error(line_no, message);
    return false;
  }
};

// Range checks: nullptr when the value is acceptable, else the rest of
// the diagnostic after the key.
template <class V>
const char* non_negative(const V& v) {
  return v < 0 ? " must be non-negative" : nullptr;
}
const char* positive(const std::int64_t& v) { return v > 0 ? nullptr : " must be positive"; }
const char* plausible_count(const std::int64_t& v) {
  return v <= 0 ? " must be positive" : v > 1'000'000 ? " is implausibly large" : nullptr;
}
const char* ppm(const std::int64_t& v) {
  return v >= 0 && v <= 1'000'000 ? nullptr : " must lie in [0, 1000000]";
}
const char* rung_count(const std::int64_t& v) {
  return v >= 1 && v <= 4096 ? nullptr : " must lie in [1, 4096]";
}
const char* error_process(const std::string& v) {
  return v == "none" || v == "sporadic" || v == "burst" ? nullptr : " must be none|sporadic|burst";
}

/// Read member M, apply `check` (when given), and store the value only
/// once it is accepted. Optionals read their value type; integers read
/// as int64 and are narrowed once the check has passed.
template <auto M, auto check = nullptr>
bool read(FieldIn& in) {
  using Value = typename decltype(std::optional{in.req.*M})::value_type;
  std::conditional_t<std::is_integral_v<Value> && !std::is_same_v<Value, bool>, std::int64_t, Value>
      v{};
  if (!in.parse(v)) return false;
  if constexpr (!std::is_null_pointer_v<decltype(check)>) {
    if (const char* bad = check(v)) return in.reject(in.key + std::string(bad));
  }
  in.req.*M = static_cast<Value>(std::move(v));
  return true;
}

bool read_kind(FieldIn& in) {
  std::string text;
  if (!in.parse(text)) return false;
  if (request_kind_from_string(text, in.req.kind)) return true;
  return in.reject("unknown kind '" + text +
                   "' (expected analyze|prob|explain|validate|optimize|health|telemetry)");
}

bool read_preset(FieldIn& in) {
  std::string text;
  if (!in.parse(text)) return false;
  if (pipeline::preset_from_string(text, in.req.preset)) return true;
  return in.reject("unknown preset '" + text + "' (expected default|worst-case|best-case)");
}

const ServeRequest kDefaults{};

/// Write member M when the kind requires it or it differs from its
/// default (absent and default-spelled requests are the same request).
template <auto M>
void write(obs::JsonOut& w, const ServeRequest& req, const char* key, bool required) {
  const auto& v = req.*M;
  if (!required && v == kDefaults.*M) return;
  if constexpr (requires { v.has_value(); })
    w.field(key, *v);
  else if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(v)>>)
    w.field(key, to_string(v));
  else
    w.field(key, v);
}

/// One wire key: the kinds that accept it, the kinds that require it, and
/// how its value is read (with its range check) and written. Every kind
/// requires id and kind. The table order is the order of the kind-rule
/// diagnostics and of the canonical spelling.
struct Field {
  const char* key;
  Kinds accepted_by;
  Kinds required_by;
  bool (*read)(FieldIn&);
  void (*write)(obs::JsonOut&, const ServeRequest&, const char*, bool);
};

template <auto M, auto check = nullptr>
constexpr Field field(const char* key, Kinds accepted_by, Kinds required_by = 0) {
  return {key, accepted_by, required_by, read<M, check>, write<M>};
}

constexpr Field kFields[] = {
    field<&ServeRequest::id>("id", kEveryKind, kEveryKind),
    {"kind", kEveryKind, kEveryKind, read_kind, write<&ServeRequest::kind>},
    field<&ServeRequest::matrix_csv>("matrix_csv", kMatrixKinds, kMatrixKinds),
    {"preset", kinds({kAnalyze, kProb, kExplain, kOptimize}), 0, read_preset,
     write<&ServeRequest::preset>},
    field<&ServeRequest::jitter, non_negative<double>>("jitter", kMatrixKinds),
    field<&ServeRequest::override_known>("override_known", kMatrixKinds),
    field<&ServeRequest::message>("message", kinds({kExplain}), kinds({kExplain})),
    field<&ServeRequest::json>("json", kinds({kExplain, kValidate})),
    field<&ServeRequest::millis, positive>("millis", kinds({kValidate})),
    field<&ServeRequest::seed, non_negative<std::int64_t>>("seed", kinds({kValidate, kOptimize})),
    field<&ServeRequest::errors, error_process>("errors", kinds({kValidate})),
    field<&ServeRequest::error_gap_ms, positive>("error_gap_ms", kinds({kValidate})),
    field<&ServeRequest::generations, plausible_count>("generations", kinds({kOptimize})),
    field<&ServeRequest::population, plausible_count>("population", kinds({kOptimize})),
    field<&ServeRequest::target_jitter>("target_jitter", kinds({kOptimize})),
    field<&ServeRequest::dump>("dump", kinds({kTelemetry})),
    field<&ServeRequest::fault_ppm, ppm>("fault_ppm", kinds({kProb})),
    field<&ServeRequest::stuff_ppm, ppm>("stuff_ppm", kinds({kProb})),
    field<&ServeRequest::jitter_ppm, ppm>("jitter_ppm", kinds({kProb})),
    field<&ServeRequest::max_rungs, rung_count>("max_rungs", kinds({kProb})),
};

constexpr auto kKeys = [] {
  std::array<std::string_view, std::size(kFields)> keys{};
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = kFields[i].key;
  return keys;
}();

}  // namespace

const char* to_string(RequestKind kind) { return kKindNames[static_cast<std::size_t>(kind)]; }

bool request_kind_from_string(const std::string& text, RequestKind& out) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (text != kKindNames[i]) continue;
    out = static_cast<RequestKind>(i);
    return true;
  }
  return false;
}

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kFailed: return "failed";
    case ResponseStatus::kInvalid: return "invalid";
    case ResponseStatus::kOk: break;
  }
  return "ok";
}

bool request_from_jsonl(const std::string& line, std::size_t line_no, Diagnostics& diags,
                       ServeRequest& req) {
  const auto seen = jsonl::read_object(line, line_no, diags, kKeys, [&](std::size_t i, Cursor& at) {
    FieldIn in{at, line_no, diags, req, kFields[i].key};
    return kFields[i].read(in);
  });
  if (!seen) return false;
  const auto has = [&](std::size_t i) { return (*seen >> i & 1) != 0; };
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    if (kFields[i].required_by == kEveryKind && !has(i)) {
      diags.error(line_no, std::string("missing key \"") + kFields[i].key + "\"");
      return false;
    }
  }
  // The kind rules: every key the kind does not accept, then every key it
  // requires but lacks.
  const Kinds kind = kinds({req.kind});
  const char* name = to_string(req.kind);
  bool ok = true;
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    if (!has(i) || (kFields[i].accepted_by & kind) != 0) continue;
    diags.error(line_no, std::string("key \"") + kFields[i].key + "\" is not valid for " + name +
                             " requests");
    ok = false;
  }
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    if (has(i) || (kFields[i].required_by & kind) == 0) continue;
    diags.error(line_no,
                std::string("missing key \"") + kFields[i].key + "\" for " + name + " request");
    ok = false;
  }
  return ok;
}

std::optional<ServeRequest> request_from_jsonl(const std::string& line, std::size_t line_no,
                                               Diagnostics& diags) {
  ServeRequest req;
  if (!request_from_jsonl(line, line_no, diags, req)) return std::nullopt;
  return req;
}

std::string request_to_jsonl(const ServeRequest& req) {
  std::string out;
  out.reserve(128 + req.id.size() + req.matrix_csv.size() * 9 / 8 + req.message.size());
  obs::JsonOut w{out};
  w.begin_object();
  const Kinds kind = kinds({req.kind});
  for (const Field& f : kFields) f.write(w, req, f.key, (f.required_by & kind) != 0);
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
