#pragma once

// The `symcan serve` wire grammar: one flat JSON object per line in,
// one JSON object per line out.
//
// Requests name one of the CLI's analysis questions (analyze / prob /
// explain / validate / optimize) plus `health`, and carry the K-Matrix
// inline as CSV text — the service is long-lived and must not trust client paths.
// Parsing rides the util::Diagnostics contract exactly like the file
// loaders: a malformed request yields line-numbered typed diagnostics
// and a structured `invalid` response, never a dropped connection, and
// strict mode fails on a superset of what lenient fails on.
//
// Field defaults mirror the CLI flag defaults byte for byte (validate
// seed 1, optimize seed 7, millis 2000, ...), so a request that spells
// only the essentials gets the same answer as the bare CLI invocation —
// the differential test compares the bytes.
//
// parse ∘ serialize ∘ parse is the identity on accepted requests
// (checked by the fuzz harness): request_to_jsonl emits a canonical
// spelling that re-parses to an equal ServeRequest.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "symcan/pipeline/stages.hpp"
#include "symcan/util/diagnostics.hpp"

namespace symcan::serve {

enum class RequestKind : std::uint8_t {
  kAnalyze,
  kExplain,
  kValidate,
  kOptimize,
  kHealth,
  kTelemetry,
  kProb,  ///< Appended last so existing kind indices stay stable.
};

/// Wire spelling: "analyze", "explain", "validate", "optimize", "health",
/// "telemetry", "prob".
const char* to_string(RequestKind kind);
bool request_kind_from_string(const std::string& text, RequestKind& out);

/// One parsed request line. Optional fields distinguish "absent" from an
/// explicit value only where the CLI default depends on the command
/// (seed: validate uses 1, optimize uses 7); everywhere else the struct
/// default IS the CLI default, so absent and default-spelled requests
/// are the same request.
struct ServeRequest {
  std::string id;  ///< Client correlation token, echoed in the response.
  RequestKind kind = RequestKind::kAnalyze;
  std::string matrix_csv;  ///< Inline K-Matrix CSV; required except for health.

  // analyze / explain assumption bundle; optimize maps kBestCase to the
  // GA's --best-case toggle. Not accepted for validate (the CLI refuses
  // assumption presets there — a best-case "violation" is meaningless).
  pipeline::AssumptionPreset preset = pipeline::AssumptionPreset::kDefault;

  // --jitter / --override-known, valid for every matrix-carrying kind.
  std::optional<double> jitter;
  bool override_known = false;

  std::string message;  ///< explain only: the message to explain.
  bool json = false;    ///< explain / validate: JSON instead of text.

  std::int64_t millis = 2000;             ///< validate simulation span.
  std::optional<std::uint64_t> seed;      ///< validate: 1, optimize: 7.
  std::string errors = "none";            ///< validate: none|sporadic|burst.
  std::optional<std::int64_t> error_gap_ms;  ///< validate; per-kind default.

  int generations = 25;        ///< optimize
  int population = 32;         ///< optimize
  double target_jitter = 0.25; ///< optimize

  // prob only: deadline-miss probability knobs, carried as exact
  // parts-per-million integers (the same convention as the CLI flags and
  // the cache keys). The degenerate defaults make a bare prob request
  // agree with analyze bit for bit on the verdicts.
  std::int64_t fault_ppm = 1'000'000;
  std::int64_t stuff_ppm = 1'000'000;
  std::int64_t jitter_ppm = 1'000'000;
  std::int64_t max_rungs = 96;

  /// telemetry only: also flush the flight recorder to its dump path.
  bool dump = false;

  bool operator==(const ServeRequest&) const = default;
};

/// Parse one request line into `out`. False when the line is unusable;
/// every problem is a line-numbered diagnostic in `diags` (line_no is the
/// 1-based position of this line in the request stream). A rejected line
/// leaves in `out` every value read before it failed, so its answer can
/// still echo the id and kind.
bool request_from_jsonl(const std::string& line, std::size_t line_no, Diagnostics& diags,
                        ServeRequest& out);

/// As above; nullopt when the line is unusable.
std::optional<ServeRequest> request_from_jsonl(const std::string& line, std::size_t line_no,
                                               Diagnostics& diags);

/// Canonical one-line serialization; request_from_jsonl(result) yields
/// an equal ServeRequest (a key the kind requires is always written, any
/// other only when it differs from its default).
std::string request_to_jsonl(const ServeRequest& req);

enum class ResponseStatus : std::uint8_t {
  kOk,       ///< Analysis ran, verdict clean (CLI exit 0).
  kFailed,   ///< Analysis ran, verdict negative — misses/violations (CLI exit 1).
  kInvalid,  ///< Request malformed or unprocessable (CLI exit 2).
};

const char* to_string(ResponseStatus status);

struct ServeResponse {
  std::string id;  ///< Echo of the request id ("" when none was read).
  RequestKind kind = RequestKind::kAnalyze;
  ResponseStatus status = ResponseStatus::kOk;
  int exit_code = 0;   ///< The CLI exit code the same invocation returns.
  std::string output;  ///< Exact bytes the CLI writes to stdout.
  /// kInvalid: the collected diagnostics, line numbers included.
  std::vector<Diagnostic> diagnostics;
  /// health / telemetry: raw JSON object (emitted unquoted under
  /// "health" or "telemetry" by the response kind).
  std::string health_json;
};

/// One-line JSON response.
std::string response_to_jsonl(const ServeResponse& resp);

/// Convenience: the invalid-request response for a failed parse.
ServeResponse invalid_response(const std::string& id, const Diagnostics& diags);

}  // namespace symcan::serve
