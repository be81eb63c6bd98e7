#pragma once

// Reusable parse → analyze → render pipeline stages.
//
// Historically each CLI command owned its whole flow: load a K-Matrix
// from argv, run the analysis, render the verdict to stdout. `symcan
// serve` answers the same questions over a long-lived process, so the
// analyze+render halves live here, parameterized by plain spec structs
// instead of parsed argv. The CLI builds a spec from flags; the service
// builds the identical spec from a JSON request — and because both call
// the same stage with the same defaults, a service response is
// bit-identical to the one-shot CLI invocation on the same inputs
// (tests/serve/serve_differential_test.cpp locks this down).
//
// Every stage writes exactly what the historical command wrote and
// returns the command's exit code (0 = ok, 1 = analysis "failure" such
// as a deadline miss). Input parsing stays with the trust-boundary
// loaders (kmatrix_io.hpp / serve/request.hpp); stages assume a
// validated matrix.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/opt/ga.hpp"
#include "symcan/sim/simulator.hpp"

namespace symcan::pipeline {

/// The three assumption bundles the CLI exposes (--worst-case /
/// --best-case / neither) and serve requests name via "preset".
enum class AssumptionPreset : std::uint8_t { kDefault, kWorstCase, kBestCase };

/// Spelling used by serve requests and health output ("default",
/// "worst-case", "best-case").
const char* to_string(AssumptionPreset preset);
/// Inverse of to_string; false on an unknown spelling.
bool preset_from_string(const std::string& text, AssumptionPreset& out);

CanRtaConfig assumptions_for(AssumptionPreset preset);

/// Post-parse matrix adjustments shared by CLI --jitter/--override-known
/// and the corresponding request fields. jitter < 0 leaves the matrix
/// untouched.
struct MatrixSpec {
  double jitter = -1.0;
  bool override_known = false;
};

void apply_matrix_spec(KMatrix& km, const MatrixSpec& spec);

/// --errors none|sporadic|burst plus the gap override; gap_ms < 0 picks
/// the per-kind default (40 ms sporadic, 25 ms burst) exactly as the CLI
/// does when --error-gap-ms is absent.
struct ErrorSpec {
  std::string kind = "none";
  std::int64_t gap_ms = -1;
};

/// Throws std::invalid_argument on an unknown kind or non-positive gap.
SimErrorProcess sim_errors_for(const ErrorSpec& spec);

/// Analysis error model dominating the given simulated error process —
/// the pairing that keeps RTA bounds valid simulation oracles.
std::shared_ptr<const ErrorModel> matching_error_model(const SimErrorProcess& p);

/// `symcan analyze`: load line, verdict table, miss count. Returns 0
/// when every message is schedulable, 1 otherwise. `cache`, when given,
/// routes the analysis through the (sharded) RTA cache — cached verdicts
/// are bit-identical to fresh ones, so the rendered bytes are too.
int render_analyze(const KMatrix& km, const CanRtaConfig& cfg, std::ostream& out,
                   analysis::IncrementalRta* cache = nullptr);

/// `symcan analyze --prob` / the serve "prob" kind: the probabilistic
/// analysis knobs, carried as exact parts-per-million integers so the
/// CLI flags, the JSONL wire and the cache keys all agree bit-for-bit.
/// The defaults are the degenerate point masses — with them the verdict
/// table reproduces the deterministic analysis exactly.
struct ProbSpec {
  std::int64_t fault_ppm = 1'000'000;
  std::int64_t stuff_ppm = 1'000'000;
  std::int64_t jitter_ppm = 1'000'000;
  std::int64_t max_rungs = 96;
  /// Fan-out width (0 = hardware). Speed only: rendered bytes are
  /// identical at any width.
  int jobs = 0;
};

/// `symcan analyze --prob`: load line, per-message deadline-miss
/// probability table, at-risk count. Returns 0 when every message has
/// zero miss probability, 1 otherwise (the degenerate defaults make
/// this agree with render_analyze's exit code).
int render_prob(const KMatrix& km, const CanRtaConfig& cfg, const ProbSpec& spec,
                std::ostream& out, analysis::IncrementalRta* cache = nullptr);

/// `symcan explain MESSAGE [--json]`: per-term bound breakdown. Returns
/// 0/1 with the message's schedulability; throws std::invalid_argument
/// when no message has that name.
int render_explain(const KMatrix& km, const CanRtaConfig& cfg, const std::string& message,
                   bool json, std::ostream& out);

struct ValidateSpec {
  std::int64_t millis = 2000;
  std::uint64_t seed = 1;
  ErrorSpec errors;
  bool json = false;
};

/// `symcan validate`: bound-vs-observed report under the forced-sound
/// pairing. Returns 0 when no simulated response crossed its bound.
int render_validate(const KMatrix& km, const ValidateSpec& spec, std::ostream& out,
                    analysis::IncrementalRta* cache = nullptr);

struct OptimizeSpec {
  std::uint64_t seed = 7;
  int generations = 25;
  int population = 32;
  double target_jitter = 0.25;
  bool best_case = false;
  /// Worker threads for fitness evaluation (0 = hardware). Evolved
  /// populations are bit-identical at any width.
  int jobs = 0;
  RtaCacheConfig cache;
};

/// The exact GaConfig `symcan optimize` builds from this spec.
GaConfig ga_config_for(const KMatrix& km, const OptimizeSpec& spec);

struct OptimizeOutcome {
  GaResult result;
  KMatrix optimized;
};

/// Run the GA stage without rendering (the CLI --out path).
OptimizeOutcome run_optimize(const KMatrix& km, const OptimizeSpec& spec);

/// `symcan optimize` without --out: GA summary line plus the optimized
/// matrix as CSV. Returns 0 when the best candidate has zero misses.
int render_optimize(const KMatrix& km, const OptimizeSpec& spec, std::ostream& out);

}  // namespace symcan::pipeline
