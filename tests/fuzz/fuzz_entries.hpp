#pragma once

// Shared fuzzing entry points for the ingest layer.
//
// Each check_* function feeds one untrusted input through the
// diagnostics-collecting loaders and asserts the ingest contract:
//
//  * no exception escapes the non-throwing parsers,
//  * a parser returns a matrix if and only if it recorded no error,
//  * strict policy fails on a superset of the inputs lenient fails on,
//  * an accepted matrix survives a bit-identical CSV round trip,
//  * a bounded RTA over an accepted matrix terminates without wrap
//    (hostile parameters saturate to Duration::infinite() instead).
//
// Violations throw FuzzPropertyViolation. The same functions back two
// harnesses: the deterministic corpus test (fuzz_corpus_test.cpp, part of
// the regular suite) and the coverage-guided libFuzzer binaries built
// under -DSYMCAN_FUZZ=ON — so a libFuzzer finding can be replayed as a
// plain unit test by pasting the input into the corpus.

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace symcan::fuzz {

/// A fuzzed input violated an ingest-contract property (not merely "the
/// input was malformed" — malformed inputs must be *diagnosed*, which is
/// a pass).
class FuzzPropertyViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Inputs larger than this are ignored (mirrors the libFuzzer -max_len).
constexpr std::size_t kMaxInputBytes = 1 << 16;

/// Feed one DBC document through kmatrix_from_dbc under both policies.
void check_dbc_input(std::string_view data);

/// Feed one K-Matrix CSV document through kmatrix_from_csv under both
/// policies.
void check_kmatrix_csv_input(std::string_view data);

/// Run one whitespace-separated argv through run_cli. Tokens naming
/// absolute paths or output-file options are neutralised first, so the
/// harness exercises parsing and dispatch without touching the
/// filesystem; the exit code must be 0, 1 or 2 and nothing may escape.
void check_cli_argv_input(std::string_view data);

/// Feed one JSONL trace document through stream::trace_from_jsonl under
/// both policies, then an accepted trace through the StreamAnalyzer.
/// Checks the same contract as the matrix loaders (consistency, strict
/// superset) plus the reader's own: parse ∘ serialize ∘ parse is the
/// identity on event lists, and the analyzer never throws on any
/// accepted trace.
void check_trace_jsonl_input(std::string_view data);

/// Feed one JSONL serve-request stream through request_from_jsonl line
/// by line (as the stdio transport does) under both policies. Checks the
/// shared ingest contract (parse result iff no error, strict superset)
/// plus the wire grammar's own: parse ∘ serialize ∘ parse is the
/// identity on accepted requests and the canonical spelling is a fixed
/// point of serialization.
void check_serve_request_input(std::string_view data);

/// Feed one K-Matrix CSV document through kmatrix_from_csv, then pack an
/// accepted matrix into the columnar solve core and hold it to the
/// row-packing contract: the CSR structure is well formed (monotonic
/// index rows, equal-length columns) for the whole bus and for labelled
/// one-row packs, a one-row pack of message i solves bit-identically to
/// row i of the whole-bus pack in every field — iteration counts
/// included — and the recording solve equals the plain one, under both
/// the default and an inverted assumption set. The seeded known-answer
/// tests pin verdicts on matrices we thought of; this pins the layout
/// variants against each other on matrices nobody did. Uses the same
/// size/period bounds as the RTA check so the fixed point stays
/// harness-sized.
void check_columnar_pack(std::string_view data);

/// Feed one K-Matrix CSV document through kmatrix_from_csv, then hold an
/// accepted matrix to the probabilistic-analysis contract: analyze_prob
/// never throws on a valid matrix and bounded config, the degenerate
/// (all-certain) mixture reproduces CanRta::analyze() bit-exactly, the
/// distribution's upper support point is the deterministic WCRT, every
/// weight vector sums to exactly Pmf::kOne, and the deadline-miss weight
/// is monotone in the fault probability (up to the documented fixed-point
/// residue tolerance). The fuzzed fault probability is derived from the
/// input bytes so the corpus explores the interior of the ppm range, not
/// just the rails. Same size/period bounds as the RTA check.
void check_prob_rta(std::string_view data);

/// The argv sanitisation used by check_cli_argv_input, exposed for tests.
std::vector<std::string> sanitize_argv(std::string_view data);

}  // namespace symcan::fuzz
