#pragma once

// Probabilistic CAN response-time analysis: per-message deadline-miss
// *distributions* instead of a single worst-case verdict, following the
// convolution-based construction of arXiv 2411.05835.
//
// The deterministic engine answers "worst case under an error model";
// the integration question OEMs actually ask is "what fraction of frames
// miss at 10^-6?". This module answers it soundly and deterministically:
//
//  1. Rung ladder. The packed busy-period core (columnar.hpp) is solved
//     once per possible fault count k with a FixedFaults(k) error model,
//     giving conditional bounds R_0 <= R_1 <= ... <= R_K. The top rung
//     is the deterministic WCRT itself (K is the fault count the
//     configured error model admits inside the deterministic busy
//     period), so the deterministic bound is the distribution's provable
//     upper support point by construction. Rung k + 1 starts from rung
//     k's fixed points (exact: its overhead is nowhere smaller); once a
//     rung clamps to the deterministic WCRT, as a diverged one does, the
//     rungs above it are that value unsolved (DESIGN.md).
//  2. Fault mixture. The number of materialized faults is Binomial(K, p)
//     — each admitted fault occurs independently with probability p —
//     computed by iterated Bernoulli convolution in fixed point, in place.
//  3. Luck deltas. Worst-case bit stuffing and full activation jitter
//     each materialize with a configured probability; their absence is a
//     two-point "savings" delta convolved into the response PMF.
//
// Numerics contract (no floating drift in the hot path): all mass is
// carried as 32.32 fixed-point weights summing to exactly Pmf::kOne.
// Convolution multiplies weights in unsigned __int128, floor-divides by
// kOne, and pushes the rounding residue onto the *maximum-value* atom —
// mass only ever moves toward worse outcomes, so every reported miss
// probability over-approximates the exact rational one (conservative),
// and the whole pipeline is pure integer arithmetic: bit-identical
// results at any thread count or platform.
//
// Degenerate gate: when every probability is 1 (the defaults), the
// Bernoulli and delta convolutions are exact shifts with zero residue,
// the mixture collapses to a point mass at the top rung, and the result
// reproduces CanRta::analyze_message() bit-exactly — the differential
// tests in tests/analysis/prob_rta_test.cpp pin this across all
// assumption presets.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/util/time.hpp"

namespace symcan::analysis {

/// Bounded-support discrete PMF over integer-nanosecond values. Atoms
/// are sorted ascending, weights are strictly positive 32.32 fixed-point
/// and sum to exactly kOne — validate() enforces the invariant, every
/// constructor and operation preserves it.
class Pmf {
 public:
  /// Unit mass: 2^32. All probabilities in this module are weights in
  /// [0, kOne]; kOne means "certain".
  static constexpr std::uint64_t kOne = std::uint64_t{1} << 32;

  struct Atom {
    Duration value = Duration::zero();
    std::uint64_t weight = 0;
    friend bool operator==(const Atom&, const Atom&) = default;
  };

  /// Certain outcome: one atom of weight kOne at `v`.
  static Pmf point(Duration v);

  /// Two-point mass: `high` with `high_weight`, `low` with the rest.
  /// Degenerate weights (0 or kOne) collapse to a single atom, so the
  /// result is exact — no residue ever.
  static Pmf two_point(Duration low, Duration high, std::uint64_t high_weight);

  /// Build from (value, weight) pairs; merges duplicate values, drops
  /// zero weights, sorts, then validates the exact-sum invariant.
  static Pmf from_atoms(std::vector<Atom> atoms);

  const std::vector<Atom>& atoms() const { return atoms_; }
  bool degenerate() const { return atoms_.size() == 1; }
  Duration min_value() const { return atoms_.front().value; }
  /// Upper support point — for a response-time PMF this is provably the
  /// deterministic WCRT.
  Duration max_value() const { return atoms_.back().value; }

  /// Total weight strictly above `v` (the CCDF): the deadline-miss mass
  /// when `v` is the deadline. Conservative by the residue-to-top
  /// rounding: never smaller than the exact rational tail.
  std::uint64_t mass_above(Duration v) const;

  /// Smallest value whose CDF reaches `rank` (rank in [0, kOne]; the
  /// cross-validation quantile probe). rank == 0 returns min_value().
  Duration quantile(std::uint64_t rank) const;

  /// Merge every atom below `floor` into one atom at `floor` (response
  /// times below the best-case response are physically impossible; the
  /// luck deltas are clamped back to it).
  Pmf clamped_min(Duration floor) const;

  /// Exact-where-possible ppm <-> weight conversion. weight_from_ppm
  /// rounds *up* (more mass on the worst case — conservative) and is
  /// exact at 0 and 1'000'000; ppm_from_weight rounds up too, so a
  /// displayed miss-ppm never understates the bound.
  static std::uint64_t weight_from_ppm(std::int64_t ppm);
  static std::int64_t ppm_from_weight(std::uint64_t weight);
  static double probability(std::uint64_t weight) {
    return static_cast<double>(weight) / static_cast<double>(kOne);
  }

  /// Asserts the representation invariant (sorted, distinct, positive
  /// weights, sum exactly kOne); throws std::logic_error on violation.
  void validate() const;

  /// Convolution of independent sums: every atom pair multiplies its
  /// weights in unsigned __int128 and adds its values. The floor-division
  /// residue (< one ulp per output atom) lands on the maximum-value atom,
  /// so the result stochastically dominates the exact convolution.
  /// Point-mass operands convolve exactly (zero residue).
  friend Pmf convolve(const Pmf& a, const Pmf& b);

 private:
  std::vector<Atom> atoms_;
};

Pmf convolve(const Pmf& a, const Pmf& b);

/// Probabilistic analysis configuration. Probabilities are parts-per-
/// million integers so the wire, the CLI and the cache key all stay
/// exact; the defaults are the degenerate point masses that reproduce
/// the deterministic analysis bit-for-bit.
struct ProbRtaConfig {
  CanRtaConfig rta;
  /// P(an admitted fault materializes) — each of the K faults the error
  /// model admits in the deterministic busy period occurs independently
  /// with this probability.
  std::int64_t fault_ppm = 1'000'000;
  /// P(worst-case bit stuffing materializes); otherwise the frame takes
  /// its unstuffed (best-case) time.
  std::int64_t stuff_ppm = 1'000'000;
  /// P(full activation jitter materializes); otherwise the activation
  /// lands jitter-free.
  std::int64_t jitter_ppm = 1'000'000;
  /// Hard cap on the rung ladder height (fault counts beyond it are
  /// folded into the top rung, which is the deterministic WCRT — sound,
  /// just coarser).
  std::int64_t max_rungs = 96;
  /// Fan-out width for analyze_prob (0 = hardware). Purely speed:
  /// results are bit-identical at any width.
  int parallelism = 1;
};

/// Throws std::invalid_argument on out-of-range ppm / max_rungs.
void validate_prob_config(const ProbRtaConfig& cfg);

/// The cacheable intermediate: the deterministic verdict plus the
/// conditional rung ladder. Depends only on the packed row and
/// max_rungs — IncrementalRta caches it so probability sweeps re-solve
/// nothing and only redo the (cheap) mixture per sweep point.
struct RungLadder {
  MessageResult det;            ///< Bit-exact CanRta::analyze_message().
  std::vector<Duration> rungs;  ///< R_0..R_K, monotone, R_K == det.wcrt.
  /// Worst-case-stuffing saving (cost - bcrt of the row) and the activation
  /// jitter — the supports of the two luck deltas the mixture convolves.
  Duration stuff_savings = Duration::zero();
  Duration jitter = Duration::zero();
};

/// Result for one message.
struct ProbMessageResult {
  MessageResult det;  ///< Bit-exact deterministic verdict (the gate).
  Pmf response = Pmf::point(Duration::zero());
  std::uint64_t miss_weight = 0;  ///< P(response > deadline), fixed point.
  std::vector<Duration> rungs;    ///< The ladder the mixture ran over.
  std::int64_t convolutions = 0;  ///< Convolutions spent on this message.

  double miss_probability() const { return Pmf::probability(miss_weight); }
  /// Rounded up: the displayed value never understates the bound.
  std::int64_t miss_ppm() const { return Pmf::ppm_from_weight(miss_weight); }
};

/// Whole-bus result.
struct ProbBusResult {
  std::vector<ProbMessageResult> messages;  ///< Same order as the matrix.
  double utilization = 0;

  /// Messages whose miss probability exceeds `threshold_weight`.
  std::size_t miss_count(std::uint64_t threshold_weight = 0) const;
};

/// Solve the rung ladder of packed row `r`: the deterministic solve, then
/// one solve per fault count on the same row with a FixedFaults error
/// model. As with solve_columnar(), det's name/id are left for the
/// caller to patch.
RungLadder solve_rung_ladder(const ColumnarBus& bus, std::size_t r, std::int64_t max_rungs);

/// Mix a solved ladder into the final distribution under `cfg` — the
/// cheap per-sweep-point half (pure integer; no solver calls).
ProbMessageResult mix_ladder(const RungLadder& ladder, const ProbRtaConfig& cfg);

/// Analyze one message (one-row pack + ladder + mixture).
ProbMessageResult analyze_message_prob(const KMatrix& km, const ProbRtaConfig& cfg,
                                       std::size_t index);

/// Analyze every message: one whole-bus pack, then the ladders and
/// mixtures fanned out over util::ParallelExecutor with slot-indexed
/// tiling on the shared read-only bus — bit-identical at any width.
ProbBusResult analyze_prob(const KMatrix& km, const ProbRtaConfig& cfg);

}  // namespace symcan::analysis

namespace symcan {
using analysis::analyze_prob;
using analysis::Pmf;
using analysis::ProbBusResult;
using analysis::ProbMessageResult;
using analysis::ProbRtaConfig;
}  // namespace symcan
