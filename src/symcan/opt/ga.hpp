#pragma once

// Multi-objective genetic optimization of CAN-ID assignments, modelled on
// SPEA2 (Zitzler, Laumanns & Thiele, TIK report 103, 2001 — the paper's
// reference [10] for the SymTA/S optimizer).
//
// Section 4.3: "We used the automatic optimization feature ... to find
// better CAN ID configurations that would exhibit less message loss. The
// optimizer also performs what-if analysis using genetic algorithms. We
// configured the optimizer to favor robust configurations over sensitive
// ones. Quickly, we obtained a system that does not loose a single
// message at 25 % jitter, even in the presence of errors and bit
// stuffing."
//
// Objectives (both minimized):
//   0: total deadline misses, summed over the evaluation jitter fractions;
//   1: robustness cost — mean over evaluation points and messages of the
//      response/deadline ratio (capped), so configurations with more
//      headroom rank better even among zero-miss candidates.

#include <cstdint>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/opt/assignment.hpp"

namespace symcan {

struct GaConfig {
  std::uint64_t seed = 7;
  int population = 48;
  int archive = 24;
  int generations = 40;
  double crossover_rate = 0.9;
  double mutation_rate = 0.3;  ///< Per-individual probability of a swap mutation.

  /// Jitter fractions at which candidates are evaluated. The paper's goal
  /// configuration is judged at 25 % jitter. Earlier fractions dominate
  /// lexicographically (each is weighted 1000x the next), so the primary
  /// target is met before stress points are traded off.
  std::vector<double> eval_fractions = {0.25};
  bool override_known = true;

  /// Analysis assumptions for evaluation — the paper's optimized system
  /// holds "even in the presence of errors and bit stuffing", i.e. the
  /// caller passes worst-case stuffing + burst errors here.
  CanRtaConfig rta;

  /// Ratio cap in the robustness objective (misses already dominate
  /// objective 0; the cap keeps diverged messages from swamping it).
  double ratio_cap = 4.0;

  /// Seed individuals injected into the initial population (e.g. the
  /// current matrix order and the DM order); the GA result is therefore
  /// never worse than the best seed under the objectives.
  std::vector<PriorityOrder> seeds;

  /// Worker threads for fitness evaluation (0 = hardware concurrency,
  /// 1 = serial). Every individual draws from its own RNG stream seeded
  /// by (seed, generation, slot), so the evolved populations are
  /// bit-identical at any parallelism.
  int parallelism = 1;

  /// RTA memoization across fitness evaluations. Neighbouring candidates
  /// share most of their interference contexts, so the optimizer's
  /// dominant cost collapses to the messages each edit actually touches.
  /// Cached verdicts are bit-identical to fresh ones, so this never
  /// changes the evolved populations — disable only to measure.
  RtaCacheConfig cache;
};

/// One evaluated candidate.
struct GaIndividual {
  PriorityOrder order;
  double misses = 0;          ///< Objective 0.
  double robustness_cost = 0; ///< Objective 1.
};

struct GaResult {
  GaIndividual best;                    ///< Lexicographically best (misses, cost).
  std::vector<GaIndividual> pareto;     ///< Final archive (nondominated set).
  std::vector<double> best_misses_history;  ///< Per generation.
  int evaluations = 0;
};

/// Evaluate one order under the GA's objective definition, reusing cached
/// RTA verdicts from `rta` (which may be shared across threads and calls).
GaIndividual evaluate_order(const KMatrix& km, const PriorityOrder& order, const GaConfig& cfg,
                            IncrementalRta& rta);

/// Convenience overload with a private, cache-disabled analyzer.
GaIndividual evaluate_order(const KMatrix& km, const PriorityOrder& order, const GaConfig& cfg);

/// Run the optimizer. Deterministic in cfg.seed.
GaResult optimize_priorities(const KMatrix& km, const GaConfig& cfg);

}  // namespace symcan
