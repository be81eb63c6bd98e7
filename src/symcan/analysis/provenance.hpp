#pragma once

// Provenance of one RTA verdict: the bound decomposed into its named
// terms, exact to the nanosecond.
//
// The busy-period solver computes the critical-instance window w* as a
// fixed point, so re-evaluating every term of the recurrence at w* and
// summing them reproduces w* — and therefore the bound — *exactly* in
// integer arithmetic:
//
//   w*    = B_bus + B_intra + q*·C_m + Σ_k I_k(w* + τ_bit) + E(w* + C_m)
//   bound = w* + C_m − δ_min(q* + 1)
//
// explain_message() packs the message's row with labels (pack_bus), runs
// the tracing solve_columnar() overload on it — the plain solve's code
// with a recorder attached, so an explained verdict *is* the verdict —
// then evaluates each term of the packed row once more at w*,
// attributing every nanosecond of the bound to a blocking frame, an
// interferer, an offset group, the error model, or the message itself.
// An offset group whose hyperperiod is unbounded is packed as ordinary
// per-member entries and decomposes like them. sum_check() asserts the
// reconstruction; tests/analysis pins it across assumption presets.
//
// This is the audit trail the paper's data-sheet exchange needs (Figure
// 6): a guarantee a supplier can question is only useful if the OEM can
// answer *why* the bound is what it is — which interferer dominates,
// how much is error margin, how much is pessimism.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/util/time.hpp"

namespace symcan::analysis {

/// One named interference term of the critical-instance window.
struct InterferenceShare {
  /// Interfering message name, or the sending node for an offset group.
  std::string name;
  /// Member message names when this share is an offset (TimeTable) group.
  std::vector<std::string> members;
  /// Releases charged inside the window (eta+ count). 0 for offset
  /// groups, whose demand is bounded jointly over the hyperperiod and
  /// does not decompose into per-member release counts.
  std::int64_t preemptions = 0;
  Duration contribution = Duration::zero();
  bool offset_group = false;
};

/// Full provenance of one message's RTA verdict.
struct Provenance {
  std::string name;
  CanId id = 0;

  /// The verdict itself — bit-identical to CanRta::analyze_message().
  MessageResult result;

  // --- Decomposition of the critical-instance window w* (all exact). ---
  std::string blocking_frame;  ///< Largest lower-priority bus frame; "" if none.
  Duration bus_blocking = Duration::zero();
  Duration intra_node_blocking = Duration::zero();
  std::int64_t critical_instance = 0;  ///< 0-based q* attaining the WCRT.
  Duration critical_window = Duration::zero();  ///< w(q*).
  Duration preceding_instances = Duration::zero();  ///< q* · C_m.
  /// Per-interferer shares, sorted by contribution descending (ties by
  /// name). Non-contributing interferers are kept with 0 so the audit
  /// lists the whole interference set.
  std::vector<InterferenceShare> interference;
  Duration interference_total = Duration::zero();
  Duration error_overhead = Duration::zero();
  Duration own_cost = Duration::zero();       ///< C_m.
  Duration arrival_credit = Duration::zero();  ///< δ_min(q* + 1).

  // --- Solver trajectory (the convergence `symcan explain` renders). ---
  std::vector<Duration> busy_iterates;
  std::vector<Duration> window_iterates;  ///< Iterates of w(q*).

  /// blocking + preceding + interference + errors + own cost − credit.
  /// Equals result.wcrt exactly whenever the verdict converged.
  Duration sum_of_parts() const;

  /// True iff sum_of_parts() reproduces the bound (trivially true for a
  /// diverged verdict, which has no finite decomposition).
  bool sum_check() const { return result.diverged || sum_of_parts() == result.wcrt; }
};

/// Analyze message `index` of `km` under `cfg` with full provenance.
/// The embedded verdict is bit-identical to CanRta(km, cfg)
/// .analyze_message(index), iteration counts included. Throws
/// std::out_of_range on a bad index.
Provenance explain_message(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index);

/// Index of the message named `name`, or nullopt.
std::optional<std::size_t> find_message(const KMatrix& km, std::string_view name);

/// Human-readable breakdown (the `symcan explain` text output).
std::string provenance_to_text(const Provenance& p);

/// Machine-readable breakdown; durations in integer nanoseconds so the
/// decomposition stays exact through serialization.
std::string provenance_to_json(const Provenance& p);

}  // namespace symcan::analysis
