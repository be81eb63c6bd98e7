#pragma once

// Worst-case response-time analysis for CAN (fixed-priority,
// non-preemptive), in the corrected busy-period form of Davis, Burns,
// Bril & Lukkien (Real-Time Systems 35, 2007), extended with
//
//  * activation jitter and burst (standard event models),
//  * fault-recovery interference via an ErrorModel,
//  * intra-node blocking for basicCAN controllers (committed transmit
//    buffers cannot be aborted, so a frame can additionally wait for
//    same-node lower-priority frames already handed to the controller),
//  * best-case response times (needed for output-jitter propagation in
//    the compositional engine).
//
// The per-message verdict follows paper Section 3.2: "to guarantee that a
// message X will never get lost (overwritten in the sender's buffer), its
// maximum response time must not exceed its minimum re-arrival time (the
// deadline)".

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "symcan/analysis/error_model.hpp"
#include "symcan/analysis/tt_schedule.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/model/event_model.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

/// Analysis configuration: the modelling assumptions a what-if experiment
/// varies (paper Section 4: "a set of experiments, each based on different
/// assumptions on the missing information").
struct CanRtaConfig {
  /// Use worst-case stuffed frame lengths (true) or unstuffed (false).
  bool worst_case_stuffing = true;

  /// Bus fault model; never null.
  std::shared_ptr<const ErrorModel> errors = std::make_shared<NoErrors>();

  /// When set, overrides the deadline policy of every message that does
  /// not carry an explicit deadline — Figure 5 compares "D = period"
  /// (best case) against "D = min re-arrival time" (worst case) across
  /// the whole matrix. Explicit deadlines are hard specifications and are
  /// never overridden.
  std::optional<DeadlinePolicy> deadline_override;

  /// Model intra-node priority inversion of basicCAN controllers.
  bool model_controller_queues = true;

  /// Exploit TimeTable offsets (paper Section 5.2): interference from a
  /// sender's offset-scheduled messages is bounded over its schedule's
  /// hyperperiod instead of assuming simultaneous release. Disable to get
  /// the offset-blind bound (useful for the ablation).
  bool use_offsets = true;

  /// Busy periods longer than this are declared divergent (message
  /// unschedulable). Guards the fixed point when utilization plus error
  /// interference reaches 100 %.
  Duration horizon = Duration::s(10);
};

/// Result for one message.
struct MessageResult {
  std::string name;
  CanId id = 0;

  Duration wcrt = Duration::infinite();  ///< Worst-case response time.
  Duration bcrt = Duration::zero();      ///< Best-case response time.
  Duration deadline = Duration::infinite();
  Duration blocking = Duration::zero();  ///< Total blocking charged (bus + intra-node).

  /// Level-i busy-period length and the number of instances examined.
  Duration busy_period = Duration::zero();
  std::int64_t instances = 1;

  /// Total fixed-point iterations spent on this message (busy period plus
  /// all per-instance windows) — the convergence cost profilers care about.
  std::int64_t fixedpoint_iterations = 0;

  bool schedulable = false;  ///< wcrt <= deadline (a lost message otherwise).
  bool diverged = false;     ///< Fixed point hit the horizon.

  /// D - wcrt; negative when the deadline is missed.
  Duration slack() const { return deadline.is_infinite() ? Duration::infinite() : deadline - wcrt; }

  /// Output jitter for compositional propagation: J_out = J_in + (wcrt - bcrt).
  Duration response_jitter() const { return wcrt - bcrt; }
};

/// Whole-bus result.
struct BusResult {
  std::vector<MessageResult> messages;  ///< Same order as KMatrix::messages().
  double utilization = 0;               ///< Under the configured stuffing model.

  std::size_t miss_count() const;
  /// Fraction of messages missing their deadline — the y-axis of Figure 5.
  double miss_fraction() const;
  bool all_schedulable() const { return miss_count() == 0; }
};

/// Flush the per-message convergence counters of one whole-bus result to
/// the obs registry (no-op when observation is disabled). Shared between
/// CanRta::analyze() and IncrementalRta::analyze() so cached and fresh
/// runs surface comparable metrics.
void flush_rta_observations(const BusResult& out);

namespace analysis {

/// Whole-bus analysis of an already validated matrix: one pack, one
/// solve per message (analysis/columnar.hpp). CanRta::analyze() and the
/// cache-off IncrementalRta::analyze() both run exactly this.
BusResult analyze_bus(const KMatrix& km, const CanRtaConfig& cfg);

/// The one checked cache-off whole-bus analysis: CanRta's input checks,
/// then analyze_bus, without CanRta's copy of the matrix.
BusResult analyze_uncached(const KMatrix& km, const CanRtaConfig& cfg);

}  // namespace analysis

/// Analyzer bound to one K-Matrix and one configuration. Stateless after
/// construction; cheap to copy the config and re-run for what-if sweeps.
/// The matrix is stored by value so temporaries are safe to pass.
///
/// Every verdict comes from the packed busy-period core (columnar.hpp):
/// analyze() packs the whole bus, analyze_message() packs one row.
/// IncrementalRta memoizes the same core. Use CanRta directly for
/// one-shot analyses; prefer IncrementalRta in hot loops that re-analyze
/// edited matrices (optimizers, sweeps, extensibility searches).
class CanRta {
 public:
  CanRta(KMatrix km, CanRtaConfig cfg);

  /// Analyze one message (index into KMatrix::messages()); throws
  /// std::out_of_range on a bad index.
  MessageResult analyze_message(std::size_t index) const;

  /// Analyze every message.
  BusResult analyze() const;

  const CanRtaConfig& config() const { return cfg_; }

 private:
  KMatrix km_;
  CanRtaConfig cfg_;
};

}  // namespace symcan
