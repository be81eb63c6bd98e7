#pragma once

// Supply-chain interface objects (paper Section 5, Figures 3 and 6).
//
// The paper's key process insight is a *duality*: what one party assumes
// and requires, the other must guarantee, and vice versa —
//
//   OEM  -> supplier: "your ECU's send jitter for message X must stay
//                      below J_req" (derived from bus sensitivity);
//   supplier -> OEM:  "my ECU guarantees send jitter J_guar for X"
//                      (from its internal ECU analysis);
//   supplier -> OEM:  "my control algorithm needs message Y to arrive
//                      with at most latency L and jitter J" (receive
//                      requirement);
//   OEM  -> supplier: "the bus guarantees Y arrives within L', jitter J'"
//                      (from bus analysis).
//
// The interface deliberately exposes only event-model-level data
// (periods, jitters, deadlines, latencies) so "the intellectual property
// of either party [can] be protected, as internal implementation details
// ... need not be disclosed".

#include <optional>
#include <string>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/util/diagnostics.hpp"

namespace symcan {

/// OEM -> supplier: upper bound on the send jitter of a message.
struct SendJitterRequirement {
  std::string message;
  Duration max_jitter = Duration::zero();
};

/// Supplier -> OEM: guaranteed send jitter of a message (from the
/// supplier's own ECU-level analysis; the supplier's IP stays hidden).
struct SendJitterGuarantee {
  std::string message;
  Duration jitter = Duration::zero();
};

/// Supplier -> OEM: receive-side requirement of a consuming ECU.
struct ArrivalRequirement {
  std::string message;
  std::string receiver;  ///< The ECU that needs the data.
  Duration max_latency = Duration::infinite();         ///< Queue-to-delivery bound.
  Duration max_response_jitter = Duration::infinite(); ///< Arrival regularity bound.
};

/// The ECU data sheet a supplier publishes.
struct EcuDatasheet {
  std::string ecu;
  std::vector<SendJitterGuarantee> send_guarantees;
  std::vector<ArrivalRequirement> arrival_requirements;
};

/// Serialize a data sheet to its CSV exchange format:
///
///   ecu,<name>
///   send,<message>,<jitter_ns>
///   need,<message>,<receiver>,<max_latency_ns|inf>,<max_response_jitter_ns|inf>
///
/// Lines starting with '#' are comments. This is the file that actually
/// crosses the OEM/supplier boundary, so the loader below treats it as
/// untrusted input.
std::string datasheet_to_csv(const EcuDatasheet& ds);

/// Parse the CSV exchange format, reporting malformed records through
/// `diags` (line-numbered; policy semantics as in util/diagnostics.hpp).
/// Does not throw on malformed input; returns nullopt when any error was
/// recorded.
std::optional<EcuDatasheet> datasheet_from_csv(const std::string& text, Diagnostics& diags);

/// Throwing convenience wrapper (lenient policy): throws ParseError.
EcuDatasheet datasheet_from_csv(const std::string& text);

/// One mismatch found by the duality check.
struct DualityViolation {
  enum class Kind : std::uint8_t {
    kSendJitterExceeded,   ///< Guarantee above the OEM requirement.
    kMissingGuarantee,     ///< Requirement with no matching guarantee.
    kLatencyNotMet,        ///< Bus analysis misses an arrival requirement.
    kArrivalJitterNotMet,  ///< Arrival jitter above the supplier's need.
  };
  Kind kind;
  std::string message;
  std::string detail;
};

struct DualityReport {
  std::vector<DualityViolation> violations;
  bool ok() const { return violations.empty(); }
};

/// OEM side, step 1: derive send-jitter requirements for suppliers. For
/// each message sent by `ecu` (or all messages if empty), binary-search
/// the largest own-jitter the bus tolerates while *every* message still
/// meets its deadline (others fixed at their matrix values), then apply
/// `safety_margin` (e.g. 0.8 keeps 20 % headroom).
std::vector<SendJitterRequirement> derive_send_jitter_requirements(
    const KMatrix& km, const CanRtaConfig& rta, const std::string& ecu = {},
    double safety_margin = 0.8);

/// OEM side, step 2: what the bus analysis lets the OEM guarantee to the
/// receiving suppliers: per message, worst-case latency and response
/// jitter under `rta`.
std::vector<ArrivalRequirement> derive_arrival_guarantees(const KMatrix& km,
                                                          const CanRtaConfig& rta);

/// The duality check of Figure 6: OEM requirements vs supplier
/// guarantees, and supplier arrival requirements vs bus analysis.
DualityReport check_duality(const KMatrix& km, const CanRtaConfig& rta,
                            const std::vector<SendJitterRequirement>& oem_requirements,
                            const std::vector<EcuDatasheet>& supplier_datasheets);

/// Largest jitter of `message` alone (others unchanged) under which all
/// messages remain schedulable. Returns zero if already unschedulable.
/// Throws std::invalid_argument for an unknown message, and for a
/// tolerance that is not > 0 unless the zero-jitter probe returned zero.
Duration max_own_jitter(const KMatrix& km, const CanRtaConfig& rta, const std::string& message,
                        Duration tolerance = Duration::us(50));

}  // namespace symcan
