#pragma once

// Discrete-event simulation of one CAN bus.
//
// The paper contrasts analysis with "simulation and test [which] suffers
// from serious corner case coverage problems". We implement the simulator
// anyway, for two reasons that mirror how such tools are validated in
// practice:
//
//  * it renders concrete communication patterns (Figure 2), and
//  * it provides a soundness oracle: every simulated response time must
//    stay at or below the analysis bound when the simulated jitter,
//    stuffing, and error processes respect the analysis assumptions.
//
// Model: nodes release message instances periodically with sampled
// release jitter. Whenever the bus falls idle, the lowest arbitration
// rank among the presented frames starts, non-preemptively: a fullCAN
// node presents every pending buffer, a basicCAN node only the head of
// its FIFO transmit queue, a bus-off node nothing. Bus errors corrupt the
// frame in transmission, cost an error-frame recovery, and trigger
// retransmission. A pending instance overwritten by a newer release of
// the same message is counted as a loss (paper Section 3.2).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "symcan/can/kmatrix.hpp"
#include "symcan/sim/trace.hpp"
#include "symcan/util/rng.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

/// How frame lengths are drawn during simulation.
enum class StuffingMode : std::uint8_t {
  kNone,       ///< Unstuffed lengths (optimistic).
  kRandom,     ///< Uniform between unstuffed and worst-case (realistic).
  kWorstCase,  ///< Always worst-case stuffing (matches conservative analysis).
};

/// Error injection process for the simulator. Generators guarantee their
/// produced fault times respect the corresponding analysis model, so
/// analysis bounds remain valid oracles.
struct SimErrorProcess {
  enum class Kind : std::uint8_t { kNone, kSporadic, kBurst } kind = Kind::kNone;
  /// kSporadic: faults separated by >= min_gap (plus random slack).
  /// kBurst: burst starts separated by >= min_gap; each burst corrupts
  /// `burst_len` consecutive transmissions.
  Duration min_gap = Duration::ms(100);
  std::int64_t burst_len = 1;

  static SimErrorProcess none() { return {}; }
  static SimErrorProcess sporadic(Duration min_gap);
  static SimErrorProcess burst(Duration min_gap, std::int64_t burst_len);
};

struct SimConfig {
  Duration duration = Duration::s(2);  ///< Simulated bus time.
  std::uint64_t seed = 1;
  StuffingMode stuffing = StuffingMode::kRandom;
  SimErrorProcess errors;
  bool record_trace = false;  ///< Trace recording is O(events); off for long runs.
  /// Sample each instance's release as n*T + U(0, J) when true; when
  /// false use the deterministic worst phasing U == J for all.
  bool randomize_jitter = true;

  /// CAN fault confinement: each transmit error adds 8 to the sender's
  /// transmit error counter (TEC), each success subtracts 1; at TEC >=
  /// 256 the node goes bus-off and stays silent for the standard
  /// recovery time (128 occurrences of 11 recessive bits, approximated
  /// as 1408 contiguous bit times), then rejoins with TEC = 0. Silent
  /// nodes keep losing overwritten instances — the realistic failure
  /// mode behind the paper's reliability concerns.
  bool model_fault_confinement = true;

  /// Record every completed response time so percentiles can be queried
  /// (memory: one Duration per completion).
  bool record_percentiles = false;
};

/// Per-message simulation statistics.
struct MessageStats {
  std::string name;
  std::int64_t activations = 0;
  std::int64_t completions = 0;
  std::int64_t losses = 0;          ///< Overwritten instances.
  std::int64_t retransmissions = 0;
  Duration wcrt_observed = Duration::zero();
  Duration bcrt_observed = Duration::infinite();
  double avg_response_us = 0;  ///< Mean response of completed instances.

  /// Sorted response times; populated only with record_percentiles.
  std::vector<Duration> responses;

  double loss_rate() const {
    return activations > 0 ? static_cast<double>(losses) / static_cast<double>(activations) : 0;
  }

  /// p-quantile (p in [0,1]) of the recorded responses; zero when none
  /// were recorded. p = 0.5 is the median, p = 1.0 the maximum.
  Duration percentile(double p) const;
};

/// Per-node fault-confinement statistics.
struct NodeStats {
  std::string name;
  std::int64_t bus_off_events = 0;
  Duration silent_time = Duration::zero();  ///< Total time spent bus-off.
  std::int64_t peak_tec = 0;
};

struct SimResult {
  std::vector<MessageStats> messages;  ///< Same order as KMatrix::messages().
  std::vector<NodeStats> nodes;        ///< Same order as KMatrix::nodes().
  std::int64_t total_errors_injected = 0;
  Duration simulated = Duration::zero();
  Trace trace;  ///< Empty unless SimConfig::record_trace.

  const MessageStats* find(const std::string& name) const;
  const NodeStats* find_node(const std::string& name) const;
};

/// Run one simulation of `km` under `cfg`.
SimResult simulate(const KMatrix& km, const SimConfig& cfg);

}  // namespace symcan
