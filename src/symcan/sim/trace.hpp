#pragma once

// Simulation trace recording and ASCII rendering (paper Figure 2:
// "Message Jitters, Burst, and Errors Result in Complex Communication
// Patterns").

#include <cstdint>
#include <string>
#include <vector>

#include "symcan/util/time.hpp"

namespace symcan {

enum class TraceEventType : std::uint8_t {
  kRelease,     ///< Message instance queued at its sender.
  kTxStart,     ///< Frame won arbitration, transmission begins.
  kTxEnd,       ///< Frame completed successfully.
  kError,       ///< Bus error corrupted the frame in transmission.
  kRetransmit,  ///< Corrupted frame re-entered arbitration.
  kLoss,        ///< Instance overwritten in the sender's buffer.
};

const char* to_string(TraceEventType t);

struct TraceEvent {
  Duration time = Duration::zero();
  TraceEventType type = TraceEventType::kRelease;
  std::string message;    ///< Message name.
  std::int64_t instance = 0;  ///< Activation index of that message.
};

/// Append-only event log with a textual Gantt renderer.
class Trace {
 public:
  void record(Duration time, TraceEventType type, const std::string& message,
              std::int64_t instance);
  void record(Duration time, TraceEventType type, std::string&& message, std::int64_t instance);
  void reserve(std::size_t events) { events_.reserve(events); }

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Drops all events but retains the allocated capacity, so a Trace
  /// reused across simulation runs stops allocating once it has seen the
  /// largest run (std::vector::clear() never shrinks).
  void clear() { events_.clear(); }

  /// Plain chronological listing.
  std::string to_text() const;

  /// ASCII Gantt chart: one row per message, one column per `resolution`
  /// of simulated time, covering [from, to). Transmission is '=', error
  /// recovery '!', queued-but-waiting '.', loss 'X', idle ' '.
  std::string to_gantt(Duration from, Duration to, Duration resolution) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace symcan
