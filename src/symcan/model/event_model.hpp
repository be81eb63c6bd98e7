#pragma once

// Standard event models in the SymTA/S sense (Richter, "Compositional
// Scheduling Analysis Using Standard Event Models", PhD thesis, TU
// Braunschweig 2005; Richter & Ernst, DATE 2002).
//
// An event model abstracts the activation timing of a task or bus message
// by three parameters:
//
//   P      activation period (minimum inter-arrival for sporadic sources)
//   J      activation jitter: each event may deviate from its nominal
//          periodic release by up to J (release interval of event i is
//          [i*P, i*P + J])
//   d_min  minimum distance between any two consecutive events; relevant
//          when J >= P, where events can "burst" and d_min limits how
//          densely they can pile up
//
// From (P, J, d_min) the model derives the arrival curves eta+/eta- (max/
// min events in any time window) and the distance functions delta_min/
// delta_max (min/max span of n consecutive events). These four functions
// are the *only* interface the resource-local analyses need, which is what
// makes the approach compositional: an ECU's internal scheduling is fully
// summarized by the output event models of the messages it sends.

#include <cstdint>
#include <ostream>
#include <string>

#include "symcan/util/time.hpp"

namespace symcan {

/// eta+ of the event model (p, j, d) on raw parameters: the one kernel
/// behind EventModel::eta_plus and the packed solver columns, which
/// store the parameters through the EventModel getters so the model
/// invariants (p > 0, j >= 0, 0 <= d <= p) hold.
inline std::int64_t eta_plus(Duration dt, Duration p, Duration j, Duration d) {
  if (dt <= Duration::zero()) return 0;
  const std::int64_t periodic_bound = ceil_div(dt + j, p);
  if (d <= Duration::zero()) return periodic_bound;
  const std::int64_t burst_bound = ceil_div(dt, d) + 1;
  return periodic_bound < burst_bound ? periodic_bound : burst_bound;
}

/// delta_min of the event model (p, j, d) on raw parameters; same
/// contract as eta_plus() above.
inline Duration delta_min(std::int64_t n, Duration p, Duration j, Duration d) {
  if (n <= 1) return Duration::zero();
  return max(max((n - 1) * p - j, (n - 1) * d), Duration::zero());
}

/// Periodic-with-jitter(-and-burst) standard event model.
///
/// Invariants: period > 0; jitter >= 0; 0 <= min_distance <= period.
/// min_distance == 0 means "no extra burst limitation" and is normalized
/// to the most conservative interpretation (events may coincide).
class EventModel {
 public:
  /// Strictly periodic source.
  static EventModel periodic(Duration period) { return EventModel{period, Duration::zero(), period}; }

  /// Periodic source with release jitter.
  static EventModel periodic_jitter(Duration period, Duration jitter) {
    return EventModel{period, jitter, Duration::zero()};
  }

  /// Periodic source with jitter and a guaranteed minimum inter-event
  /// distance (the "periodic with burst" model).
  static EventModel periodic_burst(Duration period, Duration jitter, Duration min_distance) {
    return EventModel{period, jitter, min_distance};
  }

  /// Sporadic source: at most one event per `min_interarrival`.
  static EventModel sporadic(Duration min_interarrival) {
    return EventModel{min_interarrival, Duration::zero(), min_interarrival};
  }

  Duration period() const { return period_; }
  Duration jitter() const { return jitter_; }
  Duration min_distance() const { return dmin_; }

  /// True when jitter >= period, i.e. consecutive events can overtake
  /// their nominal slots and arrive back-to-back (at d_min spacing).
  bool is_bursty() const { return jitter_ >= period_; }

  /// Maximum number of events that can arrive back-to-back at d_min
  /// spacing before the long-term rate 1/P reasserts itself.
  std::int64_t max_burst_size() const;

  /// eta+(dt): maximum number of events in any half-open window of
  /// length dt. eta+(0) == 0; for dt > 0:
  ///   min( ceil((dt + J)/P), ceil(dt/d_min) + 1 )   (second term only
  /// when d_min > 0).
  std::int64_t eta_plus(Duration dt) const {
    return symcan::eta_plus(dt, period_, jitter_, dmin_);
  }

  /// eta-(dt): guaranteed minimum number of events in any window of
  /// length dt: floor(max(0, dt - J)/P).
  std::int64_t eta_minus(Duration dt) const;

  /// delta_min(n): minimum time span containing n consecutive events
  /// (n >= 2): max((n-1)*d_min, (n-1)*P - J). The pseudo-inverse of
  /// eta+. delta_min(0) = delta_min(1) = 0.
  Duration delta_min(std::int64_t n) const { return symcan::delta_min(n, period_, jitter_, dmin_); }

  /// delta_max(n): maximum time span of n consecutive events (n >= 2):
  /// (n-1)*P + J. delta_max(0) = delta_max(1) = 0.
  Duration delta_max(std::int64_t n) const;

  /// The model that results from adding response-time jitter `extra` on
  /// the way through a resource: J_out = J + extra (P, d_min unchanged
  /// except d_min can never exceed what the new jitter permits).
  EventModel with_added_jitter(Duration extra) const;

  /// Same source, jitter replaced.
  EventModel with_jitter(Duration jitter) const { return EventModel{period_, jitter, dmin_}; }

  /// Conservative refinement test: *this is a safe abstraction of `other`
  /// if every event trace admitted by `other` is also admitted by *this
  /// (checked via eta+ domination on a test-point set).
  bool contains(const EventModel& other) const;

  friend bool operator==(const EventModel&, const EventModel&) = default;
  friend std::ostream& operator<<(std::ostream& os, const EventModel& em);

  std::string to_string() const;

 private:
  EventModel(Duration period, Duration jitter, Duration dmin);

  Duration period_;
  Duration jitter_;
  Duration dmin_;
};

}  // namespace symcan
