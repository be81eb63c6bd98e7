#include "symcan/model/event_model.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace symcan {

EventModel::EventModel(Duration period, Duration jitter, Duration dmin)
    : period_{period}, jitter_{jitter}, dmin_{dmin} {
  if (period <= Duration::zero()) throw std::invalid_argument("EventModel: period must be > 0");
  if (jitter < Duration::zero()) throw std::invalid_argument("EventModel: jitter must be >= 0");
  if (dmin < Duration::zero()) throw std::invalid_argument("EventModel: d_min must be >= 0");
  // d_min > P would contradict the long-term period; clamp to P, which is
  // the strongest statement d_min can make for a periodic source.
  dmin_ = min(dmin_, period_);
}

std::int64_t EventModel::max_burst_size() const {
  if (!is_bursty()) return 1;
  // Events of a burst arrive at d_min spacing. The burst ends once the
  // nominal schedule catches up: b = eta+ of an infinitesimal window,
  // which equals ceil(J/P) + 1 when unconstrained by d_min.
  return ceil_div(jitter_, period_) + 1;
}

std::int64_t EventModel::eta_minus(Duration dt) const {
  if (dt <= jitter_) return 0;
  return floor_div(dt - jitter_, period_);
}

Duration EventModel::delta_max(std::int64_t n) const {
  if (n <= 1) return Duration::zero();
  return (n - 1) * period_ + jitter_;
}

EventModel EventModel::with_added_jitter(Duration extra) const {
  assert(extra >= Duration::zero());
  return EventModel{period_, jitter_ + extra, dmin_};
}

bool EventModel::contains(const EventModel& other) const {
  // *this admits at least as many events in every window, and its minimum
  // guarantees are no stronger. Exact for this model class when checked at
  // the breakpoints of both step functions; we sample the union of
  // breakpoints of eta+ for the first k steps plus a long-horizon check of
  // the rates.
  if (period_ > other.period_) return false;  // lower long-term rate can't contain higher
  const std::int64_t k = std::max<std::int64_t>(other.max_burst_size() + 2, 8);
  for (std::int64_t n = 2; n <= k; ++n) {
    // other can squeeze n events into other.delta_min(n); *this must admit
    // that density: eta+ of this at that window must be >= n.
    const Duration w = other.delta_min(n);
    if (w == Duration::zero()) {
      if (dmin_ > Duration::zero()) return false;
      continue;
    }
    // Events at the two window ends count: n events span delta_min(n), so a
    // half-open window marginally larger holds all n.
    if (eta_plus(w + Duration::ns(1)) < n) return false;
  }
  return true;
}

std::string EventModel::to_string() const {
  std::ostringstream os;
  os << "EventModel(P=" << symcan::to_string(period_) << ", J=" << symcan::to_string(jitter_)
     << ", dmin=" << symcan::to_string(dmin_) << ")";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const EventModel& em) { return os << em.to_string(); }

}  // namespace symcan
