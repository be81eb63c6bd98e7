#include "symcan/core/engine.hpp"

#include <stdexcept>

#include "symcan/obs/obs.hpp"

namespace symcan {

bool SystemResult::all_schedulable() const {
  for (const auto& [name, b] : buses)
    if (!b.all_schedulable()) return false;
  for (const auto& [name, e] : ecus)
    if (!e.all_schedulable()) return false;
  for (const auto& p : paths)
    if (!p.met) return false;
  return true;
}

Engine::Engine(System sys, EngineConfig cfg) : sys_{std::move(sys)}, cfg_{std::move(cfg)} {
  sys_.validate();
  buses_ = sys_.buses();
  ecus_ = sys_.ecus();
  // Seed path-driven elements: the head of every path is activated by the
  // path source; downstream elements start from the same model with zero
  // accumulated response jitter (optimistic start of the monotone
  // iteration).
  for (const auto& p : sys_.paths()) {
    EventModel m = p.source;
    for (const auto& el : p.elements) {
      if (el.kind == PathElement::Kind::kMessage) {
        for (auto& msg : buses_.at(el.resource).messages()) {
          if (msg.name != el.item) continue;
          msg.period = m.period();
          msg.jitter = m.jitter();
          msg.min_distance = m.min_distance();
        }
      } else {
        for (auto& t : ecus_.at(el.resource)) {
          if (t.name != el.item) continue;
          t.activation = m;
        }
      }
    }
  }
}

SystemResult Engine::analyze_all_resources() {
  SYMCAN_OBS_SPAN("engine.analyze_resources");
  SystemResult r;
  for (const auto& [name, km] : buses_)
    r.buses.emplace(name, analysis::analyze_uncached(km, cfg_.bus));
  for (const auto& [name, tasks] : ecus_) {
    if (tasks.empty()) {
      r.ecus.emplace(name, EcuResult{});
      continue;
    }
    r.ecus.emplace(name, EcuRta{tasks, cfg_.ecu_horizon}.analyze());
  }
  return r;
}

Engine::ElementState Engine::lookup(const SystemResult& r, const PathElement& el) const {
  ElementState s;
  if (el.kind == PathElement::Kind::kMessage) {
    const auto& bus_result = r.buses.at(el.resource);
    for (const auto& m : bus_result.messages)
      if (m.name == el.item) {
        s.wcrt = m.wcrt;
        s.bcrt = m.bcrt;
        return s;
      }
  } else {
    const auto& ecu_result = r.ecus.at(el.resource);
    for (const auto& t : ecu_result.tasks)
      if (t.name == el.item) {
        s.wcrt = t.wcrt;
        s.bcrt = t.bcrt;
        return s;
      }
  }
  throw std::logic_error("Engine: path element not found in results (validate() missed it)");
}

bool Engine::propagate(const SystemResult& r) {
  SYMCAN_OBS_SPAN("engine.propagate");
  bool changed = false;
  for (const auto& p : sys_.paths()) {
    EventModel m = p.source;
    for (std::size_t i = 0; i + 1 < p.elements.size(); ++i) {
      const ElementState s = lookup(r, p.elements[i]);
      if (s.wcrt.is_infinite()) {
        // Upstream diverged: pin the successor at a divergent model by
        // keeping the current one; global convergence flag will be false
        // because the resource result stays unschedulable.
        break;
      }
      m = m.with_added_jitter(s.wcrt - s.bcrt);
      const PathElement& next = p.elements[i + 1];
      if (next.kind == PathElement::Kind::kMessage) {
        for (auto& msg : buses_.at(next.resource).messages()) {
          if (msg.name != next.item) continue;
          if (msg.jitter != m.jitter() || msg.period != m.period()) {
            msg.period = m.period();
            msg.jitter = m.jitter();
            msg.min_distance = m.min_distance();
            changed = true;
          }
        }
      } else {
        for (auto& t : ecus_.at(next.resource)) {
          if (t.name != next.item) continue;
          if (!(t.activation == m)) {
            t.activation = m;
            changed = true;
          }
        }
      }
    }
  }
  return changed;
}

SystemResult Engine::analyze() {
  SYMCAN_OBS_SPAN("engine.analyze");
  SystemResult result;
  for (int iter = 1; iter <= cfg_.max_iterations; ++iter) {
    result = analyze_all_resources();
    result.iterations = iter;
    if (!propagate(result)) {
      result.converged = true;
      break;
    }
  }
  if (obs::enabled()) {
    auto& m = obs::metrics();
    m.counter("engine.analyses").add(1);
    m.counter("engine.iterations").add(result.iterations);
    if (!result.converged) m.counter("engine.unconverged").add(1);
  }
  // End-to-end path latencies from the final resource results.
  for (const auto& p : sys_.paths()) {
    PathResult pr;
    pr.name = p.name;
    pr.deadline = p.deadline;
    Duration lat_max = Duration::zero();
    Duration lat_min = Duration::zero();
    bool diverged = false;
    for (const auto& el : p.elements) {
      const ElementState s = lookup(result, el);
      if (s.wcrt.is_infinite()) diverged = true;
      if (!diverged) lat_max += s.wcrt;
      lat_min += s.bcrt;
    }
    pr.latency_max = diverged ? Duration::infinite() : lat_max;
    pr.latency_min = lat_min;
    pr.met = !diverged && result.converged &&
             (pr.deadline.is_infinite() || pr.latency_max <= pr.deadline);
    result.paths.push_back(pr);
  }
  return result;
}

}  // namespace symcan
