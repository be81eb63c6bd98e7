#include "symcan/analysis/ecu_rta.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "symcan/model/event_model.hpp"
#include "symcan/obs/obs.hpp"

namespace symcan {

namespace {

template <typename F>
Duration fixed_point(Duration x0, Duration horizon, std::int64_t& iterations, F&& f) {
  Duration x = x0;
  for (;;) {
    ++iterations;
    const Duration next = f(x);
    if (next == x) return x;
    if (next > horizon) return Duration::infinite();
    assert(next > x);
    x = next;
  }
}

Duration demand(const Task& t) { return t.wcet + t.os_overhead; }

}  // namespace

bool EcuResult::all_schedulable() const { return miss_count() == 0; }

std::size_t EcuResult::miss_count() const {
  std::size_t n = 0;
  for (const auto& t : tasks)
    if (!t.schedulable) ++n;
  return n;
}

EcuRta::EcuRta(std::vector<Task> tasks, Duration horizon)
    : tasks_{std::move(tasks)}, horizon_{horizon} {
  for (const auto& t : tasks_) {
    if (t.name.empty()) throw std::invalid_argument("EcuRta: task with empty name");
    if (t.wcet < t.bcet)
      throw std::invalid_argument("EcuRta: task '" + t.name + "' has wcet < bcet");
    if (t.wcet <= Duration::zero())
      throw std::invalid_argument("EcuRta: task '" + t.name + "' has non-positive wcet");
  }
  // Unique priorities within the interrupt class and within the task
  // classes (preemptive and cooperative tasks share one priority space).
  auto check_unique = [&](bool interrupts) {
    std::vector<int> prios;
    for (const auto& t : tasks_)
      if ((t.sched == SchedClass::kInterrupt) == interrupts) prios.push_back(t.priority);
    std::sort(prios.begin(), prios.end());
    if (std::adjacent_find(prios.begin(), prios.end()) != prios.end())
      throw std::invalid_argument("EcuRta: duplicate priorities");
  };
  check_unique(true);
  check_unique(false);
}

bool EcuRta::preempts(const Task& hp, const Task& lp) const {
  // Interrupts beat all tasks; among same class-space, lower number wins.
  const bool hp_isr = hp.sched == SchedClass::kInterrupt;
  const bool lp_isr = lp.sched == SchedClass::kInterrupt;
  if (hp_isr && !lp_isr) return true;
  if (!hp_isr && lp_isr) return false;
  return hp.priority < lp.priority;
}

Duration EcuRta::blocking_for(std::size_t index) const {
  // Longest non-preemptible segment of any lower-priority cooperative
  // task. Interrupts can also be held off by cooperative segments on
  // typical OSEK implementations only if interrupts are masked; we assume
  // unmasked ISRs (no blocking for ISRs).
  const Task& me = tasks_[index];
  if (me.sched == SchedClass::kInterrupt) return Duration::zero();
  Duration b = Duration::zero();
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    if (j == index) continue;
    const Task& other = tasks_[j];
    if (other.sched != SchedClass::kCooperativeTask) continue;
    if (!preempts(me, other)) continue;  // only lower-priority tasks block
    b = max(b, other.effective_segment());
  }
  return b;
}

TaskResult EcuRta::analyze_task(std::size_t index) const {
  if (index >= tasks_.size()) throw std::out_of_range("EcuRta::analyze_task: bad index");
  const Task& me = tasks_[index];

  TaskResult res;
  res.name = me.name;
  res.bcrt = me.bcet;
  res.deadline = me.deadline;

  const Duration blocking = blocking_for(index);
  res.blocking = blocking;
  const Duration c_me = demand(me);

  std::vector<std::pair<EventModel, Duration>> hp;
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    if (j == index) continue;
    if (preempts(tasks_[j], me)) hp.emplace_back(tasks_[j].activation, demand(tasks_[j]));
  }
  const auto hp_interference = [&](Duration w) {
    Duration total = Duration::zero();
    for (const auto& [em, c] : hp) total += em.eta_plus(w) * c;
    return total;
  };

  const EventModel& em_me = me.activation;
  std::int64_t iterations = 0;
  const Duration busy = fixed_point(blocking + c_me, horizon_, iterations, [&](Duration t) {
    return blocking + em_me.eta_plus(t) * c_me + hp_interference(t);
  });
  res.fixedpoint_iterations = iterations;
  if (busy.is_infinite()) {
    res.diverged = true;
    res.schedulable = false;
    res.busy_period = Duration::infinite();
    return res;
  }
  res.busy_period = busy;

  const std::int64_t q_max = em_me.eta_plus(busy);
  res.instances = q_max;
  Duration wcrt = Duration::zero();
  for (std::int64_t q = 0; q < q_max; ++q) {
    // Preemptive completion-time analysis: instance q completes when
    // blocking + (q+1) own demands + all higher-priority demand released
    // up to that point has been served.
    const Duration w =
        fixed_point(blocking + (q + 1) * c_me, horizon_, iterations, [&](Duration t) {
          return blocking + (q + 1) * c_me + hp_interference(t);
        });
    res.fixedpoint_iterations = iterations;
    if (w.is_infinite()) {
      res.diverged = true;
      res.schedulable = false;
      res.wcrt = Duration::infinite();
      return res;
    }
    wcrt = max(wcrt, w - em_me.delta_min(q + 1));
    if (w <= em_me.delta_min(q + 2)) break;  // busy period drained
  }
  res.wcrt = wcrt;
  res.schedulable = res.deadline.is_infinite() ? true : wcrt <= res.deadline;
  return res;
}

EcuResult EcuRta::analyze() const {
  SYMCAN_OBS_SPAN("rta.ecu.analyze");
  EcuResult out;
  out.tasks.reserve(tasks_.size());
  double u = 0;
  for (const auto& t : tasks_) u += demand(t).as_s() / t.activation.period().as_s();
  out.utilization = u;

  // Columnar whole-ECU path: resolve every task's demand, blocking and
  // preemptor set into contiguous columns once, then run each fixed
  // point allocation-free. Bit-identical to the analyze_task() loop —
  // hp rows stay in task-index order, exactly as analyze_task() collects
  // them (the layout-differential suite pins the equality).
  const std::size_t n = tasks_.size();
  std::vector<Duration> cost(n), blocking(n), act_p(n), act_j(n), act_d(n);
  std::vector<std::size_t> hp_begin;
  hp_begin.reserve(n + 1);
  std::vector<Duration> hp_p, hp_j, hp_d, hp_cost;
  for (std::size_t i = 0; i < n; ++i) {
    cost[i] = demand(tasks_[i]);
    blocking[i] = blocking_for(i);
    act_p[i] = tasks_[i].activation.period();
    act_j[i] = tasks_[i].activation.jitter();
    act_d[i] = tasks_[i].activation.min_distance();
    hp_begin.push_back(hp_p.size());
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i) continue;
      if (!preempts(tasks_[k], tasks_[i])) continue;
      hp_p.push_back(tasks_[k].activation.period());
      hp_j.push_back(tasks_[k].activation.jitter());
      hp_d.push_back(tasks_[k].activation.min_distance());
      hp_cost.push_back(demand(tasks_[k]));
    }
  }
  hp_begin.push_back(hp_p.size());

  for (std::size_t i = 0; i < n; ++i) {
    const Task& me = tasks_[i];
    TaskResult res;
    res.name = me.name;
    res.bcrt = me.bcet;
    res.deadline = me.deadline;
    res.blocking = blocking[i];
    const Duration b = blocking[i];
    const Duration c_me = cost[i];
    const std::size_t lo = hp_begin[i];
    const std::size_t hi = hp_begin[i + 1];
    const auto hp_interference = [&](Duration w) {
      Duration total = Duration::zero();
      for (std::size_t k = lo; k < hi; ++k)
        total += eta_plus(w, hp_p[k], hp_j[k], hp_d[k]) * hp_cost[k];
      return total;
    };

    std::int64_t iterations = 0;
    const Duration busy = fixed_point(b + c_me, horizon_, iterations, [&](Duration t) {
      return b + eta_plus(t, act_p[i], act_j[i], act_d[i]) * c_me +
             hp_interference(t);
    });
    res.fixedpoint_iterations = iterations;
    if (busy.is_infinite()) {
      res.diverged = true;
      res.schedulable = false;
      res.busy_period = Duration::infinite();
      out.tasks.push_back(std::move(res));
      continue;
    }
    res.busy_period = busy;

    const std::int64_t q_max = eta_plus(busy, act_p[i], act_j[i], act_d[i]);
    res.instances = q_max;
    Duration wcrt = Duration::zero();
    bool window_diverged = false;
    for (std::int64_t q = 0; q < q_max; ++q) {
      const Duration w = fixed_point(b + (q + 1) * c_me, horizon_, iterations, [&](Duration t) {
        return b + (q + 1) * c_me + hp_interference(t);
      });
      res.fixedpoint_iterations = iterations;
      if (w.is_infinite()) {
        res.diverged = true;
        res.schedulable = false;
        res.wcrt = Duration::infinite();
        window_diverged = true;
        break;
      }
      wcrt = max(wcrt, w - delta_min(q + 1, act_p[i], act_j[i], act_d[i]));
      if (w <= delta_min(q + 2, act_p[i], act_j[i], act_d[i])) break;
    }
    if (!window_diverged) {
      res.wcrt = wcrt;
      res.schedulable = res.deadline.is_infinite() ? true : wcrt <= res.deadline;
    }
    out.tasks.push_back(std::move(res));
  }
  if (obs::enabled()) {
    auto& m = obs::metrics();
    std::int64_t total_iters = 0;
    std::int64_t diverged = 0;
    auto& per_task = m.histogram("rta.ecu.iterations_per_task");
    for (const auto& r : out.tasks) {
      total_iters += r.fixedpoint_iterations;
      diverged += r.diverged ? 1 : 0;
      per_task.observe(static_cast<double>(r.fixedpoint_iterations));
    }
    m.counter("rta.ecu.analyses").add(1);
    m.counter("rta.ecu.tasks").add(static_cast<std::int64_t>(out.tasks.size()));
    m.counter("rta.ecu.fixedpoint_iterations").add(total_iters);
    m.counter("rta.ecu.diverged").add(diverged);
  }
  return out;
}

}  // namespace symcan
