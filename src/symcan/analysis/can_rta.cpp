#include "symcan/analysis/can_rta.hpp"

#include <stdexcept>

#include "symcan/analysis/columnar.hpp"
#include "symcan/obs/obs.hpp"

namespace symcan {

std::size_t BusResult::miss_count() const {
  std::size_t n = 0;
  for (const auto& m : messages)
    if (!m.schedulable) ++n;
  return n;
}

double BusResult::miss_fraction() const {
  if (messages.empty()) return 0;
  return static_cast<double>(miss_count()) / static_cast<double>(messages.size());
}

void flush_rta_observations(const BusResult& out) {
  if (!obs::enabled()) return;
  // Convergence cost was counted locally per message; flush it in one
  // pass so the fixed-point loops themselves stay atomic-free.
  auto& m = obs::metrics();
  std::int64_t total_iters = 0;
  std::int64_t diverged = 0;
  auto& per_message = m.histogram("rta.can.iterations_per_message");
  for (const auto& r : out.messages) {
    total_iters += r.fixedpoint_iterations;
    diverged += r.diverged ? 1 : 0;
    per_message.observe(static_cast<double>(r.fixedpoint_iterations));
  }
  m.counter("rta.can.analyses").add(1);
  m.counter("rta.can.messages").add(static_cast<std::int64_t>(out.messages.size()));
  m.counter("rta.can.fixedpoint_iterations").add(total_iters);
  m.counter("rta.can.diverged").add(diverged);
}

namespace {

void check_inputs(const KMatrix& km, const CanRtaConfig& cfg) {
  if (!cfg.errors) throw std::invalid_argument("CanRta: error model must not be null");
  km.validate();
}

}  // namespace

CanRta::CanRta(KMatrix km, CanRtaConfig cfg) : km_{std::move(km)}, cfg_{std::move(cfg)} {
  check_inputs(km_, cfg_);
}

MessageResult CanRta::analyze_message(std::size_t index) const {
  const std::size_t row[] = {index};
  return std::move(analysis::solve_rows(km_, cfg_, row).front());
}

BusResult CanRta::analyze() const { return analysis::analyze_bus(km_, cfg_); }

namespace analysis {

BusResult analyze_bus(const KMatrix& km, const CanRtaConfig& cfg) {
  SYMCAN_OBS_SPAN("rta.can.analyze");
  BusResult out;
  out.utilization = km.utilization(cfg.worst_case_stuffing);
  out.messages = solve_rows(km, cfg);
  flush_rta_observations(out);
  return out;
}

BusResult analyze_uncached(const KMatrix& km, const CanRtaConfig& cfg) {
  check_inputs(km, cfg);
  return analyze_bus(km, cfg);
}

}  // namespace analysis

}  // namespace symcan
