#include "symcan/serve/captain.hpp"

#include <stdexcept>

#include "symcan/obs/obs.hpp"

namespace symcan::serve {

const char* to_string(ServeMode mode) {
  switch (mode) {
    case ServeMode::kNoOptimize: return "no-optimize";
    case ServeMode::kEssential: return "essential";
    case ServeMode::kFull: break;
  }
  return "full";
}

Captain::Captain(CaptainConfig cfg) : cfg_{cfg} {
  if (cfg_.degrade_after <= 0 || cfg_.recover_after <= 0)
    throw std::invalid_argument("captain streak thresholds must be positive");
}

bool Captain::admits(RequestKind kind) const {
  switch (mode()) {
    case ServeMode::kFull: return true;
    case ServeMode::kNoOptimize: return kind != RequestKind::kOptimize;
    case ServeMode::kEssential:
      return kind != RequestKind::kOptimize && kind != RequestKind::kExplain &&
             kind != RequestKind::kProb;
  }
  return true;
}

void Captain::observe(PressureState pressure) {
  std::lock_guard<std::mutex> lock(observe_m_);
  switch (pressure) {
    case PressureState::kSaturated:
      ok_streak_ = 0;
      if (++saturated_streak_ >= cfg_.degrade_after) {
        saturated_streak_ = 0;
        if (mode() == ServeMode::kFull) set_mode(ServeMode::kNoOptimize);
        else if (mode() == ServeMode::kNoOptimize) set_mode(ServeMode::kEssential);
      }
      break;
    case PressureState::kOk:
      saturated_streak_ = 0;
      if (++ok_streak_ >= cfg_.recover_after) {
        ok_streak_ = 0;
        if (mode() == ServeMode::kEssential) set_mode(ServeMode::kNoOptimize);
        else if (mode() == ServeMode::kNoOptimize) set_mode(ServeMode::kFull);
      }
      break;
    case PressureState::kElevated:
      // Hold: elevated is neither evidence of overload nor of recovery.
      saturated_streak_ = 0;
      ok_streak_ = 0;
      break;
  }
}

void Captain::record_shed(RequestKind kind) {
  if (kind == RequestKind::kOptimize) {
    shed_optimize_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.captain.shed.optimize");
    obs::instant("serve.captain.shed.optimize");
  } else if (kind == RequestKind::kExplain) {
    shed_explain_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.captain.shed.explain");
    obs::instant("serve.captain.shed.explain");
  } else if (kind == RequestKind::kProb) {
    shed_prob_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.captain.shed.prob");
    obs::instant("serve.captain.shed.prob");
  }
}

void Captain::set_mode(ServeMode next) {
  mode_.store(next, std::memory_order_relaxed);
  mode_changes_.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve.captain.mode_changes");
  switch (next) {
    case ServeMode::kFull: obs::instant("serve.captain.mode.full"); break;
    case ServeMode::kNoOptimize: obs::instant("serve.captain.mode.no-optimize"); break;
    case ServeMode::kEssential: obs::instant("serve.captain.mode.essential"); break;
  }
}

}  // namespace symcan::serve
