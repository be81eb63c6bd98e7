#include "symcan/supplychain/refinement.hpp"

#include <algorithm>
#include <stdexcept>

namespace symcan {

RefinementSession::RefinementSession(KMatrix baseline, CanRtaConfig rta)
    : km_{std::move(baseline)}, rta_{std::move(rta)} {
  km_.validate();
  record("baseline");
}

void RefinementSession::commit_send_jitter(const std::string& message, Duration jitter) {
  if (jitter < Duration::zero())
    throw std::invalid_argument("commit_send_jitter: negative jitter");
  bool found = false;
  for (auto& m : km_.messages()) {
    if (m.name != message) continue;
    m.jitter = jitter;
    m.jitter_known = true;
    found = true;
  }
  if (!found) throw std::invalid_argument("commit_send_jitter: unknown message " + message);
  record("commit " + message + " J=" + to_string(jitter));
}

void RefinementSession::freeze_priority(const std::string& message) {
  if (km_.find_message(message) == nullptr)
    throw std::invalid_argument("freeze_priority: unknown message " + message);
  if (std::find(frozen_.begin(), frozen_.end(), message) == frozen_.end())
    frozen_.push_back(message);
  record("freeze " + message);
}

BusResult RefinementSession::analyze() const { return analysis::analyze_uncached(km_, rta_); }

Duration RefinementSession::slack_budget(const std::string& message) const {
  const BusResult res = analyze();
  for (const auto& m : res.messages)
    if (m.name == message) return m.slack();
  throw std::invalid_argument("slack_budget: unknown message " + message);
}

double RefinementSession::unknown_fraction() const {
  if (km_.size() == 0) return 0;
  std::size_t unknown = 0;
  for (const auto& m : km_.messages())
    if (!m.jitter_known) ++unknown;
  return static_cast<double>(unknown) / static_cast<double>(km_.size());
}

void RefinementSession::record(std::string what) {
  Step s;
  s.what = std::move(what);
  s.miss_count = analyze().miss_count();
  s.unknown_fraction = unknown_fraction();
  history_.push_back(std::move(s));
}

}  // namespace symcan
