#include "symcan/supplychain/budget.hpp"

#include <optional>
#include <stdexcept>

#include "symcan/analysis/provenance.hpp"
#include "symcan/util/search.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {

Duration max_single_jitter(KMatrix km, const CanRtaConfig& rta, std::size_t index,
                           Duration base, Duration resolution) {
  CanMessage& m = km.messages().at(index);
  return largest_feasible(base, m.period, resolution, [&](Duration j) {
    m.jitter = j;
    return analysis::analyze_uncached(km, rta).all_schedulable();
  });
}

BudgetReport allocate_jitter_budgets(const KMatrix& km, const CanRtaConfig& rta,
                                     double search_tolerance) {
  km.validate();
  KMatrix uniform = km;
  const auto ok = [&](double fraction) {
    assume_jitter_fraction(uniform, fraction, true);
    return analysis::analyze_uncached(uniform, rta).all_schedulable();
  };
  if (!ok(0.0))
    throw std::invalid_argument(
        "allocate_jitter_budgets: matrix not schedulable even at zero jitter");

  BudgetReport report;
  // Joint budget: max-min fair uniform fraction.
  report.joint_fraction = largest_feasible(0.0, 1.0, search_tolerance, ok);
  assume_jitter_fraction(uniform, report.joint_fraction, true);
  for (const CanMessage& m : uniform.messages()) report.joint_budget.push_back(m.jitter);

  // Individual bonus: one message at a time above the joint base.
  report.individual_budget.resize(km.size());
  for (std::size_t i = 0; i < km.size(); ++i)
    report.individual_budget[i] =
        max_single_jitter(uniform, rta, i, report.joint_budget[i], Duration::us(50));
  return report;
}

Duration trade_budget(const KMatrix& km, const CanRtaConfig& rta, const BudgetReport& budgets,
                      const std::string& from, Duration committed, const std::string& to) {
  const std::optional<std::size_t> from_i = analysis::find_message(km, from);
  const std::optional<std::size_t> to_i = analysis::find_message(km, to);
  if (!from_i) throw std::invalid_argument("trade_budget: unknown message " + from);
  if (!to_i) throw std::invalid_argument("trade_budget: unknown message " + to);
  if (*from_i == *to_i) throw std::invalid_argument("trade_budget: cannot trade with oneself");
  if (committed > budgets.joint_budget[*from_i])
    throw std::invalid_argument("trade_budget: commitment exceeds " + from + "'s joint budget");

  KMatrix traded = km;
  for (std::size_t i = 0; i < traded.size(); ++i)
    traded.messages()[i].jitter = budgets.joint_budget[i];
  traded.messages()[*from_i].jitter = committed;
  return max_single_jitter(std::move(traded), rta, *to_i, budgets.joint_budget[*to_i],
                           Duration::us(50));
}

}  // namespace symcan
