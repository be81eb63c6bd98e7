#include "symcan/opt/nsga2.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "symcan/obs/obs.hpp"
#include "symcan/opt/permutation_ops.hpp"
#include "symcan/util/parallel.hpp"
#include "symcan/util/rng.hpp"

namespace symcan {

namespace {

bool dominates(const GaIndividual& a, const GaIndividual& b) {
  const bool le = a.misses <= b.misses && a.robustness_cost <= b.robustness_cost;
  const bool lt = a.misses < b.misses || a.robustness_cost < b.robustness_cost;
  return le && lt;
}

bool lex_better(const GaIndividual& a, const GaIndividual& b) {
  if (a.misses != b.misses) return a.misses < b.misses;
  return a.robustness_cost < b.robustness_cost;
}

/// Fast non-dominated sort: returns front index per individual (0 = best).
std::vector<int> nondominated_sort(const std::vector<GaIndividual>& pool) {
  const std::size_t n = pool.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<int> domination_count(n, 0);
  std::vector<int> front(n, -1);

  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (dominates(pool[i], pool[j]))
        dominated_by[i].push_back(j);
      else if (dominates(pool[j], pool[i]))
        ++domination_count[i];
    }
    if (domination_count[i] == 0) {
      front[i] = 0;
      current.push_back(i);
    }
  }
  int level = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t i : current) {
      for (const std::size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) {
          front[j] = level + 1;
          next.push_back(j);
        }
      }
    }
    ++level;
    current = std::move(next);
  }
  return front;
}

/// Crowding distance within one front (by index list).
std::vector<double> crowding(const std::vector<GaIndividual>& pool,
                             const std::vector<std::size_t>& front) {
  std::vector<double> dist(pool.size(), 0.0);
  const double inf = std::numeric_limits<double>::infinity();
  auto by_objective = [&](auto getter) {
    std::vector<std::size_t> order = front;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return getter(pool[a]) < getter(pool[b]);
    });
    if (order.size() < 2) {
      for (const std::size_t i : order) dist[i] = inf;
      return;
    }
    dist[order.front()] = inf;
    dist[order.back()] = inf;
    const double span = getter(pool[order.back()]) - getter(pool[order.front()]);
    if (span <= 0) return;
    for (std::size_t k = 1; k + 1 < order.size(); ++k)
      dist[order[k]] +=
          (getter(pool[order[k + 1]]) - getter(pool[order[k - 1]])) / span;
  };
  by_objective([](const GaIndividual& x) { return x.misses; });
  by_objective([](const GaIndividual& x) { return x.robustness_cost; });
  return dist;
}

}  // namespace

GaResult optimize_priorities_nsga2(const KMatrix& km, const GaConfig& cfg) {
  if (cfg.population < 4)
    throw std::invalid_argument("optimize_priorities_nsga2: population too small");
  if (cfg.eval_fractions.empty())
    throw std::invalid_argument("optimize_priorities_nsga2: need an evaluation fraction");

  const std::size_t n = km.size();
  const std::size_t mu = static_cast<std::size_t>(cfg.population);
  GaResult result;
  SYMCAN_OBS_SPAN("nsga2.optimize");

  // Parallel fitness evaluation with per-slot RNG streams — see ga.cpp;
  // the same scheme keeps NSGA-II's populations bit-identical at any
  // worker count.
  ParallelExecutor exec{cfg.parallelism};
  // Shared RTA memo, as in ga.cpp: bit-identical hits keep populations
  // deterministic at any worker count. One up-front validation covers
  // every ID-permuted variant the evaluations produce.
  km.validate();
  RtaCacheConfig cache_cfg = cfg.cache;
  cache_cfg.validate_input = false;
  IncrementalRta rta{cache_cfg};
  double last_eval_ms = 0;
  auto evaluate_all = [&](const std::vector<PriorityOrder>& orders) {
    result.evaluations += static_cast<int>(orders.size());
    const auto t0 = std::chrono::steady_clock::now();
    auto evaluated = exec.parallel_map_tiled(
        orders, [&](const PriorityOrder& o) { return evaluate_order(km, o, cfg, rta); });
    last_eval_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    if (obs::enabled()) {
      auto& m = obs::metrics();
      m.counter("nsga2.evaluations").add(static_cast<std::int64_t>(orders.size()));
      m.histogram("nsga2.eval_batch_ms").observe(last_eval_ms);
    }
    return evaluated;
  };

  std::vector<PriorityOrder> init = cfg.seeds;
  while (init.size() < mu) {
    Rng slot_rng{stream_seed(cfg.seed, 0, init.size())};
    init.push_back(opt_detail::random_order(n, slot_rng));
  }
  std::vector<GaIndividual> parents = evaluate_all(init);

  GaIndividual champion = parents.front();
  for (const auto& p : parents)
    if (lex_better(p, champion)) champion = p;

  for (int gen = 0; gen < cfg.generations; ++gen) {
    // Rank parents for tournament selection.
    const std::vector<int> rank = nondominated_sort(parents);
    std::vector<std::size_t> all(parents.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    const std::vector<double> crowd = crowding(parents, all);

    // Offspring: one RNG stream per slot, evaluated as one batch.
    const std::size_t offspring =
        2 * mu > parents.size() ? 2 * mu - parents.size() : 0;
    std::vector<PriorityOrder> children(offspring);
    for (std::size_t slot = 0; slot < children.size(); ++slot) {
      Rng slot_rng{stream_seed(cfg.seed, static_cast<std::uint64_t>(gen) + 1, slot)};
      auto tournament = [&]() -> const GaIndividual& {
        const std::size_t a = slot_rng.index(parents.size());
        const std::size_t b = slot_rng.index(parents.size());
        if (rank[a] != rank[b]) return parents[rank[a] < rank[b] ? a : b];
        return parents[crowd[a] > crowd[b] ? a : b];
      };
      PriorityOrder child;
      if (slot_rng.chance(cfg.crossover_rate))
        child = opt_detail::order_crossover(tournament().order, tournament().order, slot_rng);
      else
        child = tournament().order;
      if (slot_rng.chance(cfg.mutation_rate)) opt_detail::swap_mutation(child, slot_rng);
      children[slot] = std::move(child);
    }
    std::vector<GaIndividual> pool = parents;
    for (auto& c : evaluate_all(children)) pool.push_back(std::move(c));
    for (const auto& p : pool)
      if (lex_better(p, champion)) champion = p;

    // Environmental selection: fill by fronts, crowding-truncate the last.
    const std::vector<int> pool_rank = nondominated_sort(pool);
    std::vector<std::size_t> order(pool.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<std::size_t> everyone = order;
    const std::vector<double> pool_crowd = crowding(pool, everyone);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (pool_rank[a] != pool_rank[b]) return pool_rank[a] < pool_rank[b];
      return pool_crowd[a] > pool_crowd[b];
    });
    std::vector<GaIndividual> next;
    next.reserve(mu);
    for (std::size_t i = 0; i < mu && i < order.size(); ++i) next.push_back(pool[order[i]]);
    parents = std::move(next);
    result.best_misses_history.push_back(champion.misses);

    if (obs::enabled()) {
      obs::count("nsga2.generations");
      obs::metrics().series("nsga2.generations").append({
          {"generation", static_cast<double>(gen)},
          {"best_misses", champion.misses},
          {"best_robustness_cost", champion.robustness_cost},
          {"evaluations", static_cast<double>(result.evaluations)},
          {"eval_ms", last_eval_ms},
      });
    }
  }

  // Final front (dedup by objectives), champion guaranteed present.
  parents.push_back(champion);
  std::vector<GaIndividual> pareto;
  for (const auto& c : parents) {
    bool dominated = false;
    for (const auto& d : parents)
      if (dominates(d, c)) {
        dominated = true;
        break;
      }
    if (!dominated) pareto.push_back(c);
  }
  std::sort(pareto.begin(), pareto.end(), lex_better);
  pareto.erase(std::unique(pareto.begin(), pareto.end(),
                           [](const GaIndividual& a, const GaIndividual& b) {
                             return a.misses == b.misses &&
                                    a.robustness_cost == b.robustness_cost;
                           }),
               pareto.end());
  result.pareto = pareto;
  result.best = pareto.front();
  return result;
}

}  // namespace symcan
