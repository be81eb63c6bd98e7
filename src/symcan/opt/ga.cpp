#include "symcan/opt/ga.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "symcan/obs/obs.hpp"
#include "symcan/opt/permutation_ops.hpp"
#include "symcan/util/parallel.hpp"
#include "symcan/util/rng.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {

namespace {

bool dominates(const GaIndividual& a, const GaIndividual& b) {
  const bool le = a.misses <= b.misses && a.robustness_cost <= b.robustness_cost;
  const bool lt = a.misses < b.misses || a.robustness_cost < b.robustness_cost;
  return le && lt;
}

double objective_distance(const GaIndividual& a, const GaIndividual& b) {
  const double d0 = a.misses - b.misses;
  const double d1 = a.robustness_cost - b.robustness_cost;
  return std::sqrt(d0 * d0 + d1 * d1);
}

/// SPEA2 fitness: raw dominance strength plus a k-nearest-neighbour
/// density term. Lower is better; nondominated individuals have F < 1.
std::vector<double> spea2_fitness(const std::vector<GaIndividual>& pool) {
  const std::size_t n = pool.size();
  std::vector<int> strength(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && dominates(pool[i], pool[j])) ++strength[i];

  std::vector<double> fitness(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double raw = 0;
    for (std::size_t j = 0; j < n; ++j)
      if (i != j && dominates(pool[j], pool[i])) raw += strength[j];
    // Density: 1 / (distance to k-th neighbour + 2).
    std::vector<double> dist;
    dist.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) dist.push_back(objective_distance(pool[i], pool[j]));
    const std::size_t k = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    std::nth_element(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k), dist.end());
    const double density = 1.0 / (dist[k] + 2.0);
    fitness[i] = raw + density;
  }
  return fitness;
}

bool lex_better(const GaIndividual& a, const GaIndividual& b) {
  if (a.misses != b.misses) return a.misses < b.misses;
  return a.robustness_cost < b.robustness_cost;
}

}  // namespace

GaIndividual evaluate_order(const KMatrix& km, const PriorityOrder& order, const GaConfig& cfg,
                            IncrementalRta& rta) {
  GaIndividual ind;
  ind.order = order;
  double misses = 0;
  double cost = 0;
  std::size_t samples = 0;
  // Lexicographic weighting: misses at eval_fractions[0] outweigh any
  // number of misses at later (stress) fractions.
  double weight = 1.0;
  for (std::size_t k = 1; k < cfg.eval_fractions.size(); ++k) weight *= 1000.0;
  // Per-worker variant buffer: the reorder copy-assigns into it, so the
  // message strings and vectors keep their heap blocks across the
  // thousands of evaluations a GA run makes on this thread.
  static thread_local KMatrix variant{"", BitTiming{500'000}};
  for (const double f : cfg.eval_fractions) {
    // One matrix copy per evaluation point — reorder and jitter-edit in
    // the reused buffer rather than allocating a fresh matrix. The
    // ID rewrite preserves validity, so no re-validation here; callers
    // validate `km` once (CanRta/IncrementalRta do, and the optimizers
    // validate up front before turning per-call validation off).
    apply_priority_order_into(km, order, variant);
    assume_jitter_fraction(variant, f, cfg.override_known);
    // The config (and its ErrorModel shared_ptr) stays by const reference
    // all the way down — no per-individual CanRtaConfig copies on the hot
    // path, and cached verdicts short-circuit the fixed point entirely.
    const BusResult res = rta.analyze(variant, cfg.rta);
    misses += weight * static_cast<double>(res.miss_count());
    weight /= 1000.0;
    for (const auto& m : res.messages) {
      double ratio = cfg.ratio_cap;
      if (!m.wcrt.is_infinite() && !m.deadline.is_infinite() && m.deadline > Duration::zero()) {
        ratio = std::min(cfg.ratio_cap, static_cast<double>(m.wcrt.count_ns()) /
                                            static_cast<double>(m.deadline.count_ns()));
      }
      cost += ratio;
      ++samples;
    }
  }
  ind.misses = misses;
  ind.robustness_cost = samples > 0 ? cost / static_cast<double>(samples) : 0;
  return ind;
}

GaIndividual evaluate_order(const KMatrix& km, const PriorityOrder& order, const GaConfig& cfg) {
  IncrementalRta scratch{RtaCacheConfig{false, 1}};
  return evaluate_order(km, order, cfg, scratch);
}

GaResult optimize_priorities(const KMatrix& km, const GaConfig& cfg) {
  if (cfg.population < 4) throw std::invalid_argument("optimize_priorities: population too small");
  if (cfg.archive < 2) throw std::invalid_argument("optimize_priorities: archive too small");
  if (cfg.eval_fractions.empty())
    throw std::invalid_argument("optimize_priorities: need at least one evaluation fraction");

  const std::size_t n = km.size();
  GaResult result;
  SYMCAN_OBS_SPAN("ga.optimize");

  // All fitness evaluation — the expensive part, each one a full RTA per
  // eval fraction — fans out over the pool; variation stays serial and
  // cheap, with every individual drawing from its own (seed, generation,
  // slot) stream so results never depend on evaluation order.
  ParallelExecutor exec{cfg.parallelism};
  // One memo shared by all workers across all generations: neighbouring
  // candidates differ in a few swapped ranks, so most per-message
  // contexts recur and only the edited span re-solves. Safe because a
  // cache hit is bit-identical to a fresh solve. Validate the input once
  // here instead of per evaluation — every variant is an ID permutation
  // of this matrix, which preserves validity.
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
      m.counter("ga.evaluations").add(static_cast<std::int64_t>(orders.size()));
      m.histogram("ga.eval_batch_ms").observe(last_eval_ms);
    }
    return evaluated;
  };

  // Initial population (generation 0): seeds first, then random
  // permutations, one stream per slot.
  std::vector<PriorityOrder> init = cfg.seeds;
  while (init.size() < static_cast<std::size_t>(cfg.population)) {
    Rng slot_rng{stream_seed(cfg.seed, 0, init.size())};
    init.push_back(opt_detail::random_order(n, slot_rng));
  }
  std::vector<GaIndividual> pop = evaluate_all(init);

  // Elitism: the lexicographically best individual ever evaluated is
  // re-injected into every archive so density truncation can never lose
  // the champion (SPEA2 boundary preservation, simplified).
  GaIndividual champion = pop.front();
  auto update_champion = [&](const std::vector<GaIndividual>& xs) {
    for (const auto& x : xs)
      if (lex_better(x, champion)) champion = x;
  };
  update_champion(pop);

  std::vector<GaIndividual> archive;
  for (int gen = 0; gen < cfg.generations; ++gen) {
    // Environmental selection on population + archive.
    std::vector<GaIndividual> pool = pop;
    pool.insert(pool.end(), archive.begin(), archive.end());
    const std::vector<double> fitness = spea2_fitness(pool);

    std::vector<std::size_t> idx(pool.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) { return fitness[a] < fitness[b]; });
    archive.clear();
    for (std::size_t i = 0; i < idx.size() && archive.size() < static_cast<std::size_t>(cfg.archive);
         ++i)
      archive.push_back(pool[idx[i]]);

    bool champion_in_archive = false;
    for (const auto& a : archive)
      champion_in_archive = champion_in_archive ||
                            (a.misses == champion.misses &&
                             a.robustness_cost == champion.robustness_cost);
    if (!champion_in_archive) archive.back() = champion;

    result.best_misses_history.push_back(champion.misses);

    // Variation: binary tournament on archive fitness rank (archive is
    // sorted by fitness already). One RNG stream per offspring slot.
    std::vector<PriorityOrder> children(static_cast<std::size_t>(cfg.population));
    for (std::size_t slot = 0; slot < children.size(); ++slot) {
      Rng slot_rng{stream_seed(cfg.seed, static_cast<std::uint64_t>(gen) + 1, slot)};
      auto tournament = [&]() -> const GaIndividual& {
        const std::size_t a = slot_rng.index(archive.size());
        const std::size_t b = slot_rng.index(archive.size());
        return archive[std::min(a, b)];
      };
      PriorityOrder child;
      if (slot_rng.chance(cfg.crossover_rate))
        child = opt_detail::order_crossover(tournament().order, tournament().order, slot_rng);
      else
        child = tournament().order;
      if (slot_rng.chance(cfg.mutation_rate)) opt_detail::swap_mutation(child, slot_rng);
      children[slot] = std::move(child);
    }
    pop = evaluate_all(children);
    update_champion(pop);

    if (obs::enabled()) {
      obs::count("ga.generations");
      obs::metrics().series("ga.generations").append({
          {"generation", static_cast<double>(gen)},
          {"best_misses", champion.misses},
          {"best_robustness_cost", champion.robustness_cost},
          {"evaluations", static_cast<double>(result.evaluations)},
          {"eval_ms", last_eval_ms},
      });
    }
  }

  // Final archive update and champion extraction.
  std::vector<GaIndividual> pool = pop;
  pool.insert(pool.end(), archive.begin(), archive.end());
  std::vector<GaIndividual> pareto;
  for (const auto& c : pool) {
    bool dominated = false;
    for (const auto& d : pool)
      if (dominates(d, c)) {
        dominated = true;
        break;
      }
    if (!dominated) pareto.push_back(c);
  }
  // Dedup identical objective pairs to keep the front readable.
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
