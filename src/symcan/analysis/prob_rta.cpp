#include "symcan/analysis/prob_rta.hpp"

#include <algorithm>
#include <utility>
#include <stdexcept>

#include "symcan/can/kmatrix.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/util/parallel.hpp"

namespace symcan::analysis {

namespace {

constexpr std::int64_t kPpmOne = 1'000'000;

/// 128-bit accumulator for weight products: each product is < 2^64, but
/// sums of products need the headroom. __extension__ silences -Wpedantic
/// (the toolchain targets x86-64/aarch64 gcc/clang, which all have it).
__extension__ typedef unsigned __int128 u128;

/// Binomial(n, p) into the zero weights of atoms[0..n], by iterated
/// Bernoulli convolution in fixed point. Each step multiplies in unsigned
/// __int128 and floor-divides by kOne; the rounding residue lands on the
/// highest occupied count — mass only moves toward *more* faults, so every
/// tail P(K >= j) over-approximates the exact binomial tail (conservative).
/// p in {0, kOne} is exact. `convolutions` counts the steps performed.
void binomial_weights(std::vector<Pmf::Atom>& atoms, std::uint64_t p,
                      std::int64_t* convolutions) {
  atoms[0].weight = Pmf::kOne;
  const std::uint64_t q = Pmf::kOne - p;
  for (std::size_t step = 0; step + 1 < atoms.size(); ++step) {
    // Top down, so count i - 1 still holds the previous step's weight.
    std::uint64_t total = 0;
    std::size_t top = 0;
    for (std::size_t i = step + 2; i-- > 0;) {
      u128 wide = static_cast<u128>(atoms[i].weight) * q;
      if (i > 0) wide += static_cast<u128>(atoms[i - 1].weight) * p;
      atoms[i].weight = static_cast<std::uint64_t>(wide >> 32);
      total += atoms[i].weight;
      if (top == 0 && wide > 0) top = i;
    }
    atoms[top].weight += Pmf::kOne - total;  // residue-to-top: conservative
    if (convolutions) ++*convolutions;
  }
}

}  // namespace

// --- Pmf -----------------------------------------------------------------

Pmf Pmf::point(Duration v) {
  Pmf p;
  p.atoms_.push_back({v, kOne});
  return p;
}

Pmf Pmf::two_point(Duration low, Duration high, std::uint64_t high_weight) {
  if (high_weight > kOne) throw std::invalid_argument("Pmf::two_point: weight > kOne");
  if (low > high) throw std::invalid_argument("Pmf::two_point: low > high");
  if (low == high || high_weight == kOne) return point(high);
  if (high_weight == 0) return point(low);
  Pmf p;
  p.atoms_ = {{low, kOne - high_weight}, {high, high_weight}};
  return p;
}

Pmf Pmf::from_atoms(std::vector<Atom> atoms) {
  const auto by_value = [](const Atom& x, const Atom& y) { return x.value < y.value; };
  if (!std::is_sorted(atoms.begin(), atoms.end(), by_value))
    std::stable_sort(atoms.begin(), atoms.end(), by_value);
  // Merge equal neighbours and drop zero weights in place.
  std::size_t n = 0;
  for (const Atom& a : atoms) {
    if (a.weight == 0) continue;
    if (n > 0 && atoms[n - 1].value == a.value)
      atoms[n - 1].weight += a.weight;
    else
      atoms[n++] = a;
  }
  atoms.resize(n);
  Pmf p;
  p.atoms_ = std::move(atoms);
  p.validate();
  return p;
}

std::uint64_t Pmf::mass_above(Duration v) const {
  std::uint64_t mass = 0;
  for (auto it = atoms_.rbegin(); it != atoms_.rend() && it->value > v; ++it) mass += it->weight;
  return mass;
}

Duration Pmf::quantile(std::uint64_t rank) const {
  if (rank > kOne) throw std::invalid_argument("Pmf::quantile: rank > kOne");
  std::uint64_t cum = 0;
  for (const auto& a : atoms_) {
    cum += a.weight;
    if (cum >= rank) return a.value;
  }
  return atoms_.back().value;  // unreachable: cum ends at exactly kOne
}

Pmf Pmf::clamped_min(Duration floor) const {
  if (atoms_.front().value >= floor) return *this;
  std::vector<Atom> out;
  out.reserve(atoms_.size());
  std::uint64_t folded = 0;
  for (const auto& a : atoms_) {
    if (a.value < floor)
      folded += a.weight;
    else
      out.push_back(a);
  }
  if (folded > 0) {
    if (!out.empty() && out.front().value == floor) {
      out.front().weight += folded;
    } else {
      out.insert(out.begin(), Atom{floor, folded});
    }
  }
  Pmf p;
  p.atoms_ = std::move(out);
  p.validate();
  return p;
}

std::uint64_t Pmf::weight_from_ppm(std::int64_t ppm) {
  if (ppm < 0 || ppm > kPpmOne) throw std::invalid_argument("weight_from_ppm: ppm out of range");
  // Ceiling: quantization can only add mass to the modelled event, and
  // every event here is "the worst case materializes" — conservative.
  return (static_cast<std::uint64_t>(ppm) * kOne + (kPpmOne - 1)) / kPpmOne;
}

std::int64_t Pmf::ppm_from_weight(std::uint64_t weight) {
  if (weight > kOne) throw std::invalid_argument("ppm_from_weight: weight > kOne");
  return static_cast<std::int64_t>((weight * static_cast<std::uint64_t>(kPpmOne) + kOne - 1) >>
                                   32);
}

void Pmf::validate() const {
  if (atoms_.empty()) throw std::logic_error("Pmf: empty support");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (atoms_[i].weight == 0) throw std::logic_error("Pmf: zero-weight atom");
    if (i > 0 && !(atoms_[i - 1].value < atoms_[i].value))
      throw std::logic_error("Pmf: atoms not strictly ascending");
    total += atoms_[i].weight;
  }
  if (total != kOne) throw std::logic_error("Pmf: mass does not sum to kOne");
}

Pmf convolve(const Pmf& a, const Pmf& b) {
  // Point masses shift exactly — no products to round.
  if (b.degenerate()) {
    const Duration shift = b.atoms_.front().value;
    if (shift == Duration::zero()) return a;
    Pmf out = a;
    for (auto& atom : out.atoms_) atom.value = atom.value + shift;
    return out;
  }
  if (a.degenerate()) return convolve(b, a);

  // Sum the 128-bit products of equal values in ascending value order: a
  // two-point `b` (every luck delta) merges two shifted copies of `a`,
  // any other `b` sorts its products (each below 2^64: weights < kOne).
  Pmf out;
  out.atoms_.reserve(a.atoms_.size() * b.atoms_.size());
  std::uint64_t total = 0;
  u128 acc = 0;
  const auto flush = [&] {
    out.atoms_.back().weight = static_cast<std::uint64_t>(acc >> 32);
    total += out.atoms_.back().weight;
  };
  const auto add = [&](Duration v, u128 w) {
    if (out.atoms_.empty() || out.atoms_.back().value != v) {
      if (!out.atoms_.empty()) flush();
      out.atoms_.push_back({v, 0});
      acc = 0;
    }
    acc += w;
  };
  const auto& xs = a.atoms_;
  if (b.atoms_.size() == 2) {
    // xs.back() + hi tops every value, so the `lo` run empties first.
    const Pmf::Atom lo = b.atoms_[0], hi = b.atoms_[1];
    for (std::size_t i = 0, j = 0; j < xs.size();) {
      const bool take_lo = i < xs.size() && xs[i].value + lo.value <= xs[j].value + hi.value;
      const Pmf::Atom& x = take_lo ? xs[i++] : xs[j++];
      const Pmf::Atom& y = take_lo ? lo : hi;
      add(x.value + y.value, static_cast<u128>(x.weight) * y.weight);
    }
  } else {
    std::vector<std::pair<Duration, std::uint64_t>> terms;
    for (const auto& x : xs)
      for (const auto& y : b.atoms_) terms.emplace_back(x.value + y.value, x.weight * y.weight);
    std::sort(terms.begin(), terms.end(),
              [](const auto& l, const auto& r) { return l.first < r.first; });
    for (const auto& [v, w] : terms) add(v, w);
  }
  flush();
  // Residue-to-top: the floor-division losses (< 1 ulp per output atom)
  // all land on the maximum-value atom, so the rounded distribution
  // stochastically dominates the exact one.
  out.atoms_.back().weight += Pmf::kOne - total;
  out.atoms_.erase(std::remove_if(out.atoms_.begin(), out.atoms_.end(),
                                  [](const Pmf::Atom& atom) { return atom.weight == 0; }),
                   out.atoms_.end());
  out.validate();
  return out;
}

// --- configuration -------------------------------------------------------

void validate_prob_config(const ProbRtaConfig& cfg) {
  const auto check_ppm = [](std::int64_t ppm, const char* what) {
    if (ppm < 0 || ppm > kPpmOne)
      throw std::invalid_argument(std::string{what} + " must lie in [0, 1000000] ppm");
  };
  check_ppm(cfg.fault_ppm, "fault probability");
  check_ppm(cfg.stuff_ppm, "stuffing probability");
  check_ppm(cfg.jitter_ppm, "jitter probability");
  if (cfg.max_rungs < 1 || cfg.max_rungs > 4096)
    throw std::invalid_argument("max_rungs must lie in [1, 4096]");
  if (cfg.parallelism < 0) throw std::invalid_argument("parallelism must be >= 0");
}

// --- rung ladder ---------------------------------------------------------

RungLadder solve_rung_ladder(const ColumnarBus& bus, std::size_t r, std::int64_t max_rungs) {
  RungLadder ladder;
  ladder.det = solve_columnar(bus, r);
  ladder.stuff_savings = bus.cost[r] - bus.bcrt[r];
  ladder.jitter = bus.act_jitter[r];
  if (ladder.det.diverged || ladder.det.wcrt.is_infinite()) {
    ladder.rungs = {ladder.det.wcrt};
    return ladder;
  }
  // Fault counts the configured model admits inside the deterministic
  // busy period: every materialized-fault pattern the probabilistic run
  // can see is conditioned on one of these counts.
  const std::int64_t admitted = bus.errors->max_faults(ladder.det.busy_period + bus.cost[r]);
  const std::int64_t k_stop = std::min(admitted, max_rungs);
  ladder.rungs.reserve(static_cast<std::size_t>(k_stop) + 1);
  // Rung k + 1 climbs from rung k's fixed points (prob_rta.hpp step 1).
  WarmStart warm;
  Duration prev = Duration::zero();
  for (std::int64_t k = 0; k < k_stop; ++k) {
    const MessageResult rung = solve_columnar(bus, r, FixedFaults{k}, warm);
    // Clamp into [previous rung, deterministic WCRT]: monotone ladder,
    // and det.wcrt bounds any run the deterministic model admits, so the
    // clamp is sound even when a conditional fixed point diverges. The
    // shipped models never make it diverge: k < max_faults(busy + C), and
    // each charges at least k faults at det's busy period (sporadic and
    // single-fault bursts gain at most one fault per C, as C <= the fault
    // cost < the gap or det diverges; longer bursts extend the window by
    // (k - 1) fault costs >= C), so that busy period bounds rung k's.
    // tests/fuzz/rung_ladder_oracle_test.cpp checks this on fuzzed buses.
    Duration v = rung.diverged || rung.wcrt.is_infinite() ? ladder.det.wcrt
                                                          : std::min(rung.wcrt, ladder.det.wcrt);
    v = std::max(v, prev);
    ladder.rungs.push_back(v);
    prev = v;
    if (v == ladder.det.wcrt) break;  // the clamp pins every later rung here
  }
  // Top rung: the deterministic WCRT itself — the distribution's
  // provable upper support point.
  ladder.rungs.resize(static_cast<std::size_t>(k_stop) + 1, ladder.det.wcrt);
  return ladder;
}

ProbMessageResult mix_ladder(const RungLadder& ladder, const ProbRtaConfig& cfg) {
  ProbMessageResult out;
  out.det = ladder.det;
  out.rungs = ladder.rungs;
  if (out.det.diverged || out.det.wcrt.is_infinite()) {
    out.response = Pmf::point(out.det.wcrt);
    out.miss_weight = out.response.mass_above(out.det.deadline);
    return out;
  }

  std::vector<Pmf::Atom> mixture;
  mixture.reserve(ladder.rungs.size());
  for (const Duration rung : ladder.rungs) mixture.push_back({rung, 0});
  binomial_weights(mixture, Pmf::weight_from_ppm(cfg.fault_ppm), &out.convolutions);
  Pmf response = Pmf::from_atoms(std::move(mixture));

  // Luck deltas: with probability (1 - p) the worst case does not
  // materialize and the response comes in early by the saving. Values
  // are non-positive, so residue-to-top pushes mass toward zero saving
  // — the conservative direction. At p = 1 the delta is the point mass
  // at zero, whose convolution is the identity.
  const auto luck = [&](Duration saving, std::int64_t ppm) {
    if (saving <= Duration::zero()) return;
    ++out.convolutions;
    if (ppm < kPpmOne)
      response = convolve(response, Pmf::two_point(Duration::zero() - saving, Duration::zero(),
                                                   Pmf::weight_from_ppm(ppm)));
  };
  luck(ladder.stuff_savings, cfg.stuff_ppm);
  luck(ladder.jitter, cfg.jitter_ppm);
  // Responses below the best-case response time are physically
  // impossible; fold that mass back onto the floor.
  if (response.min_value() < out.det.bcrt) response = response.clamped_min(out.det.bcrt);

  out.response = std::move(response);
  out.miss_weight = out.response.mass_above(out.det.deadline);
  return out;
}

std::size_t ProbBusResult::miss_count(std::uint64_t threshold_weight) const {
  std::size_t n = 0;
  for (const auto& m : messages)
    if (m.miss_weight > threshold_weight) ++n;
  return n;
}

// --- entry points --------------------------------------------------------

namespace {

/// Ladder of packed row `r`, labelled as message `m`, mixed under `cfg`.
ProbMessageResult analyze_row(const ColumnarBus& bus, std::size_t r, const CanMessage& m,
                              const ProbRtaConfig& cfg) {
  RungLadder ladder = solve_rung_ladder(bus, r, cfg.max_rungs);
  ladder.det.name = m.name;
  ladder.det.id = m.id;
  return mix_ladder(ladder, cfg);
}

}  // namespace

ProbMessageResult analyze_message_prob(const KMatrix& km, const ProbRtaConfig& cfg,
                                       std::size_t index) {
  validate_prob_config(cfg);
  const std::size_t row[] = {index};
  ColumnarBus bus;
  pack_bus(km, cfg.rta, bus, row);
  return analyze_row(bus, 0, km.messages()[index], cfg);
}

ProbBusResult analyze_prob(const KMatrix& km, const ProbRtaConfig& cfg) {
  validate_prob_config(cfg);
  km.validate();
  ProbBusResult out;
  ParallelExecutor exec{cfg.parallelism};
  {
    SYMCAN_OBS_SPAN("prob.analyze");
    ColumnarBus bus;
    pack_bus(km, cfg.rta, bus);
    out.messages = exec.parallel_map_indexed_tiled(
        km.size(), [&](std::size_t i) { return analyze_row(bus, i, km.messages()[i], cfg); });
  }
  out.utilization = km.utilization(cfg.rta.worst_case_stuffing);
  if (obs::enabled()) {
    std::int64_t convolutions = 0;
    for (const auto& m : out.messages) convolutions += m.convolutions;
    obs::count("prob.messages", static_cast<std::int64_t>(out.messages.size()));
    obs::count("prob.convolutions", convolutions);
  }
  return out;
}

}  // namespace symcan::analysis
