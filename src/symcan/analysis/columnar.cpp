#include "symcan/analysis/columnar.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/model/event_model.hpp"

namespace symcan::analysis {

namespace {

// --- The interference rule ------------------------------------------------

/// Per-message facts the interference rule reads, resolved once per
/// (matrix, config) in one O(n) pass. Held thread-local by its users, so
/// the vectors keep their capacity across calls.
struct BusFacts {
  std::vector<std::uint64_t> rank;
  std::vector<Duration> cost;  ///< Frame time under the configured stuffing.
  std::vector<EventModel> activation;
  std::vector<std::size_t> sender_of;
  std::vector<char> is_tt;  ///< Offset-scheduled, and offsets are in use.
  // Per sender, indexed by sender_of.
  std::vector<const std::string*> senders;
  std::vector<std::uint64_t> max_rank;
  std::vector<char> basic;  ///< basicCAN controller, queues modelled.
  std::vector<int> tx_buffers;
  std::vector<Duration> lp_frames;  ///< scan_row() scratch.

  void resolve(const KMatrix& km, const CanRtaConfig& cfg) {
    const auto& msgs = km.messages();
    rank.clear();
    cost.clear();
    activation.clear();
    sender_of.clear();
    is_tt.clear();
    senders.clear();
    for (const CanMessage& m : msgs) {
      rank.push_back(m.arbitration_rank());
      cost.push_back(m.wcet(km.timing(), cfg.worst_case_stuffing));
      activation.push_back(m.activation());
      is_tt.push_back(cfg.use_offsets && m.tt_offset.has_value());
      std::size_t s = 0;
      while (s < senders.size() && *senders[s] != m.sender) ++s;
      if (s == senders.size()) senders.push_back(&m.sender);
      sender_of.push_back(s);
    }
    max_rank.assign(senders.size(), 0);
    basic.assign(senders.size(), 0);
    tx_buffers.assign(senders.size(), 0);
    for (std::size_t s = 0; s < senders.size(); ++s) {
      const EcuNode* node = km.find_node(*senders[s]);
      basic[s] = cfg.model_controller_queues && node != nullptr &&
                 node->controller == ControllerType::kBasicCan;
      tx_buffers[s] = node != nullptr ? node->tx_buffers : 0;
    }
    for (std::size_t k = 0; k < rank.size(); ++k)
      max_rank[sender_of[k]] = std::max(max_rank[sender_of[k]], rank[k]);
  }
};

/// Blocking terms of one message's row.
struct RowBlocking {
  Duration bus = Duration::zero();    ///< One already-started lower-priority frame.
  Duration intra = Duration::zero();  ///< Committed basicCAN FIFO entries.
  Duration max_retx = Duration::zero();
  /// The message `bus` charges, first in matrix order among equals.
  std::size_t frame = std::numeric_limits<std::size_t>::max();
};

/// The interference rule; nothing else in the analysis restates it.
/// Message i competes at its effective rank: its own, degraded to its
/// node's worst rank on a basicCAN controller (committed FIFO entries
/// cannot be overtaken). Then, over every other message k:
///  * k interferes if it beats the effective rank from another node, or
///    i's own rank from i's node (same-node frames between the two queue
///    behind i in the FIFO; their head start is the committed term);
///  * the non-preemptive bus blocks i for the largest frame below the
///    effective rank;
///  * a fault can force retransmission of i, of any frame at or above
///    the effective rank, or of the blocking frame;
///  * on basicCAN, the tx_buffers largest same-node lower-priority frames
///    may already sit in the controller and cannot be aborted.
/// `on_interferer(k)` is called for each interferer, in matrix order.
template <typename F>
RowBlocking scan_row(BusFacts& f, std::size_t i, F&& on_interferer) {
  const std::uint64_t* rank = f.rank.data();
  const Duration* cost = f.cost.data();
  const std::size_t* sender_of = f.sender_of.data();
  const std::size_t s = sender_of[i];
  const std::uint64_t own = rank[i];
  const bool basic = f.basic[s] != 0;
  const std::uint64_t eff = basic ? f.max_rank[s] : own;
  RowBlocking b;
  b.max_retx = cost[i];
  f.lp_frames.clear();
  for (std::size_t k = 0, n = f.rank.size(); k < n; ++k) {
    if (k == i) continue;
    const bool below = rank[k] > eff;
    const bool larger = below && cost[k] > b.bus;
    b.bus = larger ? cost[k] : b.bus;
    b.frame = larger ? k : b.frame;
    if (!below) b.max_retx = max(b.max_retx, cost[k]);
    const bool same_node = sender_of[k] == s;
    if (rank[k] < (same_node ? own : eff)) on_interferer(k);
    if (same_node && basic && rank[k] > own) f.lp_frames.push_back(cost[k]);
  }
  b.max_retx = max(b.max_retx, b.bus);
  if (!f.lp_frames.empty()) {
    std::sort(f.lp_frames.begin(), f.lp_frames.end(), std::greater<>{});
    const std::size_t committed =
        std::min(f.lp_frames.size(), static_cast<std::size_t>(f.tx_buffers[s]));
    for (std::size_t c = 0; c < committed; ++c) b.intra += f.lp_frames[c];
  }
  return b;
}

BusFacts& facts_scratch() {
  static thread_local BusFacts facts;
  return facts;
}

void check_rows(const KMatrix& km, std::span<const std::size_t> rows) {
  for (const std::size_t i : rows)
    if (i >= km.size()) throw std::out_of_range("bad message index");
}

/// Every message index of `km`, in order (the whole-bus row list).
std::span<const std::size_t> all_rows(const KMatrix& km) {
  static thread_local std::vector<std::size_t> rows;
  while (rows.size() < km.size()) rows.push_back(rows.size());
  return {rows.data(), km.size()};
}

/// Deadline under cfg's override policy, without copying the message.
/// Must mirror CanMessage::deadline() per policy exactly.
Duration effective_deadline(const CanMessage& m, const CanRtaConfig& cfg) {
  const DeadlinePolicy policy =
      (!cfg.deadline_override || m.deadline_policy == DeadlinePolicy::kExplicit)
          ? m.deadline_policy
          : *cfg.deadline_override;
  switch (policy) {
    case DeadlinePolicy::kPeriod:
      return m.period;
    case DeadlinePolicy::kMinReArrival:
      return max(m.period - m.jitter, m.min_distance);
    case DeadlinePolicy::kExplicit:
      return m.explicit_deadline;
  }
  return Duration::infinite();
}

TtGroup::Member tt_member(const CanMessage& m, Duration cost) {
  return TtGroup::Member{m.period, *m.tt_offset, m.jitter, cost};
}

void resize_hp(ColumnarBus& out, std::size_t size) {
  out.hp_period.resize(size);
  out.hp_jitter.resize(size);
  out.hp_dmin.resize(size);
  out.hp_cost.resize(size);
}

}  // namespace

void ColumnarBus::clear() {
  cost.clear();
  bcrt.clear();
  deadline.clear();
  blocking.clear();
  max_retx.clear();
  act_period.clear();
  act_jitter.clear();
  act_dmin.clear();
  hp_begin.clear();
  hp_period.clear();
  hp_jitter.clear();
  hp_dmin.clear();
  hp_cost.clear();
  tt_begin.clear();
  tt_groups.clear();
}

void pack_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out) {
  pack_bus(km, cfg, out, all_rows(km));
}

void pack_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out,
              std::span<const std::size_t> rows, std::vector<ContextLabels>* labels) {
  check_rows(km, rows);
  const auto& msgs = km.messages();
  BusFacts& f = facts_scratch();
  f.resolve(km, cfg);

  out.clear();
  out.timing = km.timing();
  out.horizon = cfg.horizon;
  out.errors = cfg.errors;
  if (labels != nullptr) labels->assign(rows.size(), ContextLabels{});

  // Interferers of the row in flight: analyzed through their event
  // models, or offset-scheduled and grouped per sender.
  static thread_local std::vector<std::size_t> hp;
  static thread_local std::vector<std::vector<std::size_t>> groups;
  static thread_local std::vector<TtGroup::Member> members;
  if (groups.size() < f.senders.size()) groups.resize(f.senders.size());

  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t i = rows[r];
    const CanMessage& m = msgs[i];
    ContextLabels* lab = labels != nullptr ? &(*labels)[r] : nullptr;
    out.cost.push_back(f.cost[i]);
    out.bcrt.push_back(m.bcet(km.timing()));
    out.deadline.push_back(effective_deadline(m, cfg));
    out.act_period.push_back(f.activation[i].period());
    out.act_jitter.push_back(f.activation[i].jitter());
    out.act_dmin.push_back(f.activation[i].min_distance());

    // Event-model interferers land in the hp columns, written in place
    // once the row's count is known; each sender's offset-scheduled
    // interferers are grouped below.
    for (std::size_t s = 0; s < f.senders.size(); ++s) groups[s].clear();
    hp.clear();
    const RowBlocking b = scan_row(f, i, [&](std::size_t k) {
      (f.is_tt[k] ? groups[f.sender_of[k]] : hp).push_back(k);
    });
    const std::size_t base = out.hp_period.size();
    resize_hp(out, base + hp.size());
    for (std::size_t e = 0; e < hp.size(); ++e) {
      const EventModel& em = f.activation[hp[e]];
      out.hp_period[base + e] = em.period();
      out.hp_jitter[base + e] = em.jitter();
      out.hp_dmin[base + e] = em.min_distance();
      out.hp_cost[base + e] = f.cost[hp[e]];
      if (lab != nullptr) lab->hp.push_back(msgs[hp[e]].name);
    }
    out.hp_begin.push_back(base);
    out.blocking.push_back(b.bus + b.intra);
    out.max_retx.push_back(b.max_retx);
    if (lab != nullptr) {
      lab->bus_blocking = b.bus;
      lab->intra_node_blocking = b.intra;
      if (b.frame < msgs.size()) lab->blocking_frame = msgs[b.frame].name;
    }

    // Each sender's offset-scheduled interferers form one TtGroup; a
    // group whose hyperperiod is unbounded falls back to offset-blind
    // event models among the hp entries.
    out.tt_begin.push_back(out.tt_groups.size());
    for (std::size_t s = 0; s < f.senders.size(); ++s) {
      std::vector<std::size_t>& group = groups[s];
      if (group.empty()) continue;
      if (lab != nullptr) {
        // Name members in schedule order, ties by name.
        std::sort(group.begin(), group.end(), [&](std::size_t x, std::size_t y) {
          return std::tie(msgs[x].period, *msgs[x].tt_offset, msgs[x].jitter, f.cost[x],
                          msgs[x].name) < std::tie(msgs[y].period, *msgs[y].tt_offset,
                                                   msgs[y].jitter, f.cost[y], msgs[y].name);
        });
      }
      members.clear();
      for (const std::size_t k : group) members.push_back(tt_member(msgs[k], f.cost[k]));
      if (auto g = TtGroup::build(members)) {
        out.tt_groups.push_back(std::move(*g));
        if (lab != nullptr) {
          lab->tt_sender.push_back(*f.senders[s]);
          auto& names = lab->tt_members.emplace_back();
          for (const std::size_t k : group) names.push_back(msgs[k].name);
        }
      } else {
        for (const std::size_t k : group) {
          const EventModel em = EventModel::periodic_jitter(msgs[k].period, msgs[k].jitter);
          out.hp_period.push_back(em.period());
          out.hp_jitter.push_back(em.jitter());
          out.hp_dmin.push_back(em.min_distance());
          out.hp_cost.push_back(f.cost[k]);
          if (lab != nullptr) lab->hp.push_back(msgs[k].name);
        }
      }
    }
  }
  out.hp_begin.push_back(out.hp_period.size());
  out.tt_begin.push_back(out.tt_groups.size());
}

ColumnarBus pack_bus(const KMatrix& km, const CanRtaConfig& cfg) {
  ColumnarBus bus;
  pack_bus(km, cfg, bus);
  return bus;
}

// --- The busy-period solver ---------------------------------------------

namespace {

/// Iterate a monotone fixed point x = f(x) starting from x0, bounded by
/// `horizon`. Returns the fixed point, or infinite() when it diverges.
/// `iterations` accumulates the number of evaluations of f. `rec(x)`
/// observes each iterate (the inputs to f, ending with the fixed point
/// itself).
template <typename F, typename R>
Duration fixed_point(Duration x0, Duration horizon, std::int64_t& iterations, F&& f, R&& rec) {
  Duration x = x0;
  for (;;) {
    rec(x);
    ++iterations;
    const Duration next = f(x);
    if (next == x) return x;
    if (next > horizon) return Duration::infinite();
    // f is non-decreasing in x for all our interference terms, so the
    // iteration is non-decreasing; a decrease would indicate a modelling
    // bug, which we guard in debug builds.
    assert(next > x);
    x = next;
  }
}

/// Solver-trajectory recorders. Every hook of the null recorder inlines
/// to nothing, so the plain solve pays no bookkeeping; the tracing
/// recorder fills a SolveTrace, keeping the window iterates of the
/// instance that attains the WCRT.
struct NullSolveRecorder {
  void busy_iterate(Duration) {}
  void begin_instance(std::int64_t) {}
  void window_iterate(Duration) {}
  void instance_result(std::int64_t, Duration, Duration) {}
};

struct TracingSolveRecorder {
  explicit TracingSolveRecorder(SolveTrace& trace) : out(trace) {}

  SolveTrace& out;
  std::vector<Duration> scratch;  ///< Iterates of the instance in flight.
  Duration best_response = -Duration::infinite();

  void busy_iterate(Duration x) { out.busy_iterates.push_back(x); }
  void begin_instance(std::int64_t) { scratch.clear(); }
  void window_iterate(Duration x) { scratch.push_back(x); }
  void instance_result(std::int64_t q, Duration w, Duration response) {
    // Strict '>' mirrors wcrt = max(wcrt, response): the first instance
    // attaining the maximum is the critical one.
    if (response > best_response) {
      best_response = response;
      out.critical_instance = q;
      out.critical_window = w;
      out.window_iterates = scratch;
    }
  }
};

template <typename Rec>
MessageResult solve_row(const ColumnarBus& bus, std::size_t r, const ErrorModel& errors,
                        Rec& rec) {
  if (r + 1 >= bus.hp_begin.size()) throw std::out_of_range("solve_columnar: bad row");

  const Duration tau_bit = bus.timing.bit_time();
  const Duration c_m = bus.cost[r];
  const Duration act_p = bus.act_period[r];
  const Duration act_j = bus.act_jitter[r];
  const Duration act_d = bus.act_dmin[r];

  MessageResult res;
  res.bcrt = bus.bcrt[r];
  res.deadline = bus.deadline[r];
  res.blocking = bus.blocking[r];
  const Duration blocking = bus.blocking[r];
  const Duration max_retx = bus.max_retx[r];

  const std::size_t hp_lo = bus.hp_begin[r];
  const std::size_t hp_hi = bus.hp_begin[r + 1];
  const std::size_t tt_lo = bus.tt_begin[r];
  const std::size_t tt_hi = bus.tt_begin[r + 1];

  const auto hp_interference = [&](Duration window) {
    Duration total = Duration::zero();
    for (std::size_t k = hp_lo; k < hp_hi; ++k)
      total += eta_plus(window, bus.hp_period[k], bus.hp_jitter[k], bus.hp_dmin[k]) * bus.hp_cost[k];
    for (std::size_t g = tt_lo; g < tt_hi; ++g) total += bus.tt_groups[g].interference(window);
    return total;
  };
  const auto error_overhead = [&](Duration window) {
    if (window <= Duration::zero()) return Duration::zero();
    return errors.overhead(window, max_retx, bus.timing);
  };

  // Length of the level-m busy period: processor demand of m itself, all
  // higher-priority traffic, blocking, and fault recovery.
  std::int64_t iterations = 0;
  const Duration busy = fixed_point(
      blocking + c_m, bus.horizon, iterations,
      [&](Duration t) {
        return blocking + eta_plus(t, act_p, act_j, act_d) * c_m + hp_interference(t) +
               error_overhead(t);
      },
      [&](Duration x) { rec.busy_iterate(x); });
  res.fixedpoint_iterations = iterations;
  if (busy.is_infinite()) {
    res.wcrt = Duration::infinite();
    res.busy_period = Duration::infinite();
    res.diverged = true;
    res.schedulable = false;
    return res;
  }
  res.busy_period = busy;

  const std::int64_t q_max = eta_plus(busy, act_p, act_j, act_d);
  res.instances = q_max;
  Duration wcrt = Duration::zero();
  for (std::int64_t q = 0; q < q_max; ++q) {
    // Queueing delay of instance q (0-based): blocking, q earlier
    // instances of m, higher-priority frames that win arbitration before
    // instance q gets the bus (a frame queued up to one bit time after
    // the arbitration decision still wins), and fault recovery covering
    // the window up to the end of instance q's transmission.
    rec.begin_instance(q);
    const Duration w = fixed_point(
        blocking + q * c_m, bus.horizon, iterations,
        [&](Duration t) {
          return blocking + q * c_m + hp_interference(t + tau_bit) + error_overhead(t + c_m);
        },
        [&](Duration x) { rec.window_iterate(x); });
    res.fixedpoint_iterations = iterations;
    if (w.is_infinite()) {
      res.wcrt = Duration::infinite();
      res.diverged = true;
      res.schedulable = false;
      return res;
    }
    // Instance q arrives no earlier than delta_min(q+1) after the busy
    // period starts; its response time is measured from its own arrival.
    const Duration response = w + c_m - delta_min(q + 1, act_p, act_j, act_d);
    rec.instance_result(q, w, response);
    wcrt = max(wcrt, response);
    // Early exit: once the busy period drains before the next arrival,
    // later instances cannot be worse.
    if (w + c_m <= delta_min(q + 2, act_p, act_j, act_d)) break;
  }
  res.wcrt = wcrt;
  res.schedulable = !res.deadline.is_infinite() ? wcrt <= res.deadline : true;
  return res;
}

}  // namespace

MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r, const ErrorModel& errors) {
  NullSolveRecorder rec;
  return solve_row(bus, r, errors, rec);
}

MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r) {
  return solve_columnar(bus, r, *bus.errors);
}

MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r, const ErrorModel& errors,
                             SolveTrace& trace) {
  trace = SolveTrace{};
  TracingSolveRecorder rec{trace};
  return solve_row(bus, r, errors, rec);
}

std::vector<MessageResult> solve_rows(const KMatrix& km, const CanRtaConfig& cfg,
                                      std::span<const std::size_t> rows) {
  static thread_local ColumnarBus bus;
  pack_bus(km, cfg, bus, rows);
  std::vector<MessageResult> out;
  out.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    MessageResult& res = out.emplace_back(solve_columnar(bus, r));
    res.name = km.messages()[rows[r]].name;
    res.id = km.messages()[rows[r]].id;
  }
  return out;
}

std::vector<MessageResult> solve_rows(const KMatrix& km, const CanRtaConfig& cfg) {
  return solve_rows(km, cfg, all_rows(km));
}

// --- Fingerprints ---------------------------------------------------------

namespace {

/// Two-lane 128-bit mixer: lane a is FNV-1a, lane b a SplitMix-style
/// add-xor-multiply chain. Both lanes see every word, with different
/// diffusion, so a collision requires defeating both simultaneously.
class KeyMixer {
 public:
  KeyMixer() = default;
  explicit KeyMixer(std::uint64_t seed) { mix(seed); }
  void mix(std::uint64_t v) {
    a_ = (a_ ^ v) * 0x100000001b3ULL;
    b_ += v + 0x9e3779b97f4a7c15ULL;
    b_ = (b_ ^ (b_ >> 30)) * 0xbf58476d1ce4e5b9ULL;
    b_ ^= b_ >> 27;
  }
  void mix(Duration d) { mix(static_cast<std::uint64_t>(d.count_ns())); }
  void mix(const EventModel& em) {
    mix(em.period());
    mix(em.jitter());
    mix(em.min_distance());
  }
  ContextKey key() const { return ContextKey{a_, b_}; }

 private:
  std::uint64_t a_ = 0xcbf29ce484222325ULL;
  std::uint64_t b_ = 0x58a3f9e1d2c4b605ULL;
};

/// Multiset accumulator: elements are hashed individually through a
/// seeded KeyMixer and combined with wrapping addition per lane, so the
/// accumulated value is independent of element order.
struct MultisetAcc {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t n = 0;

  void add(const ContextKey& k) {
    a += k.a;
    b += k.b;
    ++n;
  }
};

ContextKey hp_entry_hash(const EventModel& em, Duration cost) {
  KeyMixer h{0x68702d656e747279ULL};  // "hp-entry"
  h.mix(em);
  h.mix(cost);
  return h.key();
}

ContextKey tt_member_hash(const TtGroup::Member& m) {
  KeyMixer h{0x74742d6d656d6265ULL};  // "tt-membe"
  h.mix(m.period);
  h.mix(m.offset);
  h.mix(m.jitter);
  h.mix(m.cost);
  return h.key();
}

ContextKey tt_group_hash(const MultisetAcc& members) {
  KeyMixer h{0x74742d67726f7570ULL};  // "tt-group"
  h.mix(members.a);
  h.mix(members.b);
  h.mix(members.n);
  return h.key();
}

}  // namespace

std::vector<ContextKey> bus_fingerprints(const KMatrix& km, const CanRtaConfig& cfg) {
  return bus_fingerprints(km, cfg, all_rows(km));
}

std::vector<ContextKey> bus_fingerprints(const KMatrix& km, const CanRtaConfig& cfg,
                                         std::span<const std::size_t> rows) {
  check_rows(km, rows);
  const auto& msgs = km.messages();
  BusFacts& f = facts_scratch();
  f.resolve(km, cfg);

  // Each message's element hash once; every pairwise step below is then
  // a compare plus a few additions.
  static thread_local std::vector<ContextKey> element;
  static thread_local std::vector<MultisetAcc> groups;
  element.clear();
  for (std::size_t k = 0; k < msgs.size(); ++k)
    element.push_back(f.is_tt[k] ? tt_member_hash(tt_member(msgs[k], f.cost[k]))
                                 : hp_entry_hash(f.activation[k], f.cost[k]));

  // Raw config switches. Strictly redundant — every switch is already
  // resolved into the row values — but hashed anyway so a future config
  // field that leaks into the solver without reaching the row shows up
  // as a test failure, not a stale hit.
  const std::uint64_t switches =
      static_cast<std::uint64_t>(cfg.worst_case_stuffing) |
      (static_cast<std::uint64_t>(cfg.model_controller_queues) << 1) |
      (static_cast<std::uint64_t>(cfg.use_offsets) << 2) |
      (cfg.deadline_override ? 0x10ULL + static_cast<std::uint64_t>(*cfg.deadline_override)
                             : 0x8ULL);
  const std::uint64_t errors_fp = cfg.errors->fingerprint();

  std::vector<ContextKey> keys;
  keys.reserve(rows.size());
  for (const std::size_t i : rows) {
    const CanMessage& m = msgs[i];
    MultisetAcc hp;
    groups.assign(f.senders.size(), MultisetAcc{});
    const RowBlocking b = scan_row(f, i, [&](std::size_t k) {
      if (f.is_tt[k])
        groups[f.sender_of[k]].add(element[k]);
      else
        hp.add(element[k]);
    });
    MultisetAcc tt;
    for (const MultisetAcc& g : groups)
      if (g.n > 0) tt.add(tt_group_hash(g));

    KeyMixer h;
    h.mix(switches);
    h.mix(errors_fp);
    h.mix(static_cast<std::uint64_t>(km.timing().bits_per_second()));
    h.mix(km.timing().bit_time());
    h.mix(f.cost[i]);
    h.mix(m.bcet(km.timing()));
    h.mix(effective_deadline(m, cfg));
    h.mix(f.activation[i]);
    h.mix(b.bus + b.intra);
    h.mix(b.max_retx);
    h.mix(cfg.horizon);
    h.mix(hp.a);
    h.mix(hp.b);
    h.mix(hp.n);
    h.mix(tt.a);
    h.mix(tt.b);
    h.mix(tt.n);
    keys.push_back(h.key());
  }
  return keys;
}

}  // namespace symcan::analysis
