#include "symcan/analysis/columnar.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <tuple>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/model/event_model.hpp"

namespace symcan::analysis {

/// One matrix resolved under one config, sorted into arbitration order
/// once. A row's interferers are a prefix of `order` less a range of its
/// sender's list, its blocking frame a suffix maximum, so no row scans
/// the bus.
struct BusFacts {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  const KMatrix* km = nullptr;
  const CanRtaConfig* cfg = nullptr;

  // Per message, in matrix order.
  std::vector<std::uint64_t> rank;
  std::vector<Duration> cost;  ///< Frame time under the configured stuffing.
  std::vector<EventModel> activation;
  std::vector<std::size_t> sender_of;
  std::vector<char> is_tt;                   ///< Offset-scheduled, and offsets are in use.
  std::vector<std::size_t> pos;              ///< Position in `order`.
  std::vector<std::size_t> above;            ///< Messages ranked strictly above.
  std::vector<std::size_t> at_or_above;      ///< The same, equal ranks included.
  std::vector<std::size_t> own_above;        ///< Same-sender messages ranked strictly above.
  std::vector<std::size_t> own_at_or_above;  ///< The same, equal ranks included.

  // In arbitration order: rank, ties (unvalidated input only) by index.
  std::vector<std::size_t> order;
  std::vector<std::uint64_t> order_rank;  ///< The ranks `order` was sorted from.
  std::vector<Duration> cost_prefix_max;  ///< [j]: largest frame of order[0, j).
  std::vector<Duration> block_cost;       ///< [j]: largest frame of order[j, n), or zero.
  std::vector<std::size_t> block_frame;   ///< [j]: its lowest matrix index, or kNone.

  // Per sender, indexed by sender_of.
  std::vector<const std::string*> senders;
  std::vector<std::size_t> last;  ///< Lowest-priority message: the basicCAN effective rank.
  std::vector<char> basic;        ///< basicCAN controller, queues modelled.
  std::vector<int> tx_buffers;
  /// Each sender's messages in arbitration order occupy
  /// [sender_begin[s], sender_begin[s+1]) of by_sender; its offset-
  /// scheduled ones [tt_begin[s], tt_begin[s+1]) of tt_msg. tt_senders
  /// lists the senders that have any.
  std::vector<std::size_t> sender_begin, by_sender;
  std::vector<std::size_t> tt_begin, tt_msg, tt_senders;

  /// Refill every column for `km` under `cfg`, reusing capacity.
  void resolve(const KMatrix& km, const CanRtaConfig& cfg);
};

namespace {

// --- The interference rule ------------------------------------------------

/// Blocking terms of one message's row.
struct RowBlocking {
  Duration bus = Duration::zero();    ///< One already-started lower-priority frame.
  Duration intra = Duration::zero();  ///< Committed basicCAN FIFO entries.
  Duration max_retx = Duration::zero();
  /// The message `bus` charges, first in matrix order among equals.
  std::size_t frame = BusFacts::kNone;
};

/// The cutoffs of one message's row, as prefixes of the arbitration
/// order. The row's interferers are the messages of order[0, others),
/// less the sender's first `own_eff` messages, plus its first `own`.
struct Row {
  std::size_t sender;
  std::size_t others;   ///< Messages ranked above the effective rank.
  std::size_t own_eff;  ///< The sender's messages among them.
  std::size_t own;      ///< The sender's messages ranked above its own rank.
  std::size_t below;    ///< order[below, n) ranks below the effective rank.
};

/// The interference rule; nothing else in the analysis restates it.
/// Message i competes at its effective rank: its own, degraded to its
/// node's worst rank on a basicCAN controller (committed FIFO entries
/// cannot be overtaken). Then:
///  * a message of another node interferes if it beats the effective
///    rank, one of i's node if it beats i's own rank (same-node frames
///    between the two queue behind i in the FIFO; their head start is the
///    committed term). On a fullCAN row own_eff == own, so the
///    interferers are exactly the messages ranked above i;
///  * the non-preemptive bus blocks i for the largest frame below the
///    effective rank;
///  * a fault can force retransmission of i, of any frame at or above
///    the effective rank, or of the blocking frame;
///  * on basicCAN, the tx_buffers largest same-node lower-priority frames
///    may already sit in the controller and cannot be aborted.
Row row_of(const BusFacts& f, std::size_t i) {
  const std::size_t s = f.sender_of[i];
  const std::size_t e = f.basic[s] ? f.last[s] : i;  // Holds the effective rank.
  return Row{s, f.above[e], f.own_above[e], f.own_above[i], f.at_or_above[e]};
}

RowBlocking row_blocking(const BusFacts& f, std::size_t i, const Row& row) {
  RowBlocking b;
  b.bus = f.block_cost[row.below];
  b.frame = f.block_frame[row.below];
  b.max_retx = max(f.cost_prefix_max[row.below], b.bus);
  if (f.basic[row.sender]) {
    static thread_local std::vector<Duration> lp_frames;
    lp_frames.clear();
    const std::size_t end = f.sender_begin[row.sender + 1];
    for (std::size_t t = f.sender_begin[row.sender] + f.own_at_or_above[i]; t < end; ++t)
      lp_frames.push_back(f.cost[f.by_sender[t]]);
    const std::size_t committed =
        std::min(lp_frames.size(), static_cast<std::size_t>(f.tx_buffers[row.sender]));
    std::nth_element(lp_frames.begin(), lp_frames.begin() + static_cast<std::ptrdiff_t>(committed),
                     lp_frames.end(), std::greater<>{});
    for (std::size_t c = 0; c < committed; ++c) b.intra += lp_frames[c];
  }
  return b;
}

void check_rows(const BusFacts& f, std::span<const std::size_t> rows) {
  for (const std::size_t i : rows)
    if (i >= f.rank.size()) throw std::out_of_range("bad message index");
}

/// Every message index of an n-message bus, in order (the whole-bus row
/// list).
std::span<const std::size_t> all_rows(std::size_t n) {
  static thread_local std::vector<std::size_t> rows;
  while (rows.size() < n) rows.push_back(rows.size());
  return {rows.data(), n};
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

/// Append from[lo, hi) to `to`.
void append(std::vector<Duration>& to, const std::vector<Duration>& from, std::size_t lo,
            std::size_t hi) {
  to.insert(to.end(), from.data() + lo, from.data() + hi);
}

/// Start and end of each run of equal ranks in `msgs` (indices, sorted by
/// rank): above[k] counts the entries ranked strictly above k,
/// at_or_above[k] those ranked at or above it.
void rank_bounds(std::span<const std::size_t> msgs, const std::vector<std::uint64_t>& rank,
                 std::vector<std::size_t>& above, std::vector<std::size_t>& at_or_above) {
  for (std::size_t j = 0; j < msgs.size();) {
    std::size_t end = j + 1;
    while (end < msgs.size() && rank[msgs[end]] == rank[msgs[j]]) ++end;
    for (std::size_t t = j; t < end; ++t) {
      above[msgs[t]] = j;
      at_or_above[msgs[t]] = end;
    }
    j = end;
  }
}

}  // namespace

void BusFacts::resolve(const KMatrix& matrix, const CanRtaConfig& config) {
  km = &matrix;
  cfg = &config;
  const auto& msgs = matrix.messages();
  const std::size_t n = msgs.size();
  rank.clear();
  cost.clear();
  activation.clear();
  sender_of.clear();
  is_tt.clear();
  senders.clear();
  for (const CanMessage& m : msgs) {
    rank.push_back(m.arbitration_rank());
    cost.push_back(m.wcet(matrix.timing(), config.worst_case_stuffing));
    activation.push_back(m.activation());
    is_tt.push_back(config.use_offsets && m.tt_offset.has_value());
    std::size_t s = 0;
    while (s < senders.size() && *senders[s] != m.sender) ++s;
    if (s == senders.size()) senders.push_back(&m.sender);
    sender_of.push_back(s);
  }
  const std::size_t n_senders = senders.size();
  basic.assign(n_senders, 0);
  tx_buffers.assign(n_senders, 0);
  for (std::size_t s = 0; s < n_senders; ++s) {
    const EcuNode* node = matrix.find_node(*senders[s]);
    basic[s] = config.model_controller_queues && node != nullptr &&
               node->controller == ControllerType::kBasicCan;
    tx_buffers[s] = node != nullptr ? node->tx_buffers : 0;
  }

  // Arbitration order, ties (possible only before validation) by index.
  // Probes that edit anything but IDs keep the ranks, and so the order,
  // of the previous resolve.
  if (rank != order_rank) {
    order.resize(n);
    for (std::size_t k = 0; k < n; ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return rank[x] != rank[y] ? rank[x] < rank[y] : x < y;
    });
    pos.resize(n);
    for (std::size_t j = 0; j < n; ++j) pos[order[j]] = j;
    above.resize(n);
    at_or_above.resize(n);
    rank_bounds(order, rank, above, at_or_above);
    order_rank = rank;
  }

  // Each sender's messages in arbitration order (a counting sort of
  // `order`), and their offset-scheduled subsequence.
  sender_begin.assign(n_senders + 1, 0);
  for (std::size_t k = 0; k < n; ++k) ++sender_begin[sender_of[k] + 1];
  for (std::size_t s = 0; s < n_senders; ++s) sender_begin[s + 1] += sender_begin[s];
  by_sender.resize(n);
  last.assign(sender_begin.begin(), sender_begin.end() - 1);  // Fill cursors until set below.
  for (const std::size_t k : order) by_sender[last[sender_of[k]]++] = k;
  own_above.resize(n);
  own_at_or_above.resize(n);
  tt_begin.assign(1, 0);
  tt_msg.clear();
  tt_senders.clear();
  for (std::size_t s = 0; s < n_senders; ++s) {
    const std::span<const std::size_t> own{by_sender.data() + sender_begin[s],
                                           sender_begin[s + 1] - sender_begin[s]};
    last[s] = own.back();
    rank_bounds(own, rank, own_above, own_at_or_above);
    for (const std::size_t k : own)
      if (is_tt[k]) tt_msg.push_back(k);
    if (tt_msg.size() > tt_begin.back()) tt_senders.push_back(s);
    tt_begin.push_back(tt_msg.size());
  }

  // Frame-cost columns: the largest frame at or above each cut, and the
  // largest below it with the lowest matrix index among equals.
  cost_prefix_max.resize(n + 1);
  cost_prefix_max[0] = Duration::zero();
  for (std::size_t j = 0; j < n; ++j)
    cost_prefix_max[j + 1] = max(cost_prefix_max[j], cost[order[j]]);
  block_cost.resize(n + 1);
  block_frame.resize(n + 1);
  block_cost[n] = Duration::zero();
  block_frame[n] = kNone;
  for (std::size_t j = n; j-- > 0;) {
    const std::size_t k = order[j];
    const Duration c = cost[k];
    const bool take = c > block_cost[j + 1] ||
                      (c == block_cost[j + 1] && c > Duration::zero() && k < block_frame[j + 1]);
    block_cost[j] = take ? c : block_cost[j + 1];
    block_frame[j] = take ? k : block_frame[j + 1];
  }
}

const BusFacts& resolve_bus(const KMatrix& km, const CanRtaConfig& cfg) {
  static thread_local BusFacts facts;
  facts.resolve(km, cfg);
  return facts;
}

namespace {

/// The hp column values of the messages analyzed through event models, in
/// arbitration order: count[j] of them lie in order[0, j). Only a pack
/// reads them, so resolving for a fingerprint does not build them.
struct EventModelColumns {
  std::vector<std::size_t> count, msg;
  std::vector<Duration> period, jitter, dmin, cost;

  void build(const BusFacts& f) {
    const std::size_t n = f.order.size();
    count.resize(n + 1);
    msg.clear();
    period.clear();
    jitter.clear();
    dmin.clear();
    cost.clear();
    for (std::size_t j = 0; j < n; ++j) {
      count[j] = msg.size();
      const std::size_t k = f.order[j];
      if (f.is_tt[k]) continue;
      msg.push_back(k);
      period.push_back(f.activation[k].period());
      jitter.push_back(f.activation[k].jitter());
      dmin.push_back(f.activation[k].min_distance());
      cost.push_back(f.cost[k]);
    }
    count[n] = msg.size();
  }
};

/// Make room in `out` for `rows` rows holding `hp_entries` hp entries.
void reserve(ColumnarBus& out, std::size_t rows, std::size_t hp_entries) {
  for (auto* column : {&out.cost, &out.bcrt, &out.deadline, &out.blocking, &out.max_retx,
                       &out.act_period, &out.act_jitter, &out.act_dmin})
    column->reserve(rows);
  out.hp_begin.reserve(rows + 1);
  out.tt_begin.reserve(rows + 1);
  for (auto* column : {&out.hp_period, &out.hp_jitter, &out.hp_dmin, &out.hp_cost})
    column->reserve(hp_entries);
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
  pack_bus(resolve_bus(km, cfg), out, all_rows(km.size()));
}

void pack_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out,
              std::span<const std::size_t> rows, std::vector<ContextLabels>* labels) {
  pack_bus(resolve_bus(km, cfg), out, rows, labels);
}

void pack_bus(const BusFacts& f, ColumnarBus& out, std::span<const std::size_t> rows,
              std::vector<ContextLabels>* labels) {
  check_rows(f, rows);
  const KMatrix& km = *f.km;
  const CanRtaConfig& cfg = *f.cfg;
  const auto& msgs = km.messages();

  out.clear();
  out.timing = km.timing();
  out.horizon = cfg.horizon;
  out.errors = cfg.errors;
  if (labels != nullptr) labels->assign(rows.size(), ContextLabels{});
  static thread_local EventModelColumns em;
  em.build(f);
  // Size the columns once: a row copies at most the event-model messages
  // ranked above its effective rank (offset-group fallbacks aside).
  std::size_t hp_size = 0;
  for (const std::size_t i : rows) hp_size += em.count[row_of(f, i).others];
  reserve(out, rows.size(), hp_size);

  static thread_local std::vector<std::size_t> group;
  static thread_local std::vector<TtGroup::Member> members;

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

    // Event-model interferers: the rank-sorted hp columns of
    // order[0, others), copied in runs around the sender's messages that
    // rank between its own and its effective rank (none on fullCAN).
    const Row row = row_of(f, i);
    const std::size_t base = out.hp_period.size();
    const auto copy_run = [&](std::size_t lo, std::size_t hi) {
      append(out.hp_period, em.period, lo, hi);
      append(out.hp_jitter, em.jitter, lo, hi);
      append(out.hp_dmin, em.dmin, lo, hi);
      append(out.hp_cost, em.cost, lo, hi);
      if (lab != nullptr)
        for (std::size_t e = lo; e < hi; ++e) lab->hp.push_back(msgs[em.msg[e]].name);
    };
    std::size_t from = 0;
    for (std::size_t t = row.own; t < row.own_eff; ++t) {
      const std::size_t k = f.by_sender[f.sender_begin[row.sender] + t];
      copy_run(from, em.count[f.pos[k]]);
      from = em.count[f.pos[k] + 1];
    }
    copy_run(from, em.count[row.others]);
    out.hp_begin.push_back(base);

    const RowBlocking b = row_blocking(f, i, row);
    out.blocking.push_back(b.bus + b.intra);
    out.max_retx.push_back(b.max_retx);
    if (lab != nullptr) {
      lab->bus_blocking = b.bus;
      lab->intra_node_blocking = b.intra;
      if (b.frame < msgs.size()) lab->blocking_frame = msgs[b.frame].name;
    }

    // Each sender's offset-scheduled interferers form one TtGroup: the
    // head of its arbitration-ordered list that ranks above the cut. A
    // group whose hyperperiod is unbounded falls back to offset-blind
    // event models among the hp entries.
    out.tt_begin.push_back(out.tt_groups.size());
    for (const std::size_t s : f.tt_senders) {
      const std::size_t cut = s == row.sender ? f.above[i] : row.others;
      group.clear();
      for (std::size_t t = f.tt_begin[s]; t < f.tt_begin[s + 1] && f.pos[f.tt_msg[t]] < cut; ++t)
        group.push_back(f.tt_msg[t]);
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
          const EventModel blind = EventModel::periodic_jitter(msgs[k].period, msgs[k].jitter);
          out.hp_period.push_back(blind.period());
          out.hp_jitter.push_back(blind.jitter());
          out.hp_dmin.push_back(blind.min_distance());
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
/// to nothing and starts cold, so the plain solve pays no bookkeeping;
/// the tracing recorder fills a SolveTrace, keeping the window iterates
/// of the instance that attains the WCRT. start/fixed see fixed point i
/// (0 the busy period, q + 1 the window of instance q) and the fault
/// overhead its operator charges.
struct NullSolveRecorder {
  template <typename O>
  Duration start(std::size_t, Duration cold, const O&) { return cold; }
  template <typename O>
  void fixed(std::size_t, Duration, const O&) {}
  void busy_iterate(Duration) {}
  void begin_instance(std::int64_t) {}
  void window_iterate(Duration) {}
  void instance_result(std::int64_t, Duration, Duration) {}
};

/// Starts fixed point i at the operator's first iterate from the point x
/// the last solve reached, rest + overhead(x), capped at the horizon so a
/// start past it still reads as divergence.
struct WarmStartRecorder : NullSolveRecorder {
  WarmStart& warm;
  Duration horizon;

  template <typename O>
  Duration start(std::size_t i, Duration cold, const O& overhead) {
    if (i >= warm.points.size()) return cold;
    const WarmStart::Point& p = warm.points[i];
    return max(cold, min(p.rest + overhead(p.x), horizon));
  }
  template <typename O>
  void fixed(std::size_t i, Duration x, const O& overhead) {
    if (i >= warm.points.size()) warm.points.resize(i + 1);
    warm.points[i] = {x, x - overhead(x)};
  }
};

struct TracingSolveRecorder : NullSolveRecorder {
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
      rec.start(0, blocking + c_m, error_overhead), bus.horizon, iterations,
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
  rec.fixed(0, busy, error_overhead);

  const std::int64_t q_max = eta_plus(busy, act_p, act_j, act_d);
  res.instances = q_max;
  Duration wcrt = Duration::zero();
  const auto window_overhead = [&](Duration t) { return error_overhead(t + c_m); };
  for (std::int64_t q = 0; q < q_max; ++q) {
    // Queueing delay of instance q (0-based): blocking, q earlier
    // instances of m, higher-priority frames that win arbitration before
    // instance q gets the bus (a frame queued up to one bit time after
    // the arbitration decision still wins), and fault recovery covering
    // the window up to the end of instance q's transmission.
    rec.begin_instance(q);
    const auto i = static_cast<std::size_t>(q) + 1;
    const Duration w = fixed_point(
        rec.start(i, blocking + q * c_m, window_overhead), bus.horizon, iterations,
        [&](Duration t) {
          return blocking + q * c_m + hp_interference(t + tau_bit) + window_overhead(t);
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
    rec.fixed(i, w, window_overhead);
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

MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r, const ErrorModel& errors,
                             WarmStart& warm) {
  WarmStartRecorder rec{{}, warm, bus.horizon};
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

std::vector<MessageResult> solve_rows(const BusFacts& facts, std::span<const std::size_t> rows) {
  static thread_local ColumnarBus bus;
  pack_bus(facts, bus, rows);
  const auto& msgs = facts.km->messages();
  std::vector<MessageResult> out;
  out.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    MessageResult& res = out.emplace_back(solve_columnar(bus, r));
    res.name = msgs[rows[r]].name;
    res.id = msgs[rows[r]].id;
  }
  return out;
}

std::vector<MessageResult> solve_rows(const KMatrix& km, const CanRtaConfig& cfg,
                                      std::span<const std::size_t> rows) {
  return solve_rows(resolve_bus(km, cfg), rows);
}

std::vector<MessageResult> solve_rows(const KMatrix& km, const CanRtaConfig& cfg) {
  return solve_rows(resolve_bus(km, cfg), all_rows(km.size()));
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
  /// Exact inverse of add(): the lanes wrap around, so removal undoes it
  /// bit for bit.
  void remove(const ContextKey& k) {
    a -= k.a;
    b -= k.b;
    --n;
  }
  void add(const MultisetAcc& m) {
    a += m.a;
    b += m.b;
    n += m.n;
  }
  void remove(const MultisetAcc& m) {
    a -= m.a;
    b -= m.b;
    n -= m.n;
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
  return bus_fingerprints(resolve_bus(km, cfg));
}

std::vector<ContextKey> bus_fingerprints(const KMatrix& km, const CanRtaConfig& cfg,
                                         std::span<const std::size_t> rows) {
  return bus_fingerprints(resolve_bus(km, cfg), rows);
}

std::vector<ContextKey> bus_fingerprints(const BusFacts& facts) {
  return bus_fingerprints(facts, all_rows(facts.rank.size()));
}

std::vector<ContextKey> bus_fingerprints(const BusFacts& f, std::span<const std::size_t> rows) {
  check_rows(f, rows);
  const KMatrix& km = *f.km;
  const CanRtaConfig& cfg = *f.cfg;
  const auto& msgs = km.messages();
  const std::size_t n = msgs.size();
  const std::size_t n_senders = f.senders.size();

  // A row reads only order[0, others), so the prefixes stop at the
  // furthest cut any requested row reaches.
  std::size_t reach = 0;
  for (const std::size_t i : rows) reach = std::max(reach, row_of(f, i).others);

  // Prefix multisets over the arbitration order: hp_above[j] holds the
  // element hashes of the event-model messages of order[0, j), tt_above[j]
  // the group hash of each sender's offset-scheduled messages among them,
  // kept current through one running group accumulator per sender. Each
  // element is hashed once; every row below is then a few additions.
  static thread_local std::vector<ContextKey> element;
  static thread_local std::vector<MultisetAcc> hp_above, tt_above, groups;
  element.resize(n);
  hp_above.resize(reach + 1);
  tt_above.resize(reach + 1);
  hp_above[0] = tt_above[0] = MultisetAcc{};
  groups.assign(n_senders, MultisetAcc{});
  for (std::size_t j = 0; j < reach; ++j) {
    const std::size_t k = f.order[j];
    element[k] = f.is_tt[k] ? tt_member_hash(tt_member(msgs[k], f.cost[k]))
                            : hp_entry_hash(f.activation[k], f.cost[k]);
    hp_above[j + 1] = hp_above[j];
    tt_above[j + 1] = tt_above[j];
    if (!f.is_tt[k]) {
      hp_above[j + 1].add(element[k]);
      continue;
    }
    MultisetAcc& g = groups[f.sender_of[k]];
    if (g.n > 0) tt_above[j + 1].remove(tt_group_hash(g));
    g.add(element[k]);
    tt_above[j + 1].add(tt_group_hash(g));
  }
  // The same prefixes per sender over its own messages: the first t of
  // sender s sit at own_hp/own_tt[sender_begin[s] + s + t].
  static thread_local std::vector<MultisetAcc> own_hp, own_tt;
  own_hp.resize(n + n_senders);
  own_tt.resize(n + n_senders);
  for (std::size_t s = 0; s < n_senders; ++s) {
    std::size_t at = f.sender_begin[s] + s;
    own_hp[at] = own_tt[at] = MultisetAcc{};
    for (std::size_t t = f.sender_begin[s];
         t < f.sender_begin[s + 1] && f.pos[f.by_sender[t]] < reach; ++t, ++at) {
      const std::size_t k = f.by_sender[t];
      own_hp[at + 1] = own_hp[at];
      own_tt[at + 1] = own_tt[at];
      (f.is_tt[k] ? own_tt : own_hp)[at + 1].add(element[k]);
    }
  }

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
    // The row's interferers as the rule states them: everything ranked
    // above the effective rank, less the sender's own share of it, plus
    // the sender's messages ranked above i. The same-sender terms cancel
    // on a fullCAN row.
    const Row row = row_of(f, i);
    const std::size_t own = f.sender_begin[row.sender] + row.sender;
    MultisetAcc hp = hp_above[row.others];
    hp.remove(own_hp[own + row.own_eff]);
    hp.add(own_hp[own + row.own]);
    MultisetAcc tt = tt_above[row.others];
    if (const MultisetAcc& g = own_tt[own + row.own_eff]; g.n > 0) tt.remove(tt_group_hash(g));
    if (const MultisetAcc& g = own_tt[own + row.own]; g.n > 0) tt.add(tt_group_hash(g));
    const RowBlocking b = row_blocking(f, i, row);

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
