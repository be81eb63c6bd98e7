#include "symcan/sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <stdexcept>

#include "symcan/can/frame.hpp"
#include "symcan/obs/obs.hpp"

namespace symcan {

SimErrorProcess SimErrorProcess::sporadic(Duration min_gap) {
  SimErrorProcess p;
  p.kind = Kind::kSporadic;
  p.min_gap = min_gap;
  return p;
}

SimErrorProcess SimErrorProcess::burst(Duration min_gap, std::int64_t burst_len) {
  SimErrorProcess p;
  p.kind = Kind::kBurst;
  p.min_gap = min_gap;
  p.burst_len = burst_len;
  return p;
}

Duration MessageStats::percentile(double p) const {
  if (responses.empty()) return Duration::zero();
  if (p <= 0) return responses.front();
  if (p >= 1) return responses.back();
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(responses.size() - 1));
  return responses[idx];
}

const MessageStats* SimResult::find(const std::string& name) const {
  for (const auto& m : messages)
    if (m.name == name) return &m;
  return nullptr;
}

const NodeStats* SimResult::find_node(const std::string& name) const {
  for (const auto& n : nodes)
    if (n.name == name) return &n;
  return nullptr;
}

namespace {

enum class EvKind : std::uint8_t { kRelease, kTxEnd, kRecoveryEnd, kFault, kBurstStart, kBurstHit };

struct Event {
  Duration time = Duration::zero();
  std::uint64_t seq = 0;  // FIFO tie-break for simultaneous events
  EvKind kind = EvKind::kRelease;
  std::size_t msg = 0;        // kRelease
  std::uint64_t tx_gen = 0;   // kTxEnd / kBurstHit validity check
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// One queued-but-not-transmitting instance of a message.
struct PendingInstance {
  std::int64_t instance = 0;
  Duration release = Duration::zero();
  int retransmits = 0;
};

class Simulation {
 public:
  Simulation(const KMatrix& km, const SimConfig& cfg)
      : km_{km}, cfg_{cfg}, rng_{cfg.seed}, tau_{km.timing().bit_time()} {
    km_.validate();
    const auto& msgs = km_.messages();
    buffers_.resize(msgs.size());
    next_instance_.resize(msgs.size(), 0);
    last_jitter_.resize(msgs.size(), Duration::zero());
    response_sum_us_.resize(msgs.size(), 0.0);
    node_index_.resize(msgs.size());
    stats_.resize(msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      stats_[i].name = msgs[i].name;
      std::size_t ni = 0;
      for (std::size_t n = 0; n < km_.nodes().size(); ++n)
        if (km_.nodes()[n].name == msgs[i].sender) ni = n;
      node_index_[i] = ni;
    }
    fifos_.resize(km_.nodes().size());
    node_stats_.resize(km_.nodes().size());
    tec_.resize(km_.nodes().size(), 0);
    bus_off_until_.resize(km_.nodes().size(), Duration::zero());
    for (std::size_t n = 0; n < km_.nodes().size(); ++n)
      node_stats_[n].name = km_.nodes()[n].name;
    max_frame_wc_ = Duration::zero();
    for (const auto& m : msgs)
      max_frame_wc_ = max(max_frame_wc_, frame_time_worst_case(km_.timing(), m.format,
                                                               m.payload_bytes));
  }

  SimResult run() {
    // Initial releases: TimeTable messages start exactly at their offset;
    // others get a random phase inside the first period.
    for (std::size_t i = 0; i < km_.size(); ++i) {
      const auto& m = km_.messages()[i];
      Duration phase = Duration::zero();
      if (m.tt_offset)
        phase = *m.tt_offset;
      else if (cfg_.randomize_jitter)
        phase = rng_.uniform_duration(Duration::zero(), m.period);
      push(Event{phase, seq_++, EvKind::kRelease, i, 0});
    }
    switch (cfg_.errors.kind) {
      case SimErrorProcess::Kind::kNone:
        break;
      case SimErrorProcess::Kind::kSporadic:
        push(Event{next_fault_gap(), seq_++, EvKind::kFault, 0, 0});
        break;
      case SimErrorProcess::Kind::kBurst:
        push(Event{next_fault_gap(), seq_++, EvKind::kBurstStart, 0, 0});
        break;
    }

    std::int64_t dispatched = 0;
    const auto wall0 = std::chrono::steady_clock::now();
    {
      SYMCAN_OBS_SPAN("sim.run");
      while (!events_.empty()) {
        Event ev = events_.top();
        if (ev.time > cfg_.duration) break;
        events_.pop();
        now_ = ev.time;
        dispatch(ev);
        ++dispatched;
      }
    }
    if (obs::enabled()) {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
      auto& m = obs::metrics();
      m.counter("sim.runs").add(1);
      m.counter("sim.events").add(dispatched);
      m.counter("sim.errors_injected").add(total_errors_);
      if (wall_s > 0)
        m.gauge("sim.events_per_sec").set(static_cast<double>(dispatched) / wall_s);
    }

    SimResult out;
    out.messages = std::move(stats_);
    for (std::size_t i = 0; i < out.messages.size(); ++i) {
      MessageStats& s = out.messages[i];
      if (s.completions > 0)
        s.avg_response_us = response_sum_us_[i] / static_cast<double>(s.completions);
      if (s.bcrt_observed.is_infinite() && s.completions == 0) s.bcrt_observed = Duration::zero();
    }
    for (auto& m : out.messages) std::sort(m.responses.begin(), m.responses.end());
    out.nodes = std::move(node_stats_);
    out.total_errors_injected = total_errors_;
    out.simulated = cfg_.duration;
    out.trace = std::move(trace_);
    return out;
  }

 private:
  struct Tx {
    std::size_t msg = 0;
    PendingInstance inst;
    Duration start = Duration::zero();
    Duration end = Duration::zero();
    std::uint64_t gen = 0;
  };

  void push(Event e) { events_.push(e); }

  void record(TraceEventType t, std::size_t msg, std::int64_t instance) {
    if (cfg_.record_trace) trace_.record(now_, t, km_.messages()[msg].name, instance);
  }

  Duration next_fault_gap() {
    // Gaps strictly respect the model's minimum distance; randomization
    // only adds slack, so analysis bounds remain valid oracles.
    const Duration g = cfg_.errors.min_gap;
    if (!cfg_.randomize_jitter) return g;
    return g + rng_.uniform_duration(Duration::zero(), g);
  }

  Duration sample_frame_time(std::size_t i) {
    const auto& m = km_.messages()[i];
    const std::int64_t lo = frame_bits_unstuffed(m.format, m.payload_bytes);
    const std::int64_t hi = frame_bits_worst_case(m.format, m.payload_bytes);
    switch (cfg_.stuffing) {
      case StuffingMode::kNone:
        return km_.timing().duration_of(lo);
      case StuffingMode::kWorstCase:
        return km_.timing().duration_of(hi);
      case StuffingMode::kRandom:
        return km_.timing().duration_of(rng_.uniform_int(lo, hi));
    }
    return km_.timing().duration_of(hi);
  }

  void dispatch(const Event& ev) {
    switch (ev.kind) {
      case EvKind::kRelease:
        on_release(ev.msg);
        break;
      case EvKind::kTxEnd:
        if (tx_ && tx_->gen == ev.tx_gen) on_tx_end();
        break;
      case EvKind::kRecoveryEnd:
        recovering_ = false;
        try_start();
        break;
      case EvKind::kFault:
        on_sporadic_fault();
        break;
      case EvKind::kBurstStart:
        on_burst_start();
        break;
      case EvKind::kBurstHit:
        if (tx_ && tx_->gen == ev.tx_gen && burst_remaining_ > 0) consume_burst_hit();
        break;
    }
  }

  void on_release(std::size_t i) {
    const auto& m = km_.messages()[i];
    ++stats_[i].activations;
    record(TraceEventType::kRelease, i, next_instance_[i]);
    enqueue(i, PendingInstance{next_instance_[i], now_, 0});
    ++next_instance_[i];

    // Schedule the next activation: n*T + U(0, J) after this one's
    // nominal slot; clamp to now (a very late instance cannot precede the
    // event that schedules it).
    const Duration jit = cfg_.randomize_jitter
                             ? rng_.uniform_duration(Duration::zero(), m.jitter)
                             : m.jitter;
    const Duration nominal_next = now_ - last_jitter_[i] + m.period;
    // Strictly-later clamp: bursty jitter (J >= T) may pull the next
    // release before this one; 1 ns forward progress keeps the event loop
    // finite.
    Duration t_next = max(nominal_next + jit, now_ + Duration::ns(1));
    last_jitter_[i] = jit;
    push(Event{t_next, seq_++, EvKind::kRelease, i, 0});
    try_start();
  }

  /// Place an instance into its message buffer. A still-pending older
  /// instance is overwritten — the paper's loss criterion. basicCAN nodes
  /// then top up their hardware transmit FIFO.
  void enqueue(std::size_t i, PendingInstance inst) {
    auto& buf = buffers_[i];
    if (buf) {
      ++stats_[i].losses;
      record(TraceEventType::kLoss, i, buf->instance);
      *buf = inst;  // keeps any committed FIFO position
    } else {
      buf = inst;
    }
    refill_fifo(node_index_[i]);
  }

  /// basicCAN: software driver keeps pending frames priority-sorted and
  /// commits them into the (non-abortable, FIFO-drained) hardware
  /// transmit buffers whenever a slot is free. Committed order is what
  /// creates the intra-node priority inversion the analysis charges.
  void refill_fifo(std::size_t node_idx) {
    const EcuNode& node = km_.nodes()[node_idx];
    if (node.controller != ControllerType::kBasicCan) return;
    auto& fifo = fifos_[node_idx];
    while (fifo.size() < static_cast<std::size_t>(node.tx_buffers)) {
      std::optional<std::size_t> best;
      for (std::size_t i = 0; i < km_.size(); ++i) {
        if (node_index_[i] != node_idx || !buffers_[i]) continue;
        if (std::find(fifo.begin(), fifo.end(), i) != fifo.end()) continue;
        if (!best ||
            km_.messages()[i].arbitration_rank() < km_.messages()[*best].arbitration_rank())
          best = i;
      }
      if (!best) break;
      fifo.push_back(*best);
    }
  }

  /// The frame this node would present to arbitration, or nullopt.
  std::optional<std::size_t> node_candidate(std::size_t node_idx) const {
    if (now_ < bus_off_until_[node_idx]) return std::nullopt;  // node silent
    const EcuNode& node = km_.nodes()[node_idx];
    if (node.controller == ControllerType::kBasicCan) {
      const auto& fifo = fifos_[node_idx];
      if (fifo.empty()) return std::nullopt;
      return fifo.front();
    }
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < km_.size(); ++i) {
      if (node_index_[i] != node_idx || !buffers_[i]) continue;
      if (!best ||
          km_.messages()[i].arbitration_rank() < km_.messages()[*best].arbitration_rank())
        best = i;
    }
    return best;
  }

  void try_start() {
    if (tx_ || recovering_) return;
    std::optional<std::size_t> winner;
    for (std::size_t n = 0; n < km_.nodes().size(); ++n) {
      const auto cand = node_candidate(n);
      if (!cand) continue;
      if (!winner ||
          km_.messages()[*cand].arbitration_rank() < km_.messages()[*winner].arbitration_rank())
        winner = cand;
    }
    if (!winner) return;

    const std::size_t i = *winner;
    Tx tx;
    tx.msg = i;
    tx.inst = *buffers_[i];
    tx.start = now_;
    tx.end = now_ + sample_frame_time(i);
    tx.gen = ++gen_;
    buffers_[i].reset();
    auto& fifo = fifos_[node_index_[i]];
    if (!fifo.empty() && fifo.front() == i) fifo.pop_front();
    refill_fifo(node_index_[i]);
    tx_ = tx;
    record(TraceEventType::kTxStart, i, tx.inst.instance);

    if (burst_remaining_ > 0 && now_ <= burst_expires_) {
      // Burst in progress: this transmission is corrupted after its first
      // bit (keeps all faults of the burst tightly clustered, within the
      // extent the BurstErrors analysis model charges for).
      push(Event{now_ + tau_, seq_++, EvKind::kBurstHit, 0, tx.gen});
    } else {
      push(Event{tx.end, seq_++, EvKind::kTxEnd, 0, tx.gen});
    }
  }

  void on_tx_end() {
    const Tx tx = *tx_;
    tx_ = std::nullopt;
    auto& s = stats_[tx.msg];
    ++s.completions;
    const Duration r = now_ - tx.inst.release;
    s.wcrt_observed = max(s.wcrt_observed, r);
    s.bcrt_observed = min(s.bcrt_observed, r);
    if (cfg_.record_percentiles) s.responses.push_back(r);
    response_sum_us_[tx.msg] += r.as_us();
    if (cfg_.model_fault_confinement && tec_[node_index_[tx.msg]] > 0)
      --tec_[node_index_[tx.msg]];
    record(TraceEventType::kTxEnd, tx.msg, tx.inst.instance);
    try_start();
  }

  /// Corrupt the frame currently in transmission at time `now_`.
  void corrupt_current() {
    Tx tx = *tx_;
    tx_ = std::nullopt;
    ++total_errors_;
    ++stats_[tx.msg].retransmissions;
    record(TraceEventType::kError, tx.msg, tx.inst.instance);

    // The instance returns to its buffer for retransmission — unless a
    // newer instance already claimed the buffer, in which case the
    // corrupted one is lost.
    ++tx.inst.retransmits;
    if (buffers_[tx.msg]) {
      ++stats_[tx.msg].losses;
      record(TraceEventType::kLoss, tx.msg, tx.inst.instance);
    } else {
      buffers_[tx.msg] = tx.inst;
      if (km_.nodes()[node_index_[tx.msg]].controller == ControllerType::kBasicCan)
        fifos_[node_index_[tx.msg]].push_front(tx.msg);
      record(TraceEventType::kRetransmit, tx.msg, tx.inst.instance);
    }
    if (cfg_.model_fault_confinement) {
      const std::size_t node = node_index_[tx.msg];
      tec_[node] += 8;
      node_stats_[node].peak_tec = std::max(node_stats_[node].peak_tec, tec_[node]);
      if (tec_[node] >= 256) {
        // Bus-off: the node falls silent for the standard recovery span
        // (128 x 11 recessive bits), then rejoins with a clean counter.
        const Duration recovery = km_.timing().duration_of(128 * 11);
        bus_off_until_[node] = now_ + recovery;
        node_stats_[node].silent_time += recovery;
        ++node_stats_[node].bus_off_events;
        tec_[node] = 0;
        push(Event{bus_off_until_[node], seq_++, EvKind::kRecoveryEnd, 0, 0});
      }
    }
    recovering_ = true;
    push(Event{now_ + km_.timing().duration_of(error_frame_bits), seq_++, EvKind::kRecoveryEnd, 0,
               0});
  }

  void on_sporadic_fault() {
    if (tx_ && now_ >= tx_->start && now_ < tx_->end) corrupt_current();
    push(Event{now_ + next_fault_gap(), seq_++, EvKind::kFault, 0, 0});
  }

  void on_burst_start() {
    burst_remaining_ = cfg_.errors.burst_len;
    // All faults of this burst must fall within the extent the analysis
    // model charges: (k-1) recovery+retransmission slots from the first.
    burst_expires_ = now_ + (cfg_.errors.burst_len - 1) *
                                (km_.timing().duration_of(error_frame_bits) + max_frame_wc_);
    if (tx_ && now_ >= tx_->start && now_ < tx_->end) consume_burst_hit();
    push(Event{now_ + next_fault_gap(), seq_++, EvKind::kBurstStart, 0, 0});
  }

  void consume_burst_hit() {
    --burst_remaining_;
    corrupt_current();
  }

  const KMatrix& km_;
  const SimConfig& cfg_;
  Rng rng_;
  Duration tau_;
  Duration now_ = Duration::zero();
  std::uint64_t seq_ = 0;
  std::uint64_t gen_ = 0;

  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::vector<std::optional<PendingInstance>> buffers_;
  std::vector<std::int64_t> next_instance_;
  std::vector<std::size_t> node_index_;
  std::vector<std::deque<std::size_t>> fifos_;
  std::vector<Duration> last_jitter_;  ///< Per message: its last release's jitter.
  std::optional<Tx> tx_;
  bool recovering_ = false;

  Duration max_frame_wc_ = Duration::zero();
  std::int64_t burst_remaining_ = 0;
  Duration burst_expires_ = Duration::zero();
  std::int64_t total_errors_ = 0;

  std::vector<MessageStats> stats_;
  std::vector<NodeStats> node_stats_;
  std::vector<std::int64_t> tec_;
  std::vector<Duration> bus_off_until_;
  std::vector<double> response_sum_us_;  ///< Per message, in completion order.
  Trace trace_;
};

}  // namespace

SimResult simulate(const KMatrix& km, const SimConfig& cfg) {
  if (cfg.duration <= Duration::zero())
    throw std::invalid_argument("simulate: duration must be > 0");
  Simulation sim{km, cfg};
  return sim.run();
}

}  // namespace symcan
