#include "symcan/sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

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
    km_.validate();  // unique (format, id), so unique arbitration ranks
    const auto& msgs = km_.messages();
    by_rank_ = km_.priority_order();
    rank_of_.resize(msgs.size());
    for (std::size_t r = 0; r < msgs.size(); ++r) rank_of_[by_rank_[r]] = r;
    ready_.resize((msgs.size() + 63) / 64, 0);
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
    node_msgs_.resize(km_.nodes().size());
    for (const std::size_t i : by_rank_) node_msgs_[node_index_[i]].push_back(i);
    node_stats_.resize(km_.nodes().size());
    tec_.resize(km_.nodes().size(), 0);
    bus_off_until_.resize(km_.nodes().size(), Duration::zero());
    for (std::size_t n = 0; n < km_.nodes().size(); ++n)
      node_stats_[n].name = km_.nodes()[n].name;
    for (const auto& m : msgs)
      frame_bits_.emplace_back(frame_bits_unstuffed(m.format, m.payload_bytes),
                               frame_bits_worst_case(m.format, m.payload_bytes));
    for (const auto& [lo, hi] : frame_bits_)
      max_frame_wc_ = max(max_frame_wc_, km_.timing().duration_of(hi));
    if (cfg_.record_trace) {
      // Three events (release, start, end) per release, and three more
      // (error, retransmit or loss, restart) per fault, of which the bus
      // fits at most one per error frame. Reserving short of the count
      // would reallocate to twice it; past 1e8 events the trace grows.
      const auto count = [&](Duration gap) { return cfg_.duration.as_s() / gap.as_s() + 1; };
      double n = 0;
      for (const auto& m : msgs) n += count(m.period);
      if (cfg_.errors.kind != SimErrorProcess::Kind::kNone)
        n += std::min(count(km_.timing().duration_of(error_frame_bits)),
                      count(cfg_.errors.min_gap) * static_cast<double>(cfg_.errors.burst_len));
      trace_.reserve(static_cast<std::size_t>(std::clamp(3 * n, 0.0, 1e8)));
    }
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
    const auto [lo, hi] = frame_bits_[i];
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
    if (basic_can(node_index_[i]))
      refill_fifo(node_index_[i]);
    else
      set_ready(i, true);
  }

  bool basic_can(std::size_t node_idx) const {
    return km_.nodes()[node_idx].controller == ControllerType::kBasicCan;
  }

  /// Marks message i as presented to arbitration (or not).
  void set_ready(std::size_t i, bool on) {
    const std::size_t r = rank_of_[i];
    const std::uint64_t bit = std::uint64_t{1} << (r % 64);
    ready_[r / 64] = on ? ready_[r / 64] | bit : ready_[r / 64] & ~bit;
  }

  /// basicCAN presents only the head of its FIFO; call after every FIFO
  /// change.
  void sync_front(std::size_t node_idx) {
    const auto& fifo = fifos_[node_idx];
    for (std::size_t k = 0; k < fifo.size(); ++k) set_ready(fifo[k], k == 0);
  }

  /// basicCAN: software driver keeps pending frames priority-sorted and
  /// commits them into the (non-abortable, FIFO-drained) hardware
  /// transmit buffers whenever a slot is free. Committed order is what
  /// creates the intra-node priority inversion the analysis charges.
  void refill_fifo(std::size_t node_idx) {
    auto& fifo = fifos_[node_idx];
    const auto slots = static_cast<std::size_t>(km_.nodes()[node_idx].tx_buffers);
    for (const std::size_t i : node_msgs_[node_idx]) {
      if (fifo.size() >= slots) break;
      if (buffers_[i] && std::find(fifo.begin(), fifo.end(), i) == fifo.end()) fifo.push_back(i);
    }
    sync_front(node_idx);
  }

  /// The winner is the lowest presented rank whose sender is not bus-off.
  void try_start() {
    if (tx_ || recovering_) return;
    std::size_t i = km_.size();
    for (std::size_t w = 0; w < ready_.size() && i == km_.size(); ++w) {
      for (std::uint64_t bits = ready_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t m = by_rank_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        if (now_ >= bus_off_until_[node_index_[m]]) {
          i = m;
          break;
        }
      }
    }
    if (i == km_.size()) return;

    Tx tx;
    tx.msg = i;
    tx.inst = *buffers_[i];
    tx.start = now_;
    tx.end = now_ + sample_frame_time(i);
    tx.gen = ++gen_;
    buffers_[i].reset();
    set_ready(i, false);
    if (basic_can(node_index_[i])) {
      fifos_[node_index_[i]].pop_front();
      refill_fifo(node_index_[i]);
    }
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
      const std::size_t node = node_index_[tx.msg];
      if (basic_can(node)) {
        fifos_[node].push_front(tx.msg);
        sync_front(node);
      } else {
        set_ready(tx.msg, true);
      }
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
  std::vector<std::size_t> by_rank_;  ///< Rank position -> message, lowest rank first.
  std::vector<std::size_t> rank_of_;  ///< Message -> rank position.
  std::vector<std::vector<std::size_t>> node_msgs_;  ///< Per node, its messages by rank.
  /// One bit per rank position: the frames nodes present to arbitration
  /// (fullCAN: every pending buffer; basicCAN: the FIFO head).
  std::vector<std::uint64_t> ready_;
  std::vector<std::pair<std::int64_t, std::int64_t>> frame_bits_;  ///< Unstuffed, worst case.
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
