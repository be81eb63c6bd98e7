#include "symcan/stream/analyzer.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>

#include "symcan/obs/export.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/sim/validation.hpp"
#include "symcan/util/table.hpp"

namespace symcan::stream {

namespace {

/// value += (sample - value) >> shift — the integer EWMA every baseline
/// uses. Arithmetic shift of the signed error rounds toward -inf on both
/// branches identically on every platform we target, so the trajectory is
/// bit-exact regardless of chunking or host.
inline void ewma_update(std::int64_t& value, std::int64_t sample, int shift) {
  value += (sample - value) >> shift;
}

}  // namespace

const MessageStreamStats* StreamStats::find(const std::string& name) const {
  for (const auto& m : messages)
    if (m.name == name) return &m;
  return nullptr;
}

StreamAnalyzer::StreamAnalyzer(StreamConfig cfg) : cfg_(cfg) {}

void StreamAnalyzer::set_bounds(const BusResult& analysis) {
  for (const MessageResult& r : analysis.messages) {
    MessageState& ms = state_for(r.name);
    ms.bound = r.wcrt;
    ms.bound_known = true;
    ms.diverged = r.diverged;
  }
}

StreamAnalyzer::MessageState& StreamAnalyzer::state_for(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return states_[it->second];
  const std::uint32_t idx = static_cast<std::uint32_t>(states_.size());
  index_.emplace(name, idx);
  states_.emplace_back();
  states_[idx].name = name;
  return states_[idx];
}

StreamAnalyzer::InflightSlot& StreamAnalyzer::slot_for(MessageState& ms, std::int64_t instance) {
  InflightSlot* free_slot = nullptr;
  InflightSlot* oldest = &ms.inflight[0];
  for (auto& s : ms.inflight) {
    if (s.used && s.instance == instance) return s;
    if (!s.used && free_slot == nullptr) free_slot = &s;
    if (s.age < oldest->age) oldest = &s;
  }
  InflightSlot* slot = free_slot;
  if (slot == nullptr) {
    // More concurrently open instances than the simulator can produce;
    // recycle the oldest rather than growing (the O(1) guarantee wins
    // over accounting fidelity for hostile recorded traces).
    ++ms.inflight_evictions;
    slot = oldest;
  }
  *slot = InflightSlot{};
  slot->instance = instance;
  slot->age = ms.next_age++;
  slot->used = true;
  return *slot;
}

void StreamAnalyzer::emit(Duration time, HealthEventType type, const MessageState& ms,
                          std::int64_t observed_ns, std::int64_t baseline_ns) {
  ++emitted_;
  if (events_.size() >= cfg_.max_events) {
    ++dropped_;
    return;
  }
  HealthEvent e;
  e.time = time;
  e.type = type;
  e.message = ms.name;
  e.observed_ns = observed_ns;
  e.baseline_ns = baseline_ns;
  e.frame_index = cur_frame_;
  events_.push_back(std::move(e));
}

void StreamAnalyzer::heap_push(Watchdog w) {
  heap_.push_back(w);
  std::push_heap(heap_.begin(), heap_.end(), WatchdogAfter{});
}

StreamAnalyzer::Watchdog StreamAnalyzer::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), WatchdogAfter{});
  Watchdog w = heap_.back();
  heap_.pop_back();
  return w;
}

void StreamAnalyzer::arm_watchdog(MessageState& ms, std::uint32_t idx) {
  // A watchdog needs a calibrated period; during warmup a silent message
  // is indistinguishable from a slow one.
  if (ms.arrivals < cfg_.warmup_arrivals) return;
  Watchdog w;
  w.deadline =
      ms.last_arrival + max(Duration::ns(ms.m_fast_ns), cfg_.stall_floor) * cfg_.stall_multiplier;
  w.state = idx;
  w.gen = ++ms.watchdog_gen;
  heap_push(w);
}

void StreamAnalyzer::fire_expired_watchdogs(Duration now) {
  while (!heap_.empty() && heap_.front().deadline < now) {
    const Watchdog w = heap_pop();
    MessageState& ms = states_[w.state];
    // Lazy deletion: an arrival since arming re-armed with a fresh
    // generation, so this entry is stale.
    if (w.gen != ms.watchdog_gen || ms.stall_active) continue;
    ms.stall_active = true;
    emit(w.deadline, HealthEventType::kStallOnset, ms, (w.deadline - ms.last_arrival).count_ns(),
         ms.m_fast_ns);
  }
}

void StreamAnalyzer::on_completion(MessageState& ms, std::uint32_t idx, Duration now,
                                   Duration latency, bool have_latency) {
  ++ms.completions;

  if (have_latency) {
    ++ms.latency_samples;
    ms.latency_min = min(ms.latency_min, latency);
    ms.latency_max = max(ms.latency_max, latency);
    ms.latency_total += latency;
    const auto& bounds = obs::kDefaultLatencyBoundsUs;
    const double latency_us = latency.as_us();
    ++ms.latency_buckets[std::lower_bound(bounds.begin(), bounds.end(), latency_us) -
                         bounds.begin()];
    ms.latency_sum_us += latency_us;
    if (ms.has_resp) {
      ewma_update(ms.resp_ewma_ns, latency.count_ns(), cfg_.fast_shift);
    } else {
      ms.resp_ewma_ns = latency.count_ns();
      ms.has_resp = true;
    }
    // Online soundness oracle: the offline verdict's predicate, applied
    // at the first crossing instead of after the run.
    if (ms.bound_known && exceeds_bound(ms.diverged, ms.latency_samples, latency, ms.bound)) {
      if (ms.bound_violations == 0)
        emit(now, HealthEventType::kBoundViolation, ms, latency.count_ns(), ms.bound.count_ns());
      ++ms.bound_violations;
    }
  }

  ++ms.arrivals;
  const bool armed = ms.arrivals > cfg_.warmup_arrivals;

  if (!ms.has_arrival) {
    ms.has_arrival = true;
    ms.last_arrival = now;
    arm_watchdog(ms, idx);
    return;
  }

  if (ms.stall_active) {
    // The message is back; the gap that just ended was the stall, not a
    // jitter sample — re-anchor without polluting the baselines.
    ms.stall_active = false;
    emit(now, HealthEventType::kStallClear, ms, (now - ms.last_arrival).count_ns(), ms.m_fast_ns);
    ms.last_arrival = now;
    arm_watchdog(ms, idx);
    return;
  }

  const std::int64_t delta = (now - ms.last_arrival).count_ns();

  if (!ms.has_baseline) {
    ms.m_fast_ns = delta;
    ms.m_slow_ns = delta;
    ms.dev_ns = 0;
    ms.has_baseline = true;
  } else {
    // Jitter burst: judged against the baseline *before* this sample
    // updates it — and outliers are *excluded* from the fast baseline and
    // deviation (a robust envelope: a burst cannot widen its own
    // threshold and mask its tail). The slow reference always updates, so
    // a genuine regime change still surfaces, as drift.
    const std::int64_t err = delta - ms.m_fast_ns;
    const std::int64_t abs_err = err < 0 ? -err : err;
    bool outlier = false;
    if (armed) {
      outlier = abs_err > cfg_.jitter_multiplier * ms.dev_ns + ms.m_fast_ns / 8;
      if (outlier) {
        ms.jitter_calm = 0;
        if (++ms.jitter_streak == cfg_.jitter_onset_count && !ms.jitter_active) {
          ms.jitter_active = true;
          emit(now, HealthEventType::kJitterBurstOnset, ms, delta, ms.m_fast_ns);
        }
      } else {
        ms.jitter_streak = 0;
        if (ms.jitter_active && ++ms.jitter_calm == cfg_.jitter_clear_count) {
          ms.jitter_active = false;
          ms.jitter_calm = 0;
          emit(now, HealthEventType::kJitterBurstClear, ms, delta, ms.m_fast_ns);
        }
      }
    }

    ewma_update(ms.m_slow_ns, delta, cfg_.slow_shift);
    if (!outlier) {
      ewma_update(ms.m_fast_ns, delta, cfg_.fast_shift);
      ewma_update(ms.dev_ns, abs_err, cfg_.fast_shift);
    }

    if (armed) {
      // Drift: the fast baseline running away from the slow reference.
      const std::int64_t gap =
          ms.m_fast_ns > ms.m_slow_ns ? ms.m_fast_ns - ms.m_slow_ns : ms.m_slow_ns - ms.m_fast_ns;
      if (gap * 1000 > cfg_.drift_onset_permille * ms.m_slow_ns) {
        ms.drift_calm = 0;
        if (++ms.drift_streak == cfg_.drift_onset_count && !ms.drift_active) {
          ms.drift_active = true;
          emit(now, HealthEventType::kDriftOnset, ms, ms.m_fast_ns, ms.m_slow_ns);
        }
      } else if (gap * 1000 <= cfg_.drift_clear_permille * ms.m_slow_ns) {
        ms.drift_streak = 0;
        if (ms.drift_active && ++ms.drift_calm == cfg_.drift_clear_count) {
          ms.drift_active = false;
          ms.drift_calm = 0;
          emit(now, HealthEventType::kDriftClear, ms, ms.m_fast_ns, ms.m_slow_ns);
        }
      } else {
        // Hysteresis band: neither condition accumulates.
        ms.drift_streak = 0;
        ms.drift_calm = 0;
      }

      // Arrhythmia: sustained irregularity, no single outlier required.
      if (ms.dev_ns * 1000 > cfg_.arrhythmia_onset_permille * ms.m_fast_ns) {
        ms.arr_calm = 0;
        if (++ms.arr_streak == cfg_.arrhythmia_onset_count && !ms.arrhythmia_active) {
          ms.arrhythmia_active = true;
          emit(now, HealthEventType::kArrhythmiaOnset, ms, ms.dev_ns, ms.m_fast_ns);
        }
      } else if (ms.dev_ns * 1000 <= cfg_.arrhythmia_clear_permille * ms.m_fast_ns) {
        ms.arr_streak = 0;
        if (ms.arrhythmia_active && ++ms.arr_calm == cfg_.arrhythmia_clear_count) {
          ms.arrhythmia_active = false;
          ms.arr_calm = 0;
          emit(now, HealthEventType::kArrhythmiaClear, ms, ms.dev_ns, ms.m_fast_ns);
        }
      } else {
        ms.arr_streak = 0;
        ms.arr_calm = 0;
      }
    }
  }

  ms.last_arrival = now;
  arm_watchdog(ms, idx);
}

void StreamAnalyzer::ingest_one(const TraceEvent& e) {
  cur_frame_ = frames_++;
  // Any event advances the stream clock; silent messages are judged
  // against the traffic of the others, not against wall time.
  fire_expired_watchdogs(e.time);

  auto it = index_.find(e.message);
  std::uint32_t idx;
  if (it != index_.end()) {
    idx = it->second;
  } else {
    state_for(e.message);
    idx = index_.find(e.message)->second;
  }
  MessageState& ms = states_[idx];

  switch (e.type) {
    case TraceEventType::kRelease: {
      ++ms.releases;
      InflightSlot& s = slot_for(ms, e.instance);
      s.release = e.time;
      s.released = true;
      break;
    }
    case TraceEventType::kTxStart: {
      InflightSlot& s = slot_for(ms, e.instance);
      // Only the first start counts: a retransmission's restart is not
      // arbitration wait.
      if (!s.started) {
        s.started = true;
        if (s.released) {
          const Duration wait = e.time - s.release;
          ms.arbitration_wait_total += wait;
          ms.arbitration_wait_max = max(ms.arbitration_wait_max, wait);
        }
      }
      break;
    }
    case TraceEventType::kTxEnd: {
      InflightSlot& s = slot_for(ms, e.instance);
      const bool have_latency = s.released;
      const Duration latency = have_latency ? e.time - s.release : Duration::zero();
      if (have_latency && s.errored) ms.retransmit_delay_total += e.time - s.first_error;
      s.used = false;
      on_completion(ms, idx, e.time, latency, have_latency);
      break;
    }
    case TraceEventType::kError: {
      ++ms.errors;
      InflightSlot& s = slot_for(ms, e.instance);
      if (!s.errored) {
        s.errored = true;
        s.first_error = e.time;
      }
      break;
    }
    case TraceEventType::kRetransmit:
      ++ms.retransmits;
      break;
    case TraceEventType::kLoss: {
      ++ms.losses;
      InflightSlot& s = slot_for(ms, e.instance);
      s.used = false;
      break;
    }
  }
}

void StreamAnalyzer::ingest(const TraceEvent& e) { ingest(&e, 1); }

void StreamAnalyzer::ingest(const TraceEvent* events, std::size_t count) {
  if (!obs::enabled()) {
    for (std::size_t i = 0; i < count; ++i) ingest_one(events[i]);
    return;
  }
  const std::int64_t emitted_before = emitted_;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) ingest_one(events[i]);
  const auto t1 = std::chrono::steady_clock::now();
  note_obs_batch(count, std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
                 emitted_ - emitted_before);
}

void StreamAnalyzer::note_obs_batch(std::size_t count, std::int64_t wall_ns,
                                    std::int64_t events_raised) {
  if (obs_frames_ == nullptr) {
    obs::MetricsRegistry& reg = obs::metrics();
    obs_frames_ = &reg.counter("stream.frames_ingested");
    obs_events_ = &reg.counter("stream.health_events");
    obs_cost_ = &reg.histogram("stream.ingest_cost_us");
  }
  if (count == 0) return;
  obs_frames_->add(static_cast<std::int64_t>(count));
  if (events_raised > 0) obs_events_->add(events_raised);
  // Average per-frame cost of the batch, in the registry's microsecond axis.
  obs_cost_->observe(static_cast<double>(wall_ns) / 1000.0 / static_cast<double>(count));
}

void StreamAnalyzer::advance_to(Duration end_time) {
  cur_frame_ = frames_;
  // Terminal flush is inclusive: a deadline landing exactly on the span
  // boundary has expired by the time the run is over.
  while (!heap_.empty() && heap_.front().deadline <= end_time) {
    const Watchdog w = heap_pop();
    MessageState& ms = states_[w.state];
    if (w.gen != ms.watchdog_gen || ms.stall_active) continue;
    ms.stall_active = true;
    emit(w.deadline, HealthEventType::kStallOnset, ms, (w.deadline - ms.last_arrival).count_ns(),
         ms.m_fast_ns);
  }
}

StreamStats StreamAnalyzer::stats() const {
  StreamStats out;
  out.frames = frames_;
  out.health_events = emitted_;
  out.dropped_events = dropped_;
  out.messages.reserve(states_.size());
  for (const MessageState& ms : states_) {
    MessageStreamStats m = ms;  // The public part, as kept.
    m.period_baseline = Duration::ns(ms.m_fast_ns);
    m.period_deviation = Duration::ns(ms.dev_ns);
    m.response_baseline = Duration::ns(ms.resp_ewma_ns);
    const auto& bounds = obs::kDefaultLatencyBoundsUs;
    obs::HistogramSnapshot& h = m.latency_us;
    h.name = ms.name;
    h.count = ms.latency_samples;
    h.sum = ms.latency_sum_us;
    if (h.count > 0) {
      h.min = ms.latency_min.as_us();
      h.max = ms.latency_max.as_us();
    }
    const auto quantile = [&](double q) {
      return obs::bucket_quantile(
          bounds, [&ms](std::size_t i) { return ms.latency_buckets[i]; }, h.count, q, h.min, h.max);
    };
    h.p50 = quantile(0.50);
    h.p95 = quantile(0.95);
    h.p99 = quantile(0.99);
    h.buckets.reserve(bounds.size());
    for (std::size_t i = 0; i < bounds.size(); ++i)
      h.buckets.emplace_back(bounds[i], ms.latency_buckets[i]);
    h.overflow = ms.latency_buckets[bounds.size()];
    out.active_conditions +=
        (m.jitter_active ? 1 : 0) + (m.drift_active ? 1 : 0) + (m.stall_active ? 1 : 0) +
        (m.arrhythmia_active ? 1 : 0);
    if (m.violation()) ++out.violations;
    out.messages.push_back(std::move(m));
  }
  std::sort(out.messages.begin(), out.messages.end(),
            [](const MessageStreamStats& a, const MessageStreamStats& b) { return a.name < b.name; });
  return out;
}

std::string stream_stats_to_text(const StreamStats& stats) {
  std::string out;
  appendf(out, "stream: %" PRId64 " frames, %" PRId64 " health events (%" PRId64
               " dropped), %" PRId64 " active conditions, %" PRId64 " messages over bound\n",
          stats.frames, stats.health_events, stats.dropped_events, stats.active_conditions,
          stats.violations);
  appendf(out, "%-20s %8s %6s %6s %6s %12s %12s %12s %12s %10s %s\n", "message", "complete", "err",
          "retx", "lost", "lat min", "lat mean", "lat max", "period", "deviation", "state");
  for (const auto& m : stats.messages) {
    std::string state;
    if (m.jitter_active) state += " jitter";
    if (m.drift_active) state += " drift";
    if (m.stall_active) state += " stall";
    if (m.arrhythmia_active) state += " arrhythmia";
    if (m.violation()) {
      appendf(state, " OVER-BOUND(%" PRId64 ")", m.bound_violations);
    }
    if (state.empty()) state = " ok";
    const Duration lat_min = m.latency_samples > 0 ? m.latency_min : Duration::zero();
    appendf(out, "%-20s %8" PRId64 " %6" PRId64 " %6" PRId64 " %6" PRId64
                 " %12s %12s %12s %12s %10s%s\n",
            m.name.c_str(), m.completions, m.errors, m.retransmits, m.losses,
            to_string(lat_min).c_str(), to_string(m.latency_mean()).c_str(),
            to_string(m.latency_max).c_str(), to_string(m.period_baseline).c_str(),
            to_string(m.period_deviation).c_str(), state.c_str());
  }
  return out;
}

std::string stream_stats_to_json(const StreamStats& stats) {
  std::string out = "{";
  appendf(out, "\"frames\":%" PRId64 ",", stats.frames);
  appendf(out, "\"health_events\":%" PRId64 ",", stats.health_events);
  appendf(out, "\"dropped_events\":%" PRId64 ",", stats.dropped_events);
  appendf(out, "\"active_conditions\":%" PRId64 ",", stats.active_conditions);
  appendf(out, "\"violations\":%" PRId64 ",", stats.violations);
  out += "\"messages\":[";
  for (std::size_t i = 0; i < stats.messages.size(); ++i) {
    const MessageStreamStats& m = stats.messages[i];
    if (i) out += ",";
    out += "{";
    appendf(out, "\"name\":\"%s\",", obs::json_escape(m.name).c_str());
    appendf(out, "\"releases\":%" PRId64 ",", m.releases);
    appendf(out, "\"completions\":%" PRId64 ",", m.completions);
    appendf(out, "\"errors\":%" PRId64 ",", m.errors);
    appendf(out, "\"retransmits\":%" PRId64 ",", m.retransmits);
    appendf(out, "\"losses\":%" PRId64 ",", m.losses);
    appendf(out, "\"latency_samples\":%" PRId64 ",", m.latency_samples);
    appendf(out, "\"latency_min_ns\":%" PRId64 ",",
            m.latency_samples > 0 ? m.latency_min.count_ns() : 0);
    appendf(out, "\"latency_mean_ns\":%" PRId64 ",", m.latency_mean().count_ns());
    appendf(out, "\"latency_max_ns\":%" PRId64 ",", m.latency_max.count_ns());
    appendf(out, "\"period_baseline_ns\":%" PRId64 ",", m.period_baseline.count_ns());
    appendf(out, "\"period_deviation_ns\":%" PRId64 ",", m.period_deviation.count_ns());
    appendf(out, "\"response_baseline_ns\":%" PRId64 ",", m.response_baseline.count_ns());
    out += "\"bound_known\":";
    out += m.bound_known ? "true" : "false";
    out += ",\"diverged\":";
    out += m.diverged ? "true" : "false";
    if (m.bound_known && !m.diverged && m.bound < Duration::infinite())
      appendf(out, ",\"bound_ns\":%" PRId64, m.bound.count_ns());
    appendf(out, ",\"bound_violations\":%" PRId64 ",", m.bound_violations);
    appendf(out, "\"inflight_evictions\":%" PRId64 ",", m.inflight_evictions);
    out += "\"active\":[";
    bool first = true;
    const auto flag = [&](bool on, const char* name) {
      if (!on) return;
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += name;
      out += "\"";
    };
    flag(m.jitter_active, "jitter");
    flag(m.drift_active, "drift");
    flag(m.stall_active, "stall");
    flag(m.arrhythmia_active, "arrhythmia");
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace symcan::stream
