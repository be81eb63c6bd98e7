#include "symcan/analysis/incremental_rta.hpp"

#include <stdexcept>

#include "symcan/can/kmatrix.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/util/parallel.hpp"

namespace symcan::analysis {

namespace {

/// SplitMix64-style chain (same shape as the fingerprint helpers).
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h += v + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Ladder cache key: the row fingerprint with the ladder shape
/// (max_rungs) mixed into both lanes under a plane tag, so ladder keys
/// can never alias verdict keys or each other across shapes.
ContextKey ladder_key(const ContextKey& row, std::int64_t max_rungs) {
  return {mix64(row.a ^ 0x1adde7, static_cast<std::uint64_t>(max_rungs)),
          mix64(row.b, static_cast<std::uint64_t>(max_rungs))};
}

/// Identity is not part of a key: a structurally equal message in
/// another matrix (e.g. a GA neighbour after an ID swap) reuses the
/// verdict under its own name and ID.
void relabel(MessageResult& r, const CanMessage& m) {
  r.name = m.name;
  r.id = m.id;
}

void add(RtaCacheStats& into, const RtaCacheStats& d) {
  into.hits += d.hits;
  into.misses += d.misses;
  into.evictions += d.evictions;
}

}  // namespace

// --- Sharded LRU ----------------------------------------------------------

template <typename V>
IncrementalRta::ShardedLru<V>::ShardedLru(const RtaCacheConfig& cfg) {
  if (cfg.capacity == 0) throw std::invalid_argument("IncrementalRta: capacity must be >= 1");
  if (cfg.shards == 0) throw std::invalid_argument("IncrementalRta: shards must be >= 1");
  // More shards than entries would create shards with capacity 0; clamp
  // so every shard can hold at least one entry.
  const std::size_t shards = cfg.shards > cfg.capacity ? cfg.capacity : cfg.shards;
  capacity_ = cfg.capacity / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

template <typename V>
typename IncrementalRta::ShardedLru<V>::Shard& IncrementalRta::ShardedLru<V>::shard_for(
    const ContextKey& key) {
  // The fingerprint is already uniformly mixed, so its hash modulo the
  // shard count spreads keys evenly.
  return *shards_[ContextKeyHash{}(key) % shards_.size()];
}

template <typename V>
std::optional<V> IncrementalRta::ShardedLru<V>::find(const ContextKey& key,
                                                     RtaCacheStats& delta) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock{shard.m};
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++delta.misses;
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++delta.hits;
  return it->second->second;
}

template <typename V>
void IncrementalRta::ShardedLru<V>::insert(const ContextKey& key, const V& value,
                                           RtaCacheStats& delta) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock{shard.m};
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, value);
  shard.map.emplace(key, shard.lru.begin());
  if (shard.lru.size() > capacity_) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++delta.evictions;
  }
}

template <typename V>
void IncrementalRta::ShardedLru<V>::add_stats(const RtaCacheStats& delta) {
  if (delta.hits != 0) hits_.fetch_add(delta.hits, std::memory_order_relaxed);
  if (delta.misses != 0) misses_.fetch_add(delta.misses, std::memory_order_relaxed);
  if (delta.evictions != 0) evictions_.fetch_add(delta.evictions, std::memory_order_relaxed);
}

template <typename V>
RtaCacheStats IncrementalRta::ShardedLru<V>::stats() const {
  RtaCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

template <typename V>
std::size_t IncrementalRta::ShardedLru<V>::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock{shard->m};
    n += shard->map.size();
  }
  return n;
}

template <typename V>
void IncrementalRta::ShardedLru<V>::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock{shard->m};
    shard->lru.clear();
    shard->map.clear();
  }
}

template class IncrementalRta::ShardedLru<MessageResult>;
template class IncrementalRta::ShardedLru<std::shared_ptr<const RungLadder>>;

// --- IncrementalRta -------------------------------------------------------

IncrementalRta::IncrementalRta(RtaCacheConfig cfg) : cfg_{cfg}, verdicts_{cfg}, ladders_{cfg} {}

void IncrementalRta::flush_cache_observations(const RtaCacheStats& delta) {
  verdicts_.add_stats(delta);
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("rta.cache.hits").add(delta.hits);
  m.counter("rta.cache.misses").add(delta.misses);
  m.counter("rta.cache.evictions").add(delta.evictions);
  m.gauge("rta.cache.size").set(static_cast<double>(size()));
}

void IncrementalRta::flush_prob_observations(const RtaCacheStats& delta) {
  ladders_.add_stats(delta);
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.counter("rta.prob.cache.hits").add(delta.hits);
  m.counter("rta.prob.cache.misses").add(delta.misses);
  m.counter("rta.prob.cache.evictions").add(delta.evictions);
}

BusResult IncrementalRta::analyze(const KMatrix& km, const CanRtaConfig& cfg) {
  if (!cfg.errors) throw std::invalid_argument("IncrementalRta: error model must not be null");
  if (cfg_.validate_input) km.validate();
  RtaCacheStats delta;
  if (!cfg_.enabled) {
    BusResult out = analyze_bus(km, cfg);
    flush_cache_observations(delta);
    return out;
  }
  SYMCAN_OBS_SPAN("rta.can.analyze");
  BusResult out;
  out.utilization = km.utilization(cfg.worst_case_stuffing);
  out.messages.resize(km.size());
  // Resolve the bus once, look every key up first, and pack and solve
  // only the misses from the same facts.
  const BusFacts& facts = resolve_bus(km, cfg);
  const std::vector<ContextKey> keys = bus_fingerprints(facts);
  static thread_local std::vector<std::size_t> misses;
  misses.clear();
  for (std::size_t i = 0; i < km.size(); ++i) {
    if (std::optional<MessageResult> hit = verdicts_.find(keys[i], delta)) {
      out.messages[i] = std::move(*hit);
      relabel(out.messages[i], km.messages()[i]);
    } else {
      misses.push_back(i);
    }
  }
  if (!misses.empty()) {
    // Solve outside any lock. Two workers may race on the same key and
    // both solve; the results are bit-identical, so the second insert is
    // a refresh.
    std::vector<MessageResult> fresh = solve_rows(facts, misses);
    for (std::size_t r = 0; r < misses.size(); ++r) {
      verdicts_.insert(keys[misses[r]], fresh[r], delta);
      out.messages[misses[r]] = std::move(fresh[r]);
    }
  }
  flush_rta_observations(out);
  flush_cache_observations(delta);
  return out;
}

MessageResult IncrementalRta::analyze_message(const KMatrix& km, const CanRtaConfig& cfg,
                                              std::size_t index) {
  if (!cfg.errors) throw std::invalid_argument("IncrementalRta: error model must not be null");
  const std::size_t row[] = {index};
  RtaCacheStats delta;
  MessageResult res;
  if (!cfg_.enabled) {
    res = std::move(solve_rows(km, cfg, row).front());
  } else {
    const BusFacts& facts = resolve_bus(km, cfg);
    const ContextKey key = bus_fingerprints(facts, row).front();
    if (std::optional<MessageResult> hit = verdicts_.find(key, delta)) {
      res = std::move(*hit);
      relabel(res, km.messages()[index]);
    } else {
      res = std::move(solve_rows(facts, row).front());
      verdicts_.insert(key, res, delta);
    }
  }
  flush_cache_observations(delta);
  return res;
}

ProbBusResult IncrementalRta::analyze_prob(const KMatrix& km, const ProbRtaConfig& cfg) {
  validate_prob_config(cfg);
  if (!cfg.rta.errors)
    throw std::invalid_argument("IncrementalRta: error model must not be null");
  if (!cfg_.enabled) return analysis::analyze_prob(km, cfg);
  if (cfg_.validate_input) km.validate();
  SYMCAN_OBS_SPAN("rta.prob.analyze");
  ProbBusResult out;
  out.utilization = km.utilization(cfg.rta.worst_case_stuffing);

  // Look every ladder up first, then pack the missed rows once; the
  // fan-out solves them on the shared read-only bus.
  const std::size_t n = km.size();
  const BusFacts& facts = resolve_bus(km, cfg.rta);
  std::vector<ContextKey> keys = bus_fingerprints(facts);
  // A hit shares the cached ladder; the mixed result's det is relabelled,
  // never the ladder itself.
  std::vector<std::shared_ptr<const RungLadder>> ladders(n);
  std::vector<std::size_t> misses;
  std::vector<std::size_t> row_of(n, 0);
  RtaCacheStats delta;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = ladder_key(keys[i], cfg.max_rungs);
    if (auto hit = ladders_.find(keys[i], delta)) {
      ladders[i] = std::move(*hit);
    } else {
      row_of[i] = misses.size();
      misses.push_back(i);
    }
  }
  ColumnarBus bus;
  if (!misses.empty()) pack_bus(facts, bus, misses);
  std::vector<RtaCacheStats> deltas(n);
  ParallelExecutor exec{cfg.parallelism};
  out.messages = exec.parallel_map_indexed_tiled(n, [&](std::size_t i) {
    if (!ladders[i]) {
      ladders[i] = std::make_shared<const RungLadder>(
          solve_rung_ladder(bus, row_of[i], cfg.max_rungs));
      ladders_.insert(keys[i], ladders[i], deltas[i]);
    }
    ProbMessageResult r = mix_ladder(*ladders[i], cfg);
    relabel(r.det, km.messages()[i]);
    return r;
  });
  for (const RtaCacheStats& d : deltas) add(delta, d);
  flush_prob_observations(delta);
  if (obs::enabled()) {
    std::int64_t convolutions = 0;
    for (const auto& m : out.messages) convolutions += m.convolutions;
    obs::count("prob.messages", static_cast<std::int64_t>(out.messages.size()));
    obs::count("prob.convolutions", convolutions);
  }
  return out;
}

void IncrementalRta::clear() {
  verdicts_.clear();
  ladders_.clear();
}

}  // namespace symcan::analysis
