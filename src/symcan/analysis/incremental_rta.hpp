#pragma once

// Incremental CAN response-time analysis: a memoizing layer over the
// packed busy-period core (columnar.hpp) for the hot loops that
// re-analyze *edited* matrices thousands of times — GA/NSGA-II fitness
// evaluation, jitter/error sweeps, sensitivity probes and extensibility
// searches.
//
// A CAN message's verdict depends only on its packed row: the
// higher-priority message set (event models + frame times, offset groups
// per sender), the blocking maxima contributed by lower-priority and
// same-node traffic, the error model, and the analysis configuration.
// IncrementalRta resolves the matrix once (resolve_bus), fingerprints
// every row from the resolved columns (bus_fingerprints, 128 bits, no
// pack) and looks the keys up in a bounded LRU map of solved
// MessageResults. Only the rows that missed are then packed, from the
// same resolved columns, and solved — a hit never packs. Two GA
// neighbours that differ in one ID swap therefore only re-solve the
// messages inside the swapped priority span; a jitter sweep re-solves
// only the messages the swept jitter actually reaches.
//
// Soundness: the solver reads nothing but the packed row, and the
// fingerprint covers every value of the row, so a hit is bit-identical
// to a fresh solve (iteration counts included) — locked down by
// tests/analysis/incremental_rta_test.cpp and the fuzzed differential
// harness in tests/integration/rta_cache_differential_test.cpp.
//
// Thread safety: one IncrementalRta may be shared by every worker of a
// ParallelExecutor fan-out. Lookups and inserts take a per-shard mutex;
// solving happens outside the lock. Because cached and fresh results are
// bit-identical, sharing the cache cannot perturb parallel determinism.
//
// Sharding: the key space is split across `shards` independent LRUs,
// each with its own lock, selected by the fingerprint's own hash. With
// the default of 8 shards the fan-outs that share one cache — GA and
// NSGA-II fitness, the sweeps, sensitivity probes and the `symcan serve`
// workers — do not serialize on one mutex; shards == 1 is the historical
// single-LRU cache. Sharding changes only lock granularity and eviction
// locality — never verdicts. Verdicts and rung ladders use the same
// sharded LRU, one instance each. The lifetime counters are relaxed
// atomics outside every shard, so counting takes no lock.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "symcan/analysis/can_rta.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/prob_rta.hpp"

namespace symcan::analysis {

/// Cache policy. `enabled = false` degrades to the uncached analyses
/// (analysis::analyze_bus, analysis::analyze_prob) without the per-call
/// KMatrix/config copies of CanRta: the reference the cache differential
/// tests and the ablation benches compare against.
struct RtaCacheConfig {
  bool enabled = true;
  /// Maximum number of cached per-message results, summed over all
  /// shards. The case-study matrix has ~56 messages, so the default
  /// holds ~1000 distinct interference contexts — plenty for a GA
  /// population while bounding memory. The CLI exposes this as
  /// --rta-cache-capacity.
  std::size_t capacity = 65536;
  /// Number of independent LRU shards (each with its own lock), so the
  /// workers of a fan-out or of `symcan serve` do not contend on one
  /// mutex; 1 gives a single LRU.
  std::size_t shards = 8;
  /// Run KMatrix::validate() on every analyze() input. Hot loops that
  /// re-analyze thousands of ID permutations of one already-validated
  /// matrix (GA/NSGA-II fitness) turn this off after validating once up
  /// front; validation is O(n^2) in messages and would otherwise be paid
  /// per evaluation. Appended last so positional initializers keep
  /// meaning {enabled, capacity, shards}.
  bool validate_input = true;
};

/// Lifetime counters (monotonic; survive clear()).
struct RtaCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;

  std::int64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() > 0 ? static_cast<double>(hits) / static_cast<double>(lookups()) : 0.0;
  }
};

class IncrementalRta {
 public:
  explicit IncrementalRta(RtaCacheConfig cfg = {});

  /// Analyze every message of `km` under `cfg`, reusing cached verdicts
  /// for unchanged rows. Every key is looked up first; only the messages
  /// that missed are packed and solved. Bit-identical to
  /// CanRta{km, cfg}.analyze() in every field.
  BusResult analyze(const KMatrix& km, const CanRtaConfig& cfg);

  /// Analyze one message (index into km.messages()); the single-message
  /// entry point the sensitivity binary searches iterate on. Throws
  /// std::out_of_range on a bad index.
  MessageResult analyze_message(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index);

  /// Probabilistic analysis with a warm rung-ladder cache: the expensive
  /// half of a probabilistic verdict (the deterministic solve plus one
  /// conditional solve per fault count — see analysis/prob_rta.hpp) is
  /// content-addressed by the message's row fingerprint mixed with the
  /// ladder shape, so a probability sweep over one matrix solves each
  /// ladder once and only redoes the cheap fixed-point mixture per sweep
  /// point. The missed rows are packed once and their ladders solved in
  /// the fan-out. Bit-identical to the uncached analysis::analyze_prob.
  ProbBusResult analyze_prob(const KMatrix& km, const ProbRtaConfig& cfg);

  const RtaCacheConfig& config() const { return cfg_; }
  /// Aggregated over all shards.
  RtaCacheStats stats() const { return verdicts_.stats(); }
  /// Rung-ladder cache counters (the prob plane keeps its own stats).
  RtaCacheStats prob_stats() const { return ladders_.stats(); }
  /// Total cached verdicts, summed over all shards.
  std::size_t size() const { return verdicts_.size(); }
  /// Effective shard count (>= 1) after clamping to capacity.
  std::size_t shard_count() const { return verdicts_.shard_count(); }

  /// Drop all cached entries in every shard (stats are kept).
  void clear();

 private:
  /// `shards` independent LRU maps from row fingerprints to values, each
  /// with its own lock; a key lives in exactly one shard, picked by its
  /// hash. Lifetime counters are lock-free, outside every shard.
  template <typename V>
  class ShardedLru {
   public:
    /// Validates and clamps the capacity and shard count of `cfg`.
    explicit ShardedLru(const RtaCacheConfig& cfg);
    /// Copy of the cached value, refreshed to most recently used. Counts
    /// a hit or a miss into `delta`.
    std::optional<V> find(const ContextKey& key, RtaCacheStats& delta);
    /// Insert `value`, or refresh the entry a racing solver inserted
    /// first (its value is bit-identical). Counts evictions into `delta`.
    void insert(const ContextKey& key, const V& value, RtaCacheStats& delta);
    /// Fold one run's counters into the lifetime stats (no lock).
    void add_stats(const RtaCacheStats& delta);
    RtaCacheStats stats() const;
    std::size_t size() const;
    std::size_t shard_count() const { return shards_.size(); }
    void clear();

   private:
    struct Shard {
      using Entry = std::pair<ContextKey, V>;
      mutable std::mutex m;
      std::list<Entry> lru;  ///< Front = most recently used; guarded by m.
      std::unordered_map<ContextKey, typename std::list<Entry>::iterator, ContextKeyHash> map;
    };
    Shard& shard_for(const ContextKey& key);

    std::size_t capacity_ = 0;  ///< Per-shard entry budget.
    /// unique_ptr keeps Shard (mutex member) immovable while the vector
    /// stays constructible; sized once, never resized.
    std::vector<std::unique_ptr<Shard>> shards_;
    /// Lifetime counters. Relaxed: each is a monotonic sum read only as a
    /// statistic, never to order other memory.
    std::atomic<std::int64_t> hits_{0}, misses_{0}, evictions_{0};
  };

  void flush_cache_observations(const RtaCacheStats& delta);
  void flush_prob_observations(const RtaCacheStats& delta);

  RtaCacheConfig cfg_;
  ShardedLru<MessageResult> verdicts_;
  /// Ladders and verdicts never share a key space (the ladder key mixes
  /// in the ladder shape), so the planes stay independent. Ladders are
  /// immutable once solved, so a hit shares one instead of copying it.
  ShardedLru<std::shared_ptr<const RungLadder>> ladders_;
};

}  // namespace symcan::analysis

namespace symcan {
using analysis::IncrementalRta;
using analysis::RtaCacheConfig;
using analysis::RtaCacheStats;
}  // namespace symcan
