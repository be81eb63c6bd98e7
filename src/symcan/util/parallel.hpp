#pragma once

// Fixed-size thread pool for the embarrassingly parallel fan-out paths
// (what-if sweeps, GA candidate evaluation, sensitivity probes). The one
// primitive is parallel_map: apply a function to every item and collect
// the results in input order, so callers observe bit-identical output
// whether the work ran on one thread or many. Exceptions are captured per
// item and the lowest-index one is rethrown after the batch completes —
// again independent of scheduling. With threads <= 1 (or a single item)
// everything runs inline on the calling thread and no pool exists.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace symcan {

class ParallelExecutor {
 public:
  /// threads == 0 selects std::thread::hardware_concurrency(); threads == 1
  /// degrades to inline execution (no worker threads are created).
  explicit ParallelExecutor(int threads = 0);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Effective parallel width, calling thread included (>= 1).
  int threads() const { return threads_; }

  /// Resolve a requested thread count (0 => hardware_concurrency, >= 1).
  static int resolve(int requested);

  /// fn(i) for every i in [0, count); results returned in index order.
  /// If any invocations throw, the exception of the lowest failing index
  /// is rethrown once all items have been attempted.
  template <typename F>
  auto parallel_map_indexed(std::size_t count, F&& fn) {
    return map_tiles(count, 1, fn);
  }

  /// Order-preserving map over a vector: out[i] == fn(items[i]).
  template <typename T, typename F>
  auto parallel_map(const std::vector<T>& items, F&& fn) {
    return parallel_map_indexed(items.size(), [&](std::size_t i) { return fn(items[i]); });
  }

  /// Tile size for a batch: about four tiles per thread — small enough
  /// to balance uneven item costs, large enough that the per-tile
  /// dispatch (one atomic claim) amortizes over cheap items — clamped
  /// to [1, 64].
  static std::size_t auto_tile(std::size_t count, int threads);

  /// parallel_map_indexed with the index space sharded into auto_tile
  /// sized tiles: workers claim whole tiles, but every result still
  /// lands in its own index slot, so the output (values and which
  /// exception wins) is byte-identical at every thread count — tiling
  /// changes only how work is batched onto threads.
  template <typename F>
  auto parallel_map_indexed_tiled(std::size_t count, F&& fn) {
    return map_tiles(count, auto_tile(count, threads_), fn);
  }

  /// Order-preserving tiled map over a vector: out[i] == fn(items[i]).
  template <typename T, typename F>
  auto parallel_map_tiled(const std::vector<T>& items, F&& fn) {
    return parallel_map_indexed_tiled(items.size(), [&](std::size_t i) { return fn(items[i]); });
  }

 private:
  /// fn(i) for every i in [0, count), dispatched as tiles of `width`
  /// consecutive indices. Each result and exception lands in its own
  /// index slot; the lowest-index exception is rethrown at the end.
  template <typename F>
  auto map_tiles(std::size_t count, std::size_t width, F& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<F&, std::size_t>>> {
    using R = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
    std::vector<std::optional<R>> slots(count);
    std::vector<std::exception_ptr> errors(count);
    run((count + width - 1) / width, [&](std::size_t t) {
      const std::size_t lo = t * width;
      const std::size_t hi = lo + width < count ? lo + width : count;
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          slots[i].emplace(fn(i));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
    for (std::size_t i = 0; i < count; ++i)
      if (errors[i]) std::rethrow_exception(errors[i]);
    std::vector<R> out;
    out.reserve(count);
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// Dispatch body(i) over [0, count) to the pool and block until every
  /// index has completed. body must not throw (the template layer wraps).
  void run(std::size_t count, const std::function<void(std::size_t)>& body);
  void worker_loop();
  void drain(std::size_t count, const std::function<void(std::size_t)>& body);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* body_ = nullptr;  ///< Guarded by m_.
  std::size_t count_ = 0;                                   ///< Guarded by m_.
  std::uint64_t generation_ = 0;                            ///< Guarded by m_.
  int active_ = 0;  ///< Workers currently draining; guarded by m_.
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
};

}  // namespace symcan
