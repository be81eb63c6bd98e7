#pragma once

// The busy-period core of the CAN response-time analysis, in columnar
// (structure-of-arrays) form. It has three parts:
//
//   resolve_bus(km, cfg)            — read the matrix once and sort it
//       into arbitration order (BusFacts). The interference rule is
//       stated once, over that order: a row's interferers are a prefix
//       of it (all messages ranked above the effective rank) minus one
//       prefix of the sender's own rank-ordered list plus another, its
//       blocking frame a suffix maximum, its largest retransmitted frame
//       a prefix maximum. No row scans the bus.
//
//   pack_bus(facts | km, cfg, out[, rows]) — copy everything the
//       verdicts of the chosen messages can depend on into contiguous
//       columns, one row per message: its own cost/deadline/event model,
//       the blocking terms, the higher-priority interference set (copied
//       from the rank-sorted prefix) and the offset-scheduled sender
//       groups. Without `rows` every message is packed and row i is
//       message i; with `rows`, row r is message rows[r], so a caller
//       that needs three verdicts packs three rows.
//
//   solve_columnar(bus, r)          — run the Davis/Tindell busy-period
//       fixed point on row r alone, with zero heap traffic. Equal rows
//       give bit-identical MessageResults, iteration counts included.
//
// CanRta, IncrementalRta, the probabilistic rung ladders and `explain`
// all solve through these functions. IncrementalRta keys its cache by
// bus_fingerprints(), which reads every key from prefix multisets over
// the same resolved order and hashes every value a packed row holds, so
// a fingerprint hit is a proof that the fresh solve would produce the
// same bits. It resolves once per call and packs its misses from the
// same facts.
//
// Layout of one pack:
//
//   * per-row scalars (cost, bcrt, deadline, blocking, max_retx) and the
//     activation event-model parameters as parallel arrays;
//   * the higher-priority interference sets as one shared CSR block
//     (hp_begin[r] .. hp_begin[r+1]) of (period, jitter, dmin, cost)
//     columns;
//   * the offset groups pre-built into TtGroups (CSR again); a group
//     whose hyperperiod is unbounded is expanded into its offset-blind
//     fallback entries among the row's hp entries instead.
//
// Row contents are sets: every interference term is non-negative and
// Duration arithmetic saturates, so the busy-window sums, and with them
// every verdict, are independent of the order the pack emits entries in
// (arbitration order, as it copies them).
//
// Arena lifetime: a ColumnarBus is a bundle of vectors that only ever
// grow; pack_bus() into an existing instance clear()s and refills them,
// reusing capacity. Hot loops keep one thread_local instance per worker,
// so steady-state re-analysis performs no allocation at all.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "symcan/analysis/error_model.hpp"
#include "symcan/analysis/tt_schedule.hpp"
#include "symcan/can/frame.hpp"
#include "symcan/util/time.hpp"

namespace symcan {

struct CanRtaConfig;
struct MessageResult;
class KMatrix;

namespace analysis {

/// Packed rows, ready to solve.
struct ColumnarBus {
  BitTiming timing{500'000};
  Duration horizon = Duration::s(10);
  std::shared_ptr<const ErrorModel> errors;

  // Per-row scalar columns.
  std::vector<Duration> cost;      ///< C_m under the configured stuffing.
  std::vector<Duration> bcrt;      ///< Unstuffed frame time.
  std::vector<Duration> deadline;  ///< Resolved against any override.
  std::vector<Duration> blocking;  ///< Bus + committed intra-node blocking.
  std::vector<Duration> max_retx;  ///< Largest retransmittable frame.
  // Activation event model, already normalized (dmin <= period).
  std::vector<Duration> act_period;
  std::vector<Duration> act_jitter;
  std::vector<Duration> act_dmin;

  /// Higher-priority interference CSR: row r's entries occupy
  /// [hp_begin[r], hp_begin[r+1]) of the four column arrays — the
  /// interferers analyzed through their event models plus the
  /// offset-blind fallbacks of any group whose hyperperiod was unbounded.
  std::vector<std::size_t> hp_begin;
  std::vector<Duration> hp_period;
  std::vector<Duration> hp_jitter;
  std::vector<Duration> hp_dmin;
  std::vector<Duration> hp_cost;

  /// Pre-built offset groups CSR: row r's groups occupy
  /// [tt_begin[r], tt_begin[r+1]) of tt_groups. Building happens once per
  /// pack instead of once per solve — TtGroup::interference() is const
  /// and safe to share.
  std::vector<std::size_t> tt_begin;
  std::vector<TtGroup> tt_groups;

  std::size_t size() const { return cost.size(); }

  /// Drop all rows, keep capacity (the arena reuse path).
  void clear();
};

/// Human-readable identities of one packed row, filled by pack_bus() on
/// request. Pure output identity — never read by the solver — consumed
/// by the provenance layer (analysis/provenance.hpp) to name the terms
/// of a breakdown.
struct ContextLabels {
  /// Parallel to the row's hp entries: the interfering message of each,
  /// group fallbacks included.
  std::vector<std::string> hp;
  /// Parallel to the row's offset groups: the sending node of each group
  /// and the names of its members.
  std::vector<std::string> tt_sender;
  std::vector<std::vector<std::string>> tt_members;
  std::string blocking_frame;  ///< Largest lower-priority bus frame; "" if none.
  Duration bus_blocking = Duration::zero();
  Duration intra_node_blocking = Duration::zero();
};

/// One matrix resolved under one config, sorted into arbitration order
/// once: the columns every row of a pack or a fingerprint is read from
/// (defined in columnar.cpp). It refers to the resolved matrix and
/// config, which must outlive every use of it.
struct BusFacts;

/// Resolve `km` under `cfg` into this thread's BusFacts and return it. It
/// stays valid until the thread's next resolve, which every overload
/// below that takes a KMatrix performs.
const BusFacts& resolve_bus(const KMatrix& km, const CanRtaConfig& cfg);

/// Resolve every message of `km` under `cfg` into `out` (row i is
/// message i), reusing its capacity.
void pack_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out);

/// Resolve only the messages `rows` names: row r is message rows[r].
/// `labels`, when non-null, receives one ContextLabels per row. Throws
/// std::out_of_range when a row names no message.
void pack_bus(const KMatrix& km, const CanRtaConfig& cfg, ColumnarBus& out,
              std::span<const std::size_t> rows, std::vector<ContextLabels>* labels = nullptr);

/// Pack the messages `rows` names from already resolved facts.
void pack_bus(const BusFacts& facts, ColumnarBus& out, std::span<const std::size_t> rows,
              std::vector<ContextLabels>* labels = nullptr);

/// Convenience: pack the whole bus into a fresh instance.
ColumnarBus pack_bus(const KMatrix& km, const CanRtaConfig& cfg);

/// Everything the solver visited on the way to one verdict, recorded by
/// the tracing overload of solve_columnar(). The iterate sequences are
/// the successive window values of the monotone fixed points — the
/// convergence trajectory `symcan explain` renders.
struct SolveTrace {
  std::vector<Duration> busy_iterates;  ///< Busy-period fixed-point iterates.
  std::int64_t critical_instance = 0;   ///< 0-based q attaining the WCRT.
  Duration critical_window = Duration::zero();  ///< Fixed point w(q*).
  std::vector<Duration> window_iterates;        ///< Iterates of w(q*).
};

/// Run the busy-period fixed point on packed row `r` using `bus.errors`.
/// Allocation-free; the result's name/id are left empty for the caller
/// to patch (they never influence the solver).
MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r);

/// Same solve with the error model replaced per call — the grid-sweep
/// and rung-ladder path, where only the fault assumption varies and the
/// packed columns stay valid (the error model enters the solver solely
/// through its overhead term).
MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r, const ErrorModel& errors);

/// Same solve, additionally recording its trajectory into `trace`. It
/// runs the plain solve's code (the recorder only observes), so an
/// explained verdict *is* the verdict.
MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r, const ErrorModel& errors,
                             SolveTrace& trace);

/// The fixed points an earlier solve of one row reached: [0] the busy
/// period, [q + 1] the window of instance q, each with x less the fault
/// overhead charged at x.
struct WarmStart {
  struct Point {
    Duration x, rest;
  };
  std::vector<Point> points;
};

/// Same solve, each fixed point started at its operator's first iterate
/// from `warm`'s point (never below the cold start); `warm` then holds
/// this solve's points. If `warm` was recorded on row `r` under a model
/// whose overhead is nowhere larger than `errors`', each start lies at or
/// below the least fixed point it seeds: the verdict is the cold one, only
/// fixedpoint_iterations differs. The rung ladder (prob_rta.hpp) uses it.
MessageResult solve_columnar(const ColumnarBus& bus, std::size_t r, const ErrorModel& errors,
                             WarmStart& warm);

/// Pack the messages `rows` names and solve every row: element r is the
/// verdict of message rows[r], its name and ID patched in. The packing
/// arena is thread-local. Every deterministic verdict — CanRta and the
/// cache misses of IncrementalRta — comes from here.
std::vector<MessageResult> solve_rows(const KMatrix& km, const CanRtaConfig& cfg,
                                      std::span<const std::size_t> rows);

/// Same for every message of `km`, in matrix order.
std::vector<MessageResult> solve_rows(const KMatrix& km, const CanRtaConfig& cfg);

/// Same from already resolved facts.
std::vector<MessageResult> solve_rows(const BusFacts& facts, std::span<const std::size_t> rows);

/// 128-bit cache key of one packed row. Two lanes of independent mixing
/// make accidental collisions (which would silently corrupt cached
/// results) vanishingly unlikely at any realistic cache size.
struct ContextKey {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  friend bool operator==(const ContextKey&, const ContextKey&) = default;
};

struct ContextKeyHash {
  std::size_t operator()(const ContextKey& k) const noexcept {
    return static_cast<std::size_t>(k.a ^ (k.b * 0x9e3779b97f4a7c15ULL));
  }
};

/// Fingerprint of every message's row, without packing: a stable 128-bit
/// key over every value pack_bus() would put in the row, the raw config
/// switches and the error model. The interference sets are hashed as
/// multisets (commutative combine), so the key does not depend on the
/// order of the matrix. Element i belongs to message i.
std::vector<ContextKey> bus_fingerprints(const KMatrix& km, const CanRtaConfig& cfg);

/// Fingerprints of the messages `rows` names only: element r belongs to
/// message rows[r] and equals element rows[r] of the whole-bus call.
std::vector<ContextKey> bus_fingerprints(const KMatrix& km, const CanRtaConfig& cfg,
                                         std::span<const std::size_t> rows);

/// The same two from already resolved facts.
std::vector<ContextKey> bus_fingerprints(const BusFacts& facts);
std::vector<ContextKey> bus_fingerprints(const BusFacts& facts, std::span<const std::size_t> rows);

}  // namespace analysis
}  // namespace symcan
