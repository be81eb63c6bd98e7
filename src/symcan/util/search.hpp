#pragma once

// The one bisection behind every "largest jitter that still leaves the bus
// schedulable" question: the Section 5.2 jitter budgets and trades, the
// Figure 6 max_own_jitter, the Section 4.1 tolerable-jitter fraction and
// robust priority assignment's per-level robustness.

#include <stdexcept>
#include <type_traits>

namespace symcan {

/// Largest value in [lo, hi] at which `ok` holds, to within `tol`.
/// Returns hi when ok(hi) holds; otherwise bisects, keeping ok(lo) true
/// and ok(hi) false, until hi - lo <= tol, and returns lo.
///
/// `ok` must be monotone: true up to some boundary, false above it.
/// ok(lo) is the caller's precondition and is never probed. The midpoint
/// is (lo + hi) / 2 for floating point and lo + (hi - lo) / 2 otherwise
/// (Duration), which cannot overflow. Throws std::invalid_argument unless
/// tol > 0: at a zero (or NaN) tolerance the midpoint of two adjacent
/// values is lo again and the search would never end.
template <class T, class Ok>
T largest_feasible(T lo, T hi, T tol, Ok&& ok) {
  if (!(tol > T{})) throw std::invalid_argument("largest_feasible: tolerance must be > 0");
  if (ok(hi)) return hi;
  while (hi - lo > tol) {
    const T mid = std::is_floating_point_v<T> ? (lo + hi) / 2 : lo + (hi - lo) / 2;
    if (!(lo < mid && mid < hi)) break;  // a tolerance below one ulp of lo
    (ok(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace symcan
