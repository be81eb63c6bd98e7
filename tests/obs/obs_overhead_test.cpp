// Enforces the obs overhead contract (DESIGN.md "Observability"): with
// observation disabled, instrumentation points perform ZERO heap
// allocations — the whole cost is one relaxed atomic load each. The
// global operator new is replaced with a counting shim to prove it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "symcan/obs/obs.hpp"
#include "symcan/obs/window.hpp"
#include "symcan/serve/telemetry.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

// The nothrow forms (the standard library's temporary buffers) must come
// from the same heap as the deletes below, or ASan reports a mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace symcan::obs {
namespace {

TEST(ObsOverhead, DisabledPathAllocatesNothing) {
  set_enabled(false);
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    count("hot.counter");
    count("hot.counter", 5);
    gauge_set("hot.gauge", 1.0);
    observe("hot.histogram", 42.0);
    instant("hot.instant");
    SYMCAN_OBS_SPAN("hot.span");
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "disabled obs path must not allocate";
}

TEST(ObsOverhead, EnabledPathActuallyRecords) {
  // Sanity check that the zero-allocation result above is not because the
  // helpers are unconditional no-ops.
  reset();
  set_enabled(true);
  count("sanity.counter", 3);
  observe("sanity.histogram", 7.0);
  { SYMCAN_OBS_SPAN("sanity.span"); }
  set_enabled(false);
  EXPECT_EQ(metrics().counter("sanity.counter").value(), 3);
  EXPECT_EQ(metrics().histogram("sanity.histogram").count(), 1);
  EXPECT_EQ(tracer().collect().size(), 1u);
  reset();
}

TEST(ObsOverhead, WindowedRecordingAllocatesNothing) {
  // The windowed aggregates preallocate their whole ring at construction;
  // record() — including the slot rotations this loop forces — is CAS +
  // relaxed adds only.
  WindowConfig cfg;
  cfg.bucket_width_ns = 1000;
  cfg.bucket_count = 4;
  WindowedHistogram h{cfg, {1.0, 10.0, 100.0}};
  WindowedCounter c{cfg};
  SloConfig scfg;
  scfg.target_ns = 50;
  scfg.window = cfg;
  SloTracker slo{scfg};
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t now = static_cast<std::int64_t>(i) * 700;
    h.record(now, static_cast<double>(i % 200));
    c.add(now);
    slo.record(now, i % 100);
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "windowed recording must not allocate";
}

TEST(ObsOverhead, RequestTelemetryRecordingAllocatesNothing) {
  // One telemetry record per request rides the serve hot path
  // unconditionally, so it must be a bounded copy: set_id into the
  // fixed id buffer, flight-recorder record into preallocated slots.
  serve::FlightRecorder recorder{64};
  const std::string id = "req-7";  // SSO: built outside the window
  serve::RequestTelemetry t;
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    t.set_id(id);
    t.start_ns = i;
    t.finish_ns = i + 40;
    t.flow = static_cast<std::uint64_t>(i) + 1;
    recorder.record(t);
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "telemetry recording must not allocate";
  EXPECT_EQ(recorder.recorded(), 10'000);
}

TEST(ObsOverhead, FlowContextAllocatesNothing) {
  set_enabled(false);
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    FlowScope scope{static_cast<std::uint64_t>(i)};
    set_thread_name("symcan-worker-0");
    (void)current_flow();
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "flow context must not allocate";
}

TEST(ObsOverhead, RecordingOnCachedHandlesAllocatesNothing) {
  // The per-value hot path on already-registered handles is allocation-
  // free too: registration cost is paid once, recording is atomics only.
  reset();
  set_enabled(true);
  Counter& c = metrics().counter("cached.counter");
  Histogram& h = metrics().histogram("cached.histogram");
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    c.add(1);
    h.observe(static_cast<double>(i));
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  set_enabled(false);
  EXPECT_EQ(after - before, 0) << "recording on cached handles must not allocate";
  EXPECT_EQ(c.value(), 10'000);
  reset();
}

}  // namespace
}  // namespace symcan::obs
