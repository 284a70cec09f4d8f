// Telemetry hub: one MetricsRegistry + FlightRecorder sharing a TimeSource.
//
// The flight recorder is the only event store: phase spans (SpanSite /
// ScopedSpan below) and the BudgetGovernor's ε decisions are wide events
// in its fixed-size rings, so event memory stays bounded however long the
// process runs. Every view (trace, JSON snapshot, aegis_top) is derived
// from one drain().
//
// Ownership model:
//   * Library hot paths (GadgetRunner, CounterRegisterFile, NoiseInjector,
//     the fuzzer's confirmation shards) record into Registry::global() — a
//     process-wide instance with the deterministic TickTimeSource — so
//     instrumentation works with zero plumbing and zero behavioral effect.
//     The per-call counts of a runner, a register file and a confirmation
//     shard are added once, when their owner finishes.
//   * Service-layer objects accept an optional Registry* via their configs.
//     When null they create a PRIVATE registry, keeping per-instance stats
//     exact (tests construct several caches/services in one process).
//     Benches/daemons inject one shared Registry to get a unified trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/time_source.hpp"

namespace aegis::telemetry {

class Registry {
 public:
  /// Uses an internally owned deterministic TickTimeSource.
  Registry();
  /// Uses the caller's TimeSource (not owned; must outlive the registry).
  explicit Registry(TimeSource* time_source);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  FlightRecorder& recorder() noexcept { return recorder_; }
  const FlightRecorder& recorder() const noexcept { return recorder_; }
  TimeSource& time_source() noexcept {
    return *time_.load(std::memory_order_acquire);
  }

  /// Points span and ε-decision stamps at a new source (not owned).
  void set_time_source(TimeSource* time_source) noexcept {
    time_.store(time_source, std::memory_order_release);
  }

  /// Span ids, unique per registry and never 0.
  std::uint64_t next_span_id() noexcept {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Process-wide registry used by components with no injection point.
  static Registry& global();

 private:
  std::unique_ptr<TimeSource> owned_time_;
  std::atomic<TimeSource*> time_;
  MetricsRegistry metrics_;
  FlightRecorder recorder_;
  // Own cache line: every span start bumps it, from any thread.
  alignas(64) std::atomic<std::uint64_t> next_span_id_{1};
};

/// `reg ? *reg : Registry::global()` — the idiom for optional config plumbing.
inline Registry& resolve(Registry* reg) {
  return reg != nullptr ? *reg : Registry::global();
}

/// One span call site: the kSpanBegin/kSpanEnd handles of the stream named
/// after the span, resolved once (SLOW PATH: the recorder's registration
/// mutex). Recording through it takes no lock and allocates nothing. A
/// default-constructed site records nothing.
class SpanSite {
 public:
  SpanSite() = default;
  SpanSite(Registry& registry, std::string_view name);

  /// Records an already-timed interval (e.g. stamped from the simulator's
  /// virtual clock) without consulting the TimeSource; no parent.
  void record_complete(std::uint64_t begin_ns, std::uint64_t end_ns,
                       std::uint32_t track = 0,
                       std::uint32_t arg = 0) const noexcept;

 private:
  friend class ScopedSpan;
  Registry* registry_ = nullptr;
  EventHandle begin_;
  EventHandle end_;
  std::uint64_t name_hash_ = 0;
};

/// RAII span stamped from the registry TimeSource. Nested ScopedSpans on
/// one thread link to the innermost enclosing one through a thread-local
/// parent stack threaded through the spans themselves (no allocation), so
/// they must end in reverse order of their start, as scopes do.
/// `arg` is one free-form value (tenant id, batch size, shard count, ...).
class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanSite& site, std::uint32_t track = 0,
                      std::uint32_t arg = 0) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanSite site_;
  std::uint64_t id_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::uint32_t track_ = 0;
  std::uint32_t arg_ = 0;
  ScopedSpan* enclosing_ = nullptr;
};

}  // namespace aegis::telemetry
