// Always-on flight recorder: per-thread ring buffers of fixed-size binary
// wide events, modeled on the Linux perf ring buffer the paper's real
// sampler would sit on.
//
// Design goals, in order:
//   1. The record path is wait-free and allocation-free, so it is legal
//      inside the existing `noalloc` regions (GadgetRunner::execute_once,
//      NoiseInjector::inject). Like MetricsRegistry, the slow path is the
//      by-name registration (`event_handle`) which takes a mutex and may
//      allocate; the returned EventHandle is a trivially-copyable pointer
//      wrapper whose record() is a claim-index fetch_add plus seven relaxed
//      atomic word stores — no locks, no branches on "is telemetry on"
//      beyond one relaxed enabled load.
//   2. Flight-recorder drop policy: rings OVERWRITE OLDEST. A crash dump
//      answers "what happened just before", so the newest events win and a
//      slow drain can never back-pressure the hot path. Overwritten events
//      are counted, never silently lost.
//   3. Crash-safe: dump_to_fd() touches only atomics, stack buffers and
//      write(2), so the SIGSEGV/SIGABRT/terminate hooks installed by
//      arm_crash_dump() can emit a parseable dump from a dying process.
//
// Ring layout: a fixed pool of `rings` rings, each `ring_capacity` (power of
// two) slots. A slot is 7 relaxed-atomic u64 words: six payload words
// (t_ns, a, b, c, d, meta) and one sequence word used as a per-slot
// publication flag — a writer claims index i via fetch_add on the ring head,
// stores 0 to the sequence (invalidating the slot for concurrent readers),
// writes the payload, then release-stores i+1. Readers accept a slot only if
// the sequence reads i+1 before AND after copying the payload, so torn
// (mid-overwrite) slots are detected and counted as drops. Threads map to
// rings by a process-wide thread ordinal; with more threads than rings the
// claim protocol degrades gracefully to multi-producer on a shared ring.
//
// All accesses to slot memory go through std::atomic, so the recorder is
// clean under ThreadSanitizer by construction, not by suppression.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aegis::telemetry {

class FlightRecorder;

/// Wide-event kinds. The numeric values are part of the on-disk dump format
/// (version header below): append new kinds, never renumber.
enum class WideEventType : std::uint16_t {
  kNone = 0,
  kSpanBegin = 1,      // a=span id, b=fnv1a(name), c=parent id, d=track,
                       // tenant=free-form arg; the stream is the span name
  kSpanEnd = 2,        // a=span id, b=fnv1a(name), c=0, d=track, tenant=arg
  kMetricDelta = 3,    // a/b/c/d free-form (site-defined deltas)
  kAdmission = 4,      // a=BudgetOutcome, b=granularity, c=releases,
                       // d=epsilon_after bits (memcpy'd double), tenant
  kPlanRotation = 5,   // a=slice, b=variant index, c=period, d=0
  kRngCheckpoint = 6,  // a=derived seed, b=stream index, c/d free-form
  kAlert = 7,          // a=alert kind, b=score bits (double), c/d free-form
  kHotExec = 8,        // a=execution count, b=superblock uid, c/d free-form
};

const char* to_string(WideEventType t) noexcept;

/// Budget-governor decision carried in kAdmission events (field `a`). Part
/// of the dump format like WideEventType: append, never renumber.
enum class BudgetOutcome : std::uint8_t {
  kAdmit = 0,
  kDegrade = 1,
  kRefuse = 2,
  kReset = 3,  // a new budget grant; ε restarts at 0
};

const char* to_string(BudgetOutcome o) noexcept;

/// One decoded event, as produced by drain()/read_dump().
struct DrainedEvent {
  std::uint64_t t_ns = 0;  // caller-supplied clock (tick, virtual, ordinal)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  std::uint32_t tenant = 0;
  std::uint16_t type = 0;    // WideEventType
  std::uint16_t stream = 0;  // registered stream id (names via streams())
  std::uint32_t ring = 0;    // which ring recorded it
  std::uint64_t seq = 0;     // ring-local claim index (monotone per ring)
};

/// Null-safe trivially-copyable record handle, the flight-recorder analog of
/// telemetry::Counter: resolve once at construction (slow path), record from
/// anywhere (wait-free, allocation-free). A default-constructed handle is a
/// no-op, so instrumented code never branches on "is a recorder attached".
class EventHandle {
 public:
  constexpr EventHandle() noexcept = default;
  constexpr EventHandle(FlightRecorder* recorder, WideEventType type,
                        std::uint16_t stream) noexcept
      : recorder_(recorder),
        type_(static_cast<std::uint16_t>(type)),
        stream_(stream) {}

  /// Records one wide event. `t_ns` is CALLER-supplied: hot paths stamp a
  /// local ordinal (no shared-clock cache traffic), service paths stamp the
  /// registry TimeSource, virtual-clock sites stamp slice indices. The
  /// recorder never consults a clock itself, which keeps recording off the
  /// determinism/bit-identity critical path.
  void record(std::uint64_t t_ns, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0, std::uint64_t d = 0,
              std::uint32_t tenant = 0) const noexcept;

  constexpr bool attached() const noexcept { return recorder_ != nullptr; }

 private:
  FlightRecorder* recorder_ = nullptr;
  std::uint16_t type_ = 0;
  std::uint16_t stream_ = 0;
};

struct RecorderConfig {
  /// Events per ring; rounded up to a power of two. The dump keeps the last
  /// `ring_capacity` events per ring (overwrite-oldest).
  std::size_t ring_capacity = 1024;
  /// Ring pool size. Threads beyond this share rings (still correct, just
  /// multi-producer). Rings are preallocated at construction; memory is
  /// rings * ring_capacity * 56 bytes.
  std::size_t rings = 32;
  /// Construction-time master switch (set_enabled flips it later).
  bool enabled = true;
};

/// Binary dump, parsed form. `events` preserve file order (write_dump sorts
/// by (t_ns, ring, seq); crash dumps are per-ring claim order).
struct DumpDocument {
  std::uint32_t version = 0;
  std::uint64_t dropped = 0;
  std::vector<std::string> streams;
  std::vector<DrainedEvent> events;
};

/// A span rebuilt from its kSpanBegin/kSpanEnd pair.
struct CompletedSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = no parent
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t track = 0;
  std::uint32_t arg = 0;
  std::uint16_t stream = 0;  // the span's name
};

class FlightRecorder {
 public:
  explicit FlightRecorder(RecorderConfig config = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// SLOW PATH (mutex + may allocate): resolves a named event stream to a
  /// handle. Idempotent per (name): the same name maps to one stream id.
  /// Must run at construction time, outside noalloc regions — enforced by
  /// the aegis-lint `telemetry-handle` rule.
  EventHandle event_handle(std::string_view name, WideEventType type);

  /// SLOW PATH convenience for cold call sites (tools, tests): resolves the
  /// stream by name on every call. Banned inside noalloc regions by the
  /// same lint rule.
  void record_named(std::string_view name, WideEventType type,
                    std::uint64_t t_ns, std::uint64_t a = 0,
                    std::uint64_t b = 0, std::uint64_t c = 0,
                    std::uint64_t d = 0, std::uint32_t tenant = 0);

  /// Wait-free, allocation-free record. Prefer EventHandle::record.
  void record_raw(std::uint16_t type, std::uint16_t stream, std::uint64_t t_ns,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d, std::uint32_t tenant) noexcept;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Coordinated drain: snapshots every ring (tolerating concurrent
  /// writers; torn slots count as drops) and merges them into one list
  /// sorted by (t_ns, ring, seq) — deterministic and seed-stable when the
  /// recording run was.
  std::vector<DrainedEvent> drain() const;

  /// drain() plus the stream names and drop count, in dump form: what the
  /// trace writer and live viewers read without a dump file round trip.
  DumpDocument snapshot() const;

  /// Events lost to overwrite (ring wrap) plus torn slots skipped by the
  /// most recent drain/dump.
  std::uint64_t dropped() const noexcept;

  /// Registered stream names, id-ordered (id 0 is first).
  std::vector<std::string> streams() const;

  /// Resets every ring and the drop counters. NOT safe against concurrent
  /// writers; quiesce first (tests, between bench phases).
  void clear();

  /// Writes the sorted binary dump (drain() order) with the version header.
  void write_dump(std::ostream& os) const;

  /// Async-signal-safe dump: atomics + stack buffers + write(2) only.
  /// Events are emitted in per-ring claim order with an until-EOF count so
  /// no seek is needed. Returns false if any write failed.
  bool dump_to_fd(int fd) const noexcept;
  bool dump_to_file(const char* path) const noexcept;

  /// Installs process-wide crash hooks (SIGSEGV/SIGBUS/SIGILL/SIGFPE/
  /// SIGABRT + std::set_terminate) that dump THIS recorder to
  /// "<path_prefix>.<pid>.frd" before re-raising. The last recorder armed
  /// wins; arming replaces prior hooks. Path is composed once here so the
  /// signal handler never formats strings.
  void arm_crash_dump(const char* path_prefix);

  /// The recorder most recently armed (nullptr if none).
  static FlightRecorder* armed() noexcept;

  std::size_t ring_capacity() const noexcept { return capacity_; }
  std::size_t ring_count() const noexcept { return ring_count_; }

  /// Capacity of the pre-rendered stream-name table, and so the largest
  /// name table a dump carries: read_dump rejects a header claiming more.
  static constexpr std::size_t kNameTableBytes = 16 * 1024;

 private:
  struct Slot {
    // words[0..5] = t_ns, a, b, c, d, meta; meta packs
    // (type << 48) | (stream << 32) | tenant.
    std::atomic<std::uint64_t> words[6];
    std::atomic<std::uint64_t> seq{0};  // claim index + 1 once published
  };
  struct alignas(64) Ring {
    std::atomic<std::uint64_t> head{0};  // next claim index
    std::unique_ptr<Slot[]> slots;
  };

  /// Copies the live tail of `ring` into `out` (ring-local claim order).
  /// Returns the number of torn slots skipped.
  std::uint64_t snapshot_ring(std::uint32_t ring_index,
                              std::vector<DrainedEvent>& out) const;

  std::atomic<bool> enabled_{true};
  std::size_t capacity_ = 0;  // power of two
  std::uint64_t mask_ = 0;
  std::size_t ring_count_ = 0;
  std::unique_ptr<Ring[]> rings_;
  mutable std::atomic<std::uint64_t> torn_{0};

  // Registration slow path and the top of the telemetry lattice: it sits
  // above the metrics registry (52), and nothing is taken while it is
  // held. Spans and ε decisions record through pre-resolved handles, so
  // the record path takes no lock at all.
  // aegis-lint: lock-level(53, noblock)
  mutable std::mutex mu_;
  std::vector<std::string> stream_names_;
  // Pre-rendered stream-name table (u16 length + bytes per name) so the
  // signal-context dump can emit names without formatting or allocating.
  // Fixed capacity (kNameTableBytes); names past the limit fall back to
  // "stream#<id>" in viewers. published length is atomic so dump_to_fd
  // reads a consistent prefix.
  std::unique_ptr<unsigned char[]> name_table_;
  std::atomic<std::uint32_t> name_table_len_{0};
  std::atomic<std::uint32_t> name_table_count_{0};
};

/// Parses a binary dump written by write_dump()/dump_to_fd(). Truncated
/// event streams parse to the events present (a crash may cut the tail);
/// a bad magic/version, a name table larger than
/// FlightRecorder::kNameTableBytes, or a truncated name table returns
/// nullopt.
std::optional<DumpDocument> read_dump(std::istream& is);
std::optional<DumpDocument> read_dump_file(const char* path);

/// Pairs every kSpanBegin with the kSpanEnd of the same span id, in the
/// begin events' order. An end whose begin was overwritten, and a begin
/// whose end is not (yet) recorded, yield nothing.
std::vector<CompletedSpan> complete_spans(
    const std::vector<DrainedEvent>& events);

/// The chrome://tracing / Perfetto trace_event JSON writer, in document
/// order (ts/dur in µs, pid 1):
///   * each completed span (complete_spans) is a "ph":"X" event named by
///     its stream, cat = the name up to the first '.', tid = track;
///   * each kAdmission event is a "ph":"C" sample of ε on an
///     "epsilon tenant N" counter track;
///   * every other event is a "ph":"i" instant (tid = ring) with its
///     payload in args.
/// Unpaired span begin/end events are left out.
void write_trace_json(const DumpDocument& doc, std::ostream& os);

}  // namespace aegis::telemetry
