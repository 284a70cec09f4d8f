// Flight-recorder tests: the seqlock ring protocol (single-thread semantics,
// overwrite-oldest drops, disabled/null paths), the byte-exact v1 dump
// format and its chrome://tracing conversion, concurrent writers + drains
// under TSan, the allocation-free record-path proofs for raw events, spans
// and ε decisions (instrumented global allocator), and the seeded-crash
// dump (fork + abort -> parseable dump holding the last ring_capacity
// events).
#include "telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/budget_governor.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Instrumented global allocator. Counting is gated on a flag so only the
// record-path window is measured; gtest bookkeeping outside it stays free.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aegis::telemetry {
namespace {

RecorderConfig small_config(std::size_t capacity, std::size_t rings) {
  RecorderConfig c;
  c.ring_capacity = capacity;
  c.rings = rings;
  return c;
}

// ---------------------------------------------------------------------------
// Ring semantics

TEST(FlightRecorder, SingleThreadRecordAndDrainSortsByTime) {
  FlightRecorder rec(small_config(8, 1));
  EventHandle alpha = rec.event_handle("alpha", WideEventType::kHotExec);
  EventHandle beta = rec.event_handle("beta", WideEventType::kAlert);
  alpha.record(/*t_ns=*/5, 1, 2, 3, 4, /*tenant=*/7);
  beta.record(/*t_ns=*/3, 9);

  const std::vector<DrainedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t_ns, 3u);  // sorted by t_ns, not claim order
  EXPECT_EQ(events[0].a, 9u);
  EXPECT_EQ(events[0].type,
            static_cast<std::uint16_t>(WideEventType::kAlert));
  EXPECT_EQ(events[0].stream, 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].t_ns, 5u);
  EXPECT_EQ(events[1].d, 4u);
  EXPECT_EQ(events[1].tenant, 7u);
  EXPECT_EQ(events[1].stream, 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.streams(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(FlightRecorder, EventHandleIsIdempotentPerName) {
  FlightRecorder rec(small_config(8, 1));
  rec.event_handle("one", WideEventType::kMetricDelta);
  rec.event_handle("one", WideEventType::kMetricDelta);
  rec.event_handle("two", WideEventType::kMetricDelta);
  EXPECT_EQ(rec.streams().size(), 2u);
}

TEST(FlightRecorder, OverwriteOldestKeepsTheNewestAndCountsDrops) {
  FlightRecorder rec(small_config(4, 1));
  EventHandle h = rec.event_handle("wrap", WideEventType::kMetricDelta);
  for (std::uint64_t i = 0; i < 10; ++i) h.record(i, i * 10);

  const std::vector<DrainedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 4u);  // newest ring_capacity events survive
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t_ns, 6 + i);
    EXPECT_EQ(events[i].a, (6 + i) * 10);
    EXPECT_EQ(events[i].seq, 6 + i);
  }
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
  FlightRecorder rec(small_config(8, 1));
  EventHandle h = rec.event_handle("gated", WideEventType::kMetricDelta);
  rec.set_enabled(false);
  h.record(1);
  EXPECT_TRUE(rec.drain().empty());
  rec.set_enabled(true);
  h.record(2);
  EXPECT_EQ(rec.drain().size(), 1u);
}

TEST(FlightRecorder, NullHandleIsANoop) {
  EventHandle h;
  EXPECT_FALSE(h.attached());
  h.record(1, 2, 3, 4, 5, 6);  // must not crash
}

TEST(FlightRecorder, RecordNamedSharesTheStreamWithTheHandle) {
  FlightRecorder rec(small_config(8, 1));
  EventHandle h = rec.event_handle("shared", WideEventType::kMetricDelta);
  h.record(1);
  rec.record_named("shared", WideEventType::kMetricDelta, 2);
  const std::vector<DrainedEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stream, events[1].stream);
  EXPECT_EQ(rec.streams().size(), 1u);
}

TEST(FlightRecorder, ClearResetsRingsAndDropCounters) {
  FlightRecorder rec(small_config(4, 1));
  EventHandle h = rec.event_handle("x", WideEventType::kMetricDelta);
  for (std::uint64_t i = 0; i < 9; ++i) h.record(i);
  EXPECT_GT(rec.dropped(), 0u);
  rec.clear();
  EXPECT_TRUE(rec.drain().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Allocation-free record path

TEST(FlightRecorder, RecordPathIsAllocationFree) {
  FlightRecorder rec(small_config(256, 2));
  EventHandle h = rec.event_handle("hot", WideEventType::kHotExec);

  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    h.record(i, i + 1, i + 2, i + 3, i + 4, 42);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "EventHandle::record allocated on the hot path";
}

// Spans and ε decisions are wide events too: once their handles are
// resolved (the SpanSite, the tenant's first decision), recording them
// allocates nothing.
TEST(FlightRecorder, SpanAndBudgetDecisionRecordingIsAllocationFree) {
  Registry reg;
  const SpanSite site(reg, "test.span");
  service::GovernorConfig config;
  config.telemetry = &reg;
  config.default_epsilon_cap = 1e9;
  service::BudgetGovernor governor(config);
  governor.request_window(1, 4, 0.01);  // registers the tenant's gauges

  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    {
      ScopedSpan outer(site, 0, 1);
      ScopedSpan inner(site, 1, 2);
    }
    site.record_complete(i, i + 1, 3, 4);
    governor.request_window(1, 4, 0.01);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "span or ε-decision recording allocated";
  EXPECT_FALSE(complete_spans(reg.recorder().drain()).empty());
}

// ---------------------------------------------------------------------------
// Dump format v1

void put_u16(std::string& s, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u64(std::string& s, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}
void put_record(std::string& s, std::uint64_t t, std::uint64_t a,
                std::uint64_t b, std::uint64_t c, std::uint64_t d,
                std::uint16_t type, std::uint16_t stream, std::uint32_t tenant,
                std::uint32_t ring, std::uint32_t seq) {
  put_u64(s, t);
  put_u64(s, a);
  put_u64(s, b);
  put_u64(s, c);
  put_u64(s, d);
  put_u64(s, (static_cast<std::uint64_t>(type) << 48) |
                 (static_cast<std::uint64_t>(stream) << 32) | tenant);
  put_u32(s, ring);
  put_u32(s, seq);
}

/// The recorder used by the byte-golden, round-trip and tracing tests:
/// one ring, streams "alpha" (kHotExec, id 0) and "beta" (kAlert, id 1),
/// alpha@t=5 then beta@t=3 so the sorted dump reorders them.
std::unique_ptr<FlightRecorder> golden_recorder() {
  auto rec = std::make_unique<FlightRecorder>(small_config(8, 1));
  EventHandle alpha = rec->event_handle("alpha", WideEventType::kHotExec);
  EventHandle beta = rec->event_handle("beta", WideEventType::kAlert);
  alpha.record(5, 1, 2, 3, 4, 7);
  beta.record(3, 9);
  return rec;
}

TEST(FlightRecorderDump, WriteDumpIsByteExact) {
  std::ostringstream os;
  golden_recorder()->write_dump(os);

  std::string want = "AEGISFR1";
  put_u32(want, 1);   // format version
  put_u32(want, 56);  // record size
  put_u64(want, 2);   // event count
  put_u64(want, 0);   // dropped
  put_u32(want, 13);  // name table: (2+5) + (2+4) bytes
  put_u32(want, 2);   // name table entries
  put_u16(want, 5);
  want += "alpha";
  put_u16(want, 4);
  want += "beta";
  // drain() order: (t_ns, ring, seq) ascending — beta first.
  put_record(want, 3, 9, 0, 0, 0, /*type=*/7, /*stream=*/1, 0, 0, /*seq=*/1);
  put_record(want, 5, 1, 2, 3, 4, /*type=*/8, /*stream=*/0, 7, 0, /*seq=*/0);

  EXPECT_EQ(os.str(), want);
}

TEST(FlightRecorderDump, RoundTripsThroughReadDump) {
  auto rec = golden_recorder();
  std::ostringstream os;
  rec->write_dump(os);
  std::istringstream is(os.str());

  const std::optional<DumpDocument> doc = read_dump(is);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->version, 1u);
  EXPECT_EQ(doc->dropped, 0u);
  EXPECT_EQ(doc->streams, (std::vector<std::string>{"alpha", "beta"}));
  const std::vector<DrainedEvent> live = rec->drain();
  ASSERT_EQ(doc->events.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(doc->events[i].t_ns, live[i].t_ns);
    EXPECT_EQ(doc->events[i].a, live[i].a);
    EXPECT_EQ(doc->events[i].type, live[i].type);
    EXPECT_EQ(doc->events[i].stream, live[i].stream);
    EXPECT_EQ(doc->events[i].tenant, live[i].tenant);
    EXPECT_EQ(doc->events[i].seq, live[i].seq);
  }
}

TEST(FlightRecorderDump, TraceJsonConversionIsByteExact) {
  auto rec = golden_recorder();
  std::ostringstream dump;
  rec->write_dump(dump);
  std::istringstream is(dump.str());
  const std::optional<DumpDocument> doc = read_dump(is);
  ASSERT_TRUE(doc.has_value());

  std::ostringstream os;
  write_trace_json(*doc, os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"beta\", \"cat\": \"alert\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": 0.003, \"pid\": 1, \"tid\": 0, "
            "\"args\": {\"a\": 9, \"b\": 0, \"c\": 0, \"d\": 0, "
            "\"tenant\": 0, \"seq\": 1}},\n"
            "  {\"name\": \"alpha\", \"cat\": \"hot-exec\", \"ph\": \"i\", "
            "\"s\": \"t\", \"ts\": 0.005, \"pid\": 1, \"tid\": 0, "
            "\"args\": {\"a\": 1, \"b\": 2, \"c\": 3, \"d\": 4, "
            "\"tenant\": 7, \"seq\": 0}}\n"
            "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(FlightRecorderDump, TruncatedRecordStreamParsesThePrefix) {
  std::ostringstream os;
  golden_recorder()->write_dump(os);
  const std::string full = os.str();
  // Cut mid-way through the last record: the reader keeps what landed.
  std::istringstream is(full.substr(0, full.size() - 10));
  const std::optional<DumpDocument> doc = read_dump(is);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->events.size(), 1u);
  EXPECT_EQ(doc->events[0].t_ns, 3u);
}

TEST(FlightRecorderDump, BadMagicIsRejected) {
  std::istringstream is("NOTADUMPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  EXPECT_FALSE(read_dump(is).has_value());
}

// ---------------------------------------------------------------------------
// Dump parser over outside bytes: the name-table length a header claims is
// bounded before anything is allocated for it, and no mutation of a real
// dump makes read_dump throw.

/// A v1 header with no events, followed by `table_len` zero bytes of name
/// table.
std::string header_with_table(std::uint32_t table_len) {
  std::string s = "AEGISFR1";
  put_u32(s, 1);   // format version
  put_u32(s, 56);  // record size
  put_u64(s, 0);   // event count
  put_u64(s, 0);   // dropped
  put_u32(s, table_len);
  put_u32(s, 0);   // name table entries
  s.append(table_len, '\0');
  return s;
}

TEST(DumpParser, NameTableLargerThanTheWritersCapacityIsRejected) {
  constexpr auto kCapacity =
      static_cast<std::uint32_t>(FlightRecorder::kNameTableBytes);
  std::istringstream at_capacity(header_with_table(kCapacity));
  EXPECT_TRUE(read_dump(at_capacity).has_value());
  // Every byte the header claims is present: only the length is wrong.
  std::istringstream over(header_with_table(kCapacity + 1));
  EXPECT_FALSE(read_dump(over).has_value());
}

TEST(DumpParser, SeededMutationsOfARealDumpParseOrRejectWithoutThrowing) {
  FlightRecorder rec(small_config(16, 2));
  EventHandle handles[] = {
      rec.event_handle("alpha", WideEventType::kHotExec),
      rec.event_handle("beta-stream", WideEventType::kAlert),
      rec.event_handle("gamma", WideEventType::kMetricDelta)};
  for (std::uint64_t i = 0; i < 12; ++i) {
    handles[i % 3].record(10 + i, i, 2 * i, 3 * i, 4 * i,
                          static_cast<std::uint32_t>(i));
  }
  std::ostringstream os;
  rec.write_dump(os);
  const std::string dump = os.str();
  {
    std::istringstream is(dump);
    ASSERT_TRUE(read_dump(is).has_value());
  }

  // Header fields past the magic: (offset, width in bytes).
  constexpr std::pair<std::size_t, std::size_t> kFields[] = {
      {8, 4}, {12, 4}, {16, 8}, {24, 8}, {32, 4}, {36, 4}};
  const std::uint64_t special[] = {
      0, 1, FlightRecorder::kNameTableBytes,
      FlightRecorder::kNameTableBytes + 1, 0xFFFFFFFFULL, ~0ULL};
  util::Rng rng(0xD0C5);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    std::string bytes = dump;
    if (i % 3 == 0) {  // truncation
      bytes.resize(rng.uniform_index(bytes.size()));
    } else if (i % 3 == 1) {  // 1-8 bit flips anywhere
      const std::uint64_t flips = 1 + rng.uniform_index(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[rng.uniform_index(bytes.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      }
    } else {  // one header field overwritten
      const auto [offset, width] = kFields[rng.uniform_index(6)];
      const std::uint64_t pick = rng.uniform_index(7);
      const std::uint64_t value = pick < 6 ? special[pick] : rng.next_u64();
      for (std::size_t k = 0; k < width; ++k) {
        bytes[offset + k] = static_cast<char>(value >> (8 * k));
      }
    }
    std::istringstream is(bytes);
    std::optional<DumpDocument> doc;
    ASSERT_NO_THROW(doc = read_dump(is)) << "case " << i;
    ++(doc.has_value() ? parsed : rejected);
  }
  // Both outcomes occur: the mutations reach past the header checks.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FlightRecorderDump, SignalSafeDumpUsesUntilEofCountAndParses) {
  auto rec = golden_recorder();
  const std::string path = testing::TempDir() + "aegis_fr_fd_dump.frd";
  ASSERT_TRUE(rec->dump_to_file(path.c_str()));
  const std::optional<DumpDocument> doc = read_dump_file(path.c_str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->version, 1u);
  // Per-ring claim order (no sort in signal context): alpha then beta.
  ASSERT_EQ(doc->events.size(), 2u);
  EXPECT_EQ(doc->events[0].t_ns, 5u);
  EXPECT_EQ(doc->events[1].t_ns, 3u);
  EXPECT_EQ(doc->streams, (std::vector<std::string>{"alpha", "beta"}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrency (run under -DAEGIS_SANITIZE=thread in CI)

TEST(FlightRecorderConcurrency, EightWritersWithConcurrentDrainsStayClean) {
  FlightRecorder rec(small_config(256, 4));
  EventHandle h = rec.event_handle("stress", WideEventType::kMetricDelta);

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::atomic<bool> stop{false};

  // Drainer races the writers: every delivered event must be internally
  // consistent (a == t_ns + 1) — torn slots are dropped, never delivered.
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const DrainedEvent& ev : rec.drain()) {
        ASSERT_EQ(ev.a, ev.t_ns + 1);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t stamp = static_cast<std::uint64_t>(t) * kPerThread + i;
        h.record(stamp, stamp + 1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();

  const std::vector<DrainedEvent> final_events = rec.drain();
  EXPECT_LE(final_events.size(), 4u * 256u);
  EXPECT_FALSE(final_events.empty());
  for (const DrainedEvent& ev : final_events) {
    EXPECT_EQ(ev.a, ev.t_ns + 1);
  }
  // Nothing vanishes silently: whatever the rings no longer hold is
  // accounted as dropped.
  EXPECT_GE(final_events.size() + rec.dropped(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Seeded crash -> parseable dump with the last N events

TEST(FlightRecorderCrash, AbortProducesAParseableDumpWithTheLastEvents) {
  const std::string prefix = testing::TempDir() + "aegis_fr_crash";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record 100 events into a 64-slot ring, arm, abort. The
    // SIGABRT hook must dump before the process dies.
    FlightRecorder rec(small_config(64, 1));
    EventHandle h = rec.event_handle("crash.site", WideEventType::kMetricDelta);
    for (std::uint64_t i = 0; i < 100; ++i) h.record(i, i * 2, 0xDEAD);
    rec.arm_crash_dump(prefix.c_str());
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const std::string path =
      prefix + "." + std::to_string(static_cast<int>(pid)) + ".frd";
  const std::optional<DumpDocument> doc = read_dump_file(path.c_str());
  ASSERT_TRUE(doc.has_value()) << "crash dump missing or unparseable: " << path;
  EXPECT_EQ(doc->version, 1u);
  ASSERT_EQ(doc->streams.size(), 1u);
  EXPECT_EQ(doc->streams[0], "crash.site");
  // The newest ring_capacity events survived the wrap; the tail is the
  // final event before the abort.
  ASSERT_EQ(doc->events.size(), 64u);
  EXPECT_EQ(doc->events.front().seq, 36u);
  EXPECT_EQ(doc->events.back().seq, 99u);
  EXPECT_EQ(doc->events.back().a, 198u);
  EXPECT_EQ(doc->events.back().b, 0xDEADu);
  EXPECT_EQ(doc->dropped, 36u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aegis::telemetry
