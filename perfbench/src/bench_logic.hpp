// Measurement rules of the Aegis benchmark, kept free of library calls so
// the benchmark's own tests can check them in isolation: the percentile
// rule, the open-loop arrival schedule, open-loop latency, span self time
// and the result digest.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- percentiles

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is just the maximum of a few samples.
inline constexpr std::size_t kSamplesBeyondTail = 10;

/// Nearest-rank percentile (p in [0, 100]) of `values`; NaN when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// True when `n` samples leave at least kSamplesBeyondTail beyond the
/// p-th percentile.
inline bool tail_supported(std::size_t n, double p) {
  // Rounded so that 1000 samples support p99 exactly (10 beyond).
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return beyond + 1e-9 >= static_cast<double>(kSamplesBeyondTail);
}

/// The highest of p50, p75, p90, p99 and p99.9 that `n` samples support,
/// or 0 when none does.
inline double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (double p : {50.0, 75.0, 90.0, 99.0, 99.9}) {
    if (tail_supported(n, p)) best = p;
  }
  return best;
}

/// Smallest sample count that supports the p-th percentile.
inline std::size_t samples_for_percentile(double p) {
  std::size_t n = 1;
  while (!tail_supported(n, p)) ++n;
  return n;
}

/// Percentiles of a timed phase, robust to the host's noise episodes: the
/// phase is cut into fixed windows by scheduled arrival, each window with
/// enough samples for `tail_p` gives its p50 and tail, and the lower
/// quartile over those windows is reported. Noise from other tenants of a
/// shared host only adds latency, and it comes in episodes of seconds, so
/// the quieter quarter of the windows is what repeats from run to run; a
/// change to the service itself moves every window.
struct WindowedPercentiles {
  double p50 = std::nan("");
  double tail = std::nan("");
  std::size_t windows = 0;  // windows that supported the tail
};

inline WindowedPercentiles windowed_percentiles(
    const std::vector<double>& arrival_s, const std::vector<double>& values,
    double window_s, double tail_p) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < arrival_s.size() && i < values.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, arrival_s[i]) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> p50s;
  std::vector<double> tails;
  for (const auto& w : windows) {
    if (!tail_supported(w.size(), tail_p)) continue;
    p50s.push_back(percentile(w, 50.0));
    tails.push_back(percentile(w, tail_p));
  }
  WindowedPercentiles out;
  out.windows = p50s.size();
  if (!p50s.empty()) {
    out.p50 = percentile(p50s, 25.0);
    out.tail = percentile(tails, 25.0);
  }
  return out;
}

// ------------------------------------------------------------ open-loop load

/// Poisson arrival offsets (seconds from the start of the phase) at `rate`
/// per second over `duration` seconds. The same seed gives the same
/// schedule on every host: std::mt19937_64 and the inverse-CDF transform
/// below are fully specified, unlike std::exponential_distribution.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double duration) {
  std::vector<double> arrivals;
  if (!(rate > 0.0) || !(duration > 0.0)) return arrivals;
  std::mt19937_64 gen(seed);
  double t = 0.0;
  for (;;) {
    // 53 random bits -> u in (0, 1]; -log(u) / rate is Exp(rate).
    const double u =
        (static_cast<double>(gen() >> 11) + 1.0) * (1.0 / 9007199254740992.0);
    t += -std::log(u) / rate;
    if (t >= duration) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

/// Open-loop latency of one session: from when it was due (its scheduled
/// arrival) until its result is available. The generator's lateness (it
/// called submit() after the due time) counts, followed by the service's
/// own enqueue-to-completion latency.
inline double open_loop_latency(double scheduled_s, double submit_called_s,
                                double service_latency_s) {
  return std::max(0.0, submit_called_s - scheduled_s) + service_latency_s;
}

// ------------------------------------------------------------------- spans

/// One traced interval. `parent` is the index+1 of the enclosing span in
/// the same log (0 = root); spans of one request share `request`.
struct Span {
  const char* name = "";  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t parent = 0;
  std::uint64_t request = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (parallel work)
/// are counted once; children are clipped to the parent's interval.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    const Span& p = spans[s.parent - 1];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[s.parent - 1].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0;
    std::int64_t run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[i] = std::max<std::int64_t>(0, spans[i].duration_ns() - covered);
  }
  return self;
}

/// Thread-safe in-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  /// Appends a finished span; returns its id (index + 1) for children.
  std::size_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::size_t parent, std::uint64_t request) {
    std::lock_guard lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return spans_.size();
  }
  /// Appends a span whose end is set later with finish().
  std::size_t open(const char* name, std::int64_t start_ns, std::size_t parent,
                   std::uint64_t request) {
    return add(name, start_ns, start_ns, parent, request);
  }
  void finish(std::size_t id, std::int64_t end_ns) {
    std::lock_guard lock(mu_);
    spans_[id - 1].end_ns = end_ns;
  }
  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------ digest

/// FNV-1a over raw bytes; digests compare results bit for bit.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
