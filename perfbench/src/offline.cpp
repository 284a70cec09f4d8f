// Workload `offline`: repeated cold analyses (profile -> fuzz -> cover) of
// distinct applications drawn from the seed, one after another, each at
// nproc campaign threads. Untraced, every analysis is one
// core::Aegis::analyze call. Traced, each application is analysed both
// ways: once through Aegis::analyze and once stage by stage through the
// public calls it composes, with spans around each stage.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench_logic.hpp"
#include "common.hpp"
#include "fuzzer/fuzzer.hpp"
#include "fuzzer/set_cover.hpp"
#include "layers.hpp"
#include "profiler/profiler.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

/// Samples the process CPU clock every millisecond so the CPU use inside a
/// stage that has no call boundary of its own (confirmation inside
/// EventFuzzer::run) can be read back by wall-clock interval.
class CpuSampler {
 public:
  CpuSampler() : thread_([this] { loop(); }) {}
  ~CpuSampler() {
    stop_.store(true);
    thread_.join();
  }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  /// Process CPU seconds at monotonic time `t` (linear between samples).
  double cpu_at(double t) const {
    std::lock_guard lock(mu_);
    if (samples_.empty()) return 0.0;
    if (t <= samples_.front().first) return samples_.front().second;
    for (std::size_t i = 1; i < samples_.size(); ++i) {
      if (samples_[i].first >= t) {
        const auto& [t0, c0] = samples_[i - 1];
        const auto& [t1, c1] = samples_[i];
        return t1 > t0 ? c0 + (c1 - c0) * (t - t0) / (t1 - t0) : c1;
      }
    }
    return samples_.back().second;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      {
        std::lock_guard lock(mu_);
        samples_.emplace_back(now_s(), process_cpu_seconds());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::int64_t to_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

bool plausible(const aegis::core::OfflineResult& r) {
  return r.ranking.size() == r.warmup.surviving.size() &&
         r.fuzz.reports.size() == r.ranking.size() &&
         r.cover.covered_events.size() + r.cover.uncovered_events.size() ==
             r.fuzz.reports.size();
}

}  // namespace

StagedAnalysis analyze_in_stages(const aegis::core::Aegis& engine,
                                 const Application& app,
                                 const aegis::core::OfflineConfig& config,
                                 SpanLog& log, std::uint64_t request) {
  namespace prof = aegis::profiler;
  namespace fz = aegis::fuzzer;
  StagedAnalysis out;
  const std::size_t threads = aegis::util::ThreadPool::resolve(
      config.fuzzer.num_threads);
  const std::int64_t t_root = now_ns();
  const std::size_t root = log.open("offline.analyze", t_root, 0, request);
  auto stage = [&](const char* name, std::size_t parent, auto&& body) {
    const std::int64_t a = now_ns();
    body();
    const std::int64_t b = now_ns();
    log.add(name, a, b, parent, request);
    return static_cast<double>(b - a) * 1e-9;
  };

  prof::ApplicationProfiler profiler(engine.database(), config.profiler);
  out.warmup_s = stage("profiler.warmup", root, [&] {
    out.result.warmup = profiler.warmup(*app.secrets.front());
  });
  out.rank_s = stage("profiler.rank", root, [&] {
    out.result.ranking = profiler.rank(app.secrets, out.result.warmup.surviving);
  });

  std::vector<std::uint32_t> to_fuzz;
  const std::size_t limit =
      config.fuzz_top_events == 0
          ? out.result.ranking.size()
          : std::min(config.fuzz_top_events, out.result.ranking.size());
  for (std::size_t i = 0; i < limit; ++i) {
    to_fuzz.push_back(out.result.ranking[i].event_id);
  }

  fz::EventFuzzer fuzzer(engine.database(), engine.specification(),
                         config.fuzzer);
  const double cpu0 = process_cpu_seconds();
  out.cleanup_s = stage("fuzzer.cleanup", root, [&] { fuzzer.cleanup(); });
  out.cleanup_cpu_util = (process_cpu_seconds() - cpu0) /
                         (out.cleanup_s * static_cast<double>(threads));

  {
    CpuSampler sampler;
    const double run_start = now_s();
    const std::int64_t run_a = now_ns();
    out.result.fuzz = fuzzer.run(to_fuzz);
    const std::int64_t run_b = now_ns();
    const std::size_t run_span = log.add("fuzzer.run", run_a, run_b, root, request);
    // The split inside run() comes from its public FuzzResult::timing; the
    // stages run back to back in this order.
    const auto& t = out.result.fuzz.timing;
    double at = t.cleanup_seconds;
    auto place = [&](const char* name, double seconds) {
      log.add(name, run_a + to_ns(at), run_a + to_ns(at + seconds), run_span,
              request);
      at += seconds;
    };
    place("fuzzer.cleanup_cached", t.cleanup_seconds);
    place("fuzzer.generation", t.generation_execution_seconds);
    const double conf_start = run_start + at;
    place("fuzzer.confirmation", t.confirmation_seconds);
    place("fuzzer.filtering", t.filtering_seconds);
    out.generation_s = t.generation_execution_seconds;
    out.confirmation_s = t.confirmation_seconds;
    out.filtering_s = t.filtering_seconds;
    out.confirmation_cpu_util =
        t.confirmation_seconds > 0.0
            ? (sampler.cpu_at(conf_start + t.confirmation_seconds) -
               sampler.cpu_at(conf_start)) /
                  (t.confirmation_seconds * static_cast<double>(threads))
            : 0.0;
  }

  out.cover_s = stage("cover.set_cover", root, [&] {
    out.result.cover = fz::minimal_gadget_cover(out.result.fuzz);
  });
  const std::int64_t t_end = now_ns();
  log.finish(root, t_end);
  out.total_s = static_cast<double>(t_end - t_root) * 1e-9;
  out.root_span = root;
  return out;
}

void report_offline_layers(const std::vector<StagedAnalysis>& runs,
                           const SpanLog& log, std::size_t variants,
                           Report& report) {
  std::vector<double> warmup, rank, cleanup, cleanup_util, gen, conf,
      conf_util, filter, cover, total, survivors, pairs, gadgets;
  double legal = 0.0;
  double confirmed = 0.0;
  double candidates = 0.0;
  for (const StagedAnalysis& r : runs) {
    warmup.push_back(r.warmup_s);
    rank.push_back(r.rank_s);
    cleanup.push_back(r.cleanup_s);
    cleanup_util.push_back(r.cleanup_cpu_util);
    gen.push_back(r.generation_s);
    conf.push_back(r.confirmation_s);
    conf_util.push_back(r.confirmation_cpu_util);
    filter.push_back(r.filtering_s);
    cover.push_back(r.cover_s);
    total.push_back(r.total_s);
    survivors.push_back(static_cast<double>(r.result.warmup.surviving.size()));
    pairs.push_back(static_cast<double>(r.result.fuzz.executed_gadgets));
    gadgets.push_back(static_cast<double>(r.result.cover.gadgets.size()));
    legal = static_cast<double>(r.result.fuzz.cleaned_instructions);
    for (const auto& rep : r.result.fuzz.reports) {
      confirmed += static_cast<double>(rep.confirmed.size());
      candidates += static_cast<double>(rep.candidates);
    }
  }
  // Unattributed time: the analysis span and fuzzer.run span minus what
  // their child stages cover.
  const std::vector<Span> spans = log.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<double> unattributed;
  for (const StagedAnalysis& r : runs) {
    double s = static_cast<double>(self[r.root_span - 1]);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent == r.root_span &&
          std::string_view(spans[i].name) == "fuzzer.run") {
        s += static_cast<double>(self[i]);
      }
    }
    unattributed.push_back(s * 1e-9);
  }

  const std::size_t n = runs.size();
  report.metric("profiler.warmup_s", median(warmup), "s", n);
  report.metric("profiler.rank_s", median(rank), "s", n);
  report.metric("fuzzer.cleanup_s", median(cleanup), "s", n);
  report.metric("fuzzer.cleanup.cpu_util", median(cleanup_util), "ratio", n);
  report.metric("fuzzer.generation_s", median(gen), "s", n);
  report.metric("fuzzer.confirmation_s", median(conf), "s", n);
  report.metric("fuzzer.confirmation.cpu_util", median(conf_util), "ratio", n);
  report.metric("fuzzer.filtering_s", median(filter), "s", n);
  report.metric("cover.set_cover_s", median(cover), "s", n);
  report.metric("profiler.surviving_events", median(survivors), "count", n);
  report.metric("fuzzer.executed_pairs", median(pairs), "count", n);
  report.metric("cover.gadgets", median(gadgets), "count", n);
  report.metric("fuzzer.legal_frac",
                variants > 0 ? legal / static_cast<double>(variants) : 0.0,
                "ratio", n);
  report.metric("fuzzer.confirm_yield",
                candidates > 0.0 ? confirmed / candidates : 0.0, "ratio", n);
  const double unattr = median(unattributed);
  report.metric("offline.unattributed_s", unattr, "s", n);
  report.metric("offline.unattributed_frac", unattr / median(total), "ratio", n);
}

int run_offline(const RunOptions& options, Report& report) {
  // Set-up: engine + ISA spec, the applications' secret sets, the offline
  // configuration and one untimed warm-up analysis of a fixed application
  // (so lazy initialisation and heap growth are paid before timing).
  // Repeated so the median is steady; the first is timed from process
  // start.
  constexpr std::size_t kSetups = 3;
  constexpr std::size_t kMaxApps = 400;
  constexpr std::size_t kSecretsPerApp = 4;
  const double tail_p = 90.0;
  const std::size_t min_samples = samples_for_percentile(tail_p);
  std::vector<double> setup_times;
  std::unique_ptr<aegis::core::Aegis> engine;
  std::vector<Application> apps;
  aegis::core::OfflineConfig config;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double t0 = i == 0 ? options.process_start_s : now_s();
    engine = std::make_unique<aegis::core::Aegis>(kCpu);
    apps = draw_applications(options.seed, kMaxApps, kSecretsPerApp);
    config = offline_config(options.nproc);
    const Application warmup = make_application(AppFamily::kWfa, {0, 1, 2, 3});
    engine->analyze(*warmup.secrets.front(), warmup.secrets, config);
    setup_times.push_back(now_s() - t0);
  }
  report_setup(report, setup_times);
  report.info("analyze_threads", std::to_string(options.nproc));

  SpanLog log;
  std::vector<double> analyze_s;
  std::vector<AppFamily> analyzed_family;  // parallel to analyze_s
  std::vector<double> staged_s;
  std::vector<StagedAnalysis> staged;
  // The first result of each family, with its application index.
  std::vector<std::pair<std::size_t, aegis::core::OfflineResult>> first_results;
  std::size_t errors = 0;
  const double start = now_s();
  // A run lasts `seconds`, but never ends before the tail has enough
  // samples (untraced); it stops early only if a slow build would overrun.
  const double hard_stop = start + std::max(options.seconds * 6.0, 120.0);
  std::size_t i = 0;
  for (; i < apps.size(); ++i) {
    const double now = now_s();
    const bool enough = options.trace || analyze_s.size() >= min_samples;
    if ((now - start >= options.seconds && enough) || now >= hard_stop) break;
    const Application& app = apps[i];
    try {
      const double t0 = now_s();
      aegis::core::OfflineResult r =
          engine->analyze(*app.secrets.front(), app.secrets, config);
      const double t1 = now_s();
      analyze_s.push_back(t1 - t0);
      analyzed_family.push_back(app.family);
      bool ok = plausible(r);
      if (options.trace) {
        StagedAnalysis s = analyze_in_stages(*engine, app, config, log, i + 1);
        ok = ok && same_ranking_and_cover(r, s.result);
        report.check(same_ranking_and_cover(r, s.result),
                     "staged analysis differs from Aegis::analyze for " +
                         app.label());
        staged_s.push_back(s.total_s);
        staged.push_back(std::move(s));
      } else if (first_results.size() < 3) {
        first_results.emplace_back(i, std::move(r));
      }
      if (!ok) ++errors;
    } catch (const std::exception& e) {
      ++errors;
      report.check(false, "analysis of " + app.label() + " threw: " + e.what());
    }
  }
  const std::size_t attempted = i;
  const double measured_peak_rss = peak_rss_mb();
  report.attempted(attempted);
  report.failed(errors);

  // Output check: composing the stages reproduces Aegis::analyze (one
  // application per family; the traced run checks every application).
  for (const auto& [k, result] : first_results) {
    StagedAnalysis s = analyze_in_stages(*engine, apps[k], config, log, 0);
    report.check(same_ranking_and_cover(result, s.result),
                 "staged analysis differs from Aegis::analyze for " +
                     apps[k].label());
  }
  report.check(!analyze_s.empty(), "no analysis completed");
  if (analyze_s.empty()) return 1;

  const std::size_t n = analyze_s.size();
  const double p = tail_supported(n, tail_p) ? tail_p
                                             : highest_supported_percentile(n);
  std::vector<double> ms;
  for (double s : analyze_s) ms.push_back(s * 1e3);
  report.metric("latency_ms.p50", median(ms), "ms", n);
  report.metric("analyze_s.p50", median(analyze_s), "s", n);
  if (p >= tail_p) {
    report.metric("latency_ms.p90", percentile(ms, tail_p), "ms", n);
    report.metric("analyze_s.p90", percentile(analyze_s, tail_p), "s", n);
  } else {
    report.info("latency_ms.p90", "not supported by " + std::to_string(n) +
                                      " samples; p" + std::to_string(p) + " = " +
                                      std::to_string(percentile(ms, p)) + " ms");
  }
  for (AppFamily f : {AppFamily::kWfa, AppFamily::kKsa, AppFamily::kDnn}) {
    std::vector<double> fam;
    for (std::size_t k = 0; k < n; ++k) {
      if (analyzed_family[k] == f) fam.push_back(ms[k]);
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "p50 %.1f ms, min %.1f, max %.1f (n=%zu)",
                  median(fam), percentile(fam, 0.0), percentile(fam, 100.0),
                  fam.size());
    report.info(std::string("analyze_ms.") + to_string(f), buf);
  }
  report.metric("peak_rss_mb", measured_peak_rss, "MB", 1);
  report.metric("ok_frac",
                static_cast<double>(attempted - errors) /
                    static_cast<double>(std::max<std::size_t>(attempted, 1)),
                "ratio", attempted);

  if (options.trace) {
    report_offline_layers(staged, log,
                          engine->specification().variants().size(), report);
    report.metric("trace.overhead_pct",
                  (median(staged_s) / median(analyze_s) - 1.0) * 100.0, "%", n);
    // The service and session layers do no work in this workload; their
    // per-layer metrics come from a short steady fleet after the analyses.
    report_fleet_layers_probe(options, report, log);
  }
  write_spans(options, log);
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
