#include "profiler/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "telemetry/registry.hpp"
#include "trace/pca.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/idle.hpp"

namespace aegis::profiler {

namespace {

// Domain-separation salts for the per-group shard streams (see the
// determinism contract in DESIGN.md "Parallel campaign").
constexpr std::uint64_t kWarmupSalt = 0x3A2250F11E2ULL;
constexpr std::uint64_t kRankSalt = 0x4A11ULL;

}  // namespace

ApplicationProfiler::ApplicationProfiler(const pmu::EventDatabase& db,
                                         ProfilerConfig config)
    : db_(&db), config_(config) {}

// aegis-rng: stream(profiler-warmup)
WarmupReport ApplicationProfiler::warmup(const workload::Workload& application) {
  // aegis-lint: clock-ok(reporting-only: WarmupReport::wall_seconds)
  const auto start = std::chrono::steady_clock::now();
  WarmupReport report;
  report.total_events = db_->size();
  report.before_by_type = db_->count_by_type();

  const workload::IdleWorkload idle(config_.warmup_slices);
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  const std::size_t group_count = (db_->size() + kGroup - 1) / kGroup;

  // One shard per counter group; survivors land in index-keyed slots and
  // are merged in group order, so the report is identical for any worker
  // count (and identical to a serial run).
  std::vector<std::vector<std::uint32_t>> surviving(group_count);
  telemetry::Registry& tel = telemetry::resolve(config_.telemetry);
  const telemetry::SpanSite group_site(tel, "profiler.warmup.group");
  telemetry::ScopedSpan stage(telemetry::SpanSite(tel, "profiler.warmup"), 0,
                              static_cast<std::uint32_t>(group_count));
  util::ThreadPool pool(config_.num_threads);
  pool.parallel_for(group_count, [&](std::size_t g) {
    telemetry::ScopedSpan span(group_site, static_cast<std::uint32_t>(g));
    util::Rng rng(util::split_mix64(config_.seed ^ kWarmupSalt, g));
    std::vector<std::uint32_t> group;
    const std::uint32_t base = static_cast<std::uint32_t>(g * kGroup);
    for (std::uint32_t id = base; id < db_->size() && id < base + kGroup; ++id) {
      group.push_back(id);
    }
    // Repeat the idle/active comparison; the median change decides, which
    // averages out interrupt noise and host background (C2).
    std::vector<std::vector<double>> rel_changes(group.size());
    std::vector<std::vector<double>> abs_changes(group.size());
    for (std::size_t rep = 0; rep < config_.warmup_repeats; ++rep) {
      sim::VirtualMachine idle_vm(config_.vm, rng.next_u64());
      sim::HostMonitor idle_monitor(*db_, rng.next_u64());
      const std::vector<double> idle_counts = idle_monitor.totals(
          idle_vm, idle.visit(rng.next_u64()), group, config_.warmup_slices);

      sim::VirtualMachine active_vm(config_.vm, rng.next_u64());
      sim::HostMonitor active_monitor(*db_, rng.next_u64());
      const std::vector<double> active_counts = active_monitor.totals(
          active_vm, application.visit(rng.next_u64()), group,
          config_.warmup_slices);

      for (std::size_t e = 0; e < group.size(); ++e) {
        const double diff = std::abs(active_counts[e] - idle_counts[e]);
        const double base_count = std::max(idle_counts[e], 1.0);
        rel_changes[e].push_back(diff / base_count);
        abs_changes[e].push_back(diff);
      }
    }
    for (std::size_t e = 0; e < group.size(); ++e) {
      if (util::median(rel_changes[e]) > config_.warmup_rel_change &&
          util::median(abs_changes[e]) > config_.warmup_abs_change) {
        surviving[g].push_back(group[e]);
      }
    }
  });
  for (const auto& shard : surviving) {
    report.surviving.insert(report.surviving.end(), shard.begin(), shard.end());
  }

  for (std::uint32_t id : report.surviving) {
    ++report.after_by_type[static_cast<std::size_t>(db_->by_id(id).type)];
  }
  report.wall_seconds =
      // aegis-lint: clock-ok(reporting-only: WarmupReport::wall_seconds)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

// aegis-rng: stream(profiler-rank)
std::vector<EventRank> ApplicationProfiler::rank(
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const std::vector<std::uint32_t>& event_ids) {
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  const std::size_t group_count = (event_ids.size() + kGroup - 1) / kGroup;
  std::vector<std::vector<EventRank>> per_group(group_count);

  telemetry::Registry& tel = telemetry::resolve(config_.telemetry);
  const telemetry::SpanSite group_site(tel, "profiler.rank.group");
  telemetry::ScopedSpan stage(telemetry::SpanSite(tel, "profiler.rank"), 0,
                              static_cast<std::uint32_t>(group_count));
  util::ThreadPool pool(config_.num_threads);
  pool.parallel_for(group_count, [&](std::size_t g) {
    telemetry::ScopedSpan span(group_site, static_cast<std::uint32_t>(g));
    util::Rng rng(util::split_mix64(config_.seed ^ kRankSalt, g));
    const std::size_t base = g * kGroup;
    std::vector<std::uint32_t> group(
        event_ids.begin() + static_cast<std::ptrdiff_t>(base),
        event_ids.begin() +
            static_cast<std::ptrdiff_t>(std::min(event_ids.size(), base + kGroup)));

    // One run yields a trace for all 4 events of the group at once.
    // pooled[e][s] = per-run pooled series for event e under secret s.
    std::vector<std::vector<std::vector<std::vector<double>>>> pooled(
        group.size(),
        std::vector<std::vector<std::vector<double>>>(secrets.size()));
    for (std::size_t s = 0; s < secrets.size(); ++s) {
      for (std::size_t run = 0; run < config_.ranking_runs_per_secret; ++run) {
        sim::VirtualMachine vm(config_.vm, rng.next_u64());
        sim::HostMonitor monitor(*db_, rng.next_u64());
        sim::MonitorResult r =
            monitor.monitor(vm, secrets[s]->visit(rng.next_u64()), group,
                            secrets[s]->trace_slices());
        trace::Trace t;
        t.samples = std::move(r.samples);  // last use; avoids a deep copy
        const std::vector<double> all =
            t.window_features(config_.feature_windows);
        const std::size_t w = all.size() / group.size();
        for (std::size_t e = 0; e < group.size(); ++e) {
          pooled[e][s].emplace_back(all.begin() + static_cast<std::ptrdiff_t>(e * w),
                                    all.begin() + static_cast<std::ptrdiff_t>((e + 1) * w));
        }
      }
    }

    for (std::size_t e = 0; e < group.size(); ++e) {
      // PCA over every run of this event, then per-secret Gaussian fits.
      std::vector<std::vector<double>> flat;
      for (const auto& per_secret : pooled[e]) {
        flat.insert(flat.end(), per_secret.begin(), per_secret.end());
      }
      trace::Pca pca;
      pca.fit(flat, 1);
      std::vector<std::vector<double>> values_by_secret(secrets.size());
      for (std::size_t s = 0; s < secrets.size(); ++s) {
        for (const auto& feat : pooled[e][s]) {
          values_by_secret[s].push_back(pca.first_component(feat));
        }
      }
      const trace::SecretGaussianModel model =
          trace::SecretGaussianModel::fit(values_by_secret);
      per_group[g].push_back(
          EventRank{group[e], trace::mutual_information_eq1(model)});
    }
  });

  std::vector<EventRank> ranks;
  ranks.reserve(event_ids.size());
  for (const auto& shard : per_group) {
    ranks.insert(ranks.end(), shard.begin(), shard.end());
  }
  std::sort(ranks.begin(), ranks.end(), [](const EventRank& a, const EventRank& b) {
    return a.mutual_information > b.mutual_information;
  });
  return ranks;
}

double ApplicationProfiler::warmup_time_hours(std::size_t total_events,
                                              double t_w_seconds,
                                              std::size_t counters) {
  return static_cast<double>(total_events) * t_w_seconds * 2.0 /
         static_cast<double>(counters) / 3600.0;
}

double ApplicationProfiler::ranking_time_hours(std::size_t surviving_events,
                                               std::size_t secrets,
                                               std::size_t runs,
                                               double t_p_seconds,
                                               std::size_t counters) {
  return static_cast<double>(surviving_events) * static_cast<double>(secrets) *
         static_cast<double>(runs) * t_p_seconds /
         static_cast<double>(counters) / 3600.0;
}

}  // namespace aegis::profiler
