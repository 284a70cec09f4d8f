#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <set>

#include "bench_logic.hpp"
#include "core/config.hpp"
#include "util/rng.hpp"
#include "workload/dnn.hpp"
#include "workload/keystroke.hpp"
#include "workload/website.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  for (const Metric& m : metrics_) {
    check(m.name != name, "metric " + name + " reported twice");
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failures_.push_back(what);
}

void Report::print(std::ostream& out) const {
  for (const auto& [key, value] : info_) {
    out << "info   " << key << " = " << value << "\n";
  }
  for (const Metric& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    out << "metric " << m.name << " = " << buf << " " << m.unit
        << " (n=" << m.samples << ")\n";
  }
  for (const std::string& f : failures_) out << "CHECK FAILED: " << f << "\n";
  out << "checks " << (correct_ ? "passed" : "FAILED") << "; attempted "
      << attempted_ << ", failed " << failed_ << "\n";

  out << "PERFBENCH_RESULT {\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << json_string(failures_[i]);
  }
  out << "], \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out << (i ? ", " : "") << json_string(info_[i].first) << ": "
        << json_string(info_[i].second);
  }
  out << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit)
        << ", \"samples\": " << m.samples << "}";
  }
  out << "}}\n";
}

aegis::core::OfflineConfig offline_config(std::size_t threads) {
  // bench_common.hpp's OfflineSetup at scale 1.
  aegis::core::OfflineConfig config = aegis::core::make_quick_offline_config(11);
  config.profiler.ranking_runs_per_secret = 5;
  config.fuzzer.reset_sample = 40;
  config.fuzzer.trigger_sample = 40;
  config.fuzz_top_events = 0;  // fuzz every warm-up survivor
  config.set_num_threads(threads);
  return config;
}

const char* to_string(AppFamily f) {
  switch (f) {
    case AppFamily::kWfa: return "wfa";
    case AppFamily::kKsa: return "ksa";
    case AppFamily::kDnn: return "dnn";
  }
  return "?";
}

std::string Application::label() const {
  std::string s = to_string(family);
  for (std::size_t m : members) s += "-" + std::to_string(m);
  return s;
}

Application make_application(AppFamily family,
                             const std::vector<std::size_t>& members) {
  Application app;
  app.family = family;
  app.members = members;
  for (std::size_t m : members) {
    switch (family) {
      case AppFamily::kWfa:
        app.secrets.push_back(
            std::make_unique<aegis::workload::WebsiteWorkload>(m, kAppSlices));
        break;
      case AppFamily::kKsa:
        app.secrets.push_back(
            std::make_unique<aegis::workload::KeystrokeWorkload>(m, kAppSlices));
        break;
      case AppFamily::kDnn:
        app.secrets.push_back(
            std::make_unique<aegis::workload::DnnWorkload>(m, kAppSlices));
        break;
    }
  }
  return app;
}

std::vector<Application> draw_applications(std::uint64_t seed,
                                           std::size_t count,
                                           std::size_t secrets_per_app) {
  constexpr AppFamily kFamilies[] = {AppFamily::kWfa, AppFamily::kKsa,
                                     AppFamily::kDnn};
  const std::size_t universe[] = {aegis::workload::WebsiteWorkload::kNumSites,
                                  aegis::workload::KeystrokeWorkload::kMaxKeys + 1,
                                  aegis::workload::DnnWorkload::kNumModels};
  aegis::util::Rng rng(aegis::util::split_mix64(seed, 0xA995ULL));
  std::set<std::pair<int, std::vector<std::size_t>>> seen;
  std::vector<Application> apps;
  apps.reserve(count);
  while (apps.size() < count) {
    const std::size_t f = apps.size() % 3;
    std::vector<std::size_t> members;
    while (members.size() < secrets_per_app) {
      const std::size_t m = rng.uniform_index(universe[f]);
      if (std::find(members.begin(), members.end(), m) == members.end()) {
        members.push_back(m);
      }
    }
    if (!seen.emplace(static_cast<int>(f), members).second) continue;
    apps.push_back(make_application(kFamilies[f], members));
  }
  return apps;
}

bool same_ranking_and_cover(const aegis::core::OfflineResult& a,
                            const aegis::core::OfflineResult& b) {
  if (a.ranking.size() != b.ranking.size()) return false;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].event_id != b.ranking[i].event_id) return false;
    if (std::memcmp(&a.ranking[i].mutual_information,
                    &b.ranking[i].mutual_information, sizeof(double)) != 0) {
      return false;
    }
  }
  return a.cover.gadgets == b.cover.gadgets &&
         a.cover.covered_events == b.cover.covered_events &&
         a.cover.uncovered_events == b.cover.uncovered_events;
}

void report_setup(Report& report, const std::vector<double>& setup_times) {
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.4f s%s", setup_times[i],
                  i == 0 ? " (from process start)" : "");
    report.info("setup[" + std::to_string(i) + "]", buf);
  }
  report.metric("setup_s", median(setup_times), "s", setup_times.size());
}

}  // namespace perfbench
