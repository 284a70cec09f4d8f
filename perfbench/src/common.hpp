// Shared plumbing of the benchmark's workloads: run options, the metric
// report, and the applications and offline configuration every workload
// analyses.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/aegis.hpp"
#include "host.hpp"
#include "workload/workload.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to ("" = do not write).
  std::string span_dir;
  /// Monotonic time at process start (main entry): the first set-up is
  /// timed from here.
  double process_start_s = 0.0;
  std::size_t nproc = 1;
};

/// Every figure a run measures, plus its correctness verdict. Printed as
/// human-readable lines and as one machine-readable JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  void info(const std::string& key, const std::string& value);
  /// Records an output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void attempted(std::size_t n) { attempted_ += n; }
  void failed(std::size_t n) { failed_ += n; }
  bool correct() const { return correct_; }

  /// Human lines, then `PERFBENCH_RESULT {json}` as the last line.
  void print(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

/// The CPU model every workload protects: the paper's AMD EPYC 7252.
inline constexpr aegis::isa::CpuModel kCpu = aegis::isa::CpuModel::kAmdEpyc7252;

/// Monitoring window of every benchmark application, in slices.
inline constexpr std::size_t kAppSlices = 100;

/// The paper-scale offline pipeline of bench_common.hpp's OfflineSetup:
/// every warm-up survivor is fuzzed. `threads` workers in every stage.
aegis::core::OfflineConfig offline_config(std::size_t threads);

enum class AppFamily { kWfa, kKsa, kDnn };
const char* to_string(AppFamily f);

/// One protected application: a secret set of one family. The first
/// secret is the representative run the warm-up profiles.
struct Application {
  AppFamily family = AppFamily::kWfa;
  std::vector<std::size_t> members;  // site / keystroke count / model ids
  std::vector<std::unique_ptr<aegis::workload::Workload>> secrets;
  std::string label() const;
};

Application make_application(AppFamily family,
                             const std::vector<std::size_t>& members);

/// `count` distinct applications drawn from `seed`, cycling through the
/// three families so every run analyses the same family mix.
std::vector<Application> draw_applications(std::uint64_t seed,
                                           std::size_t count,
                                           std::size_t secrets_per_app);

/// True when two offline results carry the same ranking and cover, bit
/// for bit.
bool same_ranking_and_cover(const aegis::core::OfflineResult& a,
                            const aegis::core::OfflineResult& b);

/// Reports setup_s, the median of the set-up times, with a line per set-up.
void report_setup(Report& report, const std::vector<double>& setup_times);

int run_offline(const RunOptions& options, Report& report);
int run_fleet(const RunOptions& options, Report& report);

}  // namespace perfbench
