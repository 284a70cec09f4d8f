#include "host.hpp"

#include <sched.h>
#include <time.h>

#include <cstdlib>
#include <fstream>
#include <thread>

#include "pmu/simd_dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// Value of the first "key: value" line starting with `key` in a /proc file.
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "";
}

}  // namespace

HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  fp.cpu = proc_field("/proc/cpuinfo", "model name");
  if (fp.cpu.empty()) fp.cpu = "unknown";
  cpu_set_t set;
  CPU_ZERO(&set);
  fp.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                 ? static_cast<std::size_t>(CPU_COUNT(&set))
                 : std::thread::hardware_concurrency();
  fp.simd_engine = aegis::pmu::simd::to_string(aegis::pmu::simd::best_isa());
  const char* force = std::getenv("AEGIS_FORCE_SCALAR");
  fp.force_scalar = force == nullptr ? "" : force;
  fp.build_type = PERFBENCH_BUILD_TYPE;
  return fp;
}

double peak_rss_mb() {
  // "VmHWM:   12345 kB"
  return std::atof(proc_field("/proc/self/status", "VmHWM").c_str()) / 1024.0;
}

double current_rss_kb() {
  return std::atof(proc_field("/proc/self/status", "VmRSS").c_str());
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace perfbench
