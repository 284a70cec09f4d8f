// Host fingerprint and process resource readings for the benchmark report.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstddef>
#include <string>

namespace perfbench {

/// What a result depends on besides the code: printed with every run so
/// figures from different hosts or engines are never compared unawares.
struct HostFingerprint {
  std::string cpu;           // /proc/cpuinfo "model name"
  std::size_t nproc = 0;     // hardware threads the process may use
  std::string simd_engine;   // resolved PMU accumulate engine
  std::string force_scalar;  // AEGIS_FORCE_SCALAR as set ("" = unset)
  std::string build_type;    // CMake build type of this binary
};

HostFingerprint host_fingerprint();

/// Peak resident set of the process so far, in MiB (VmHWM).
double peak_rss_mb();
/// Current resident set of the process, in KiB (VmRSS).
double current_rss_kb();
/// CPU time consumed by every thread of the process, in seconds.
double process_cpu_seconds();

/// Monotonic seconds since an arbitrary fixed origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
