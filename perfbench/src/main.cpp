// aegis_perfbench: one run of one benchmark workload.
//
//   aegis_perfbench --workload offline|fleet-steady|fleet-mixed --seed N
//                   --seconds S --trace 0|1 [--span-dir DIR]
//
// Prints the host fingerprint, every metric with its unit and sample
// count, the output-check verdict, and as its last line
// `PERFBENCH_RESULT {json}`. Exits non-zero when an output check fails.
// perfbench/run.py builds this binary and turns its result into the
// one-line JSON result BENCHMARK.json describes.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::cerr << "usage: aegis_perfbench --workload offline|fleet-steady|"
               "fleet-mixed --seed N --seconds S --trace 0|1 [--span-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start_s = perfbench::now_s();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--span-dir") {
      options.span_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) return usage();

  const perfbench::HostFingerprint host = perfbench::host_fingerprint();
  options.nproc = host.nproc;
  perfbench::Report report;
  report.info("workload", options.workload);
  report.info("seed", std::to_string(options.seed));
  report.info("trace", options.trace ? "1" : "0");
  report.info("host.cpu", host.cpu);
  report.info("host.nproc", std::to_string(host.nproc));
  report.info("host.simd_engine", host.simd_engine);
  report.info("host.AEGIS_FORCE_SCALAR", host.force_scalar);
  report.info("host.build_type", host.build_type);

  int rc = 0;
  try {
    if (options.workload == "offline") {
      rc = perfbench::run_offline(options, report);
    } else if (options.workload == "fleet-steady" ||
               options.workload == "fleet-mixed") {
      rc = perfbench::run_fleet(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("run aborted: ") + e.what());
    rc = 1;
  }
  report.print(std::cout);
  return rc;
}
