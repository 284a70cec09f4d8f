// Twin governor: replays the service's admission decisions outside it.
//
// Admission is the only fleet step whose outcome depends on earlier
// requests. A BudgetGovernor configured like the service's, with its own
// registry and forecaster, fed the same requests in submission order,
// must make the same decisions; timing its request_window calls measures
// the admission layer without touching the service.
#pragma once

#include "service/budget_governor.hpp"
#include "telemetry/anomaly.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {

struct TwinGovernor {
  explicit TwinGovernor(aegis::service::GovernorConfig config)
      : governor([&] {
          config.telemetry = &registry;
          config.forecaster = &forecaster;
          return config;
        }()) {}
  TwinGovernor(const TwinGovernor&) = delete;
  TwinGovernor& operator=(const TwinGovernor&) = delete;

  aegis::telemetry::Registry registry;
  aegis::telemetry::BudgetForecaster forecaster{{}, &registry};
  aegis::service::BudgetGovernor governor;
};

}  // namespace perfbench
