// Anomaly-layer tests: BudgetForecaster least-squares ETA (exact on linear
// burn, monotone under faster spend, reset semantics, horizon alerts) and
// AttackProbabilityMonitor calibration — the logistic score must separate
// the seceval frontier attacker behaviours (static/adaptive/fusion/
// stepping) from benign readers — plus the BudgetGovernor's proactive
// degradation wired through the forecaster.
#include "telemetry/anomaly.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "service/budget_governor.hpp"
#include "telemetry/registry.hpp"

namespace aegis::telemetry {
namespace {

BudgetEvent make_event(std::uint64_t tenant, std::uint64_t t_ns,
                       double epsilon_after, double cap,
                       BudgetOutcome outcome = BudgetOutcome::kAdmit) {
  BudgetEvent e;
  e.tenant_id = tenant;
  e.t_ns = t_ns;
  e.epsilon_after = epsilon_after;
  e.epsilon_cap = cap;
  e.outcome = outcome;
  return e;
}

// ---------------------------------------------------------------------------
// BudgetForecaster

TEST(BudgetForecaster, InvalidUntilMinPoints) {
  Registry reg;
  ForecasterConfig cfg;
  cfg.min_points = 3;
  BudgetForecaster fc(cfg, &reg);
  fc.ingest(make_event(1, 1000, 0.1, 8.0));
  fc.ingest(make_event(1, 2000, 0.2, 8.0));
  EXPECT_FALSE(fc.forecast(1).valid);
  fc.ingest(make_event(1, 3000, 0.3, 8.0));
  EXPECT_TRUE(fc.forecast(1).valid);
}

TEST(BudgetForecaster, LinearBurnForecastsTheExactEta) {
  Registry reg;
  BudgetForecaster fc({}, &reg);
  // ε grows 0.01 per 1ms: slope 1e-8 /ns. Last point ε=0.59, cap 8.0.
  for (std::uint64_t i = 0; i < 10; ++i) {
    fc.ingest(make_event(7, i * 1'000'000, 0.5 + 0.01 * static_cast<double>(i),
                         8.0));
  }
  const BudgetForecast f = fc.forecast(7);
  ASSERT_TRUE(f.valid);
  EXPECT_NEAR(f.slope_eps_per_ns, 1e-8, 1e-12);
  EXPECT_NEAR(f.eta_ns, (8.0 - 0.59) / 1e-8, 1.0);
  EXPECT_DOUBLE_EQ(f.epsilon, 0.59);
  EXPECT_DOUBLE_EQ(f.cap, 8.0);
}

TEST(BudgetForecaster, EtaIsMonotoneUnderFasterSpend) {
  // Property: same cap, same observation count, strictly faster ε burn ->
  // strictly smaller exhaustion ETA. One tenant per spend rate.
  Registry reg;
  BudgetForecaster fc({}, &reg);
  std::vector<double> etas;
  for (std::uint64_t rate = 1; rate <= 8; ++rate) {
    const double step = 0.005 * static_cast<double>(rate);
    for (std::uint64_t i = 0; i < 12; ++i) {
      fc.ingest(make_event(rate, i * 500'000, step * static_cast<double>(i),
                           8.0));
    }
    const BudgetForecast f = fc.forecast(rate);
    ASSERT_TRUE(f.valid) << "rate " << rate;
    etas.push_back(f.eta_ns);
  }
  for (std::size_t i = 1; i < etas.size(); ++i) {
    EXPECT_LT(etas[i], etas[i - 1])
        << "faster spend must not forecast a later exhaustion";
  }
}

TEST(BudgetForecaster, FlatSpendForecastsInfinity) {
  Registry reg;
  BudgetForecaster fc({}, &reg);
  for (std::uint64_t i = 0; i < 6; ++i) {
    fc.ingest(make_event(3, i * 1000, 1.5, 8.0));  // no burn
  }
  const BudgetForecast f = fc.forecast(3);
  EXPECT_TRUE(std::isinf(f.eta_ns));
}

TEST(BudgetForecaster, ResetClearsTheTenantWindow) {
  Registry reg;
  BudgetForecaster fc({}, &reg);
  for (std::uint64_t i = 0; i < 6; ++i) {
    fc.ingest(make_event(9, i * 1000, 0.1 * static_cast<double>(i), 8.0));
  }
  ASSERT_TRUE(fc.forecast(9).valid);
  fc.ingest(make_event(9, 7000, 0.0, 8.0, BudgetOutcome::kReset));
  EXPECT_FALSE(fc.forecast(9).valid)
      << "a fresh grant must not inherit yesterday's slope";
}

TEST(BudgetForecaster, HorizonAlertEmitsCounterAndWideEvent) {
  Registry reg;
  ForecasterConfig cfg;
  cfg.alert_horizon_ns = std::numeric_limits<std::uint64_t>::max();
  BudgetForecaster fc(cfg, &reg);
  for (std::uint64_t i = 0; i < 5; ++i) {
    fc.ingest(make_event(4, i * 1000, 0.5 * static_cast<double>(i), 4.0));
  }
  EXPECT_GE(fc.alerts(), 1u);
  bool saw_alert = false;
  for (const DrainedEvent& ev : reg.recorder().drain()) {
    if (ev.type == static_cast<std::uint16_t>(WideEventType::kAlert) &&
        ev.a == static_cast<std::uint64_t>(AlertKind::kBudgetExhaustionSoon)) {
      saw_alert = true;
      EXPECT_EQ(ev.tenant, 4u);
    }
  }
  EXPECT_TRUE(saw_alert);
}

// ---------------------------------------------------------------------------
// Proactive degradation through the governor

std::vector<service::AdmissionDecision> drive(service::BudgetGovernor& gov,
                                              int rounds) {
  std::vector<service::AdmissionDecision> out;
  for (int i = 0; i < rounds; ++i) {
    out.push_back(gov.request_window(/*tenant_id=*/1, /*slices=*/64,
                                     /*per_slice_epsilon=*/0.02));
  }
  return out;
}

TEST(ProactiveDegradation, ForecasterHintDegradesBeforeTheAccountantWould) {
  Registry base_reg;
  service::GovernorConfig base_cfg;
  base_cfg.telemetry = &base_reg;
  service::BudgetGovernor baseline(base_cfg);

  Registry reg;
  BudgetForecaster fc({}, &reg);
  service::GovernorConfig cfg;
  cfg.telemetry = &reg;
  cfg.forecaster = &fc;
  cfg.proactive_horizon_ns = std::numeric_limits<std::uint64_t>::max() / 2;
  service::BudgetGovernor proactive(cfg);

  const auto base_decisions = drive(baseline, 6);
  const auto pro_decisions = drive(proactive, 6);

  // The forecaster needs min_points (3) decisions before it is valid; the
  // first decisions are identical to the baseline.
  EXPECT_EQ(pro_decisions[0].outcome, base_decisions[0].outcome);
  EXPECT_EQ(pro_decisions[0].granularity, base_decisions[0].granularity);

  // Once the burn slope is established, the huge horizon forces the ladder
  // to start at 2 while the baseline still happily admits at 1.
  EXPECT_EQ(base_decisions[5].outcome, service::Admission::kAdmit);
  EXPECT_EQ(base_decisions[5].granularity, 1u);
  EXPECT_EQ(pro_decisions[5].outcome, service::Admission::kDegrade);
  EXPECT_GE(pro_decisions[5].granularity, 2u);
}

TEST(ProactiveDegradation, ZeroHorizonLeavesAdmissionByteIdentical) {
  Registry base_reg;
  service::GovernorConfig base_cfg;
  base_cfg.telemetry = &base_reg;
  service::BudgetGovernor baseline(base_cfg);

  Registry reg;
  BudgetForecaster fc({}, &reg);
  service::GovernorConfig cfg;
  cfg.telemetry = &reg;
  cfg.forecaster = &fc;  // fed but never consulted: horizon stays 0
  service::BudgetGovernor shadowed(cfg);

  const auto a = drive(baseline, 8);
  const auto b = drive(shadowed, 8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "decision " << i;
    EXPECT_EQ(a[i].granularity, b[i].granularity) << "decision " << i;
    EXPECT_EQ(a[i].releases, b[i].releases) << "decision " << i;
    EXPECT_DOUBLE_EQ(a[i].epsilon_after, b[i].epsilon_after)
        << "decision " << i;
  }
  EXPECT_TRUE(fc.forecast(1).valid) << "the shadow forecaster was fed";
}

// ---------------------------------------------------------------------------
// AttackProbabilityMonitor calibration

const std::vector<std::uint32_t> kAttackSet = {11, 12, 13, 14};

SessionFeatures features(std::vector<std::uint32_t> monitored, double cv,
                         double stepped, std::uint64_t tenant = 1) {
  SessionFeatures f;
  f.tenant_id = tenant;
  f.monitored_events = std::move(monitored);
  f.read_gap_cv = cv;
  f.stepped_fraction = stepped;
  f.slices = 60;
  return f;
}

TEST(AttackMonitor, SeparatesFrontierAttackersFromBenignReaders) {
  Registry reg;
  AttackMonitorConfig cfg;
  cfg.attack_events = kAttackSet;
  AttackProbabilityMonitor mon(cfg, &reg);

  // The four seceval frontier attacker behaviours: all watch the vendor
  // attack set with metronomic cadence; the stepping attacker adds
  // SEV-Step-style single-stepping.
  const SessionFeatures fr_static = features(kAttackSet, 0.0, 0.0);
  const SessionFeatures fr_adaptive =
      features({11, 12, 13, 99}, 0.3, 0.0);
  const SessionFeatures fr_fusion = features(kAttackSet, 0.5, 0.0);
  const SessionFeatures fr_stepping = features(kAttackSet, 0.2, 1.0);
  for (const SessionFeatures& f :
       {fr_static, fr_adaptive, fr_fusion, fr_stepping}) {
    const AttackScore s = mon.score(f);
    EXPECT_GE(s.probability, 0.6) << "attacker profile under-scored";
    EXPECT_TRUE(s.alert);
  }

  // Benign readers: bursty ad-hoc dashboards with mostly non-attack events.
  const SessionFeatures benign_mixed = features({11, 20, 21, 22}, 2.0, 0.0);
  const SessionFeatures benign_devops = features({20, 21}, 1.0, 0.0);
  for (const SessionFeatures& f : {benign_mixed, benign_devops}) {
    const AttackScore s = mon.score(f);
    EXPECT_LT(s.probability, 0.25) << "benign profile over-scored";
    EXPECT_FALSE(s.alert);
  }
}

TEST(AttackMonitor, IngestPublishesGaugeCounterAndAlertEvent) {
  Registry reg;
  AttackMonitorConfig cfg;
  cfg.attack_events = kAttackSet;
  AttackProbabilityMonitor mon(cfg, &reg);

  const AttackScore s = mon.ingest(features(kAttackSet, 0.0, 1.0, /*tenant=*/42));
  EXPECT_TRUE(s.alert);
  EXPECT_EQ(mon.alerts(), 1u);

  bool saw_gauge = false;
  for (const auto& g : reg.metrics().snapshot().gauges) {
    if (g.name == "aegis_attack_probability{tenant=\"42\"}") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(g.value, s.probability);
    }
  }
  EXPECT_TRUE(saw_gauge);

  bool saw_alert = false;
  for (const DrainedEvent& ev : reg.recorder().drain()) {
    if (ev.type == static_cast<std::uint16_t>(WideEventType::kAlert) &&
        ev.a == static_cast<std::uint64_t>(AlertKind::kAttackSuspected)) {
      saw_alert = true;
      EXPECT_EQ(ev.tenant, 42u);
    }
  }
  EXPECT_TRUE(saw_alert);
}

TEST(AttackMonitor, SetAttackEventsSwapsTheLiveSet) {
  Registry reg;
  AttackProbabilityMonitor mon({}, &reg);  // empty construction-time set
  const SessionFeatures f = features(kAttackSet, 0.0, 0.0);
  const double before = mon.score(f).probability;

  mon.set_attack_events(kAttackSet);
  const double after = mon.score(f).probability;
  EXPECT_GT(after, before);
  EXPECT_EQ(mon.attack_events(), kAttackSet);
  EXPECT_TRUE(mon.config().attack_events.empty())
      << "config() reflects construction time, attack_events() the live set";
}

}  // namespace
}  // namespace aegis::telemetry
