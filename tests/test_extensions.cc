// Tests for the extension features: bursty noise, grid search, adaptive-K
// PRO (the paper's stated future work) and the harmony SessionBuilder
// facade.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/simulated_cluster.h"
#include "core/grid_search.h"
#include "core/landscape.h"
#include "core/pro.h"
#include "core/session.h"
#include "harmony/api.h"
#include "spec/spec.h"
#include "stats/autocorr.h"
#include "util/summary.h"
#include "varmodel/burst_noise.h"
#include "varmodel/pareto_noise.h"

namespace protuner {
namespace {

// ---------------------------------------------------------------- BurstNoise

TEST(BurstNoise, LongRunMeanMatchesEq7Target) {
  varmodel::BurstConfig cfg;
  cfg.rho = 0.2;
  cfg.alpha = 2.5;  // finite variance for a tight mean test
  const varmodel::BurstNoise noise(cfg);
  util::Rng rng(1);
  double s = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) s += noise.sample(4.0, rng);
  EXPECT_NEAR(s / kN, noise.expected(4.0), noise.expected(4.0) * 0.05);
}

TEST(BurstNoise, DutyCycleFormula) {
  varmodel::BurstConfig cfg;
  cfg.p_enter = 0.05;
  cfg.p_exit = 0.25;
  const varmodel::BurstNoise noise(cfg);
  EXPECT_NEAR(noise.duty_cycle(), 0.05 / 0.30, 1e-12);
}

TEST(BurstNoise, ProducesEpisodes) {
  // Consecutive samples are positively correlated: disturbances cluster.
  varmodel::BurstConfig cfg;
  cfg.rho = 0.3;
  cfg.p_enter = 0.02;
  cfg.p_exit = 0.10;
  const varmodel::BurstNoise noise(cfg);
  util::Rng rng(2);
  std::vector<double> indicator(50000);
  for (auto& v : indicator) v = noise.sample(1.0, rng) > 0.0 ? 1.0 : 0.0;
  EXPECT_GT(stats::autocorrelation(indicator, 1), 0.5);
}

TEST(BurstNoise, QuietStateIsExactlyZero) {
  varmodel::BurstConfig cfg;
  cfg.rho = 0.3;
  const varmodel::BurstNoise noise(cfg);
  util::Rng rng(3);
  int zeros = 0;
  for (int i = 0; i < 1000; ++i) zeros += noise.sample(1.0, rng) == 0.0;
  EXPECT_GT(zeros, 500);  // mostly quiet with these defaults
}

// ---------------------------------------------------------------- GridSearch

TEST(GridSearch, SweepSizeIsProductOfAxes) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 4),          // 5 values
      core::Parameter::discrete("b", {1.0, 2.0}),   // 2 values
  });
  core::GridSearchStrategy gs(space);
  EXPECT_EQ(gs.sweep_size(), 10u);
}

TEST(GridSearch, FindsExactOptimum) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 9),
      core::Parameter::integer("b", 0, 9),
  });
  auto land =
      std::make_shared<core::QuadraticLandscape>(core::Point{3.0, 8.0}, 1.0,
                                                 0.7);
  cluster::SimulatedCluster machine(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 4, .seed = 1});
  core::GridSearchStrategy gs(space);
  const core::SessionResult res =
      core::run_session(gs, machine, {.steps = 40});
  EXPECT_TRUE(gs.converged());
  EXPECT_EQ(res.best, (core::Point{3.0, 8.0}));
}

TEST(GridSearch, ContinuousAxesSampledAtLevels) {
  const core::ParameterSpace space(
      {core::Parameter::continuous("x", 0.0, 1.0)});
  core::GridSearchStrategy gs(space, {.continuous_levels = 5});
  EXPECT_EQ(gs.sweep_size(), 5u);
}

TEST(GridSearch, PinsBestAfterSweep) {
  const core::ParameterSpace space({core::Parameter::integer("a", 0, 3)});
  auto land = std::make_shared<core::QuadraticLandscape>(core::Point{2.0},
                                                         1.0, 1.0);
  cluster::SimulatedCluster machine(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 2, .seed = 2});
  core::GridSearchStrategy gs(space);
  (void)core::run_session(gs, machine, {.steps = 10});
  ASSERT_TRUE(gs.converged());
  const core::StepProposal p = gs.propose();
  ASSERT_EQ(p.configs.size(), 2u);
  for (const auto& c : p.configs) EXPECT_EQ(c, (core::Point{2.0}));
}

// ----------------------------------------------------------------- AdaptiveK

TEST(AdaptiveK, StaysAtOneWithoutNoise) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 20),
      core::Parameter::integer("b", 0, 20),
  });
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{5.0, 5.0}, 1.0, 0.2);
  cluster::SimulatedCluster machine(
      land, std::make_shared<varmodel::NoNoise>(), {.ranks = 8, .seed = 3});
  core::ProOptions opts;
  opts.adaptive_samples = true;
  core::ProStrategy pro(space, opts);
  (void)core::run_session(pro, machine, {.steps = 150});
  EXPECT_EQ(pro.current_samples(), 1);
}

TEST(AdaptiveK, GrowsUnderHeavyNoise) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 20),
      core::Parameter::integer("b", 0, 20),
  });
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{5.0, 5.0}, 1.0, 0.2);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.35, 1.7);
  // K should rise above 1 in at least a majority of repetitions.
  int grew = 0;
  for (int rep = 0; rep < 10; ++rep) {
    cluster::SimulatedCluster machine(
        land, noise,
        {.ranks = 8, .seed = static_cast<std::uint64_t>(40 + rep)});
    core::ProOptions opts;
    opts.adaptive_samples = true;
    opts.stop_at_convergence = false;  // keep sampling the incumbent
    core::ProStrategy pro(space, opts);
    (void)core::run_session(pro, machine, {.steps = 200});
    grew += pro.current_samples() > 1;
  }
  EXPECT_GE(grew, 6);
}

TEST(AdaptiveK, RespectsMaxSamples) {
  const core::ParameterSpace space({
      core::Parameter::integer("a", 0, 20),
      core::Parameter::integer("b", 0, 20),
  });
  auto land = std::make_shared<core::QuadraticLandscape>(
      core::Point{5.0, 5.0}, 1.0, 0.2);
  auto noise = std::make_shared<varmodel::ParetoNoise>(0.4, 1.7);
  cluster::SimulatedCluster machine(land, noise, {.ranks = 8, .seed = 5});
  core::ProOptions opts;
  opts.adaptive_samples = true;
  opts.max_samples = 3;
  opts.stop_at_convergence = false;
  core::ProStrategy pro(space, opts);
  (void)core::run_session(pro, machine, {.steps = 300});
  EXPECT_LE(pro.current_samples(), 3);
  EXPECT_GE(pro.current_samples(), 1);
}

// ------------------------------------------------------------ SessionBuilder

TEST(SessionBuilder, BuildsWorkingProServer) {
  harmony::SessionBuilder builder;
  builder.add_int("a", 0, 20)
      .add_int("b", 0, 20)
      .strategy_spec("pro:k=2")
      .clients(4);
  EXPECT_EQ(builder.parameter_count(), 2u);
  auto server = builder.build();

  const core::QuadraticLandscape land(core::Point{7.0, 3.0}, 1.0, 0.2);
  for (int step = 0; step < 200; ++step) {
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 4; ++r) cfgs.push_back(server->fetch(r));
    for (std::size_t r = 0; r < 4; ++r) {
      server->report(r, land.clean_time(cfgs[r]));
    }
  }
  EXPECT_EQ(server->best_point(), (core::Point{7.0, 3.0}));
}

TEST(SessionBuilder, SupportsAllAlgorithms) {
  for (const char* text : {"pro", "sro", "nm"}) {
    harmony::SessionBuilder builder;
    builder.add_int("a", 0, 10).strategy_spec(text).clients(2);
    auto server = builder.build();
    // One full round must complete without deadlock.
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 2; ++r) cfgs.push_back(server->fetch(r));
    for (std::size_t r = 0; r < 2; ++r) server->report(r, 1.0);
    EXPECT_EQ(server->rounds_completed(), 1u);
  }
}

TEST(SessionBuilder, StrategySpecReachesAnyRegisteredStrategy) {
  // A declarative spec (DESIGN.md §13) selects the optimizer; any
  // registered strategy is reachable through the serving tier.
  EXPECT_EQ(harmony::SessionBuilder{}.strategy_spec(), "pro");
  for (const char* text : {"pro:k=2", "spsa:a=0.3", "rs:m=8,n0=2"}) {
    harmony::SessionBuilder builder;
    builder.add_int("a", 0, 20).strategy_spec(text).clients(3);
    EXPECT_EQ(builder.strategy_spec(), text);
    auto server = builder.build();
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 3; ++r) cfgs.push_back(server->fetch(r));
    for (std::size_t r = 0; r < 3; ++r) server->report(r, 1.0);
    EXPECT_EQ(server->rounds_completed(), 1u);
  }
  // Malformed specs fail loudly at build() with the spec diagnostics.
  harmony::SessionBuilder bad;
  bad.add_int("a", 0, 5).strategy_spec("pro:kk=2").clients(1);
  EXPECT_THROW((void)bad.build(), spec::SpecError);
}

TEST(SessionBuilder, MixedParameterKinds) {
  harmony::SessionBuilder builder;
  builder.add_int("i", 1, 9)
      .add_continuous("c", 0.0, 1.0)
      .add_discrete("d", {2.0, 4.0, 8.0})
      .clients(3);
  const auto space = builder.space();
  EXPECT_EQ(space.size(), 3u);
  EXPECT_EQ(space.param(0).kind(), core::ParamKind::kInteger);
  EXPECT_EQ(space.param(1).kind(), core::ParamKind::kContinuous);
  EXPECT_EQ(space.param(2).kind(), core::ParamKind::kDiscrete);
  auto server = builder.build();
  const core::Point cfg = server->fetch(0);
  EXPECT_TRUE(space.admissible(cfg));
}

TEST(SessionBuilder, AdaptiveSamplingServerRuns) {
  harmony::SessionBuilder builder;
  builder.add_int("a", 0, 20)
      .strategy_spec("pro:adaptive=1,max_k=4")
      .clients(4);
  auto server = builder.build();
  const core::QuadraticLandscape land(core::Point{9.0}, 1.0, 0.5);
  util::Rng rng(9);
  const varmodel::ParetoNoise noise(0.3, 1.7);
  for (int step = 0; step < 150; ++step) {
    std::vector<core::Point> cfgs;
    for (std::size_t r = 0; r < 4; ++r) cfgs.push_back(server->fetch(r));
    for (std::size_t r = 0; r < 4; ++r) {
      server->report(r, noise.observe(land.clean_time(cfgs[r]), rng));
    }
  }
  EXPECT_EQ(server->rounds_completed(), 150u);
}

}  // namespace
}  // namespace protuner
