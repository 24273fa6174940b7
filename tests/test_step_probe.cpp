// Tests for the rank-sharded step-size probe: the SPMD solve evaluates
// auto_step_size's sampled-Gram probes p == r (mod P) on rank r and combines
// the shard maxima with one aux-mode max-allreduce.  The step, and so the
// whole trajectory, must be bitwise those of the unsharded probe, and the
// extra collective must stay invisible to the engine schedule: comm
// counters, fault-plan call indices and the contract checker's sequence.
// Suites are named StepProbe* so the CI TSan job can select them.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "check/options.hpp"
#include "core/distributed.hpp"
#include "core/engine.hpp"
#include "core/problem.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "obs/metrics.hpp"

namespace rcf::core {
namespace {

data::Dataset probe_dataset() {
  data::SyntheticOptions opts;
  opts.num_samples = 300;
  opts.num_features = 12;
  opts.density = 0.5;
  opts.seed = 5;
  return data::make_regression(opts);
}

SolverOptions probe_options() {
  SolverOptions opts;
  opts.max_iters = 14;
  opts.sampling_rate = 0.3;  // mbar = 90 >= d = 12: the probed regime
  opts.k = 2;
  opts.s = 2;
  opts.track_history = false;
  opts.retry.backoff_us = 1;
  return opts;
}

std::size_t mbar_of(const LassoProblem& problem, const SolverOptions& opts) {
  return static_cast<std::size_t>(
      std::floor(opts.sampling_rate *
                 static_cast<double>(problem.num_samples())));
}

/// The same options with the step pinned to auto_step_size's value, so the
/// solve runs no probe and issues no probe collective.
SolverOptions pinned(const LassoProblem& problem, SolverOptions opts) {
  opts.step_size = auto_step_size(problem, opts, mbar_of(problem, opts));
  return opts;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

SolveResult solve_on(int ranks, const LassoProblem& problem,
                     const SolverOptions& opts) {
  dist::ThreadGroup group(ranks);
  return solve_rc_sfista_distributed(problem, opts, group);
}

TEST(StepProbe, ShardMaximaCombineToAutoStepBitwise) {
  const auto dataset = probe_dataset();
  const LassoProblem problem(dataset, 0.01);
  const SolverOptions opts = probe_options();
  const std::size_t mbar = mbar_of(problem, opts);
  const StepProbePlan plan = plan_step_probe(problem, opts, mbar);
  ASSERT_EQ(plan.probes, 6);
  const double expected = auto_step_size(problem, opts, mbar);

  const std::size_t d = problem.dim();
  la::Matrix h(d, d);
  la::Vector r(d);
  for (const int parts : {1, 2, 3, 4, 6, 7, 8}) {
    double combined = -std::numeric_limits<double>::infinity();
    for (int rank = 0; rank < parts; ++rank) {
      const double shard = max_step_probe(problem, mbar, opts.seed,
                                          plan.probes, rank, parts, h,
                                          r.span());
      if (rank >= plan.probes) {
        // P > 6 leaves these ranks without a probe.
        EXPECT_EQ(shard, -std::numeric_limits<double>::infinity());
      }
      combined = std::max(combined, shard);
    }
    EXPECT_TRUE(same_bits(plan.gamma(combined), expected))
        << "parts=" << parts << " gamma=" << plan.gamma(combined)
        << " expected=" << expected;
  }
}

TEST(StepProbe, NonFiniteProbeMaxIsIgnoredLikeStdMax) {
  // auto_step_size folds each probe with std::max(l_est, x), which keeps
  // l_est when x is NaN; a NaN or empty probe maximum must leave the bound.
  StepProbePlan plan;
  plan.scale = 0.9;
  plan.bound = 4.0;
  const double bound_only = plan.gamma(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(bound_only, 0.9 / 4.0);
  EXPECT_TRUE(same_bits(
      plan.gamma(std::numeric_limits<double>::quiet_NaN()), bound_only));
  EXPECT_EQ(plan.gamma(8.0), 0.9 / 8.0);
  plan.fixed = 0.125;
  EXPECT_EQ(plan.gamma(8.0), 0.125);
}

TEST(StepProbe, UnprobedRegimesPlanNoProbes) {
  const auto dataset = probe_dataset();
  const LassoProblem problem(dataset, 0.01);
  SolverOptions opts = probe_options();
  opts.sampling_rate = 1.0;  // full batch
  EXPECT_EQ(plan_step_probe(problem, opts, problem.num_samples()).probes, 0);
  opts.sampling_rate = 0.02;  // mbar = 6 < d: rank-deficient hard bound
  const StepProbePlan deficient = plan_step_probe(problem, opts, 6);
  EXPECT_EQ(deficient.probes, 0);
  EXPECT_GE(deficient.bound, problem.lipschitz());
  opts.step_size = 0.01;
  const StepProbePlan fixed = plan_step_probe(problem, opts, 90);
  EXPECT_EQ(fixed.probes, 0);
  EXPECT_EQ(fixed.gamma(-std::numeric_limits<double>::infinity()), 0.01);
}

class StepProbeSharding : public ::testing::TestWithParam<int> {};

TEST_P(StepProbeSharding, MatchesPinnedStepAndLeavesCountersAlone) {
  const int ranks = GetParam();
  const auto dataset = probe_dataset();
  const LassoProblem problem(dataset, 0.01);
  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};
  const SolverOptions opts = probe_options();

  const auto probed = solve_on(ranks, problem, opts);
  const auto fixed = solve_on(ranks, problem, pinned(problem, opts));
  ASSERT_TRUE(probed.ok()) << probed.failure_reason;
  ASSERT_TRUE(fixed.ok()) << fixed.failure_reason;

  // Same gamma, so the same iterate bit for bit.
  EXPECT_EQ(la::max_abs_diff(probed.w.span(), fixed.w.span()), 0.0)
      << "ranks=" << ranks;
  // The probe's reduction runs in aux mode: no sum or max allreduce is
  // counted for it, and the engine schedule's words are unchanged.
  const auto rounds =
      static_cast<std::uint64_t>((opts.max_iters + opts.k - 1) / opts.k);
  EXPECT_EQ(probed.comm_stats.allreduce_calls,
            rounds * static_cast<std::uint64_t>(ranks));
  EXPECT_EQ(probed.comm_stats.allreduce_calls,
            fixed.comm_stats.allreduce_calls);
  EXPECT_EQ(probed.comm_stats.allreduce_max_calls, 0u);
  EXPECT_EQ(probed.comm_stats.allreduce_max_calls,
            fixed.comm_stats.allreduce_max_calls);
  EXPECT_EQ(probed.comm_stats.allreduce_words,
            fixed.comm_stats.allreduce_words);
}

INSTANTIATE_TEST_SUITE_P(Ranks, StepProbeSharding,
                         ::testing::Values(1, 2, 3, 4, 6, 7, 8));

TEST(StepProbeFault, CallIndicesStillNameEngineCollectives) {
  const auto dataset = probe_dataset();
  const LassoProblem problem(dataset, 0.01);
  const SolverOptions opts = probe_options();
  constexpr int kRanks = 4;
  const auto per_rank =
      static_cast<std::uint64_t>((opts.max_iters + opts.k - 1) / opts.k);

  // One past the last engine collective: an abort there never fires unless
  // the probe's reduction took a call index.
  {
    const std::string spec = "abort:rank=1,call=" + std::to_string(per_rank);
    fault::ScopedFaultPlan plan{std::string_view(spec)};
    const auto result = solve_on(kRanks, problem, opts);
    ASSERT_TRUE(result.ok()) << result.failure_reason;
    EXPECT_EQ(result.comm_stats.faults_injected, 0u);
  }

  // A transient failure on call N hits the same engine collective with and
  // without the probe, and the retry absorbs it identically.
  const auto run = [&](const SolverOptions& o) {
    fault::ScopedFaultPlan plan{std::string_view("transient:rank=2,call=3")};
    return solve_on(kRanks, problem, o);
  };
  const auto probed = run(opts);
  const auto fixed = run(pinned(problem, opts));
  ASSERT_TRUE(probed.ok()) << probed.failure_reason;
  ASSERT_TRUE(fixed.ok()) << fixed.failure_reason;
  EXPECT_EQ(probed.comm_stats.faults_injected, 1u);
  EXPECT_EQ(probed.comm_stats.faults_injected,
            fixed.comm_stats.faults_injected);
  EXPECT_EQ(probed.comm_stats.retries, fixed.comm_stats.retries);
  EXPECT_EQ(la::max_abs_diff(probed.w.span(), fixed.w.span()), 0.0);
}

TEST(StepProbeCheck, CheckedSolveKeepsEngineSequence) {
  const auto dataset = probe_dataset();
  const LassoProblem problem(dataset, 0.01);
  // 7 engine rounds per rank: one short of the checker's default epoch of
  // 8, so an epoch exchange happens only if the probe's reduction were
  // counted as an engine collective.
  const SolverOptions opts = probe_options();
  ASSERT_EQ((opts.max_iters + opts.k - 1) / opts.k, 7);
  constexpr int kRanks = 4;
  fault::ScopedFaultPlan quiet{fault::FaultPlan{}};

  SolveResult plain;
  {
    check::ScopedCheckEnable off(false);
    plain = solve_on(kRanks, problem, opts);
  }
  auto& registry = obs::MetricsRegistry::global();
  const auto violations_before =
      registry.counter("check.contract_violations").value();
  const auto exchanges_before =
      registry.counter("check.epoch_exchanges").value();
  SolveResult checked;
  SolveResult checked_fixed;
  {
    check::ScopedCheckEnable on(true);
    checked = solve_on(kRanks, problem, opts);
    checked_fixed = solve_on(kRanks, problem, pinned(problem, opts));
  }
  ASSERT_TRUE(checked.ok()) << checked.failure_reason;
  ASSERT_TRUE(checked_fixed.ok()) << checked_fixed.failure_reason;
  EXPECT_EQ(registry.counter("check.contract_violations").value(),
            violations_before);
  EXPECT_EQ(registry.counter("check.epoch_exchanges").value(),
            exchanges_before);
  EXPECT_EQ(la::max_abs_diff(checked.w.span(), plain.w.span()), 0.0);
  EXPECT_EQ(la::max_abs_diff(checked.w.span(), checked_fixed.w.span()), 0.0);
  EXPECT_EQ(checked.comm_stats.allreduce_calls,
            plain.comm_stats.allreduce_calls);
}

}  // namespace
}  // namespace rcf::core
