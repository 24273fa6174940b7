// Golden-trajectory regression tests.  Each fixture in tests/golden/ pins
// one solver's full objective trace and final iterate, written with %.17g
// (exact double round-trip).
//
// Kernel backends: trajectories are backend-dependent (the SIMD backend
// regroups reductions; see la/backend.hpp), so every run here pins its
// backend explicitly with ScopedBackend -- the historical fixtures are
// scalar, rcsfista_simd pins the SIMD trajectory.  That makes this suite
// a backend sweep in itself: it passes unchanged under RCF_BACKEND=scalar
// and RCF_BACKEND=simd (CI runs both).
//
// The suite then asserts:
//
//  * width 1 reproduces the fixture bitwise (the repo's determinism
//    contract: a trajectory is a pure function of (problem, options)),
//  * pool widths 2 and 7 reproduce it bitwise too (kernels are
//    width-invariant by construction),
//  * the SPMD execution of RC-SFISTA reproduces it bitwise on one rank and
//    within 1e-9 on 2-4 ranks (the distributed reduction reassociates, so
//    bitwise is not guaranteed there), blocking and pipelined alike.
//
// Regenerate fixtures after an intentional numerical change with
//   RCF_GOLDEN_REGEN=1 ./test_golden
// which rewrites the files under RCF_GOLDEN_DIR (the source tree) so the
// diff shows up in review.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "core/distributed.hpp"
#include "core/logistic.hpp"
#include "core/prox_cocoa.hpp"
#include "core/prox_newton.hpp"
#include "core/solvers.hpp"
#include "data/synthetic.hpp"
#include "dist/comm.hpp"
#include "la/backend.hpp"
#include "la/blas.hpp"
#include "obs/trace.hpp"

#ifndef RCF_GOLDEN_DIR
#error "RCF_GOLDEN_DIR must point at the fixture directory"
#endif

namespace rcf::core {
namespace {

data::Dataset golden_dataset() {
  data::SyntheticOptions opts;
  opts.num_samples = 400;
  opts.num_features = 16;
  opts.density = 0.4;
  opts.condition = 30.0;
  opts.noise_stddev = 0.05;
  opts.seed = 13;
  return data::make_regression(opts);
}

/// The pinned trajectory: per-iteration objectives plus the final iterate.
struct Trajectory {
  std::vector<double> objectives;
  std::vector<double> w;
};

Trajectory trajectory_of(const SolveResult& result) {
  Trajectory t;
  for (const auto& rec : result.history) {
    t.objectives.push_back(rec.objective);
  }
  t.w.assign(result.w.span().begin(), result.w.span().end());
  return t;
}

std::string fixture_path(const std::string& name) {
  return std::string(RCF_GOLDEN_DIR) + "/" + name + ".json";
}

void append_doubles(std::string& out, const std::vector<double>& values) {
  char buf[40];
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    if (i != 0) {
      out += ", ";
    }
    out += buf;
  }
  out += ']';
}

void write_fixture(const std::string& name, const Trajectory& t) {
  std::string body = "{\n  \"solver\": \"" + name + "\",\n";
  body += "  \"objectives\": ";
  append_doubles(body, t.objectives);
  body += ",\n  \"w\": ";
  append_doubles(body, t.w);
  body += "\n}\n";
  std::ofstream out(fixture_path(name));
  ASSERT_TRUE(out) << "cannot write fixture " << fixture_path(name);
  out << body;
}

std::vector<double> numbers_of(const JsonValue& v) {
  std::vector<double> out;
  for (const auto& e : v.array) {
    out.push_back(e.number);
  }
  return out;
}

bool load_fixture(const std::string& name, Trajectory& t) {
  std::ifstream in(fixture_path(name));
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = parse_json(buf.str());
  if (!parsed || !parsed->is_object()) {
    return false;
  }
  const auto* objectives = parsed->find("objectives");
  const auto* w = parsed->find("w");
  if (objectives == nullptr || w == nullptr) {
    return false;
  }
  t.objectives = numbers_of(*objectives);
  t.w = numbers_of(*w);
  return true;
}

bool regen_requested() {
  const char* env = std::getenv("RCF_GOLDEN_REGEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Runs the solver, then either regenerates the fixture or asserts the
/// trajectory matches it bitwise.
/// Asserts `got` is within `tol` of fixture `name` (0 = bitwise).
void expect_near_fixture(const std::string& name, const Trajectory& got,
                         double tol) {
  Trajectory want;
  ASSERT_TRUE(load_fixture(name, want))
      << "missing or unreadable fixture " << fixture_path(name)
      << " -- regenerate with RCF_GOLDEN_REGEN=1";
  ASSERT_EQ(want.objectives.size(), got.objectives.size());
  for (std::size_t i = 0; i < want.objectives.size(); ++i) {
    EXPECT_LE(std::abs(want.objectives[i] - got.objectives[i]), tol)
        << name << ": objective diverged at iteration " << i;
  }
  ASSERT_EQ(want.w.size(), got.w.size());
  for (std::size_t i = 0; i < want.w.size(); ++i) {
    EXPECT_LE(std::abs(want.w[i] - got.w[i]), tol)
        << name << ": w diverged at index " << i;
  }
}

void check_against_fixture(const std::string& name, const Trajectory& got) {
  if (regen_requested()) {
    write_fixture(name, got);
    return;
  }
  expect_near_fixture(name, got, 0.0);
}

// ---------------------------------------------------------------------------
// SFISTA.

SolveResult run_sfista(int threads) {
  la::ScopedBackend scoped(la::Backend::kScalar);
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  SolverOptions opts;
  opts.max_iters = 48;
  opts.sampling_rate = 0.5;
  opts.seed = 42;
  opts.threads = threads;
  return solve_sfista(problem, opts);
}

TEST(Golden, SfistaMatchesFixture) {
  check_against_fixture("sfista", trajectory_of(run_sfista(1)));
}

TEST(Golden, SfistaIsWidthInvariant) {
  const auto base = run_sfista(1);
  for (const int threads : {2, 7}) {
    const auto wide = run_sfista(threads);
    EXPECT_EQ(base.w, wide.w) << "threads=" << threads;
    EXPECT_EQ(base.objective, wide.objective) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// RC-SFISTA (k-overlap + Hessian reuse).

SolverOptions rcsfista_options(int threads = 1) {
  SolverOptions opts;
  opts.max_iters = 48;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.s = 2;
  opts.seed = 42;
  opts.threads = threads;
  return opts;
}

SolveResult run_rcsfista(int threads) {
  la::ScopedBackend scoped(la::Backend::kScalar);
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  return solve_rc_sfista(problem, rcsfista_options(threads));
}

TEST(Golden, RcSfistaMatchesFixture) {
  check_against_fixture("rcsfista", trajectory_of(run_rcsfista(1)));
}

TEST(Golden, RcSfistaIsWidthInvariant) {
  const auto base = run_rcsfista(1);
  for (const int threads : {2, 7}) {
    const auto wide = run_rcsfista(threads);
    EXPECT_EQ(base.w, wide.w) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Kernel-backend sweep: the SIMD backend's regrouped reductions give it a
// (slightly) different trajectory, pinned bitwise by its own fixture.

SolveResult run_rcsfista_simd(int threads) {
  la::ScopedBackend scoped(la::Backend::kSimd);
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  return solve_rc_sfista(problem, rcsfista_options(threads));
}

TEST(Golden, RcSfistaSimdMatchesOwnFixture) {
  const auto result = run_rcsfista_simd(1);
  EXPECT_EQ(result.backend, "simd");
  check_against_fixture("rcsfista_simd", trajectory_of(result));
}

TEST(Golden, RcSfistaSimdIsWidthInvariant) {
  // The SIMD lane grouping is a pure function of each reduction's length,
  // so the SIMD backend honors the same bitwise width-invariance contract
  // as scalar.
  const auto base = run_rcsfista_simd(1);
  for (const int threads : {2, 7}) {
    EXPECT_EQ(base.w, run_rcsfista_simd(threads).w) << "threads=" << threads;
  }
}

TEST(Golden, BackendTrajectoriesAgreeWithinTolerance) {
  // Scalar vs SIMD is a tolerance contract, not bitwise: both fixtures
  // descend the same problem, so the final iterates must stay close even
  // though per-iteration rounding differs.
  const auto scalar = run_rcsfista(1);
  const auto simd = run_rcsfista_simd(1);
  ASSERT_EQ(scalar.w.size(), simd.w.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < scalar.w.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(scalar.w.span()[i] - simd.w.span()[i]));
  }
  EXPECT_LT(max_diff, 1e-6);
  EXPECT_NEAR(scalar.objective, simd.objective,
              1e-9 * (1.0 + std::abs(scalar.objective)));
}

// ---------------------------------------------------------------------------
// One engine at every rank count.  A 1-rank thread group is the sequential
// solve -- same loop, same kernels, the backend's row dot included -- so it
// reproduces each backend's fixture bitwise; more ranks reassociate the
// partial Gram sums and agree within 1e-9.

/// The RC-SFISTA fixture options solved SPMD over `ranks` threads.
SolveResult run_rcsfista_ranks(la::Backend backend, int ranks,
                               bool pipeline) {
  la::ScopedBackend scoped(backend);
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  SolverOptions opts = rcsfista_options();
  opts.pipeline = pipeline;
  dist::ThreadGroup group(ranks);
  return solve_rc_sfista_distributed(problem, opts, group);
}

/// Checks an SPMD result against fixture `name` within `tol`; never
/// regenerates, since the fixtures are the sequential solver's.
void expect_near_fixture(const std::string& name, const SolveResult& got,
                         double tol) {
  ASSERT_TRUE(got.ok()) << got.failure_reason;
  expect_near_fixture(name, trajectory_of(got), tol);
}

TEST(Golden, SingleRankGroupMatchesScalarFixture) {
  if (regen_requested()) {
    GTEST_SKIP() << "regen run";
  }
  expect_near_fixture(
      "rcsfista", run_rcsfista_ranks(la::Backend::kScalar, 1, false), 0.0);
}

TEST(Golden, SingleRankGroupMatchesSimdFixture) {
  if (regen_requested()) {
    GTEST_SKIP() << "regen run";
  }
  const auto result = run_rcsfista_ranks(la::Backend::kSimd, 1, false);
  EXPECT_EQ(result.backend, "simd");
  expect_near_fixture("rcsfista_simd", result, 0.0);
}

class GoldenRankSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(GoldenRankSweep, AgreesWithRcSfistaFixture) {
  if (regen_requested()) {
    GTEST_SKIP() << "regen run";
  }
  const auto [ranks, pipeline] = GetParam();
  const auto par = run_rcsfista_ranks(la::Backend::kScalar, ranks, pipeline);
  // Staleness 0 replays the blocking reduction schedule exactly, so both
  // schedules share the blocking tolerance.
  expect_near_fixture("rcsfista", par, ranks == 1 ? 0.0 : 1e-9);

  // The schedule: ceil(N/k) rounds per rank, each one full [H|R] batch of
  // k (d^2 + d) words, timed as one allreduce or as a post/wait pair.
  const std::uint64_t rounds = (48 + 4 - 1) / 4;
  EXPECT_EQ(par.comm_stats.allreduce_calls,
            rounds * static_cast<std::uint64_t>(ranks));
  EXPECT_EQ(par.comm_stats.max_payload_words, 4u * (16u * 16u + 16u));
  const auto* blocking = obs::find_phase(par.phases, "allreduce");
  const auto* post = obs::find_phase(par.phases, "allreduce_post");
  const auto* wait = obs::find_phase(par.phases, "allreduce_wait");
  if (pipeline) {
    EXPECT_EQ(blocking, nullptr);
    ASSERT_NE(post, nullptr);
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(post->count, rounds);
    EXPECT_EQ(wait->count, rounds);
  } else {
    ASSERT_NE(blocking, nullptr);
    EXPECT_EQ(blocking->count, rounds);
    EXPECT_EQ(post, nullptr);
  }
  const auto* update = obs::find_phase(par.phases, "update");
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->count, 48u);
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, GoldenRankSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& param) {
      std::string name = "P";
      name += std::to_string(std::get<0>(param.param));
      name += std::get<1>(param.param) ? "_pipelined" : "_blocking";
      return name;
    });

// ---------------------------------------------------------------------------
// Chunk-pipelined RC-SFISTA (nonblocking iallreduce path).

SolveResult run_rcsfista_pipelined(int staleness) {
  la::ScopedBackend scoped(la::Backend::kScalar);
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  SolverOptions opts;
  opts.max_iters = 48;
  opts.sampling_rate = 0.2;
  opts.k = 4;
  opts.s = 2;
  opts.seed = 42;
  opts.track_history = false;
  opts.pipeline = true;
  opts.staleness = staleness;
  dist::ThreadGroup group(4);
  return solve_rc_sfista_distributed(problem, opts, group);
}

TEST(Golden, PipelinedStalenessTwoMatchesFixture) {
  // Bounded staleness changes which reduced chunk each update sweep
  // consumes -- numerically different from blocking, but still a pure
  // function of (problem, options), so its own fixture pins the 4-rank
  // S = 2 iterate bitwise (the deterministic-collective contract extended
  // to the stale pipeline).
  const auto par = run_rcsfista_pipelined(2);
  ASSERT_TRUE(par.ok()) << par.failure_reason;
  check_against_fixture("rcsfista_pipelined_s2", trajectory_of(par));
}

// ---------------------------------------------------------------------------
// Proximal Newton (RC-SFISTA inner).

SolveResult run_pn(int threads) {
  la::ScopedBackend scoped(la::Backend::kScalar);
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  PnOptions opts;
  opts.max_outer = 6;
  opts.inner_iters = 20;
  opts.hessian_sampling_rate = 0.3;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.k = 2;
  opts.s = 2;
  opts.seed = 42;
  opts.threads = threads;
  return solve_proximal_newton(problem, opts);
}

TEST(Golden, ProxNewtonMatchesFixture) {
  check_against_fixture("pn", trajectory_of(run_pn(1)));
}

TEST(Golden, ProxNewtonIsWidthInvariant) {
  const auto base = run_pn(1);
  const auto wide = run_pn(3);
  EXPECT_EQ(base.w, wide.w);
}

// ---------------------------------------------------------------------------
// ProxCoCoA baseline (4 workers, adding aggregation).

SolveResult run_proxcocoa(int threads) {
  la::ScopedBackend scoped(la::Backend::kScalar);
  const auto dataset = golden_dataset();
  const LassoProblem problem(dataset, 0.005);
  CocoaOptions opts;
  opts.max_rounds = 40;
  opts.local_epochs = 2;
  opts.procs = 4;
  opts.seed = 42;
  opts.threads = threads;
  return solve_prox_cocoa(problem, opts);
}

TEST(Golden, ProxCocoaMatchesFixture) {
  // The simulated 4-worker round schedule is a pure function of
  // (problem, options) -- the fixture pins the whole objective trace
  // bitwise, like the solver fixtures above.
  check_against_fixture("proxcocoa", trajectory_of(run_proxcocoa(1)));
}

TEST(Golden, ProxCocoaIsWidthInvariant) {
  const auto base = run_proxcocoa(1);
  for (const int threads : {2, 7}) {
    const auto wide = run_proxcocoa(threads);
    EXPECT_EQ(base.w, wide.w) << "threads=" << threads;
    EXPECT_EQ(base.objective, wide.objective) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Logistic proximal Newton (RC-SFISTA inner on the sampled Hessian).

data::Dataset golden_logistic_dataset() {
  data::SyntheticOptions opts;
  opts.num_samples = 400;
  opts.num_features = 16;
  opts.density = 0.4;
  opts.binary_labels = true;
  opts.noise_stddev = 0.3;
  opts.seed = 29;
  return data::make_regression(opts);
}

SolveResult run_logistic_pn(int threads) {
  la::ScopedBackend scoped(la::Backend::kScalar);
  const auto dataset = golden_logistic_dataset();
  const LogisticProblem problem(dataset, 0.002);
  PnOptions opts;
  opts.max_outer = 6;
  opts.inner_iters = 20;
  opts.hessian_sampling_rate = 0.3;
  opts.inner = PnInnerSolver::kRcSfista;
  opts.k = 2;
  opts.s = 2;
  opts.seed = 42;
  opts.threads = threads;
  return solve_logistic_prox_newton(problem, opts);
}

TEST(Golden, LogisticProxNewtonMatchesFixture) {
  check_against_fixture("logistic_pn", trajectory_of(run_logistic_pn(1)));
}

TEST(Golden, LogisticProxNewtonIsWidthInvariant) {
  const auto base = run_logistic_pn(1);
  for (const int threads : {2, 7}) {
    EXPECT_EQ(base.w, run_logistic_pn(threads).w) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rcf::core
