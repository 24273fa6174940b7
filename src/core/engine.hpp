// The unified RC-SFISTA execution engine (paper Alg. 5).
//
// One engine implements the whole solver family because the communication-
// avoiding reformulations are *schedules*, not different arithmetic:
//
//   * k = 1, S = 1, b = 1      -> distributed FISTA (Alg. 2)
//   * k = 1, S = 1, b < 1      -> SFISTA (Alg. 4)
//   * k > 1                    -> iteration-overlapping RC-SFISTA
//   * S > 1                    -> Hessian-reuse RC-SFISTA
//   * variance_reduction       -> the Eq. 9 gradient estimator (Alg. 3)
//
// Because the per-iteration update code and the (seed, iteration)-keyed
// sampling are shared, runs with different k produce bitwise identical
// iterates -- the exact-arithmetic identity behind Fig. 2(b), testable at
// EXPECT_EQ level.
//
// The engine runs one rank's stages A-D over a dist::Communicator: the
// sequential solvers use a single SeqComm rank, solve_rc_sfista_distributed
// (core/distributed.hpp) every endpoint of a thread group.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "la/matrix.hpp"

namespace rcf::core {

/// Runs the engine on one SeqComm rank on `problem` under `opts`;
/// `solver_name` labels the result.  Throws InvalidArgument for
/// inconsistent options.
SolveResult run_sfista_engine(const LassoProblem& problem,
                              const SolverOptions& opts,
                              const std::string& solver_name);

/// The engine's automatic step size: opts.step_size if set, otherwise
/// step_scale over the larger of the full-Gram Lipschitz constant and a
/// probed spectral norm of sampled Gram draws (individual H_S can exceed L
/// substantially when mbar is small relative to d).  The engine reaches the
/// same gamma with its probes sharded over the ranks.
double auto_step_size(const LassoProblem& problem, const SolverOptions& opts,
                      std::size_t mbar);

/// auto_step_size split at its probe loop, so the engine can shard the
/// probes over its ranks and still arrive at the same gamma bit for bit:
/// gamma(max over all probes) == auto_step_size, and the max of per-shard
/// maxima is that same max (max is exact and order-free).
struct StepProbePlan {
  double fixed = 0.0;  ///< opts.step_size when set: no bound, no probes.
  double scale = 1.0;  ///< opts.step_scale.
  /// problem.lipschitz(), raised to max_i ||x_i||^2 when every draw is
  /// rank-deficient (mbar < d).
  double bound = 0.0;
  /// Sampled Gram draws to probe on stream 0: 6 when draws are
  /// overdetermined (d <= mbar < m), otherwise 0.
  int probes = 0;

  /// The step for the largest probe estimate (-inf when nothing was
  /// probed).
  [[nodiscard]] double gamma(double probe_max) const;
};

/// Plans auto_step_size.  Calls problem.lipschitz(), which caches on first
/// use, so call it from one thread.
StepProbePlan plan_step_probe(const LassoProblem& problem,
                              const SolverOptions& opts, std::size_t mbar);

/// The largest 1.35 * lambda_max(H_p) over the probes p < `probes` with
/// p % stride == first, or -inf when there are none; a NaN estimate is
/// skipped, as auto_step_size's std::max skips it.  Every probe's index set
/// is drawn in order, because each draw advances the shared stream 0, but
/// only this shard's Gram is built and power-iterated, in `h` (d x d) and
/// `r` (d).
double max_step_probe(const LassoProblem& problem, std::size_t mbar,
                      std::uint64_t seed, int probes, int first, int stride,
                      la::Matrix& h, std::span<double> r);

}  // namespace rcf::core
