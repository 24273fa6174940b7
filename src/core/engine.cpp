#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/health.hpp"
#include "core/momentum.hpp"
#include "exec/pool.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "data/partition.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "prox/operators.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {

namespace {

using model::Phase;

/// Sampled Gram draws auto_step_size probes when draws are overdetermined.
constexpr int kStepProbes = 6;

/// Mutable iteration state of the recurrence (paper Eq. 16-17): the engine
/// carries w_{n-1}, dw_{n-1} = w_{n-1} - w_{n-2}, and the extrapolated point
/// v_n, updated incrementally via dv_n = (1+mu_{n+1}) dw_n - mu_n dw_{n-1}.
struct IterState {
  la::Vector w;        // w_{n-1}
  la::Vector dw_prev;  // w_{n-1} - w_{n-2}
  la::Vector v;        // v_n (the point the next gradient is taken at)
};

/// Scratch buffers reused across iterations (no allocation in the loop).
struct Scratch {
  la::Vector grad;
  la::Vector theta;
  la::Vector u;
  la::Vector tmp;
};

/// grad <- H z - R  (plain Alg. 4 line 8) or, with variance reduction,
/// grad <- H (z - anchor) + anchor_grad  (Eq. 9 specialized to least
/// squares, where the sampled terms collapse to H_S (z - w_hat)).
void estimate_gradient(const la::Matrix& h, const la::Vector& r,
                       std::span<const double> z, bool variance_reduction,
                       std::span<const double> anchor,
                       std::span<const double> anchor_grad, Scratch& s) {
  if (variance_reduction) {
    la::waxpby(1.0, z, -1.0, anchor, s.tmp.span());
    la::gemv(1.0, h, s.tmp.span(), 0.0, s.grad.span());
    la::axpy(1.0, anchor_grad, s.grad.span());
  } else {
    la::gemv(1.0, h, z, 0.0, s.grad.span());
    la::axpy(-1.0, r.span(), s.grad.span());
  }
}

}  // namespace

double StepProbePlan::gamma(double probe_max) const {
  return fixed > 0.0 ? fixed : scale / std::max(bound, probe_max);
}

StepProbePlan plan_step_probe(const LassoProblem& problem,
                              const SolverOptions& opts, std::size_t mbar) {
  StepProbePlan plan;
  if (opts.step_size > 0.0) {
    plan.fixed = opts.step_size;
    return plan;
  }
  plan.scale = opts.step_scale;
  const std::size_t m = problem.num_samples();
  const std::size_t d = problem.dim();
  plan.bound = problem.lipschitz();
  if (mbar < m && mbar < d) {
    // Rank-deficient regime: a single draw can realize a spectral norm up
    // to the hard bound max_i ||x_i||^2 (attained at mbar = 1), and the
    // momentum recurrence amplifies any transient gamma*||H_S|| > 1
    // excursion without recovery.  Step against the hard bound: safe for
    // every possible draw, at the price of conservatism.
    double row_norm_sq_max = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const auto row = problem.xt().row(i);
      row_norm_sq_max =
          std::max(row_norm_sq_max, la::dot(row.vals, row.vals));
    }
    plan.bound = std::max(plan.bound, row_norm_sq_max);
  } else if (mbar < m) {
    // Overdetermined draws (mbar >= d): spectral norms concentrate; probe a
    // few draws on the dedicated stream 0 (the per-iteration streams 1..N
    // stay untouched, preserving the k / S / P trajectory invariance).
    plan.probes = kStepProbes;
  }
  return plan;
}

double max_step_probe(const LassoProblem& problem, std::size_t mbar,
                      std::uint64_t seed, int probes, int first, int stride,
                      la::Matrix& h, std::span<double> r) {
  double probe_max = -std::numeric_limits<double>::infinity();
  if (first >= probes) {
    return probe_max;
  }
  const std::size_t m = problem.num_samples();
  Rng rng(seed, /*stream=*/0);
  SampleBitmap bitmap;
  std::vector<std::uint32_t> idx;
  idx.reserve(mbar);
  for (int probe = 0; probe < probes; ++probe) {
    bitmap.draw(rng, m, mbar);
    if (probe % stride != first) {
      continue;
    }
    bitmap.extract(0, m, idx);
    sparse::sampled_gram(problem.xt(), problem.y().span(), idx, h, r);
    const auto power = la::power_iteration(h, /*max_iters=*/100,
                                           /*tol=*/1e-4, seed);
    probe_max = std::max(probe_max, 1.35 * power.eigenvalue);
  }
  return probe_max;
}

double auto_step_size(const LassoProblem& problem, const SolverOptions& opts,
                      std::size_t mbar) {
  const StepProbePlan plan = plan_step_probe(problem, opts, mbar);
  double probe_max = -std::numeric_limits<double>::infinity();
  if (plan.probes > 0) {
    la::Matrix h(problem.dim(), problem.dim());
    la::Vector r(problem.dim());
    probe_max = max_step_probe(problem, mbar, opts.seed, plan.probes,
                               /*first=*/0, /*stride=*/1, h, r.span());
  }
  return plan.gamma(probe_max);
}

void validate_options(const LassoProblem& problem, const SolverOptions& opts) {
  RCF_CHECK_MSG(opts.max_iters >= 1, "options: max_iters must be >= 1");
  RCF_CHECK_MSG(opts.k >= 1, "options: k must be >= 1");
  RCF_CHECK_MSG(opts.s >= 1, "options: s must be >= 1");
  RCF_CHECK_MSG(opts.sampling_rate > 0.0 && opts.sampling_rate <= 1.0,
                "options: sampling_rate must be in (0, 1]");
  RCF_CHECK_MSG(opts.procs >= 1, "options: procs must be >= 1");
  RCF_CHECK_MSG(opts.threads >= 0, "options: threads must be >= 0");
  RCF_CHECK_MSG(opts.history_stride >= 1,
                "options: history_stride must be >= 1");
  RCF_CHECK_MSG(opts.step_size >= 0.0, "options: step_size must be >= 0");
  RCF_CHECK_MSG(opts.step_scale > 0.0, "options: step_scale must be > 0");
  if (opts.variance_reduction) {
    RCF_CHECK_MSG(opts.epoch_length >= 1,
                  "options: epoch_length must be >= 1 with VR");
  }
  RCF_CHECK_MSG(problem.dim() > 0, "options: empty problem");
  if (opts.tol > 0.0) {
    RCF_CHECK_MSG(!std::isnan(opts.f_star),
                  "options: tol-based stopping requires f_star (run the "
                  "reference solver first)");
  }
}

SolveResult run_sfista_engine(const LassoProblem& problem,
                              const SolverOptions& opts,
                              const std::string& solver_name) {
  validate_options(problem, opts);

  // Intra-rank pool for the Gram / BLAS kernels below; a single logical
  // rank here, so 0 resolves to the full hardware concurrency.
  exec::Pool pool(exec::Pool::resolve_width(opts.threads, 1));
  exec::PoolGuard pool_guard(&pool);

  const std::size_t d = problem.dim();
  const std::size_t m = problem.num_samples();
  const auto mbar = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(
             opts.sampling_rate * static_cast<double>(m))));

  const double gamma = auto_step_size(problem, opts, mbar);
  const double lambda_gamma = problem.lambda() * gamma;

  // Default regularizer: the problem's lambda ||w||_1 (paper Eq. 14);
  // opts.regularizer swaps in any proximable g (elastic net, box, ...).
  const auto apply_prox = [&](std::span<const double> in,
                              std::span<double> out) {
    if (opts.regularizer != nullptr) {
      la::copy(in, out);
      opts.regularizer->apply(out, gamma);
    } else {
      prox::soft_threshold(in, lambda_gamma, out);
    }
  };
  const auto eval_objective = [&](std::span<const double> w) {
    return opts.regularizer != nullptr
               ? problem.smooth_value(w) + opts.regularizer->value(w)
               : problem.objective(w);
  };
  const int k = opts.k;
  const int s_iters = opts.s;

  const MomentumSchedule outer_mu(opts.momentum);

  const data::Partition partition(m, opts.procs);

  WallTimer wall;
  const std::uint64_t health_base = health_mark();
  SolveResult result;
  result.solver = solver_name;
  result.cost = model::CostTracker(opts.collective);
  model::CostTracker& cost = result.cost;

  // Phase observation (counts always, spans + wall time when the global
  // trace session is on).  The "allreduce" phase mirrors the stage-C
  // rounds the SPMD path would execute, so its count validates against
  // CommStats on the real threaded backend.
  const bool tracing = opts.trace && obs::TraceSession::global().enabled();
  obs::PhaseAgg ph_sampling, ph_gram, ph_allreduce, ph_update;

  // Per-block Hessian / RHS storage: G = [H_1 | ... | H_k], R likewise
  // (Alg. 5 line 6).  Allocated once.
  std::vector<la::Matrix> h_blocks;
  std::vector<la::Vector> r_blocks;
  h_blocks.reserve(static_cast<std::size_t>(k));
  r_blocks.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    h_blocks.emplace_back(d, d);
    r_blocks.emplace_back(d);
  }

  IterState st{la::Vector(d), la::Vector(d), la::Vector(d)};
  Scratch scratch{la::Vector(d), la::Vector(d), la::Vector(d), la::Vector(d)};
  // Previous iterate for the per-iteration step norm of the convergence
  // ring (scratch.tmp is owned by the VR gradient path, so a dedicated
  // buffer).
  la::Vector w_iter_prev(d);

  // Variance-reduction anchor (Alg. 3's w_hat) and its exact gradient.
  la::Vector anchor(d), anchor_grad(d);
  int last_anchor_iter = 0;
  int momentum_base = 0;
  // Counts recurrence updates (S per sampled block); drives the momentum
  // schedule.
  int update_counter = 0;
  auto refresh_anchor = [&](int iter_base) {
    la::copy(st.w.span(), anchor.span());
    obs::timed_phase(tracing, ph_gram, "gram", 0.0, [&] {
      problem.full_gradient(anchor.span(), anchor_grad.span());
    });
    // Exact gradient: two SpMVs over the distributed data + an allreduce of
    // the d-vector of partial sums.
    cost.add_flops(Phase::kGram,
                   4.0 * static_cast<double>(problem.xt().nnz()) /
                       static_cast<double>(opts.procs));
    obs::timed_phase(tracing, ph_allreduce, "allreduce",
                     static_cast<double>(d),
                     [&] { cost.add_allreduce(opts.procs, d); });
    last_anchor_iter = iter_base;
    if (opts.vr_restart_momentum) {
      // Literal Alg. 3: restart the inner loop from the snapshot (w_0 =
      // w_hat, fresh momentum, v = w).
      la::copy(st.w.span(), st.v.span());
      st.dw_prev.fill(0.0);
      momentum_base = update_counter;
    }
  };

  // The k*(d^2+d) block working set spills the cache for large k; every use
  // then streams from DRAM (see MachineSpec::beta_mem and DESIGN.md).
  const double block_words = static_cast<double>(k) * (static_cast<double>(d) * d + d);
  const bool spills = block_words > opts.machine.cache_doubles;

  const bool need_objective_every_iter = opts.tol > 0.0;
  std::uint64_t comm_rounds = 0;
  int iterations_done = 0;
  bool done = false;
  // Machine-independent cumulative counters mirrored into the history so
  // benches can re-cost one trajectory for any (P, machine, collective).
  double raw_gram_flops = 0.0;
  double raw_update_flops = 0.0;
  double comm_payload_words = 0.0;

  // mu index relative to the last VR momentum restart (plain runs and the
  // default momentum-continuous VR never restart).
  const auto mu_index = [&](int update_n) { return update_n - momentum_base; };

  if (opts.variance_reduction) {
    refresh_anchor(0);
  }

  // One sampling scratch for the whole run: every draw reuses its bitmap
  // and index buffer.
  SampleBitmap bitmap;
  std::vector<std::uint32_t> idx;
  idx.reserve(mbar);

  for (int block_start = 1; block_start <= opts.max_iters && !done;
       block_start += k) {
    const int kk = std::min(k, opts.max_iters - block_start + 1);

    if (opts.variance_reduction &&
        block_start - 1 - last_anchor_iter >= opts.epoch_length) {
      refresh_anchor(block_start - 1);
    }

    // -- stages A + B: sample and locally accumulate k Hessian blocks ------
    for (int j = 0; j < kk; ++j) {
      const int n = block_start + j;
      // Sampling is keyed on (seed, n) only: identical index sets for every
      // k, every S, every P (paper §5.2, "random sampling is fixed by using
      // the same random generator seed").
      Rng rng(opts.seed, static_cast<std::uint64_t>(n));
      obs::timed_phase(tracing, ph_sampling, "sampling", 0.0, [&] {
        bitmap.draw(rng, m, mbar);
        bitmap.extract(0, m, idx);
      });
      obs::timed_phase(tracing, ph_gram, "gram", 0.0, [&] {
        if (mbar == m) {
          // Full batch: the "sampled" Gram is the constant (H, R) pair, so
          // we compute it once and reuse the values (bitwise identical to
          // recomputation).  Costs are still charged per iteration exactly
          // as the oblivious algorithm of Table 1 would incur them.
          if (j == 0 && block_start == 1) {
            sparse::sampled_gram(problem.xt(), problem.y().span(), idx,
                                 h_blocks[0], r_blocks[0]);
          } else if (j > 0) {
            h_blocks[static_cast<std::size_t>(j)] = h_blocks[0];
            r_blocks[static_cast<std::size_t>(j)] = r_blocks[0];
          }
        } else {
          sparse::sampled_gram(problem.xt(), problem.y().span(), idx,
                               h_blocks[static_cast<std::size_t>(j)],
                               r_blocks[static_cast<std::size_t>(j)]);
        }
      });
      raw_gram_flops +=
          static_cast<double>(sparse::sampled_gram_flops(problem.xt(), idx));
      // Cost: each rank accumulates only its own samples; the critical path
      // is the most loaded rank.
      if (opts.procs == 1) {
        cost.add_flops(Phase::kGram,
                       static_cast<double>(
                           sparse::sampled_gram_flops(problem.xt(), idx)));
      } else {
        const auto splits = partition.split_sorted(idx);
        std::uint64_t max_rank_flops = 0;
        for (const auto& span : splits) {
          max_rank_flops = std::max(
              max_rank_flops, sparse::sampled_gram_flops(problem.xt(), span));
        }
        cost.add_flops(Phase::kGram, static_cast<double>(max_rank_flops));
      }
    }

    // -- stage C: one allreduce of [H_1|..|H_kk | R_1|..|R_kk] --------------
    // Modeled (zero wall time here; the SPMD path in distributed.cpp
    // performs the real collective), but counted as one "allreduce" span
    // so the schedule shape is observable from SolveResult::phases.
    obs::timed_phase(
        tracing, ph_allreduce, "allreduce",
        static_cast<double>(kk) * (static_cast<double>(d) * d + d), [&] {
          cost.add_allreduce(opts.procs,
                             static_cast<std::uint64_t>(kk) * (d * d + d));
        });
    ++comm_rounds;
    comm_payload_words += static_cast<double>(kk) *
                          (static_cast<double>(d) * d + d);
    if (spills) {
      cost.add_mem_words(Phase::kUpdate,
                         (1.0 + s_iters) * static_cast<double>(kk) *
                             (static_cast<double>(d) * d + d));
    }

    // -- stage D: kk local update sweeps, S Hessian-reuse steps each --------
    //
    // Hessian-reuse (paper Eq. 20-23): each communicated (H, R) block is
    // reused for S recurrence steps.  Every reuse step is a *standard*
    // SFISTA update -- prox step at the extrapolated point, then the
    // dv = (1+mu)dw - mu dw_prev recurrence -- advancing one shared update
    // counter, so S = 1 reduces bit-exactly to the base algorithm and the
    // per-step stability condition (gamma * ||H_n|| <= 1) is unchanged.
    // Over-solving against a stale sampled block is what degrades large S
    // (the paper's S = 10 observation).
    for (int j = 0; j < kk && !done; ++j) {
      const int n = block_start + j;
      const la::Matrix& h = h_blocks[static_cast<std::size_t>(j)];
      const la::Vector& r = r_blocks[static_cast<std::size_t>(j)];
      la::copy(st.w.span(), w_iter_prev.span());

      obs::timed_phase(tracing, ph_update, "update",
                       static_cast<double>(s_iters), [&] {
        for (int s2 = 1; s2 <= s_iters; ++s2) {
          estimate_gradient(h, r, st.v.span(), opts.variance_reduction,
                            anchor.span(), anchor_grad.span(), scratch);
          la::waxpby(1.0, st.v.span(), -gamma, scratch.grad.span(),
                     scratch.theta.span());
          apply_prox(scratch.theta.span(), scratch.u.span());

          // Recurrence: dw = w_new - w; dv = (1+mu_{u+1}) dw - mu_u dw_prev.
          ++update_counter;
          bool restarted = false;
          if (opts.adaptive_restart) {
            // Restart test: <v - w_new, w_new - w_old> > 0.
            double dot_restart = 0.0;
            for (std::size_t i = 0; i < d; ++i) {
              dot_restart +=
                  (st.v[i] - scratch.u[i]) * (scratch.u[i] - st.w[i]);
            }
            if (dot_restart > 0.0) {
              momentum_base = update_counter;
              la::copy(scratch.u.span(), st.v.span());
              la::copy(scratch.u.span(), st.w.span());
              st.dw_prev.fill(0.0);
              restarted = true;
            }
          }
          if (!restarted) {
            const int nn = mu_index(update_counter);
            const double mu_next =
                std::min(outer_mu.mu(nn + 1), opts.momentum_cap);
            const double mu_cur =
                std::min(outer_mu.mu(nn), opts.momentum_cap);
            for (std::size_t i = 0; i < d; ++i) {
              const double dw = scratch.u[i] - st.w[i];
              st.v[i] += (1.0 + mu_next) * dw - mu_cur * st.dw_prev[i];
              st.dw_prev[i] = dw;
              st.w[i] = scratch.u[i];
            }
          }
        }
      });

      // Update-phase flops: S gradient gemvs (2 d^2 each) plus O(d) vector
      // work, performed redundantly on every rank (so not divided by P).
      const double dd = static_cast<double>(d);
      const double update_flops =
          static_cast<double>(s_iters) * (2.0 * dd * dd + 8.0 * dd) + 6.0 * dd;
      cost.add_flops(Phase::kUpdate, update_flops);
      raw_update_flops += update_flops;

      iterations_done = n;

      const bool record =
          opts.track_history && (n % opts.history_stride == 0);
      double objective_n = std::numeric_limits<double>::quiet_NaN();
      if (record || need_objective_every_iter) {
        objective_n = eval_objective(st.w.span());
        double rel_error = std::numeric_limits<double>::quiet_NaN();
        if (!std::isnan(opts.f_star) && opts.f_star != 0.0) {
          rel_error = std::abs((objective_n - opts.f_star) / opts.f_star);
        }
        if (record) {
          result.history.push_back(IterationRecord{
              n, objective_n, rel_error, cost.seconds(opts.machine),
              comm_rounds, raw_gram_flops, raw_update_flops,
              comm_payload_words});
        }
        if (opts.tol > 0.0 && !std::isnan(rel_error) &&
            rel_error <= opts.tol) {
          result.converged = true;
          done = true;
        }
      }

      // Convergence telemetry: O(d) per-iteration summary, recorded into
      // the bounded ring regardless of track_history (objective stays NaN
      // on iterations where it was not evaluated).
      {
        obs::ConvergenceRecord rec;
        rec.iteration = static_cast<std::uint64_t>(n);
        rec.objective = objective_n;
        rec.grad_norm =
            std::sqrt(la::dot(scratch.grad.span(), scratch.grad.span()));
        double support = 0.0;
        double step_sq = 0.0;
        for (std::size_t i = 0; i < d; ++i) {
          support += st.w[i] != 0.0 ? 1.0 : 0.0;
          const double dw = st.w[i] - w_iter_prev[i];
          step_sq += dw * dw;
        }
        rec.support = support;
        rec.step = std::sqrt(step_sq);
        result.conv.push(rec);
        obs::telemetry_publish(obs::TelemetryKind::kProgress, "iter",
                               static_cast<double>(n), rec.objective,
                               rec.step);
      }
    }
  }

  result.w = st.w;
  result.iterations = iterations_done;
  result.objective = eval_objective(result.w.span());
  if (!std::isfinite(result.objective)) {
    // Divergence (or corrupted inputs) is reported as a structured failure
    // rather than handing the caller a NaN/Inf objective to misinterpret.
    result.failed = true;
    result.failure_reason =
        "engine: non-finite objective at the final iterate";
  }
  if (!std::isnan(opts.f_star) && opts.f_star != 0.0) {
    result.rel_error = std::abs((result.objective - opts.f_star) / opts.f_star);
  }
  result.sim_seconds = cost.seconds(opts.machine);
  result.wall_seconds = wall.seconds();
  obs::append_phase(result.phases, "sampling", ph_sampling);
  obs::append_phase(result.phases, "gram", ph_gram);
  obs::append_phase(result.phases, "allreduce", ph_allreduce);
  obs::append_phase(result.phases, "update", ph_update);
  if (tracing) {
    // Aggregate over a 1-rank world so traced sequential runs export the
    // same agg.* layout as the SPMD backend (no real comm stats here; the
    // collectives are modeled).
    obs::MetricsRegistry local;
    obs::record_solve_metrics(local, result.phases, nullptr);
    dist::SeqComm seq;
    result.fleet = obs::aggregate(local, seq);
    obs::publish(result.fleet, obs::MetricsRegistry::global());
  }
  annotate_health(result, health_base);
  return result;
}

}  // namespace rcf::core
