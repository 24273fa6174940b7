#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "check/checked_comm.hpp"
#include "check/options.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/distributed.hpp"
#include "core/momentum.hpp"
#include "data/partition.hpp"
#include "dist/retry.hpp"
#include "exec/pool.hpp"
#include "fault/faulty_comm.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "obs/aggregate.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "prox/operators.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {

namespace {

using model::Phase;

/// Sampled Gram draws auto_step_size probes when draws are overdetermined.
constexpr int kStepProbes = 6;

/// Corruption bound for the reduced [H|R] payload guard: poison is
/// non-finite or astronomically large (a flipped high exponent bit scales a
/// value by ~2^512), far above any Gram block of normalized data.
constexpr double kPayloadBound = 1e100;

bool payload_sane(std::span<const double> payload) {
  for (const double v : payload) {
    if (!std::isfinite(v) || std::abs(v) > kPayloadBound) {
      return false;
    }
  }
  return true;
}

/// mbar = max(1, floor(b * m)).
std::size_t batch_size(const SolverOptions& opts, std::size_t m) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(opts.sampling_rate * static_cast<double>(m))));
}

/// F(w): the problem's lambda ||w||_1 objective (paper Eq. 14), or the
/// smooth part plus opts.regularizer when one is set.
double objective_of(const LassoProblem& problem, const SolverOptions& opts,
                    std::span<const double> w) {
  return opts.regularizer != nullptr
             ? problem.smooth_value(w) + opts.regularizer->value(w)
             : problem.objective(w);
}

/// |F - F*| / |F*|, or NaN without a reference optimum.
double rel_error_of(const SolverOptions& opts, double objective) {
  if (std::isnan(opts.f_star) || opts.f_star == 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::abs((objective - opts.f_star) / opts.f_star);
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

namespace {

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
  RCF_CHECK_MSG(opts.staleness >= 0, "options: staleness must be >= 0");
  RCF_CHECK_MSG(opts.staleness == 0 || opts.pipeline,
                "options: staleness > 0 requires pipeline");
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

/// Retries and injected faults of every rank's decorators, folded in on
/// scope exit -- also when a rank throws, so failures report them too.
struct ResilienceTotals {
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> faults{0};
};

/// Fills result.alerts from two sources that never overlap in kind: a
/// deterministic scan of the convergence ring (stall, divergence,
/// non-finite), and the runtime-only alerts (straggler, retry storm, ring
/// overflow) the live monitor raised since `mark` was taken at solve start.
void annotate_health(SolveResult& result, std::uint64_t mark) {
  obs::LiveMonitor& monitor = obs::LiveMonitor::global();
  const bool live = monitor.running();
  const obs::WatchdogConfig config =
      live ? monitor.watchdog_config() : obs::watchdog_config_from_env();
  for (obs::Alert& alert :
       obs::scan_convergence(result.conv.ordered(), config)) {
    result.alerts.push_back(std::move(alert));
  }
  if (!live) {
    return;
  }
  monitor.sample_now();  // fold the tail of the run before reading alerts
  for (obs::Alert& alert : monitor.alerts_since(mark)) {
    if (alert.kind == obs::AlertKind::kStraggler ||
        alert.kind == obs::AlertKind::kRetryStorm ||
        alert.kind == obs::AlertKind::kRingOverflow) {
      result.alerts.push_back(std::move(alert));
    }
  }
}

/// One rank's RC-SFISTA (paper Alg. 5) over `comm`: stages A-B on the
/// rank's own rows, stage C through the decorated communicator, stage D
/// redundantly on every rank.  All ranks end on the same iterate; the
/// caller keeps rank 0's result.  A 1-rank communicator is the sequential
/// solver: it works on the problem's own storage, and with opts.procs > 1
/// it charges the cost model as the most loaded of opts.procs ranks.
SolveResult solve_rank(const LassoProblem& problem, const SolverOptions& opts,
                       const StepProbePlan& step_plan,
                       dist::Communicator& comm, ResilienceTotals& totals) {
  // With opts.trace off, this rank's spans (its collectives' included)
  // stay out of the session; phase counts are kept regardless.
  const obs::QuietSpans quiet(!opts.trace);
  auto& session = obs::TraceSession::global();
  const bool tracing = opts.trace && session.enabled();

  // Collective decorator stack, innermost first:
  //   comm <- FaultyComm <- RetryingComm <- CheckedComm.
  // Transients throw *before* the backend call, so a retried collective
  // enters the rendezvous -- and the contract checker's schedule -- once.
  fault::FaultyComm faulty(comm, fault::active_plan());
  dist::RetryingComm retrying(faulty, opts.retry);
  struct CounterFold {
    fault::FaultyComm& faulty;
    dist::RetryingComm& retrying;
    ResilienceTotals& totals;
    ~CounterFold() {
      totals.retries += retrying.retries();
      totals.faults += faulty.faults_injected();
    }
  } fold{faulty, retrying, totals};
  check::CheckedComm checked(retrying);

  const int rank = comm.rank();
  const int ranks = comm.size();
  // Width 0 divides the hardware among the ranks (no oversubscription).
  exec::Pool pool(exec::Pool::resolve_width(opts.threads, ranks));
  exec::PoolGuard pool_guard(&pool);

  const std::size_t d = problem.dim();
  const std::size_t m = problem.num_samples();
  const std::size_t mbar = batch_size(opts, m);
  const int k = opts.k;
  const int s_iters = opts.s;

  // Rank-local rows (stage 0 of Fig. 1: X column-partitioned, y
  // row-partitioned); a single rank reads the problem's own storage.
  const data::Partition partition(m, ranks);
  const std::size_t lo = partition.begin(rank);
  const std::size_t hi = partition.end(rank);
  sparse::CsrMatrix sliced_xt;
  std::vector<double> sliced_y;
  if (ranks > 1) {
    sliced_xt = problem.xt().slice_rows(lo, hi);
    sliced_y.assign(
        problem.y().raw().begin() + static_cast<std::ptrdiff_t>(lo),
        problem.y().raw().begin() + static_cast<std::ptrdiff_t>(hi));
  }
  const sparse::CsrMatrix& xt = ranks > 1 ? sliced_xt : problem.xt();
  const std::span<const double> y =
      ranks > 1 ? std::span<const double>(sliced_y) : problem.y().span();

  // Staging for one rank-local [H_j | R_j] block (and the step probes).
  la::Matrix h_local(d, d);
  la::Vector r_local(d);

  // Step-size probes, sharded: rank r builds probes p == r (mod P), and one
  // max-allreduce yields exactly auto_step_size's gamma.  It runs in aux
  // mode, so comm counters, fault-plan call indices and the contract
  // sequence are those of the schedule below.
  double probe_max = -std::numeric_limits<double>::infinity();
  if (step_plan.probes > 0) {
    probe_max = max_step_probe(problem, mbar, opts.seed, step_plan.probes,
                               rank, ranks, h_local, r_local.span());
    dist::Communicator::AuxScope aux(checked);
    probe_max = checked.allreduce_max_scalar(probe_max);
  }
  const double gamma = step_plan.gamma(probe_max);
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
  const MomentumSchedule outer_mu(opts.momentum);

  SolveResult out;
  out.cost = model::CostTracker(opts.collective);
  model::CostTracker& cost = out.cost;

  // Phase counts always, wall time when tracing.  Stage C's spans come from
  // the communicator, so they equal CommStats::allreduce_calls.
  obs::PhaseAgg ph_sampling, ph_gram, ph_allreduce, ph_post, ph_wait,
      ph_update;

  // Recurrence state (paper Eq. 16-17): w_{n-1}, dw_{n-1} = w_{n-1} -
  // w_{n-2} and the extrapolated point v_n; then scratch.
  la::Vector w(d), dw_prev(d), v(d);
  la::Vector grad(d), theta(d), u(d), tmp(d), w_iter_prev(d);

  // Variance-reduction anchor (Alg. 3's w_hat) and its exact gradient.
  la::Vector anchor(d), anchor_grad(d);
  int last_anchor_iter = 0;
  int momentum_base = 0;
  int update_counter = 0;  // S per sampled block; drives the momentum
  auto refresh_anchor = [&](int iter_base) {
    la::copy(w.span(), anchor.span());
    obs::timed_phase(tracing, ph_gram, "gram", 0.0, [&] {
      problem.full_gradient(anchor.span(), anchor_grad.span());
    });
    // Modeled as two distributed SpMVs plus a d-word allreduce; each rank
    // evaluates it from the shared problem, so no collective runs.
    cost.add_flops(Phase::kGram,
                   4.0 * static_cast<double>(problem.xt().nnz()) /
                       static_cast<double>(opts.procs));
    cost.add_allreduce(opts.procs, d);
    last_anchor_iter = iter_base;
    if (opts.vr_restart_momentum) {
      // Literal Alg. 3: restart from the snapshot with fresh momentum.
      la::copy(w.span(), v.span());
      dw_prev.fill(0.0);
      momentum_base = update_counter;
    }
  };

  const std::size_t stride = d * d + d;
  // The k*(d^2+d) block working set spills the cache for large k; every use
  // then streams from DRAM (see MachineSpec::beta_mem and DESIGN.md).
  const bool spills = static_cast<double>(k) * static_cast<double>(stride) >
                      opts.machine.cache_doubles;
  const bool full_batch = mbar == m;
  // One rank standing in for opts.procs charges the most loaded of them.
  const bool simulate = ranks == 1 && opts.procs > 1;
  const data::Partition simulated(m, simulate ? opts.procs : 1);

  std::uint64_t comm_rounds = 0;
  // Machine-independent cumulative counters mirrored into the history so
  // benches can re-cost one trajectory for any (P, machine, collective).
  double raw_gram_flops = 0.0;
  double raw_update_flops = 0.0;
  double comm_payload_words = 0.0;

  SampleBitmap bitmap;
  std::vector<std::uint32_t> idx;
  idx.reserve(mbar);

  // Stages A + B for one k-chunk: every rank draws the *global* index set
  // from the shared (seed, n) stream -- the same for every k, S and P
  // (paper §5.2) -- and accumulates its own [lo, hi) rows into `chunk` (kk
  // packed [H_j | R_j] blocks).  A pure function of (seed, block_start),
  // so poison recovery can re-run it.  Under full sampling the local Gram
  // is built once and copied; its flops are still charged per iteration,
  // as Table 1's oblivious algorithm would incur them.
  const auto build_chunk = [&](int block_start, int kk, double* chunk) {
    for (int j = 0; j < kk; ++j) {
      const int n = block_start + j;
      obs::timed_phase(tracing, ph_sampling, "sampling", 0.0, [&] {
        Rng rng(opts.seed, static_cast<std::uint64_t>(n));
        bitmap.draw(rng, m, mbar);
        bitmap.extract(lo, hi, idx);
      });
      obs::timed_phase(tracing, ph_gram, "gram", 0.0, [&] {
        if (!full_batch || n == 1) {
          h_local.fill(0.0);
          la::set_zero(r_local.span());
          sparse::accumulate_sampled_gram(xt, y, idx,
                                          1.0 / static_cast<double>(mbar),
                                          h_local, r_local.span());
          la::symmetrize_from_upper(h_local);
        }
        double* dst = chunk + static_cast<std::size_t>(j) * stride;
        std::copy(h_local.data(), h_local.data() + d * d, dst);
        std::copy(r_local.data(), r_local.data() + d, dst + d * d);
      });
      const std::uint64_t flops = sparse::sampled_gram_flops(xt, idx);
      raw_gram_flops += static_cast<double>(flops);
      std::uint64_t critical = flops;
      if (simulate) {
        critical = 0;
        for (const auto& span : simulated.split_sorted(idx)) {
          critical =
              std::max(critical, sparse::sampled_gram_flops(xt, span));
        }
      }
      cost.add_flops(Phase::kGram, static_cast<double>(critical));
    }
  };

  // Counts one stage-C call into `agg`, timing it when tracing.
  const auto timed_comm = [&](obs::PhaseAgg& agg, std::size_t words,
                              const auto& call) {
    ++agg.count;
    agg.words += static_cast<double>(words);
    const std::int64_t t0 = tracing ? session.now_us() : 0;
    call();
    if (tracing) {
      agg.us += session.now_us() - t0;
    }
  };
  // Blocking stage C: one allreduce combines all ranks' partial blocks.
  const auto reduce = [&](std::span<double> payload) {
    timed_comm(ph_allreduce, payload.size(),
               [&] { checked.allreduce_sum(payload); });
  };

  // Poison guard.  Corruption enters a rank-local contribution before the
  // reduce, so every rank sees the same poisoned sums and recovers
  // symmetrically: rebuild, re-reduce once with a blocking collective
  // (which quiesces in-flight posts), and get the fault-free bits back.
  // Persistent corruption becomes a structured failure.  Armed only under a
  // chaos plan or RCF_CHECK, so fault-free solves skip the O(payload) scan.
  const bool guard_payload =
      fault::active_plan() != nullptr || check::globally_enabled();
  const auto guard = [&](int block_start, int kk, double* chunk) {
    const std::span<double> payload(chunk, static_cast<std::size_t>(kk) *
                                               stride);
    if (!guard_payload || payload_sane(payload)) {
      return;
    }
    build_chunk(block_start, kk, chunk);
    reduce(payload);
    if (!payload_sane(payload)) {
      throw fault::PoisonedPayload(
          "engine: reduced [H|R] payload still corrupt after recompute "
          "fallback (block_start=" +
          std::to_string(block_start) + ")");
    }
  };

  // grad <- H_j at - R_j (Alg. 4 line 8) or, with variance reduction,
  // H_j (v - anchor) + anchor_grad (Eq. 9 for least squares).  Rows of H_j
  // are contiguous in the pack; each is the backend's dot, as in la::gemv,
  // and each pool task owns whole rows, so any pool width gives the same
  // bits (parallel_for audits the partition).
  const auto gradient = [&](const double* hj, const double* rj,
                            std::span<const double> at) {
    const auto rows = [&](exec::Range range) {
      for (std::size_t row = range.begin; row < range.end; ++row) {
        const double acc = la::dot({hj + row * d, d}, at);
        grad[row] = opts.variance_reduction ? acc + anchor_grad[row]
                                            : acc - rj[row];
      }
    };
    // One captured reference fits std::function's buffer: no allocation.
    exec::parallel_for(
        d, "core.gradient", [&rows](int, exec::Range range) { rows(range); },
        2 * static_cast<std::uint64_t>(d) * d);
  };

  // Stage D for one chunk: kk update sweeps of S Hessian-reuse steps
  // (paper Eq. 20-23), each a standard SFISTA update advancing one shared
  // counter, so S = 1 is bit-exactly the base algorithm.  Under staleness
  // `blocks` is an *earlier* chunk's (at least kk blocks: only the last
  // chunk is short) while block_start still labels this chunk.
  const auto update_chunk = [&](int block_start, int kk,
                                const double* blocks) {
    for (int j = 0; j < kk && !out.converged; ++j) {
      const int n = block_start + j;
      const double* hj = blocks + static_cast<std::size_t>(j) * stride;
      const double* rj = hj + d * d;
      la::copy(w.span(), w_iter_prev.span());

      obs::timed_phase(tracing, ph_update, "update",
                       static_cast<double>(s_iters), [&] {
        for (int s2 = 1; s2 <= s_iters; ++s2) {
          if (opts.variance_reduction) {
            la::waxpby(1.0, v.span(), -1.0, anchor.span(), tmp.span());
            gradient(hj, rj, tmp.span());
          } else {
            gradient(hj, rj, v.span());
          }
          la::waxpby(1.0, v.span(), -gamma, grad.span(), theta.span());
          apply_prox(theta.span(), u.span());

          // Recurrence: dw = w_new - w; dv = (1+mu_{u+1}) dw - mu_u dw_prev.
          ++update_counter;
          bool restarted = false;
          if (opts.adaptive_restart) {
            // Restart test: <v - w_new, w_new - w_old> > 0.
            double dot_restart = 0.0;
            for (std::size_t i = 0; i < d; ++i) {
              dot_restart += (v[i] - u[i]) * (u[i] - w[i]);
            }
            if (dot_restart > 0.0) {
              momentum_base = update_counter;
              la::copy(u.span(), v.span());
              la::copy(u.span(), w.span());
              dw_prev.fill(0.0);
              restarted = true;
            }
          }
          if (!restarted) {
            // mu index relative to the last momentum restart.
            const int nn = update_counter - momentum_base;
            const double mu_next =
                std::min(outer_mu.mu(nn + 1), opts.momentum_cap);
            const double mu_cur =
                std::min(outer_mu.mu(nn), opts.momentum_cap);
            for (std::size_t i = 0; i < d; ++i) {
              const double dw = u[i] - w[i];
              v[i] += (1.0 + mu_next) * dw - mu_cur * dw_prev[i];
              dw_prev[i] = dw;
              w[i] = u[i];
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

      out.iterations = n;

      // Every rank evaluates F from the shared problem: the same stopping
      // decision everywhere, with no collective.
      const bool record =
          opts.track_history && (n % opts.history_stride == 0);
      double objective_n = std::numeric_limits<double>::quiet_NaN();
      if (record || opts.tol > 0.0) {
        objective_n = objective_of(problem, opts, w.span());
        const double rel_error = rel_error_of(opts, objective_n);
        if (record) {
          out.history.push_back(IterationRecord{
              n, objective_n, rel_error, cost.seconds(opts.machine),
              comm_rounds, raw_gram_flops, raw_update_flops,
              comm_payload_words});
        }
        if (opts.tol > 0.0 && !std::isnan(rel_error) &&
            rel_error <= opts.tol) {
          out.converged = true;
        }
      }

      // Convergence telemetry: an O(d) summary into the bounded ring (NaN
      // objective where unevaluated) and a progress epoch for the monitor.
      obs::ConvergenceRecord rec;
      rec.iteration = static_cast<std::uint64_t>(n);
      rec.objective = objective_n;
      rec.grad_norm = std::sqrt(la::dot(grad.span(), grad.span()));
      double support = 0.0;
      double step_sq = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        support += w[i] != 0.0 ? 1.0 : 0.0;
        const double dw = w[i] - w_iter_prev[i];
        step_sq += dw * dw;
      }
      rec.support = support;
      rec.step = std::sqrt(step_sq);
      out.conv.push(rec);
      obs::telemetry_publish(obs::TelemetryKind::kProgress, "iter",
                             static_cast<double>(n), rec.objective, rec.step);
    }
  };

  // The chunk schedule.  Blocking: build, reduce, sweep, in one packed
  // buffer.  Pipelined: chunk t+1's reduction is posted before chunk t's
  // sweeps, and under staleness S those consume chunk max(t - S, 0).  A
  // slot stays untouched from post until its first wait and last stale
  // consumer; S + 2 slots cover the deepest schedule.
  const int num_chunks = (opts.max_iters + k - 1) / k;
  const int lag = opts.staleness;
  const int nslots = opts.pipeline ? lag + 2 : 1;
  // Sized in place: a fill-value prototype would touch a second
  // pack-sized buffer for a moment.
  std::vector<std::vector<double>> slots(static_cast<std::size_t>(nslots));
  for (auto& slot : slots) {
    slot.resize(static_cast<std::size_t>(k) * stride);
  }
  std::vector<dist::CommHandle> handles(static_cast<std::size_t>(nslots));
  std::vector<char> waited(static_cast<std::size_t>(nslots), 1);
  const auto chunk_start = [&](int t) { return 1 + t * k; };
  const auto chunk_len = [&](int t) {
    return std::min(k, opts.max_iters - chunk_start(t) + 1);
  };
  const auto slot_of = [&](int t) {
    return static_cast<std::size_t>(t % nslots);
  };

  const auto post_chunk = [&](int t) {
    const std::size_t slot = slot_of(t);
    double* data = slots[slot].data();
    const int kk = chunk_len(t);
    build_chunk(chunk_start(t), kk, data);
    // Modeled stage C, the history's counters, and the DRAM traffic of
    // streaming a spilled block set through the S sweeps.
    cost.add_allreduce(opts.procs, static_cast<std::uint64_t>(kk) * stride);
    ++comm_rounds;
    const double words = static_cast<double>(kk) * static_cast<double>(stride);
    comm_payload_words += words;
    if (spills) {
      cost.add_mem_words(Phase::kUpdate, (1.0 + s_iters) * words);
    }
    const std::span<double> payload(data,
                                    static_cast<std::size_t>(kk) * stride);
    if (!opts.pipeline) {
      reduce(payload);
      guard(chunk_start(t), kk, data);
      return;
    }
    timed_comm(ph_post, payload.size(),
               [&] { handles[slot] = checked.iallreduce_sum(payload); });
    waited[slot] = 0;
  };

  // First wait on chunk t's posted reduction; idempotent, since staleness
  // consumes chunk 0 up to S + 1 times.  ph_wait.words counts waits that
  // found the reduction already complete: the overlap the cost ledger
  // credits (CommStats::overlapped_words inside the backend).
  const auto wait_chunk = [&](int t) {
    const std::size_t slot = slot_of(t);
    if (waited[slot] != 0) {
      return;
    }
    waited[slot] = 1;
    const std::size_t words =
        static_cast<std::size_t>(chunk_len(t)) * stride;
    timed_comm(ph_wait, handles[slot].test() ? words : 0,
               [&] { handles[slot].wait(); });
    handles[slot] = dist::CommHandle();
    guard(chunk_start(t), chunk_len(t), slots[slot].data());
  };

  if (opts.variance_reduction) {
    refresh_anchor(0);
  }
  const int ahead = opts.pipeline ? 1 : 0;
  int posted = 0;
  for (int t = 0; t < num_chunks && !out.converged; ++t) {
    if (opts.variance_reduction &&
        chunk_start(t) - 1 - last_anchor_iter >= opts.epoch_length) {
      refresh_anchor(chunk_start(t) - 1);
    }
    for (; posted < num_chunks && posted <= t + ahead; ++posted) {
      post_chunk(posted);
    }
    const int src = std::max(t - lag, 0);
    wait_chunk(src);
    update_chunk(chunk_start(t), chunk_len(t), slots[slot_of(src)].data());
  }
  // Wait the posts no sweep consumed (the last S, or all after a tol stop),
  // so every rank completes the same collectives and faults surface.
  for (int t = std::max(posted - nslots, 0); t < posted; ++t) {
    wait_chunk(t);
  }

  out.w = std::move(w);
  out.sim_seconds = cost.seconds(opts.machine);
  obs::append_phase(out.phases, "sampling", ph_sampling);
  obs::append_phase(out.phases, "gram", ph_gram);
  obs::append_phase(out.phases, "allreduce", ph_allreduce);
  obs::append_phase(out.phases, "allreduce_post", ph_post);
  obs::append_phase(out.phases, "allreduce_wait", ph_wait);
  obs::append_phase(out.phases, "update", ph_update);
  if (tracing) {
    // Cross-rank aggregation of each rank's phases and endpoint stats; its
    // collectives run in aux mode, so the recorded comm.* stay exact.
    const dist::CommStats rank_stats = checked.stats();
    obs::MetricsRegistry local;
    obs::record_solve_metrics(local, out.phases, &rank_stats);
    out.fleet = obs::aggregate(local, checked);
  }
  return out;
}

/// Runs solve_rank on every rank of `group`, or on one SeqComm rank when
/// `group` is null, and turns rank 0's outcome into the SolveResult.
SolveResult run_engine(const LassoProblem& problem, const SolverOptions& opts,
                       const std::string& solver_name,
                       dist::ThreadGroup* group) {
  validate_options(problem, opts);
  WallTimer wall;
  const std::uint64_t health_base = obs::LiveMonitor::global().alert_count();
  // problem.lipschitz() caches on first use, so the step plan is made here,
  // on the calling thread; the probes themselves run sharded in the ranks.
  const StepProbePlan step_plan =
      plan_step_probe(problem, opts, batch_size(opts, problem.num_samples()));

  ResilienceTotals totals;
  dist::SeqComm seq;
  SolveResult result;
  const auto body = [&](dist::Communicator& comm) {
    SolveResult mine = solve_rank(problem, opts, step_plan, comm, totals);
    if (comm.rank() == 0) {
      result = std::move(mine);
    }
  };
  try {
    if (group != nullptr) {
      group->run(body);
    } else {
      body(seq);
    }
  } catch (const fault::FaultAbort& e) {
    result = SolveResult::failure(solver_name, e.what());
  } catch (const fault::PoisonedPayload& e) {
    result = SolveResult::failure(solver_name, e.what());
  } catch (const dist::TransientCommFailure& e) {
    result = SolveResult::failure(solver_name, e.what());
  }

  // Endpoint counters are summed even when the run throws; decorator
  // counters from ranks that threw before reaching their fold are lost, so
  // retries / faults are a lower bound on a failed run.
  result.comm_stats = group != nullptr ? group->last_run_stats() : seq.stats();
  result.comm_stats.retries += totals.retries;
  result.comm_stats.faults_injected += totals.faults;
  if (obs::TraceSession::global().enabled()) {
    // Mirror the decorator counters next to the backend's endpoint ones,
    // so the metrics file agrees with SolveResult::comm_stats.
    auto& registry = obs::MetricsRegistry::global();
    const std::string prefix = group != nullptr ? "comm.thread." : "comm.seq.";
    registry.counter(prefix + "retries").add(totals.retries);
    registry.counter(prefix + "faults_injected").add(totals.faults);
  }
  if (result.ok()) {
    result.solver = solver_name;
    result.objective = objective_of(problem, opts, result.w.span());
    result.rel_error = rel_error_of(opts, result.objective);
    if (!std::isfinite(result.objective)) {
      // Divergence (or corrupted inputs) is reported as a structured
      // failure rather than handing the caller a NaN/Inf objective to
      // misinterpret.
      result.failed = true;
      result.failure_reason =
          "engine: non-finite objective at the final iterate";
    }
    if (!result.fleet.empty()) {
      obs::publish(result.fleet, obs::MetricsRegistry::global());
    }
  }
  result.wall_seconds = wall.seconds();
  // A failed solve carries its health alerts too -- the retry storm /
  // straggler trail leading up to it is what a post-mortem wants.
  annotate_health(result, health_base);
  return result;
}

}  // namespace

SolveResult run_sfista_engine(const LassoProblem& problem,
                              const SolverOptions& opts,
                              const std::string& solver_name) {
  return run_engine(problem, opts, solver_name, nullptr);
}

SolveResult solve_rc_sfista_distributed(const LassoProblem& problem,
                                        const SolverOptions& opts,
                                        dist::ThreadGroup& group) {
  return run_engine(problem, opts, "rc-sfista-distributed", &group);
}

}  // namespace rcf::core
