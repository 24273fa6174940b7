#include "core/distributed.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "check/checked_comm.hpp"
#include "check/options.hpp"
#include "check/partition.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/health.hpp"
#include "core/momentum.hpp"
#include "data/partition.hpp"
#include "dist/retry.hpp"
#include "exec/pool.hpp"
#include "fault/faulty_comm.hpp"
#include "fault/plan.hpp"
#include "la/blas.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prox/operators.hpp"
#include "sparse/gram.hpp"

namespace rcf::core {

namespace {

/// Corruption bound for the reduced [H|R] payload guard.  A poisoned
/// contribution is either non-finite (NaN injection, exponent-bit flips
/// that produce Inf/NaN) or astronomically large (a flipped high exponent
/// bit scales a value by ~2^512); legitimate Gram blocks of normalized
/// datasets live many orders of magnitude below this.
constexpr double kPayloadBound = 1e100;

bool payload_sane(std::span<const double> payload) {
  for (const double v : payload) {
    if (!std::isfinite(v) || std::abs(v) > kPayloadBound) {
      return false;
    }
  }
  return true;
}

}  // namespace

SolveResult solve_rc_sfista_distributed(const LassoProblem& problem,
                                        const SolverOptions& opts,
                                        dist::ThreadGroup& group) {
  RCF_CHECK_MSG(opts.k >= 1 && opts.s >= 1, "distributed: k, s must be >= 1");
  RCF_CHECK_MSG(opts.sampling_rate > 0.0 && opts.sampling_rate <= 1.0,
                "distributed: sampling_rate in (0, 1]");
  RCF_CHECK_MSG(!opts.variance_reduction,
                "distributed: variance reduction is not supported here");
  RCF_CHECK_MSG(opts.threads >= 0, "distributed: threads must be >= 0");
  RCF_CHECK_MSG(opts.staleness >= 0, "distributed: staleness must be >= 0");
  RCF_CHECK_MSG(opts.staleness == 0 || opts.pipeline,
                "distributed: staleness > 0 requires pipeline");

  WallTimer wall;
  const std::uint64_t health_base = health_mark();
  const std::size_t d = problem.dim();
  const std::size_t m = problem.num_samples();
  const auto mbar = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(
             opts.sampling_rate * static_cast<double>(m))));
  // Same automatic step size as the sequential engine (bit-identical
  // trajectories require the identical gamma).  The bound is computed here,
  // once; the sampled-Gram probes run inside the SPMD body, sharded over
  // the ranks (see below).
  const StepProbePlan step_plan = plan_step_probe(problem, opts, mbar);
  const int k = opts.k;
  const int s_iters = opts.s;
  const data::Partition partition(m, group.size());

  la::Vector final_w(d);

  // Rank-0 phase aggregates (all ranks execute the identical schedule, so
  // one rank's counts describe every rank); written before the join in
  // group.run, read after it.  The "allreduce" wall time is measured here
  // but the *span* is emitted by ThreadComm itself, keeping the trace's
  // allreduce span count equal to CommStats::allreduce_calls per rank.
  const bool tracing = opts.trace && obs::TraceSession::global().enabled();
  obs::PhaseAgg ph_sampling, ph_gram, ph_allreduce, ph_update;
  obs::PhaseAgg ph_post, ph_wait;  // pipelined path: allreduce split in two.
  obs::FleetMetrics fleet;
  obs::ConvergenceRing conv;

  // Resilience bookkeeping.  The fault/retry decorators live on each rank's
  // stack, so their counters are folded into the run totals through shared
  // atomics (ThreadGroup::last_run_stats only sums the backend endpoints).
  // The payload guard is armed only when it could matter -- a chaos plan is
  // installed or the verification layer is on -- so fault-free production
  // solves never pay the O(payload) scan.
  const fault::FaultPlan* plan = fault::active_plan();
  const bool guard_payload = plan != nullptr || check::globally_enabled();
  std::atomic<std::uint64_t> total_retries{0};
  std::atomic<std::uint64_t> total_faults{0};

  const auto body = [&](dist::ThreadComm& comm) {
    const int rank = comm.rank();
    // Collective decorator stack, innermost first:
    //   ThreadComm <- FaultyComm <- RetryingComm <- CheckedComm.
    // The chaos layer throws transient failures *before* the backend call,
    // so a retried collective enters the rendezvous exactly once and the
    // contract checker above it records exactly one schedule entry -- no
    // false positives from legitimate retries.
    fault::FaultyComm faulty(comm, plan);
    dist::RetryingComm retrying(faulty, opts.retry);
    // Fold the decorator counters into the shared totals on scope exit --
    // including when this rank dies mid-schedule (injected aborts and
    // exhausted retries throw through this frame), so failure results
    // still report how many faults actually fired.
    struct CounterFold {
      fault::FaultyComm& faulty;
      dist::RetryingComm& retrying;
      std::atomic<std::uint64_t>& retries;
      std::atomic<std::uint64_t>& faults;
      ~CounterFold() {
        retries.fetch_add(retrying.retries(), std::memory_order_relaxed);
        faults.fetch_add(faulty.faults_injected(),
                         std::memory_order_relaxed);
      }
    } fold{faulty, retrying, total_retries, total_faults};
    // Contract decorator: with RCF_CHECK on, every collective below is
    // fingerprinted and the rolling schedule hash is epoch-checked across
    // ranks (on top of the threaded backend's per-call board); with
    // checking off it forwards untouched.
    check::CheckedComm checked(retrying);
    // Per-rank pool: width 0 divides the hardware among the SPMD ranks so
    // P ranks x W pool threads never oversubscribes the machine.
    exec::Pool pool(exec::Pool::resolve_width(opts.threads, group.size()));
    exec::PoolGuard pool_guard(&pool);
    // Rank-local data block (stage-0 of Fig. 1: X column-partitioned, y
    // row-partitioned).
    const std::size_t lo = partition.begin(rank);
    const std::size_t hi = partition.end(rank);
    const sparse::CsrMatrix local_xt = problem.xt().slice_rows(lo, hi);
    const la::Vector local_y(std::vector<double>(
        problem.y().raw().begin() + static_cast<std::ptrdiff_t>(lo),
        problem.y().raw().begin() + static_cast<std::ptrdiff_t>(hi)));

    const MomentumSchedule outer_mu(opts.momentum);

    la::Matrix h_local(d, d);
    la::Vector r_local(d);

    la::Vector w(d), dw_prev(d), v(d);
    la::Vector grad(d), theta(d), u(d);
    la::Vector w_iter_prev(d);
    obs::ConvergenceRing local_conv;
    SampleBitmap bitmap;
    std::vector<std::uint32_t> local_idx;
    local_idx.reserve(mbar);
    int update_counter = 0;
    int momentum_base = 0;

    // Per-rank aggregates; rank 0 publishes its copy after the loop.  The
    // blocking path fills lp_allreduce; the pipelined path splits the
    // collective into lp_post (issue) and lp_wait (completion) instead.
    obs::PhaseAgg lp_sampling, lp_gram, lp_allreduce, lp_post, lp_wait,
        lp_update;
    auto& session = obs::TraceSession::global();

    // Step-size probes, sharded: rank r evaluates probes p == r (mod P)
    // in its h_local / r_local (every rank still draws each probe's index
    // set, since the draws share stream 0), and one max-allreduce combines
    // the shard maxima into exactly auto_step_size's gamma.  The reduction
    // runs in aux mode, so the engine's comm counters, fault-plan call
    // indices and contract-check sequence are those of the schedule below.
    double probe_max = -std::numeric_limits<double>::infinity();
    if (step_plan.probes > 0) {
      probe_max = max_step_probe(problem, mbar, opts.seed, step_plan.probes,
                                 rank, group.size(), h_local,
                                 r_local.span());
      dist::Communicator::AuxScope aux(checked);
      probe_max = checked.allreduce_max_scalar(probe_max);
    }
    const double gamma = step_plan.gamma(probe_max);
    const double lambda_gamma = problem.lambda() * gamma;

    const std::size_t stride = d * d + d;

    // Stages A + B for one k-chunk: every rank draws the *global* index set
    // from the shared (seed, n) stream into its bitmap -- no communication
    // needed to agree on it -- extracts only its own [lo, hi) rows, and
    // accumulates their outer products into `chunk` (kk packed [H_j | R_j]
    // blocks).  A pure function of (seed, block_start): the poison-recovery
    // paths re-run it to rebuild a corrupted rank-local contribution from
    // scratch, and the pipelined path runs it for chunk t+1 while chunk t's
    // reduction is in flight.
    const auto build_chunk = [&](int block_start, int kk, double* chunk) {
      for (int j = 0; j < kk; ++j) {
        const int n = block_start + j;
        obs::timed_phase(tracing, lp_sampling, "sampling", 0.0, [&] {
          Rng rng(opts.seed, static_cast<std::uint64_t>(n));
          bitmap.draw(rng, m, mbar);
          bitmap.extract(lo, hi, local_idx);
        });
        obs::timed_phase(tracing, lp_gram, "gram", 0.0, [&] {
          h_local.fill(0.0);
          la::set_zero(r_local.span());
          sparse::accumulate_sampled_gram(
              local_xt, local_y.span(), local_idx,
              1.0 / static_cast<double>(mbar), h_local,
              r_local.span());
          la::symmetrize_from_upper(h_local);
          double* dst = chunk + static_cast<std::size_t>(j) * stride;
          std::copy(h_local.data(), h_local.data() + d * d, dst);
          std::copy(r_local.data(), r_local.data() + d, dst + d * d);
        });
      }
    };

    // Stage D for one chunk: redundant update sweeps on every rank -- the
    // identical S-reuse recurrence the sequential engine performs.
    // `blocks` holds the reduced [H|R] data the sweeps consume; in the
    // bounded-staleness mode it belongs to an *earlier* chunk (which has at
    // least kk blocks -- only the final chunk is short) while block_start
    // still labels this chunk's iterations.
    const auto update_chunk = [&](int block_start, int kk,
                                  const double* blocks) {
      for (int j = 0; j < kk; ++j) {
        const double* hj = blocks + static_cast<std::size_t>(j) * stride;
        const double* rj = hj + d * d;
        la::copy(w.span(), w_iter_prev.span());
        auto apply_grad = [&](std::span<const double> at,
                              std::span<double> out) {
          // out = H_j at - R_j (rows of H_j are contiguous in the pack).
          // Each task owns a block of output rows, so the dot products are
          // computed exactly as in the sequential loop at any pool width.
          const auto rows = [&](exec::Range range) {
            for (std::size_t row = range.begin; row < range.end; ++row) {
              const double* hrow = hj + row * d;
              double acc = 0.0;
              for (std::size_t c = 0; c < d; ++c) {
                acc += hrow[c] * at[c];
              }
              out[row] = acc - rj[row];
            }
          };
          exec::Pool* p =
              exec::usable_pool(2 * static_cast<std::uint64_t>(d) * d);
          if (p == nullptr) {
            rows({0, d});
            return;
          }
          const int width = p->width();
          if (check::partition_audit_due()) {
            check::audit_partition(
                "dist.apply_grad", d, static_cast<std::size_t>(width),
                [&](std::size_t part) {
                  const exec::Range r =
                      exec::block_range(d, width, static_cast<int>(part));
                  return std::pair<std::size_t, std::size_t>{r.begin, r.end};
                });
          }
          p->run("dist.apply_grad", [&](int t) {
            const exec::Range range = exec::block_range(d, width, t);
            if (!range.empty()) {
              rows(range);
            }
          });
        };

        obs::timed_phase(tracing, lp_update, "update",
                         static_cast<double>(s_iters), [&] {
          for (int s2 = 1; s2 <= s_iters; ++s2) {
            apply_grad(v.span(), grad.span());
            la::waxpby(1.0, v.span(), -gamma, grad.span(), theta.span());
            prox::soft_threshold(theta.span(), lambda_gamma, u.span());
            ++update_counter;
            bool restarted = false;
            if (opts.adaptive_restart) {
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

        // Convergence telemetry: every rank computes the identical O(d)
        // summary (iterates agree bitwise), rank 0's ring is kept.  The
        // objective is never evaluated on this path, so it stays NaN.
        {
          obs::ConvergenceRecord rec;
          rec.iteration = static_cast<std::uint64_t>(block_start + j);
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
          local_conv.push(rec);
          // Progress epoch for the live monitor's per-rank skew view (every
          // rank publishes; the objective is NaN on this path by contract).
          obs::telemetry_publish(obs::TelemetryKind::kProgress, "iter",
                                 static_cast<double>(rec.iteration),
                                 rec.objective, rec.step);
        }
      }
    };

    if (!opts.pipeline) {
      // Packed allreduce buffer: kk * stride doubles ([H_j | R_j] blocks).
      std::vector<double> pack(static_cast<std::size_t>(k) * stride);
      for (int block_start = 1; block_start <= opts.max_iters;
           block_start += k) {
        const int kk = std::min(k, opts.max_iters - block_start + 1);

        // Stage C: one allreduce combines all ranks' partial blocks.
        // Counted and timed as the "allreduce" phase, but the span itself is
        // emitted inside ThreadComm (one per collective call, matching
        // CommStats).
        const std::size_t payload = static_cast<std::size_t>(kk) * stride;
        const auto reduce_blocks = [&] {
          ++lp_allreduce.count;
          lp_allreduce.words += static_cast<double>(payload);
          const std::int64_t t0 = tracing ? session.now_us() : 0;
          checked.allreduce_sum({pack.data(), payload});
          if (tracing) {
            lp_allreduce.us += session.now_us() - t0;
          }
        };

        build_chunk(block_start, kk, pack.data());
        reduce_blocks();

        // Poison detection + recovery.  Corruption is injected into the
        // rank-local contribution *before* the reduce, so after the
        // allreduce every rank holds the identical poisoned sums and takes
        // this branch symmetrically: all ranks rebuild their (deterministic)
        // local blocks and re-reduce once, which yields the bitwise
        // fault-free payload when the corruption was transient.  Persistent
        // corruption is rejected as a structured failure rather than
        // propagated into the iterate.
        if (guard_payload && !payload_sane({pack.data(), payload})) {
          build_chunk(block_start, kk, pack.data());
          reduce_blocks();
          if (!payload_sane({pack.data(), payload})) {
            throw fault::PoisonedPayload(
                "distributed: reduced [H|R] payload still corrupt after "
                "recompute fallback (block_start=" +
                std::to_string(block_start) + ")");
          }
        }

        update_chunk(block_start, kk, pack.data());
      }
    } else {
      // Chunk pipeline over nonblocking posts (stage C via iallreduce_sum).
      // Chunk t's reduction is posted right after its Gram build; the next
      // chunk's sampling + Gram -- and, with staleness, up to S further
      // chunks' update sweeps -- execute while it is in flight.  A chunk's
      // slot must stay untouched from post (the backend snapshots the
      // payload there) until its first wait (the result lands there) plus,
      // in staleness mode, until its last stale consumer; lag + 2 slots
      // cover the deepest schedule.
      const int num_chunks = (opts.max_iters + k - 1) / k;
      const int lag = opts.staleness;
      const int nslots = lag + 2;
      std::vector<std::vector<double>> slots(
          static_cast<std::size_t>(nslots),
          std::vector<double>(static_cast<std::size_t>(k) * stride));
      std::vector<dist::CommHandle> handles(static_cast<std::size_t>(nslots));
      std::vector<char> waited(static_cast<std::size_t>(nslots), 1);

      const auto chunk_start = [&](int t) { return 1 + t * k; };
      const auto chunk_len = [&](int t) {
        return std::min(k, opts.max_iters - chunk_start(t) + 1);
      };

      const auto post_chunk = [&](int t) {
        const auto slot = static_cast<std::size_t>(t % nslots);
        double* data = slots[slot].data();
        build_chunk(chunk_start(t), chunk_len(t), data);
        const std::size_t payload =
            static_cast<std::size_t>(chunk_len(t)) * stride;
        ++lp_post.count;
        lp_post.words += static_cast<double>(payload);
        const std::int64_t t0 = tracing ? session.now_us() : 0;
        handles[slot] = checked.iallreduce_sum({data, payload});
        if (tracing) {
          lp_post.us += session.now_us() - t0;
        }
        waited[slot] = 0;
      };

      // First wait on chunk t's reduction; idempotent, because the
      // staleness schedule consumes chunk 0 up to S + 1 times.
      // lp_wait.words counts the payload of waits that found the reduction
      // *already complete* -- the overlap the cost ledger credits
      // (CommStats::overlapped_words is the same quantity measured inside
      // the backend).
      const auto wait_chunk = [&](int t) {
        const auto slot = static_cast<std::size_t>(t % nslots);
        if (waited[slot] != 0) {
          return;
        }
        waited[slot] = 1;
        const std::size_t payload =
            static_cast<std::size_t>(chunk_len(t)) * stride;
        ++lp_wait.count;
        if (handles[slot].test()) {
          lp_wait.words += static_cast<double>(payload);
        }
        const std::int64_t t0 = tracing ? session.now_us() : 0;
        handles[slot].wait();
        if (tracing) {
          lp_wait.us += session.now_us() - t0;
        }
        handles[slot] = dist::CommHandle();

        // Poison detection + recovery, as on the blocking path.  The
        // fallback re-reduce is a *blocking* collective, which first
        // quiesces any still-in-flight posts; the reduced sums are
        // identical on every rank, so all ranks enter (or skip) the
        // recovery at the same schedule point and the quiesce stays
        // symmetric.
        double* data = slots[slot].data();
        if (guard_payload && !payload_sane({data, payload})) {
          build_chunk(chunk_start(t), chunk_len(t), data);
          checked.allreduce_sum({data, payload});
          if (!payload_sane({data, payload})) {
            throw fault::PoisonedPayload(
                "distributed: reduced [H|R] payload still corrupt after "
                "recompute fallback (block_start=" +
                std::to_string(chunk_start(t)) + ")");
          }
        }
      };

      if (num_chunks > 0) {
        post_chunk(0);
        for (int t = 0; t < num_chunks; ++t) {
          if (t + 1 < num_chunks) {
            post_chunk(t + 1);
          }
          const int src = std::max(t - lag, 0);
          wait_chunk(src);
          update_chunk(chunk_start(t), chunk_len(t),
                       slots[static_cast<std::size_t>(src % nslots)].data());
        }
        // The last `lag` chunks were posted but never consumed by an
        // update; wait them anyway so every rank completes the identical
        // set of collectives and injected completion failures surface.
        for (int t = std::max(num_chunks - lag, 0); t < num_chunks; ++t) {
          wait_chunk(t);
        }
      }
    }

    if (tracing) {
      // Cross-rank aggregation: each rank records its own phase totals and
      // comm endpoint stats into a rank-local registry, then all ranks
      // reduce them (collective -- every rank participates).  The
      // collectives inside aggregate() run in aux mode, so the comm.*
      // counters just recorded stay exact.
      obs::PhaseSummary local_phases;
      obs::append_phase(local_phases, "sampling", lp_sampling);
      obs::append_phase(local_phases, "gram", lp_gram);
      if (opts.pipeline) {
        obs::append_phase(local_phases, "allreduce_post", lp_post);
        obs::append_phase(local_phases, "allreduce_wait", lp_wait);
      } else {
        obs::append_phase(local_phases, "allreduce", lp_allreduce);
      }
      obs::append_phase(local_phases, "update", lp_update);
      const dist::CommStats rank_stats = checked.stats();
      obs::MetricsRegistry local;
      obs::record_solve_metrics(local, local_phases, &rank_stats);
      obs::FleetMetrics rank_fleet = obs::aggregate(local, checked);
      if (rank == 0) {
        fleet = std::move(rank_fleet);
      }
    }

    if (rank == 0) {
      la::copy(w.span(), final_w.span());
      ph_sampling = lp_sampling;
      ph_gram = lp_gram;
      ph_allreduce = lp_allreduce;
      ph_post = lp_post;
      ph_wait = lp_wait;
      ph_update = lp_update;
      conv = std::move(local_conv);
    }
  };

  // ThreadGroup publishes the raw endpoint counters to the registry, but
  // retries/faults live in the decorators wrapped around each endpoint;
  // mirror them so the metrics file (and rcf-report's resilience view)
  // agrees with SolveResult::comm_stats.
  const auto publish_resilience = [&] {
    if (!obs::TraceSession::global().enabled()) {
      return;
    }
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("comm.thread.retries")
        .add(total_retries.load(std::memory_order_relaxed));
    registry.counter("comm.thread.faults_injected")
        .add(total_faults.load(std::memory_order_relaxed));
  };

  const auto structured_failure = [&](const char* reason) {
    SolveResult failed =
        SolveResult::failure("rc-sfista-distributed", reason);
    failed.wall_seconds = wall.seconds();
    // Partial stats: ThreadGroup sums the per-rank endpoint counters even
    // when the run throws; decorator counters from ranks that threw before
    // reaching the fold are lost, so retries/faults are a lower bound here.
    failed.comm_stats = group.last_run_stats();
    failed.comm_stats.retries +=
        total_retries.load(std::memory_order_relaxed);
    failed.comm_stats.faults_injected +=
        total_faults.load(std::memory_order_relaxed);
    publish_resilience();
    // A failed solve carries its health alerts too -- the retry storm /
    // straggler trail leading up to the failure is exactly what a
    // post-mortem wants.
    annotate_health(failed, health_base);
    return failed;
  };

  try {
    group.run(body);
  } catch (const fault::FaultAbort& e) {
    return structured_failure(e.what());
  } catch (const fault::PoisonedPayload& e) {
    return structured_failure(e.what());
  } catch (const dist::TransientCommFailure& e) {
    return structured_failure(e.what());
  }

  SolveResult result;
  result.solver = "rc-sfista-distributed";
  result.w = final_w;
  result.iterations = opts.max_iters;
  result.objective = problem.objective(result.w.span());
  if (!std::isfinite(result.objective)) {
    SolveResult failed = structured_failure(
        "distributed: non-finite objective at the final iterate");
    failed.w = std::move(result.w);
    failed.iterations = result.iterations;
    return failed;
  }
  if (!std::isnan(opts.f_star) && opts.f_star != 0.0) {
    result.rel_error = std::abs((result.objective - opts.f_star) / opts.f_star);
  }
  result.wall_seconds = wall.seconds();
  result.comm_stats = group.last_run_stats();
  result.comm_stats.retries += total_retries.load(std::memory_order_relaxed);
  result.comm_stats.faults_injected +=
      total_faults.load(std::memory_order_relaxed);
  publish_resilience();
  obs::append_phase(result.phases, "sampling", ph_sampling);
  obs::append_phase(result.phases, "gram", ph_gram);
  if (opts.pipeline) {
    obs::append_phase(result.phases, "allreduce_post", ph_post);
    obs::append_phase(result.phases, "allreduce_wait", ph_wait);
  } else {
    obs::append_phase(result.phases, "allreduce", ph_allreduce);
  }
  obs::append_phase(result.phases, "update", ph_update);
  result.fleet = std::move(fleet);
  result.conv = std::move(conv);
  if (tracing && !result.fleet.empty()) {
    obs::publish(result.fleet, obs::MetricsRegistry::global());
  }
  annotate_health(result, health_base);
  return result;
}

}  // namespace rcf::core
