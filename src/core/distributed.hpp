// Threaded SPMD RC-SFISTA: the engine of core/engine.hpp on every rank of a
// dist::ThreadGroup.
//
// The dataset is block-partitioned by sample across the ranks exactly as in
// the paper's Fig. 1: each rank accumulates the Gram contribution of its own
// samples (stages A-B), one allreduce combines the k blocks (stage C), and
// every rank performs the redundant update sweeps (stage D).  It is the same
// loop the sequential solvers run on one SeqComm rank, so a 1-rank group
// reproduces solve_rc_sfista bitwise, and more ranks agree with it up to the
// reassociated Gram sums (1e-9 on the golden problem).
#pragma once

#include "core/options.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "dist/thread_comm.hpp"

namespace rcf::core {

/// Runs RC-SFISTA SPMD over the given thread group.  Every SolverOptions
/// field means what it means for solve_rc_sfista; the result is rank 0's,
/// with comm_stats summed over the ranks.
SolveResult solve_rc_sfista_distributed(const LassoProblem& problem,
                                        const SolverOptions& opts,
                                        dist::ThreadGroup& group);

}  // namespace rcf::core
