// perfbench_solve: one workload of the end-to-end solve benchmark.
//
// Builds the workload's dataset, derives the solver seeds from --seed,
// computes the reference optimum F* untimed, then either
//
//   --trace 0  times set-up (fresh LassoProblem + lipschitz() +
//              auto_step_size()) and warm solves through the public solver
//              API, gating every solve, or
//   --trace 1  turns on the in-memory obs::TraceSession, takes the phase
//              split of traced solves, and replays each layer's public
//              calls at the workload's shapes (spans recorded from this
//              file only; nothing inside src/ is instrumented for it).
//
// The last stdout line is one JSON record of raw samples and gate results;
// perfbench/run.py turns it into the benchmark's metrics.  See
// perfbench/README.md for the workloads and the metric map.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "fault/plan.hpp"
#include "rcf.hpp"

namespace {

using namespace rcf;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool wide = false;  ///< mnist Table-2 clone instead of make_regression.
  std::size_t m = 0;  ///< make_regression shape (tall workloads).
  std::size_t d = 0;
  int ranks = 0;  ///< SPMD ranks; 0 = sequential solve_rc_sfista.
  int threads = 1;  ///< exec::Pool width per rank.
  double b = 0.1;
  int k = 1;
  int s = 1;
  int iters = 1;  ///< N, the fixed iteration count of every solve.
  /// Solver seeds per run: rel_err is their mean.  One solve's error is a
  /// random draw around the stochastic floor (about 30% CV on tall, 10%
  /// on wide), so tall needs more streams to give a steady mean.
  int solver_seeds = 8;
};

// N is fixed per workload and identical on every commit.  tall-spmd4 and
// tall-seq1 solve the same problem with the same schedule, so their
// iterates must agree (the distributed_lasso check).  Wide's N stays small
// because FISTA momentum amplifies its sampling noise, so the error of a
// single solve grows with N: at N=32 one solve in about 160 crossed the
// 0.01 rel_err gate (0.0102); at N=16 the largest of 48 was 0.0076.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"tall-spmd4", false, 200000, 64, 4, 1, 0.1, 8, 1, 64, 24},
      {"wide-spmd2x2", true, 0, 0, 2, 2, 0.15, 4, 1, 16, 8},
      {"tall-seq1", false, 200000, 64, 0, 1, 0.1, 8, 1, 64, 24},
      // Self-test only (perfbench/test_perfbench.py): seconds, not minutes.
      {"tiny-spmd2", false, 4000, 16, 2, 1, 0.1, 4, 1, 16, 8},
  };
  return all;
}

/// Minimum set-ups timed per run (the setup_s samples; also the traced
/// run's set-up count).
constexpr int kSetupReps = 5;

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

/// The workload's dataset.  It is fixed, like the paper's datasets: the
/// library's default generator seed, which makes tall the
/// `distributed_lasso --m=200000 --d=64` problem.  --seed drives the
/// solvers' sampling streams instead, because the data alone moves the
/// metrics more than a code change should: over 20 wide datasets the
/// Lipschitz power iteration ran 42 to 243 iterations, and the mean tall
/// rel_err of 16 sampling streams ranged 1.4e-4 to 2.1e-4 over 5 datasets.
data::Dataset make_inputs(const Workload& wl) {
  if (wl.wide) {
    return data::make_paper_clone("mnist", 0.33);
  }
  data::SyntheticOptions gen;
  gen.num_samples = wl.m;
  gen.num_features = wl.d;
  gen.density = 0.3;
  gen.name = wl.name;
  return data::make_regression(gen);
}

/// The paper's lambda (§5.1): 0.1 for every dataset used here.
double workload_lambda(const Workload& wl) {
  return wl.wide ? data::paper_dataset_spec("mnist").lambda : 0.1;
}

std::uint64_t solver_seed(std::uint64_t seed, int j) {
  return seed * 1000 + static_cast<std::uint64_t>(j) + 1;
}

core::SolverOptions solver_options(const Workload& wl, std::uint64_t seed,
                                   bool trace) {
  core::SolverOptions opts;
  opts.max_iters = wl.iters;
  opts.sampling_rate = wl.b;
  opts.k = wl.k;
  opts.s = wl.s;
  opts.threads = wl.threads;
  opts.seed = seed;
  opts.track_history = false;
  opts.trace = trace;
  return opts;
}

std::size_t batch_size(const Workload& wl, std::size_t m) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(wl.b * static_cast<double>(m))));
}

core::SolveResult solve(const Workload& wl, const core::LassoProblem& problem,
                        const core::SolverOptions& opts,
                        dist::ThreadGroup* group) {
  return wl.ranks > 0
             ? core::solve_rc_sfista_distributed(problem, opts, *group)
             : core::solve_rc_sfista(problem, opts);
}

// ---------------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall seconds of `reps` calls of fn().
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    t.push_back(timer.seconds());
  }
  return median(t);
}

/// Median over `pairs` of time(a) / time(b).  Each pair times both sides
/// back to back and alternates which runs first, so drift in the host's
/// speed reaches both sides of every ratio alike.
template <typename A, typename B>
double paired_ratio(int pairs, A&& a, B&& b) {
  std::vector<double> ratios;
  for (int p = 0; p < pairs; ++p) {
    double ta = 0.0, tb = 0.0;
    const auto time = [](auto&& fn, double& secs) {
      WallTimer timer;
      fn();
      secs = timer.seconds();
    };
    if (p % 2 == 0) {
      time(a, ta);
      time(b, tb);
    } else {
      time(b, tb);
      time(a, ta);
    }
    ratios.push_back(ta / tb);
  }
  return median(ratios);
}

std::string json_array(const std::vector<double>& v) {
  std::ostringstream out;
  out.precision(17);
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    out << (i > 0 ? "," : "") << v[i];
  }
  out << ']';
  return out.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Process high-water resident set (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// CPU time the hypervisor ran other guests on this machine's CPUs (the
/// steal column of /proc/stat's first line, summed over every CPU), in
/// clock ticks; 0 where the kernel does not report it.
std::uint64_t host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return in ? steal : 0;
}

/// Size in bytes of the largest cache level sysfs reports for cpu0.
std::size_t last_level_cache_bytes() {
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_first_line(base + "size");
    if (size.empty()) {
      continue;
    }
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') {
      bytes <<= 10;
    } else if (size.back() == 'M') {
      bytes <<= 20;
    }
    best = std::max(best, bytes);
  }
  return best;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Bytes of the three triad arrays together: at least four times the
/// last-level cache, capped at 1.5 GiB so a host with a huge LLC stays
/// inside a shared machine's memory.
std::size_t triad_bytes() {
  return std::min<std::size_t>(
      std::max<std::size_t>(4 * last_level_cache_bytes(), 64u << 20),
      std::size_t{3} << 29);
}

/// Host and configuration facts of a run.  Constants such as the pool width
/// and the triad's array size live here, not among the compared metrics.
std::string provenance_json(const Workload& wl) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"affinity_cpus\":" << affinity
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"llc_bytes\":" << last_level_cache_bytes()
      << ",\"triad_array_bytes\":" << triad_bytes()
      << ",\"ranks\":" << wl.ranks << ",\"pool_width\":" << wl.threads
      << ",\"build_flags\":" << json_string(PERFBENCH_BUILD_FLAGS)
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"backend\":"
      << json_string(la::backend_name(la::active_backend())) << "}";
  return out.str();
}

/// FNV-1a over the dataset's CSR arrays and labels: identifies the data in
/// every run's provenance.
std::string inputs_fingerprint(const data::Dataset& ds) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (std::size_t r = 0; r < ds.num_samples(); ++r) {
    const auto row = ds.xt.row(r);
    mix(row.cols.data(), row.cols.size_bytes());
    mix(row.vals.data(), row.vals.size_bytes());
  }
  mix(ds.y.data(), ds.y.size() * sizeof(double));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Correctness gates

constexpr double kRelErrGate = 0.01;
constexpr double kSeqAgreementGate = 1e-8;

struct Gates {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  /// Counts one solve; `reason` empty means it passed every gate.
  void record(const std::string& reason) {
    ++attempted;
    if (!reason.empty()) {
      ++failed;
      failures.push_back(reason);
    }
  }

  /// Appends the counts and reasons to a raw JSON record.
  void write(std::ostringstream& out) const {
    out << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i > 0 ? "," : "") << json_string(failures[i]);
    }
    out << "]";
  }
};

double rel_err(const core::SolveResult& r, double f_star) {
  return std::abs(r.objective - f_star) / std::abs(f_star);
}

/// Gate reasons for one solve: ok(), rel_err <= 0.01, and -- when `first`
/// is given -- a bitwise-identical iterate to the first solve of the same
/// solver seed.
std::string check_solve(const core::SolveResult& r, double f_star,
                        const la::Vector* first) {
  if (!r.ok()) {
    return "solve failed: " + r.failure_reason;
  }
  const double rel = rel_err(r, f_star);
  if (!(rel <= kRelErrGate)) {
    return "rel_err " + std::to_string(rel) + " > 0.01";
  }
  if (first != nullptr &&
      !std::equal(first->raw().begin(), first->raw().end(),
                  r.w.raw().begin(), r.w.raw().end())) {
    return "warm repeat changed w";
  }
  return {};
}

// ---------------------------------------------------------------------------
// End-to-end measurement (--trace 0)

struct Setup {
  std::unique_ptr<core::LassoProblem> problem;
  double lipschitz_s = 0.0;
  double step_probe_s = 0.0;
};

/// One set-up from the in-memory dataset to the point where iteration 1
/// can start: a fresh problem, its Lipschitz constant and the step probe.
Setup set_up(const Workload& wl, const data::Dataset& ds,
             const core::SolverOptions& opts) {
  RCF_TRACE_SCOPE("perfbench.setup");
  Setup out;
  WallTimer timer;
  out.problem = std::make_unique<core::LassoProblem>(ds, workload_lambda(wl));
  (void)out.problem->lipschitz();
  out.lipschitz_s = timer.seconds();
  timer.reset();
  (void)core::auto_step_size(*out.problem, opts, batch_size(wl, ds.num_samples()));
  out.step_probe_s = timer.seconds();
  return out;
}

struct RunContext {
  const Workload& wl;
  std::uint64_t seed;
  double seconds;
  const data::Dataset& ds;
};

/// Reference optimum F* (paper §5.1), computed untimed on a set-up problem
/// (its cached Lipschitz constant is reused; the set-up timings are already
/// taken).  Returns nullopt when the reference solve fails.
std::optional<double> reference_optimum(const core::LassoProblem& problem) {
  RCF_TRACE_SCOPE("perfbench.reference");
  const auto ref = core::solve_reference(problem);
  if (!ref.ok() || !std::isfinite(ref.objective) || ref.objective == 0.0) {
    std::fprintf(stderr, "perfbench_solve: reference solve failed\n");
    return std::nullopt;
  }
  return ref.objective;
}

bool measure_end_to_end(const RunContext& ctx, bool inject_failure,
                        std::ostringstream& out) {
  const Workload& wl = ctx.wl;
  Gates gates;

  // The first set-up makes the problem every solve uses; it runs cold and
  // is not a sample.
  const auto opts0 = solver_options(wl, solver_seed(ctx.seed, 0), false);
  const Setup setup = set_up(wl, ctx.ds, opts0);
  const core::LassoProblem& problem = *setup.problem;
  const auto f_star = reference_optimum(problem);
  if (!f_star) {
    return false;
  }

  std::unique_ptr<dist::ThreadGroup> group;
  if (wl.ranks > 0) {
    group = std::make_unique<dist::ThreadGroup>(wl.ranks);
  }

  // Untimed warm-up solve: the first solve in a process runs 1.5-2x slower
  // than later ones.  Peak memory is read after it: loading, setting up
  // and solving once is what a user's process holds; later repeats only
  // add allocator caching, which varies from run to run.
  const auto seeds = static_cast<std::size_t>(wl.solver_seeds);
  std::vector<la::Vector> first_w(seeds);
  std::vector<double> rel(seeds, 0.0);
  {
    const auto r = solve(wl, problem, opts0, group.get());
    gates.record(check_solve(r, *f_star, nullptr));
    first_w[0] = r.w;
    rel[0] = rel_err(r, *f_star);
  }
  const double rss_mb = peak_rss_mb();

  // The measuring window interleaves set-ups with warm solves, so both
  // sample the whole window: on a shared host the speed drifts between
  // regimes lasting 10 s to minutes.  Inside the window a set-up runs whenever
  // set-ups hold less than kSetupShare of the measured time; after it, only
  // the missing minimum of set-ups and solver seeds is made up.  Solves
  // cycle over the solver seeds; every seed is solved at least once, seed 0
  // repeats the warm-up, and every revisit must reproduce its first iterate
  // bitwise.  Each solve also records the host's steal ticks over its
  // interval, from which run.py drops the solves another guest slowed.
  constexpr double kSetupShare = 0.5;
  std::vector<double> setup_s, solve_s, solve_steal;
  double setup_total = 0.0, solve_total = 0.0;
  WallTimer window;
  int i = 0;
  while (window.seconds() < ctx.seconds ||
         static_cast<int>(setup_s.size()) < kSetupReps ||
         i < wl.solver_seeds) {
    const bool set_up_next =
        window.seconds() < ctx.seconds
            ? setup_total < kSetupShare * (setup_total + solve_total)
            : static_cast<int>(setup_s.size()) < kSetupReps;
    if (set_up_next) {
      const Setup again = set_up(wl, ctx.ds, opts0);
      setup_s.push_back(again.lipschitz_s + again.step_probe_s);
      setup_total += setup_s.back();
      continue;
    }
    const int j = i % wl.solver_seeds;
    const auto js = static_cast<std::size_t>(j);
    const std::uint64_t steal0 = host_steal_ticks();
    WallTimer timer;
    const auto r = solve(wl, problem,
                         solver_options(wl, solver_seed(ctx.seed, j), false),
                         group.get());
    solve_s.push_back(timer.seconds());
    solve_steal.push_back(static_cast<double>(host_steal_ticks() - steal0));
    solve_total += solve_s.back();
    const bool seen = j == 0 || i >= wl.solver_seeds;
    gates.record(check_solve(r, *f_star, seen ? &first_w[js] : nullptr));
    if (!seen) {
      first_w[js] = r.w;
      rel[js] = rel_err(r, *f_star);
    }
    ++i;
  }

  // tall-spmd4 must agree with the sequential engine (tall-seq1's solve)
  // to 1e-8 in the inf-norm, as examples/distributed_lasso checks.
  if (wl.name == "tall-spmd4") {
    const auto seq = core::solve_rc_sfista(problem, opts0);
    std::string reason = check_solve(seq, *f_star, nullptr);
    const double diff = la::max_abs_diff(seq.w.span(), first_w[0].span());
    if (reason.empty() && !(diff <= kSeqAgreementGate)) {
      reason = "|w_spmd - w_seq|_inf = " + std::to_string(diff) + " > 1e-8";
    }
    gates.record(reason);
  }

  // Self-test hook: one extra solve with a rank abort injected, which must
  // come back as a structured failure and be counted.
  if (inject_failure) {
    const fault::ScopedFaultPlan plan{std::string_view("abort:rank=1,call=1")};
    const auto r = solve(wl, problem, opts0, group.get());
    gates.record(check_solve(r, *f_star, &first_w[0]));
  }

  out << ",\"f_star\":" << *f_star
      << ",\"setup_s\":" << json_array(setup_s)
      << ",\"solve_s\":" << json_array(solve_s)
      << ",\"solve_steal\":" << json_array(solve_steal)
      << ",\"rel_err\":" << json_array(rel)
      << ",\"peak_rss_mb\":" << rss_mb;
  gates.write(out);
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer measurement (--trace 1)

struct LayerMetric {
  std::string name;
  double value;
};

double phase_seconds(const obs::PhaseSummary& phases, const char* name) {
  const obs::PhaseStat* p = obs::find_phase(phases, name);
  return p != nullptr ? p->seconds : 0.0;
}

/// STREAM-style triad a = b + 3c over triad_bytes() of arrays.
void host_triad(std::vector<LayerMetric>& out) {
  RCF_TRACE_SCOPE("perfbench.host.triad");
  const std::size_t n = triad_bytes() / 3 / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double secs = median_seconds(5, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = b[i] + 3.0 * c[i];
    }
  });
  if (a[n / 2] != 7.0) {
    std::fprintf(stderr, "perfbench: triad check failed\n");
  }
  out.push_back({"host.triad_gbps",
                 3.0 * static_cast<double>(n * sizeof(double)) / secs / 1e9});
}

bool measure_layers(const RunContext& ctx, std::ostringstream& out,
                    const std::string& trace_out) {
  const Workload& wl = ctx.wl;
  const data::Dataset& ds = ctx.ds;
  const std::size_t m = ds.num_samples();
  const std::size_t d = ds.num_features();
  const std::size_t mbar = batch_size(wl, m);
  const int parts = std::max(wl.ranks, 1);
  Gates gates;
  std::vector<LayerMetric> layers;
  const auto opts0 = solver_options(wl, solver_seed(ctx.seed, 0), false);

  // core: set-up split into the power iteration and the step probe.
  std::vector<double> lip_s, probe_s;
  Setup setup;
  for (int r = 0; r < kSetupReps; ++r) {
    setup = set_up(wl, ds, opts0);
    lip_s.push_back(setup.lipschitz_s);
    probe_s.push_back(setup.step_probe_s);
  }
  const core::LassoProblem& problem = *setup.problem;
  const auto f_star = reference_optimum(problem);
  if (!f_star) {
    return false;
  }
  layers.push_back({"core.lipschitz_s", median(lip_s)});
  layers.push_back({"core.step_probe_s", median(probe_s)});

  // The sequential workload gets a 1-rank group, used only by the
  // allreduce replay below, so every per-layer number is measured.
  dist::ThreadGroup group(parts);

  // Pairs of an untraced and a traced warm solve, alternating which runs
  // first, so host drift reaches both sides of each pair's ratio alike.
  // The session runs only for the traced solve (start() also drops the
  // events of the previous pair; the recorded trace starts below).
  const auto warm = solve(wl, problem, opts0, &group);
  gates.record(check_solve(warm, *f_star, nullptr));
  auto& session = obs::TraceSession::global();
  const auto traced_opts = solver_options(wl, solver_seed(ctx.seed, 0), true);
  constexpr int kTracePairs = 7;
  std::vector<double> traced, overhead;
  std::vector<core::SolveResult> traced_results;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    double untraced_s = 0.0;
    for (int side = 0; side < 2; ++side) {
      const bool tracing = (side == 0) == (pair % 2 == 1);
      if (tracing) {
        session.start();
      }
      WallTimer timer;
      auto res = solve(wl, problem, tracing ? traced_opts : opts0, &group);
      const double secs = timer.seconds();
      if (tracing) {
        session.stop();
      }
      gates.record(check_solve(res, *f_star, &warm.w));
      if (tracing) {
        traced.push_back(secs);
        traced_results.push_back(std::move(res));
      } else {
        untraced_s = secs;
      }
    }
    overhead.push_back(traced.back() / untraced_s - 1.0);
  }
  session.start();
  {
    // One more traced solve, so the written trace holds the solver's spans.
    const auto res = solve(wl, problem, traced_opts, &group);
    gates.record(check_solve(res, *f_star, &warm.w));
  }

  // The median traced solve supplies the phase split, so the phases plus
  // the residual add up to exactly the traced solve_s reported.
  std::vector<std::size_t> order(traced.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return traced[a] < traced[b]; });
  const std::size_t mid = order[order.size() / 2];
  const core::SolveResult& med = traced_results[mid];
  double phase_sum = 0.0;
  for (const auto& p : med.phases) {
    phase_sum += p.seconds;
  }
  const double allreduce_phase_s = phase_seconds(med.phases, "allreduce");
  layers.push_back({"core.traced_solve_s", traced[mid]});
  layers.push_back({"core.phase.sampling_s", phase_seconds(med.phases, "sampling")});
  layers.push_back({"core.phase.gram_s", phase_seconds(med.phases, "gram")});
  layers.push_back({"core.phase.allreduce_s", allreduce_phase_s});
  layers.push_back({"core.phase.update_s", phase_seconds(med.phases, "update")});
  layers.push_back({"core.solve_unattributed_s", traced[mid] - phase_sum});
  layers.push_back({"obs.trace_overhead_frac", median(overhead)});

  // common: one global index draw, and how many a solve makes.
  const obs::PhaseStat* sampling = obs::find_phase(med.phases, "sampling");
  const double draws =
      static_cast<double>(sampling != nullptr ? sampling->count : 0) * parts;
  {
    RCF_TRACE_SCOPE("perfbench.common.draw");
    std::uint64_t n = 1;
    layers.push_back({"common.draw_ms", 1e3 * median_seconds(11, [&] {
                        Rng rng(opts0.seed, n++);
                        (void)rng.sample_without_replacement(m, mbar);
                      })});
    layers.push_back({"common.draws_per_solve", draws});
  }

  // la: the Lipschitz power iteration replayed for its exact iteration
  // count, and one update sweep (gemv + waxpby + soft-threshold) at d.
  {
    RCF_TRACE_SCOPE("perfbench.la.lipschitz_replay");
    std::vector<double> tmp(m);
    const auto power = la::power_iteration(
        [&](std::span<const double> v, std::span<double> hv) {
          ds.xt.spmv(v, tmp);
          ds.xt.spmv_t(tmp, hv);
          la::scal(1.0 / static_cast<double>(m), hv);
        },
        d, /*max_iters=*/300, /*tol=*/1e-9);
    layers.push_back({"la.lipschitz_iters", static_cast<double>(power.iterations)});
  }

  // Rank 0's block and its share of iteration 1's draw, as the SPMD path
  // slices and filters them.
  const data::Partition partition(m, parts);
  const std::size_t lo = partition.begin(0);
  const std::size_t hi = partition.end(0);
  std::vector<std::uint32_t> idx = Rng(opts0.seed, 1).sample_without_replacement(m, mbar);
  std::vector<std::uint32_t> local_idx;
  for (const auto i : idx) {
    if (i >= lo && i < hi) {
      local_idx.push_back(static_cast<std::uint32_t>(i - lo));
    }
  }
  const sparse::CsrMatrix local_xt = ds.xt.slice_rows(lo, hi);
  const la::Vector local_y(std::vector<double>(
      ds.y.raw().begin() + static_cast<std::ptrdiff_t>(lo),
      ds.y.raw().begin() + static_cast<std::ptrdiff_t>(hi)));

  la::Matrix h(d, d);
  la::Vector r_vec(d);
  std::uint64_t gram_flops = 0;
  const auto gram_once = [&] {
    h.fill(0.0);
    la::set_zero(r_vec.span());
    gram_flops = sparse::accumulate_sampled_gram(
        local_xt, local_y.span(), local_idx,
        1.0 / static_cast<double>(idx.size()), h, r_vec.span());
  };

  {
    RCF_TRACE_SCOPE("perfbench.la.update");
    gram_once();
    la::symmetrize_from_upper(h);
    la::Vector v(d, 0.5), grad(d), theta(d), u(d);
    const double gamma = core::auto_step_size(problem, opts0, mbar);
    constexpr int kBatch = 50;
    const double secs = median_seconds(11, [&] {
      for (int rep = 0; rep < kBatch; ++rep) {
        la::gemv(1.0, h, v.span(), 0.0, grad.span());
        la::waxpby(1.0, v.span(), -gamma, grad.span(), theta.span());
        prox::soft_threshold(theta.span(), problem.lambda() * gamma, u.span());
      }
    });
    layers.push_back({"la.update_us", 1e6 * secs / kBatch});
  }

  // sparse: one SpMV/SpMV^T pair over the full matrix, and one sampled
  // Gram on rank 0's slice with iteration 1's draw.
  {
    RCF_TRACE_SCOPE("perfbench.sparse.spmv_pair");
    std::vector<double> x(d, 1.0 / std::sqrt(static_cast<double>(d)));
    std::vector<double> tmp(m), back(d);
    const double secs = median_seconds(11, [&] {
      ds.xt.spmv(x, tmp);
      ds.xt.spmv_t(tmp, back);
    });
    // CSR values + column indices + row pointers per product, the m-vector
    // written then read, the d-vectors read and written.
    const double nnz = static_cast<double>(ds.nnz());
    const double bytes =
        2.0 * (nnz * (sizeof(double) + sizeof(std::uint32_t)) +
               static_cast<double>(m + 1) * sizeof(std::size_t)) +
        2.0 * static_cast<double>(m) * sizeof(double) +
        2.0 * static_cast<double>(d) * sizeof(double);
    layers.push_back({"sparse.spmv_pair_ms", 1e3 * secs});
    layers.push_back({"sparse.spmv_gbps", bytes / secs / 1e9});
  }
  double gram_seq_s = 0.0;
  {
    RCF_TRACE_SCOPE("perfbench.sparse.gram");
    const exec::PoolGuard no_pool(nullptr);
    gram_seq_s = median_seconds(5, gram_once);
    double row_bytes = 0.0;
    for (const auto i : local_idx) {
      row_bytes += static_cast<double>(local_xt.row_nnz(i)) *
                       (sizeof(double) + sizeof(std::uint32_t)) +
                   sizeof(double) + sizeof(std::size_t);
    }
    const double bytes =
        row_bytes + static_cast<double>(d * d + d) * sizeof(double);
    layers.push_back({"sparse.gram_ms", 1e3 * gram_seq_s});
    layers.push_back({"sparse.gram_gflops",
                      static_cast<double>(gram_flops) / gram_seq_s / 1e9});
    layers.push_back({"sparse.gram_flop_per_byte",
                      static_cast<double>(gram_flops) / bytes});
  }

  // exec: the same Gram without a pool and on a pool of the workload's
  // width, timed in alternating pairs.  Each side repeats the Gram often
  // enough to take about 5 ms, so a tiny slice still gives a steady ratio.
  // At W=1 the pool is never used and the ratio is about 1.
  {
    RCF_TRACE_SCOPE("perfbench.exec.gram_pool");
    exec::Pool pool(wl.threads);
    const int batch = std::max(1, static_cast<int>(std::ceil(5e-3 / gram_seq_s)));
    const auto gram_batch = [&](exec::Pool* on) {
      const exec::PoolGuard guard(on);
      for (int rep = 0; rep < batch; ++rep) {
        gram_once();
      }
    };
    layers.push_back({"exec.gram_pool_speedup",
                      paired_ratio(21, [&] { gram_batch(nullptr); },
                                   [&] { gram_batch(&pool); })});
  }

  // data: rank 0's slice, paid inside every SPMD solve (on the sequential
  // workload the whole matrix, which its engine never copies).
  {
    RCF_TRACE_SCOPE("perfbench.data.slice");
    layers.push_back({"data.slice_ms", 1e3 * median_seconds(5, [&] {
      const sparse::CsrMatrix block = ds.xt.slice_rows(lo, hi);
      const la::Vector y_block(std::vector<double>(
          ds.y.raw().begin() + static_cast<std::ptrdiff_t>(lo),
          ds.y.raw().begin() + static_cast<std::ptrdiff_t>(hi)));
      if (block.rows() != hi - lo || y_block.size() != hi - lo) {
        std::fprintf(stderr, "perfbench: slice shape mismatch\n");
      }
    })});
  }

  // dist: exact CommStats of the median traced solve, one allreduce of
  // the workload's k(d^2+d) payload on the persistent group, and the
  // allreduce phase time the replayed transfer does not explain (wait).
  const dist::CommStats& cs = med.comm_stats;
  layers.push_back({"dist.allreduce_calls", static_cast<double>(cs.allreduce_calls)});
  layers.push_back({"dist.allreduce_mwords", static_cast<double>(cs.allreduce_words) / 1e6});
  layers.push_back({"dist.max_payload_words", static_cast<double>(cs.max_payload_words)});
  layers.push_back({"dist.retries", static_cast<double>(cs.retries)});
  double replay_s = 0.0;
  {
    RCF_TRACE_SCOPE("perfbench.dist.allreduce_replay");
    const std::size_t payload = static_cast<std::size_t>(wl.k) * (d * d + d);
    std::vector<double> rank0_s;
    group.run([&](dist::ThreadComm& comm) {
      std::vector<double> buf(payload, 1.0);
      for (int rep = 0; rep < 23; ++rep) {
        WallTimer timer;
        comm.allreduce_sum(buf);
        if (comm.rank() == 0 && rep >= 3) {
          rank0_s.push_back(timer.seconds());
        }
      }
    });
    replay_s = median(rank0_s);
  }
  const double calls_per_rank =
      static_cast<double>(cs.allreduce_calls) / static_cast<double>(parts);
  layers.push_back({"dist.allreduce_replay_ms", 1e3 * replay_s});
  layers.push_back({"dist.allreduce_wait_s",
                    allreduce_phase_s - calls_per_rank * replay_s});

  // model: computed flops of one solve's iterations (every draw's Gram
  // outer products plus S dense d x d matvecs per iteration).
  {
    RCF_TRACE_SCOPE("perfbench.model.flops");
    double flops = 0.0;
    for (int n = 1; n <= wl.iters; ++n) {
      const auto draw = Rng(opts0.seed, static_cast<std::uint64_t>(n))
                            .sample_without_replacement(m, mbar);
      flops += static_cast<double>(sparse::sampled_gram_flops(ds.xt, draw));
    }
    flops += static_cast<double>(wl.iters) * wl.s * 2.0 * static_cast<double>(d * d);
    layers.push_back({"model.solve_gflop", flops / 1e9});
  }

  host_triad(layers);
  session.stop();
  if (!trace_out.empty()) {
    std::ofstream file(trace_out);
    session.write_chrome_trace(file);
    if (!file) {
      std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
    }
  }

  out << ",\"f_star\":" << *f_star << ",\"layers\":{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", layers[i].value);
    out << (i > 0 ? "," : "") << json_string(layers[i].name) << ':' << buf;
  }
  out << "}";
  gates.write(out);
  return true;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_solve: %s\n"
               "usage: perfbench_solve --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--inputs-only] "
               "[--inject-failure]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool inputs_only = false;
  bool inject_failure = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--inputs-only") {
      inputs_only = true;
    } else if (arg == "--inject-failure") {
      inject_failure = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* wl = find_workload(workload);
  if (wl == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  const data::Dataset ds = make_inputs(*wl);
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":" << json_string(wl->name) << ",\"seed\":" << seed
      << ",\"trace\":" << trace << ",\"iters\":" << wl->iters
      << ",\"provenance\":" << provenance_json(*wl) << ",\"inputs\":{\"m\":"
      << ds.num_samples() << ",\"d\":" << ds.num_features()
      << ",\"nnz\":" << ds.nnz()
      << ",\"fingerprint\":" << json_string(inputs_fingerprint(ds))
      << ",\"solver_seeds\":[";
  for (int j = 0; j < wl->solver_seeds; ++j) {
    out << (j > 0 ? "," : "") << solver_seed(seed, j);
  }
  out << "]}";
  if (inputs_only) {
    std::printf("%s}\n", out.str().c_str());
    return 0;
  }

  const RunContext ctx{*wl, seed, seconds, ds};
  const bool ok = trace != 0 ? measure_layers(ctx, out, trace_out)
                             : measure_end_to_end(ctx, inject_failure, out);
  if (!ok) {
    return 1;
  }
  std::printf("%s}\n", out.str().c_str());
  return 0;
}
