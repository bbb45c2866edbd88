/// kdrbench — the two-clock benchmark driver.
///
/// Runs one workload and prints, as its last stdout line, one JSON object
/// with every metric (value, unit, clock, sample count), the per-solve
/// virtual numbers, and the correctness tally. run.py builds this binary,
/// runs it, and selects the metrics BENCHMARK.json names; METRICS.md is the
/// dictionary of every metric printed here.
///
/// Usage: kdrbench --workload <fig8_16n|scale_512p|poisson_functional|
///                             service_stream>
///                 --seed <n> --seconds <n> --trace <0|1> [--tiny]
///
/// --trace 0 measures the end-to-end metrics: several set-ups (median
/// setup_s), then unprofiled passes over the workload's fixed work for
/// --seconds (median host_s). --trace 1 is the profiled run: one set-up, one
/// unprofiled pass, then the same work again with the event profiler on
/// (RuntimeOptions::profile), plus host timings of single public calls,
/// baselines, and the plain reference CG. Host times are normalized by a
/// machine-speed reference probe (probes.hpp). --tiny shrinks every workload
/// for the self-test. Unknown flags and workload names are rejected.

#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/ksp.hpp"
#include "baselines/profile.hpp"
#include "baselines/stencil_baseline.hpp"
#include "harness.hpp"
#include "core/solver_registry.hpp"
#include "core/solvers.hpp"
#include "mpisim/bsp.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "service/service.hpp"
#include "sparse/described_formats.hpp"
#include "stencil/matrix_free.hpp"
#include "stencil/stencil.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace kdr;
using kdrbench::Clock;
using kdrbench::LayerTally;
using kdrbench::seconds_since;
using Planner = core::Planner<double>;

// ---------------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false; ///< the profiled (per-layer) run
    bool tiny = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
    std::cerr << "kdrbench: " << msg
              << "\nusage: kdrbench --workload <fig8_16n|scale_512p|poisson_functional|"
                 "service_stream> --seed <n> --seconds <n> --trace <0|1> [--tiny]\n";
    std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
    std::size_t pos = 0;
    unsigned long long x = 0;
    try {
        x = std::stoull(v, &pos);
    } catch (const std::exception&) {
        pos = 0;
    }
    if (pos != v.size() || v.empty() || v[0] == '-') {
        usage_error(flag + " needs a non-negative integer, got '" + v + "'");
    }
    return x;
}

Options parse_options(int argc, char** argv) {
    static const std::vector<std::string> kWorkloads = {
        "fig8_16n", "scale_512p", "poisson_functional", "service_stream"};
    Options o;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
            flag != "--trace") {
            usage_error("unknown flag '" + flag + "'");
        }
        if (i + 1 >= argc) usage_error(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            if (std::find(kWorkloads.begin(), kWorkloads.end(), v) == kWorkloads.end()) {
                usage_error("unknown workload '" + v + "'");
            }
            o.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = parse_uint(flag, v);
            have_seed = true;
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parse_uint(flag, v));
            if (o.seconds < 1.0) usage_error("--seconds must be at least 1");
            have_seconds = true;
        } else {
            if (v != "0" && v != "1") usage_error("--trace must be 0 or 1");
            o.trace = v == "1";
            have_trace = true;
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage_error("--workload, --seed, --seconds and --trace are required");
    }
    return o;
}

/// Seed-derived value for one input (`salt` names the input).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
    SplitMix64 sm(seed * 0x9E3779B97F4A7C15ULL + salt);
    return sm.next();
}

/// FNV-1a: a salt from an input's name that is the same on every platform.
std::uint64_t name_salt(const std::string& name) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

// ---------------------------------------------------------------- results

/// One solve as the end-to-end metrics see it. Timing-mode cells carry no
/// values, so their "solution" is their fixed iteration budget.
struct Solve {
    std::string name;
    double due = 0.0;    ///< virtual time the solve was requested
    double start = 0.0;  ///< virtual time it began
    double finish = 0.0; ///< virtual time its result was ready
    double iterations = 0.0;
    double us_per_it = 0.0; ///< virtual µs per iteration (steady state for timing cells)
    double deadline = 0.0;  ///< latency limit in virtual seconds; 0 = none
    bool recovered = false;
    bool trace_hit = false; ///< iteration loop replayed without recording
    double analysis_tasksum_s = 0.0;
    double host_ms_per_step = 0.0; ///< first pass; 0 where steps run inside the engine
    /// Functional solves only: tolerance, recurrence measure at exit, and
    /// the recomputed ‖b − Ax‖₂ (negative = not a functional solve).
    double tol = 0.0;
    double recurrence = 0.0;
    double true_residual = -1.0;
    /// Baseline key: stencil problem and method this solve compares with.
    stencil::Spec spec{};
    std::string method;
    int baseline_timed = 50;
    sim::MachineDesc machine{};
};

double max_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/// A profiled window's critical path against its virtual length.
struct CpWindow {
    std::string name;
    double virtual_s = 0.0;
    double cp_total = 0.0;
    double cp_sum = 0.0;
};

struct Outcome {
    std::vector<Solve> solves;         ///< from the first unprofiled pass
    double solves_per_s = 0.0;         ///< workload-specific (see METRICS.md)
    std::vector<double> setup_s;       ///< one entry per set-up
    std::vector<double> setup_ref_s;   ///< reference probe after each set-up
    std::vector<double> pass_s;        ///< wall seconds of each unprofiled pass
    std::vector<double> pass_norm_s;   ///< the same in normalized seconds
    /// Peak RSS once the workload's fixed work is done: set-ups and the
    /// virtual passes, before the passes that only fill the time budget
    /// (their number varies with the machine's speed).
    double peak_rss_mb = 0.0;
    kdrbench::SpeedTracker tracker;    ///< probes the machine during the passes
    /// The profiled run's host seconds and those of the same work unprofiled
    /// (the first pass, or for the service a stream of its own).
    double profiled_host_s = 0.0;
    double unprofiled_host_s = 0.0;
    LayerTally virt;                   ///< first unprofiled pass
    LayerTally prof;                   ///< profiled pass (critical path)
    double host_region_s = 0.0;        ///< wall seconds of timed solve regions
    double host_region_tasks = 0.0;    ///< tasks launched inside them
    kdrbench::StepClock steps;         ///< Solver::step host clock (unprofiled)
    std::vector<double> add_operator_s;
    std::vector<CpWindow> cp_windows;
    std::map<std::string, double> call_us; ///< host µs per public planner call
    int attempted = 0;
    std::vector<std::string> failures;

    /// A set-up ends: its wall seconds, then the reference probe.
    void end_setup(double wall) {
        setup_s.push_back(wall);
        setup_ref_s.push_back(kdrbench::reference_probe_s(3));
    }
    void end_pass(const kdrbench::HostTime& t) {
        pass_s.push_back(t.wall);
        pass_norm_s.push_back(t.normalized);
    }

    /// Factor from wall to normalized seconds at the passes' median speed.
    [[nodiscard]] double speed() const {
        return kdrbench::kReferenceNominalS / kdrbench::median(tracker.probes());
    }

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) failures.push_back(what);
    }
};

void note_cp_window(Outcome& out, const std::string& name, const LayerTally& t) {
    double sum = 0.0;
    for (const double v : t.cp) sum += v;
    out.cp_windows.push_back({name, t.virtual_s, t.cp_total, sum});
}

/// Set-ups repeat (for a median) at least 3 times and until they add up to
/// 2 host seconds, at most 9 times; the profiled run sets up once.
bool more_setups(const std::vector<double>& setup_s, const Options& o) {
    if (o.trace) return setup_s.empty();
    double total = 0.0;
    for (const double s : setup_s) total += s;
    return setup_s.size() < 3 || (setup_s.size() < 9 && total < 2.0);
}

/// Unprofiled passes continue while the next one is expected to finish
/// within the budget; at least two run.
bool more_passes(const std::vector<double>& pass_s, Clock::time_point t0, double budget) {
    if (pass_s.size() < 2) return true;
    return seconds_since(t0) + pass_s.back() <= budget;
}

/// Relative slack on the tolerance that a functional solve's true residual
/// may use: the recurrence residual drifts from ‖b − Ax‖ in finite
/// precision (up to ~5% of tol on 256² CG at this commit). See METRICS.md.
constexpr double kTrueResidualSlack = 0.10;

void check_solve(Outcome& out, const Solve& s, bool converged) {
    out.check(converged, s.name + ": not converged");
    if (s.true_residual >= 0.0) {
        out.check(s.true_residual <= s.tol * (1.0 + kTrueResidualSlack),
                  s.name + ": true residual " + std::to_string(s.true_residual) +
                      " exceeds tol x (1 + slack)");
    }
}

/// Host µs per call of `fn`, timed over at least `min_calls` calls and
/// `budget` seconds.
double time_call(const std::function<void()>& fn, double budget, int min_calls = 3) {
    fn(); // first call pays lazy set-up (exchange plans, field homes)
    const Clock::time_point t0 = Clock::now();
    int calls = 0;
    while (calls < min_calls || seconds_since(t0) < budget) {
        fn();
        ++calls;
    }
    return seconds_since(t0) / calls * 1e6;
}

/// Times Planner::{matmul, dot, axpy_dot, gram_batch, block_update} on a
/// planner from outside. Allocates its own workspace vectors.
void time_planner_calls(Planner& p, std::map<std::string, double>& out, double budget) {
    const core::VecId y = p.allocate_workspace_vector(core::VecKind::RHS);
    std::vector<core::VecId> w;
    for (int i = 0; i < 4; ++i) w.push_back(p.allocate_workspace_vector());
    const core::Scalar alpha = core::make_scalar(1e-3);
    std::vector<std::pair<int, int>> pairs;
    for (int a = 0; a < 4; ++a) {
        for (int b = a; b < 4; ++b) pairs.emplace_back(a, b);
    }
    const std::vector<std::vector<core::Scalar>> coeffs(
        2, std::vector<core::Scalar>(4, core::make_scalar(0.25)));
    out["matmul"] = time_call([&] { p.matmul(y, Planner::SOL); }, budget);
    out["dot"] = time_call([&] { (void)p.dot(Planner::SOL, w[0]); }, budget);
    out["axpy_dot"] =
        time_call([&] { (void)p.axpy_dot(w[0], alpha, Planner::SOL, w[1]); }, budget);
    out["gram_batch"] = time_call([&] { (void)p.gram_batch(w, pairs); }, budget);
    out["block_update"] = time_call(
        [&] { p.block_update(w, {w[0], w[1]}, coeffs, {false, true}); }, budget);
}

// ------------------------------------------------------ functional systems

struct SolveDef {
    std::string name;
    gidx side = 0;
    std::string format; ///< "csr" (level-description CSR) or "matfree"
    std::string solver;
};

struct FunctionalSystem {
    std::unique_ptr<rt::Runtime> runtime;
    std::unique_ptr<Planner> planner;
    rt::RegionId xr = 0;
    rt::RegionId br = 0;
    rt::FieldId xf = 0;
    rt::FieldId bf = 0;
    std::shared_ptr<const CsrMatrix<double>> host_a; ///< for the true residual
};

stencil::Spec square_2d(gidx side) {
    stencil::Spec s;
    s.kind = stencil::Kind::D2P5;
    s.nx = side;
    s.ny = side;
    return s;
}

/// quickstart's system: 2-D Poisson, rhs uniform in [0, 1) from the seed,
/// equal partition into `pieces`, operator registered through
/// add_operator's plan derivation (dependent partitioning).
FunctionalSystem build_functional(const SolveDef& d, const sim::MachineDesc& machine,
                                  Color pieces, std::uint64_t rhs_seed, bool profile,
                                  double* add_operator_s) {
    FunctionalSystem s;
    s.runtime = std::make_unique<rt::Runtime>(machine, rt::RuntimeOptions{.profile = profile});
    const stencil::Spec spec = square_2d(d.side);
    const gidx n = spec.unknowns();
    const IndexSpace D = IndexSpace::create(n, "domain");
    const IndexSpace R = IndexSpace::create(n, "range");
    s.xr = s.runtime->create_region(D, "x");
    s.br = s.runtime->create_region(R, "b");
    s.xf = s.runtime->add_field<double>(s.xr, "values");
    s.bf = s.runtime->add_field<double>(s.br, "values");
    const std::vector<double> b = stencil::random_rhs(n, rhs_seed);
    std::ranges::copy(b, s.runtime->field_data<double>(s.br, s.bf).begin());
    s.planner = std::make_unique<Planner>(*s.runtime);
    s.planner->add_sol_vector(s.xr, s.xf, Partition::equal(D, pieces));
    s.planner->add_rhs_vector(s.br, s.bf, Partition::equal(R, pieces));
    std::shared_ptr<const LinearOperator<double>> op =
        d.format == "matfree"
            ? std::shared_ptr<const LinearOperator<double>>(
                  stencil::make_matrix_free_laplacian(spec, D, R))
            : sparse::make_described<double>("csr", D, R, stencil::laplacian_triplets(spec));
    const Clock::time_point t0 = Clock::now();
    s.planner->add_operator(std::move(op), 0, 0);
    if (add_operator_s != nullptr) *add_operator_s = seconds_since(t0);
    s.host_a = std::make_shared<CsrMatrix<double>>(stencil::laplacian_csr(spec, D, R));
    return s;
}

// ------------------------------------------------------ timing workloads

struct CellDef {
    std::string name;
    stencil::Spec spec;
    std::string solver;
    bool traced = false; ///< fast-path traced solver loops; false = untraced
    int warmup = 0;
    int timed = 0;
};

struct LiveCell {
    const CellDef* def = nullptr;
    bench::LegionStencilSystem sys;
    std::unique_ptr<core::Solver<double>> solver;
    double start = 0.0;
};

/// Build the Fig 8 timing-mode system (bench/harness.hpp: phantom data, CSR
/// byte profile, row-block partition, analytic operator plan), construct the
/// solver, and warm up until trace capture is done.
LiveCell start_cell(const CellDef& d, const sim::MachineDesc& machine, Color pieces,
                    bool profile) {
    LiveCell c;
    c.def = &d;
    c.sys = bench::make_legion_stencil(
        d.spec, machine, pieces, d.traced ? bench::TraceMode::Fast : bench::TraceMode::None,
        core::PlannerOptions{}, profile);
    c.start = c.sys.runtime->current_time();
    c.solver = bench::make_solver(d.solver, *c.sys.planner);
    for (int i = 0; i < d.warmup; ++i) c.solver->step();
    return c;
}

/// `steps` solver steps, each timed on the host (through `clock`, whose
/// tracker, if any, normalizes them).
kdrbench::HostTime run_steps(LiveCell& c, int steps, kdrbench::StepClock& clock) {
    const kdrbench::StepClock before = clock;
    for (int i = 0; i < steps; ++i) {
        const Clock::time_point t0 = Clock::now();
        c.solver->step();
        clock.add(seconds_since(t0));
    }
    return {clock.seconds - before.seconds, clock.normalized - before.normalized};
}

/// The measured window of one cell: `timed` steps after warmup.
Solve measure_cell(LiveCell& c, Outcome& out, LayerTally& tally, kdrbench::HostTime& host,
                   kdrbench::StepClock& clock) {
    const CellDef& d = *c.def;
    const double ips = c.solver->iterations_per_step();
    const kdrbench::Window w(*c.sys.runtime);
    host = run_steps(c, d.timed, clock);
    const LayerTally t = w.close(d.timed * ips, d.timed);
    tally.add(t);
    if (c.sys.runtime->profiler() != nullptr) note_cp_window(out, d.name, t);
    Solve s;
    s.name = d.name;
    s.due = s.start = c.start;
    s.finish = c.sys.runtime->current_time();
    s.iterations = (d.warmup + d.timed) * ips;
    s.us_per_it = t.virtual_s / (d.timed * ips) * 1e6;
    s.host_ms_per_step = host.wall / d.timed * 1e3;
    s.spec = d.spec;
    s.method = d.solver;
    s.baseline_timed = d.timed;
    s.machine = c.sys.runtime->machine();
    return s;
}

Outcome run_timing(const std::vector<CellDef>& cells, const sim::MachineDesc& machine,
                   Color pieces, const Options& o) {
    Outcome out;
    std::vector<LiveCell> live;
    while (more_setups(out.setup_s, o)) {
        live.clear();
        const Clock::time_point t0 = Clock::now();
        for (const CellDef& d : cells) {
            live.push_back(start_cell(d, machine, pieces, false));
        }
        out.end_setup(seconds_since(t0));
    }

    // Passes over every cell; the first is each cell's virtual window. In
    // the profiled run each window is followed at once by the same cell with
    // the event profiler on, so both host timings see the same machine
    // state, and no further passes run.
    out.steps.tracker = &out.tracker;
    const Clock::time_point m0 = Clock::now();
    bool first = true;
    while (first || (!o.trace && more_passes(out.pass_s, m0, o.seconds))) {
        kdrbench::HostTime pass;
        for (std::size_t i = 0; i < live.size(); ++i) {
            LiveCell& c = live[i];
            const std::uint64_t tasks0 = c.sys.runtime->tasks_launched();
            kdrbench::HostTime host;
            if (first) {
                out.solves.push_back(measure_cell(c, out, out.virt, host, out.steps));
            } else {
                host = run_steps(c, c.def->timed, out.steps);
            }
            out.host_region_s += host.wall;
            out.host_region_tasks +=
                static_cast<double>(c.sys.runtime->tasks_launched() - tasks0);
            pass.add(host);
            if (first && o.trace) {
                LiveCell pc = start_cell(cells[i], machine, pieces, true);
                kdrbench::HostTime phost;
                kdrbench::StepClock untracked;
                const Solve s = measure_cell(pc, out, out.prof, phost, untracked);
                out.profiled_host_s += phost.wall;
                out.unprofiled_host_s += host.wall;
                out.check(s.us_per_it == out.solves[i].us_per_it &&
                              s.finish == out.solves[i].finish,
                          s.name + ": virtual time differs between profiled and unprofiled runs");
            }
        }
        out.end_pass(pass);
        if (first) out.peak_rss_mb = max_rss_mb();
        first = false;
    }
    out.steps.tracker = nullptr;
    double busy = 0.0;
    for (const Solve& s : out.solves) busy += s.finish - s.start;
    out.solves_per_s = static_cast<double>(out.solves.size()) / busy;
    for (const Solve& s : out.solves) check_solve(out, s, true);
    if (o.trace) {
        time_planner_calls(*live.front().sys.planner, out.call_us, 0.05);
        // Timing-mode systems take an analytic plan; time plan derivation on
        // a functional 5-point system cut into the workload's pieces.
        double add_s = 0.0;
        (void)build_functional({"probe", o.tiny ? 32 : 256, "csr", "cg"}, machine, pieces,
                               derive(o.seed, 4), false, &add_s);
        out.add_operator_s.push_back(add_s);
    }
    return out;
}

CellDef timing_cell(stencil::Kind kind, int log2n, const std::string& solver, bool traced,
                    int warmup, int timed, std::uint64_t seed) {
    CellDef d;
    d.spec = stencil::Spec::cube(kind, gidx{1} << log2n);
    // The seed perturbs the leading extent by up to 1/64 (< 1.6% more
    // unknowns), so every seed is a slightly different problem of the same
    // family.
    const gidx room = std::max<gidx>(2, d.spec.nx / 64);
    const std::string kname = kind == stencil::Kind::D2P5 ? "5pt2d" : "27pt3d";
    d.name = kname + "_" + solver + "_2^" + std::to_string(log2n);
    d.spec.nx += static_cast<gidx>(derive(seed, name_salt(d.name)) %
                                   static_cast<std::uint64_t>(room));
    d.solver = solver;
    d.traced = traced;
    d.warmup = warmup;
    d.timed = timed;
    return d;
}

Outcome fig8_16n(const Options& o) {
    const int small = o.tiny ? 10 : 22;
    const int large = o.tiny ? 12 : 28;
    const int nodes = o.tiny ? 2 : 16;
    std::vector<CellDef> cells;
    for (const stencil::Kind kind : {stencil::Kind::D2P5, stencil::Kind::D3P27}) {
        for (const std::string solver : {"cg", "gmres"}) {
            for (const int lg : {small, large}) {
                // bench_fig8_stencil: 20 warmup steps, at least 2 GMRES(10)
                // restart cycles + 1; 50 timed steps.
                const int warmup = solver == "gmres" ? 21 : 20;
                cells.push_back(timing_cell(kind, lg, solver, false, warmup,
                                            o.tiny ? 10 : 50, o.seed));
            }
        }
    }
    const sim::MachineDesc machine = sim::MachineDesc::lassen(nodes);
    return run_timing(cells, machine, static_cast<Color>(machine.total_gpus()), o);
}

Outcome scale_512p(const Options& o) {
    const int nodes = o.tiny ? 4 : 128;
    const int lg = o.tiny ? 14 : 26;
    const int timed = o.tiny ? 4 : 8;
    // bench_scaling's arms: untraced CG, and the communication-avoiding arm
    // traced on the fast path. Fewer steps than bench_scaling's 10 warmup +
    // 30 timed: a 512-piece step costs 0.2-0.4 host seconds. The traced arm
    // warms up through its record and capture instances plus one fast
    // replay; both arms are periodic from there on.
    const std::vector<CellDef> cells = {
        timing_cell(stencil::Kind::D2P5, lg, "cg", false, 2, timed, o.seed),
        timing_cell(stencil::Kind::D2P5, lg, "ca_cg/8", true, 3, timed / 2, o.seed)};
    const sim::MachineDesc machine = sim::MachineDesc::lassen(nodes);
    return run_timing(cells, machine, static_cast<Color>(machine.total_gpus()), o);
}

// --------------------------------------------------- poisson_functional

/// One solve from x = 0: solver construction (r₀) plus iteration to tol.
/// `clock` (optional) accumulates the solve's steps; its tracker, if any,
/// normalizes `host`.
Solve functional_solve(FunctionalSystem& s, const SolveDef& d, double tol,
                       kdrbench::StepClock* clock, LayerTally* tally, kdrbench::HostTime& host,
                       double& tasks, bool& converged) {
    auto x = s.runtime->field_data<double>(s.xr, s.xf);
    std::ranges::fill(x, 0.0);
    s.planner->rewind_workspaces();
    kdrbench::StepClock local;
    local.tracker = clock != nullptr ? clock->tracker : nullptr;
    const double probe0 = local.tracker != nullptr ? local.tracker->probe_wall() : 0.0;
    const kdrbench::Window w(*s.runtime);
    const std::uint64_t tasks0 = s.runtime->tasks_launched();
    const Clock::time_point t0 = Clock::now();
    kdrbench::TimedSolver<double> solver(core::make_solver<double>(d.solver, *s.planner),
                                         local);
    const int max_it = static_cast<int>(10 * d.side * d.side);
    const core::SolveResult r = core::solve(solver, tol, max_it);
    host.wall = seconds_since(t0);
    host.normalized = local.normalized;
    if (local.tracker != nullptr) {
        // Probes ran between steps: not part of the solve. The rest of the
        // solve outside step() is normalized at the latest speed.
        host.wall -= local.tracker->probe_wall() - probe0;
        host.normalized += local.tracker->scale(host.wall - local.seconds);
    } else {
        host.normalized = host.wall;
    }
    tasks = static_cast<double>(s.runtime->tasks_launched() - tasks0);
    converged = r.status == core::SolveStatus::converged;
    if (clock != nullptr) {
        clock->seconds += local.seconds;
        clock->normalized += local.normalized;
        clock->steps += local.steps;
    }
    if (tally != nullptr) tally->add(w.close(r.iterations, local.steps));

    Solve out;
    out.name = d.name;
    out.due = out.start = w.start();
    out.finish = s.runtime->current_time();
    out.iterations = r.iterations;
    out.us_per_it = (out.finish - out.start) / r.iterations * 1e6;
    out.host_ms_per_step = local.seconds / local.steps * 1e3;
    out.tol = tol;
    out.recurrence = r.residual;
    out.true_residual = kdrbench::true_residual(
        *s.host_a, s.runtime->field_data<double>(s.xr, s.xf),
        s.runtime->field_data<double>(s.br, s.bf));
    out.spec = square_2d(d.side);
    out.method = d.solver;
    out.machine = s.runtime->machine();
    return out;
}

Outcome poisson_functional(const Options& o) {
    const gidx side = o.tiny ? 32 : 256;
    const gidx small = o.tiny ? 16 : 64;
    const std::vector<SolveDef> defs = {{"csr_cg", side, "csr", "cg"},
                                        {"csr_bicgstab", side, "csr", "bicgstab"},
                                        {"csr_ca_cg4", side, "csr", "ca_cg/4"},
                                        {"matfree_cg", side, "matfree", "cg"},
                                        {"csr_gmres30", small, "csr", "gmres/30"}};
    const double tol = 1e-8;
    const sim::MachineDesc machine = sim::MachineDesc::lassen(2);
    const Color pieces = 8;
    const std::uint64_t rhs_seed = derive(o.seed, 1);

    Outcome out;
    std::vector<FunctionalSystem> systems;
    while (more_setups(out.setup_s, o)) {
        systems.clear();
        const Clock::time_point t0 = Clock::now();
        for (const SolveDef& d : defs) {
            double add_s = 0.0;
            systems.push_back(build_functional(d, machine, pieces, rhs_seed, false, &add_s));
            out.add_operator_s.push_back(add_s);
        }
        out.end_setup(seconds_since(t0));
    }

    // Passes over every solve, interleaved with the profiled run as in
    // run_timing.
    out.steps.tracker = &out.tracker;
    const Clock::time_point m0 = Clock::now();
    bool first = true;
    while (first || (!o.trace && more_passes(out.pass_s, m0, o.seconds))) {
        kdrbench::HostTime pass;
        for (std::size_t i = 0; i < defs.size(); ++i) {
            kdrbench::HostTime host;
            double tasks = 0.0;
            bool converged = false;
            const Solve s = functional_solve(systems[i], defs[i], tol, &out.steps,
                                             first ? &out.virt : nullptr, host, tasks,
                                             converged);
            out.host_region_s += host.wall;
            out.host_region_tasks += tasks;
            pass.add(host);
            if (first) {
                out.solves.push_back(s);
                check_solve(out, s, converged);
            } else {
                out.check(s.iterations == out.solves[i].iterations &&
                              s.true_residual == out.solves[i].true_residual,
                          s.name + ": repeated solve differs from the first");
            }
            if (first && o.trace) {
                FunctionalSystem ps =
                    build_functional(defs[i], machine, pieces, rhs_seed, true, nullptr);
                kdrbench::HostTime phost;
                LayerTally t;
                const Solve p =
                    functional_solve(ps, defs[i], tol, nullptr, &t, phost, tasks, converged);
                out.prof.add(t);
                note_cp_window(out, p.name, t);
                out.profiled_host_s += phost.wall;
                out.unprofiled_host_s += host.wall;
                out.check(p.finish == s.finish && p.true_residual == s.true_residual,
                          p.name + ": profiled run differs from the unprofiled run");
            }
        }
        out.end_pass(pass);
        if (first) out.peak_rss_mb = max_rss_mb();
        first = false;
    }
    out.steps.tracker = nullptr;
    double busy = 0.0;
    for (const Solve& s : out.solves) busy += s.finish - s.start;
    out.solves_per_s = static_cast<double>(out.solves.size()) / busy;
    if (!o.trace) return out;
    time_planner_calls(*systems.front().planner, out.call_us, 0.05);
    return out;
}

// ------------------------------------------------------- service_stream

/// What the "timed/<spec>" wrapper records when a service job's solver
/// finalizes: the measure the engine classified, plus x and b copies for
/// the true residual.
struct JobRecord {
    double finish = 0.0;
    double recurrence = 0.0;
    std::vector<double> x;
    std::vector<double> b;
};

struct ServiceProbe {
    kdrbench::StepClock clock;
    std::vector<JobRecord> records;
};

ServiceProbe& service_probe() {
    static ServiceProbe probe;
    return probe;
}

/// Register "timed/<inner spec>": the inner registry solver wrapped in a
/// TimedSolver whose finalize hook snapshots the job's x and b.
void register_timed_solver() {
    core::SolverRegistry<double>::instance().register_solver(
        "timed", [](Planner& p, const std::vector<std::string>& args,
                    const core::SolverParams& params) -> std::unique_ptr<core::Solver<double>> {
            std::string inner;
            for (const std::string& a : args) inner += (inner.empty() ? "" : "/") + a;
            ServiceProbe& probe = service_probe();
            auto hook = [&p, &probe](const core::Scalar& m) {
                const auto x = p.runtime().field_data<double>(p.sol_component(0).region,
                                                              p.vector_field(Planner::SOL));
                const auto b = p.runtime().field_data<double>(p.rhs_component(0).region,
                                                              p.vector_field(Planner::RHS));
                probe.records.push_back({m.ready_time, m.value, {x.begin(), x.end()},
                                         {b.begin(), b.end()}});
            };
            return std::make_unique<kdrbench::TimedSolver<double>>(
                core::make_solver<double>(inner, p, params), probe.clock, hook);
        });
}

struct StreamDef {
    int jobs = 0;
    gidx n = 24;              ///< grid edge; structures alternate n and 3n/4
    double rate = 0.0;        ///< open-loop arrivals per virtual second; 0 = closed
    double gold_deadline = 0; ///< latency limit of gold-tenant jobs (virtual s)
    std::uint64_t seed = 0;
};

/// bench_service's stream: two tenants (gold weighted 3x), two structures,
/// cg / bicgstab mix, per-job rhs seeds, exponential interarrivals.
std::vector<service::SolveRequest> make_stream(const StreamDef& d, double t0) {
    Rng rng(d.seed);
    std::vector<service::SolveRequest> reqs;
    double t = t0;
    for (int i = 0; i < d.jobs; ++i) {
        if (d.rate > 0.0) t += -std::log(1.0 - rng.uniform()) / d.rate;
        service::SolveRequest req;
        req.id = static_cast<std::uint64_t>(i);
        const bool gold = i % 3 == 0;
        req.tenant = gold ? "gold" : "bronze";
        req.arrival = t;
        req.spec = square_2d(i % 2 == 0 ? d.n : (3 * d.n) / 4);
        req.solver = i % 4 == 0 ? "timed/bicgstab" : "timed/cg";
        req.rhs_seed = d.seed + 1000 + static_cast<std::uint64_t>(i);
        req.tol = 1e-8;
        req.max_iterations = 300;
        req.deadline = gold ? d.gold_deadline : 0.0;
        reqs.push_back(std::move(req));
    }
    return reqs;
}

struct ServiceRig {
    std::unique_ptr<rt::Runtime> runtime;
    std::unique_ptr<service::ServiceEngine> engine; ///< declared last: destroyed first
};

ServiceRig start_service(const StreamDef& warm, bool profile) {
    ServiceRig r;
    r.runtime = std::make_unique<rt::Runtime>(sim::MachineDesc::lassen(2),
                                              rt::RuntimeOptions{.profile = profile});
    service::ServiceOptions opts;
    opts.slots = 4;
    opts.pieces = 2;
    opts.max_queue = std::size_t{1} << 20; // nothing is shed: every job is measured
    opts.share_contexts = true;
    opts.tenant_weights = {{"gold", 3.0}, {"bronze", 1.0}};
    r.engine = std::make_unique<service::ServiceEngine>(*r.runtime, opts);
    for (service::SolveRequest& q : make_stream(warm, 0.0)) r.engine->submit(std::move(q));
    r.engine->run();
    return r;
}

/// One measured stream on a warm rig; returns the stream's job results.
std::vector<service::JobResult> run_stream(ServiceRig& r, const StreamDef& d) {
    const std::size_t before = r.engine->results().size();
    for (service::SolveRequest& q : make_stream(d, r.runtime->current_time())) {
        r.engine->submit(std::move(q));
    }
    const std::vector<service::JobResult>& all = r.engine->run();
    return {all.begin() + static_cast<std::ptrdiff_t>(before), all.end()};
}

/// Per-job solves and checks of one stream against the probe's records.
std::vector<Solve> job_solves(const std::vector<service::JobResult>& jobs,
                              const std::vector<JobRecord>& records, Outcome* out) {
    std::map<gidx, CsrMatrix<double>> matrices;
    std::vector<Solve> solves;
    std::size_t next = 0;
    for (const service::JobResult& j : jobs) {
        Solve s;
        s.name = "job" + std::to_string(j.request.id);
        s.due = j.request.arrival;
        s.start = j.start;
        s.finish = j.finish;
        s.iterations = j.outcome.iterations;
        s.us_per_it = (j.finish - j.start) / std::max(1, j.outcome.iterations) * 1e6;
        s.deadline = j.request.deadline;
        s.recovered = j.state == service::JobState::recovered;
        s.trace_hit = j.trace_cache_hit;
        s.analysis_tasksum_s = j.analysis_seconds;
        s.tol = j.request.tol;
        s.recurrence = j.outcome.residual;
        s.spec = j.request.spec;
        s.method = j.request.solver.substr(std::string("timed/").size());
        s.machine = sim::MachineDesc::lassen(2);
        const bool executed = j.state != service::JobState::rejected;
        const bool finalized = j.outcome.status == core::SolveStatus::converged ||
                               j.outcome.status == core::SolveStatus::max_iter;
        if (executed && finalized && next < records.size() &&
            records[next].finish == j.finish) {
            const JobRecord& rec = records[next++];
            const gidx side = j.request.spec.nx;
            auto it = matrices.find(side);
            if (it == matrices.end()) {
                const IndexSpace D = IndexSpace::create(side * side);
                it = matrices.emplace(side, stencil::laplacian_csr(square_2d(side), D, D)).first;
            }
            s.true_residual = kdrbench::true_residual(it->second, rec.x, rec.b);
        }
        if (out != nullptr) {
            out->check(executed, s.name + ": rejected");
            out->check(j.outcome.status == core::SolveStatus::converged &&
                           j.state != service::JobState::aborted,
                       s.name + ": not converged");
            out->check(s.true_residual >= 0.0 &&
                           s.true_residual <= s.tol * (1.0 + kTrueResidualSlack),
                       s.name + ": true residual missing or above tol x (1 + slack)");
        }
        solves.push_back(std::move(s));
    }
    return solves;
}

Outcome service_stream(const Options& o) {
    register_timed_solver();
    ServiceProbe& probe = service_probe();
    const gidx n = o.tiny ? 12 : 24;
    // Warm-up: a closed-loop burst that builds every (structure, lane)
    // context and captures its solver-loop traces.
    const StreamDef warm{.jobs = o.tiny ? 16 : 64, .n = n, .rate = 0.0,
                         .gold_deadline = 0.0, .seed = derive(o.seed, 2)};
    // Measured: kStreams distinct open-loop streams at a fixed absolute rate
    // (0.9 of the 1064 solves/s closed-loop capacity of this configuration at
    // this commit), back to back on the warm rig. The virtual metrics pool
    // all of them, so p99 has 40 samples beyond it; further passes, while
    // time remains, repeat them for host timing only.
    constexpr int kStreams = 4;
    std::vector<StreamDef> streams;
    for (int k = 0; k < kStreams; ++k) {
        streams.push_back({.jobs = o.tiny ? 60 : 1000, .n = n, .rate = 950.0,
                           .gold_deadline = 5e-3,
                           .seed = derive(o.seed, 3 + static_cast<std::uint64_t>(k))});
    }

    Outcome out;
    ServiceRig rig;
    while (more_setups(out.setup_s, o)) {
        rig.engine.reset(); // the engine refers to the runtime
        rig.runtime.reset();
        const Clock::time_point t0 = Clock::now();
        rig = start_service(warm, false);
        out.end_setup(seconds_since(t0));
    }

    probe.clock.tracker = &out.tracker;
    const Clock::time_point m0 = Clock::now();
    double makespans = 0.0;
    for (std::size_t pass = 0;
         pass < streams.size() || (!o.trace && more_passes(out.pass_s, m0, o.seconds));
         ++pass) {
        probe.records.clear();
        const std::uint64_t tasks0 = rig.runtime->tasks_launched();
        const kdrbench::Window w(*rig.runtime);
        const kdrbench::StepClock clock0 = probe.clock;
        const double probe0 = out.tracker.probe_wall();
        const Clock::time_point t0 = Clock::now();
        const std::vector<service::JobResult> jobs =
            run_stream(rig, streams[pass % streams.size()]);
        // Steps are normalized as they run; the engine's own work between
        // them at the latest speed. Probes are not part of the stream.
        kdrbench::HostTime host;
        host.wall = seconds_since(t0) - (out.tracker.probe_wall() - probe0);
        const double step_s = probe.clock.seconds - clock0.seconds;
        host.normalized = probe.clock.normalized - clock0.normalized +
                          out.tracker.scale(host.wall - step_s);
        out.end_pass(host);
        out.host_region_s += host.wall;
        out.host_region_tasks += static_cast<double>(rig.runtime->tasks_launched() - tasks0);
        out.steps.seconds += step_s;
        out.steps.steps += probe.clock.steps - clock0.steps;
        if (pass >= streams.size()) continue;
        const std::vector<Solve> solves = job_solves(jobs, probe.records, &out);
        double iters = 0.0, first_arrival = solves.front().due, last_finish = 0.0;
        for (const Solve& s : solves) {
            iters += s.iterations;
            first_arrival = std::min(first_arrival, s.due);
            last_finish = std::max(last_finish, s.finish);
        }
        makespans += last_finish - first_arrival;
        out.virt.add(w.close(iters, probe.clock.steps - clock0.steps));
        out.solves.insert(out.solves.end(), solves.begin(), solves.end());
        if (pass + 1 == streams.size()) out.peak_rss_mb = max_rss_mb();
    }
    probe.clock.tracker = nullptr;
    out.solves_per_s = static_cast<double>(out.solves.size()) / makespans;
    if (!o.trace) return out;

    // Profiled run: a shorter stream (the profiler's per-lane rings hold
    // 2^18 events; 1000 jobs overflow a node's analysis lane), paired with
    // the same stream unprofiled on a fresh rig.
    StreamDef short_stream = streams.front();
    short_stream.jobs = std::min(short_stream.jobs, 250);
    std::vector<Solve> pair[2];
    for (const bool profile : {false, true}) {
        ServiceRig r = start_service(warm, profile);
        probe.records.clear();
        const kdrbench::Window w(*r.runtime);
        const kdrbench::StepClock clock0 = probe.clock;
        const Clock::time_point t0 = Clock::now();
        const std::vector<service::JobResult> jobs = run_stream(r, short_stream);
        (profile ? out.profiled_host_s : out.unprofiled_host_s) = seconds_since(t0);
        pair[profile] = job_solves(jobs, probe.records, nullptr);
        if (profile) {
            double iters = 0.0;
            for (const Solve& s : pair[1]) iters += s.iterations;
            const LayerTally t = w.close(iters, probe.clock.steps - clock0.steps);
            out.prof.add(t);
            note_cp_window(out, "stream", t);
        }
    }
    bool same = pair[0].size() == pair[1].size();
    for (std::size_t i = 0; same && i < pair[0].size(); ++i) {
        same = pair[0][i].finish == pair[1][i].finish &&
               pair[0][i].true_residual == pair[1][i].true_residual;
    }
    out.check(same, "stream: profiled run differs from the unprofiled run");
    // Public-call timings on a context-shaped system (one lane's 24² CSR
    // on 2 pieces), since the engine's own contexts are private.
    {
        double add_s = 0.0;
        FunctionalSystem s = build_functional({"lane", n, "csr", "cg"},
                                              sim::MachineDesc::lassen(2), 2,
                                              derive(o.seed, 4), false, &add_s);
        out.add_operator_s.push_back(add_s);
        time_planner_calls(*s.planner, out.call_us, 0.05);
    }
    return out;
}

// ------------------------------------------------------ per-layer extras

/// Virtual µs per iteration of a BSP baseline (PETSc- or Trilinos-like
/// profile) on the same stencil problem and machine, in timing mode.
double baseline_us_per_it(const Solve& s, const baselines::Profile& profile) {
    sim::SimCluster cluster(s.machine);
    bsp::BspWorld world(cluster, sim::ProcKind::GPU);
    baselines::StencilBaseline engine(world, s.spec, profile, /*functional=*/false);
    baselines::Method method = baselines::Method::CG;
    int restart = 10;
    if (s.method == "bicgstab") method = baselines::Method::BiCGStab;
    if (s.method.rfind("gmres", 0) == 0) {
        method = baselines::Method::GmresStatic;
        if (s.method.size() > 6) restart = std::stoi(s.method.substr(6));
    }
    baselines::KspSolver solver(engine, method, restart);
    for (int i = 0; i < 20; ++i) solver.step();
    const double t0 = engine.now();
    for (int i = 0; i < s.baseline_timed; ++i) solver.step();
    return (engine.now() - t0) / s.baseline_timed * 1e6;
}

struct BaselineStats {
    double petsc_us = 0.0, trilinos_us = 0.0;
    double vs_petsc = 0.0, vs_trilinos = 0.0;
};

/// Baselines for every distinct (problem, method) among the solves. PETSc
/// is excluded from GMRES (dynamic restart policy, paper §6.1).
BaselineStats run_baselines(const std::vector<Solve>& solves) {
    std::map<std::string, std::pair<double, double>> cache;
    std::vector<double> petsc, trilinos, vs_petsc, vs_trilinos;
    for (const Solve& s : solves) {
        const std::string key = s.spec.describe() + "|" + s.method + "|" +
                                std::to_string(s.machine.nodes);
        auto it = cache.find(key);
        const bool gmres = s.method.rfind("gmres", 0) == 0;
        if (it == cache.end()) {
            const double p = gmres ? 0.0 : baseline_us_per_it(s, baselines::Profile::petsc());
            const double t = baseline_us_per_it(s, baselines::Profile::trilinos());
            it = cache.emplace(key, std::make_pair(p, t)).first;
            if (!gmres) petsc.push_back(p);
            trilinos.push_back(t);
        }
        if (!gmres) vs_petsc.push_back(it->second.first / s.us_per_it);
        vs_trilinos.push_back(it->second.second / s.us_per_it);
    }
    return {kdrbench::geomean(petsc), kdrbench::geomean(trilinos),
            kdrbench::geomean(vs_petsc), kdrbench::geomean(vs_trilinos)};
}

/// Host ns per stored Laplacian nonzero of LinearOperator::multiply_add for
/// CSR, SELL-C-σ (both level descriptions) and the matrix-free stencil.
std::map<std::string, double> spmv_ns_per_entry(gidx side) {
    const stencil::Spec spec = square_2d(side);
    const gidx n = spec.unknowns();
    const IndexSpace D = IndexSpace::create(n);
    const IndexSpace R = IndexSpace::create(n);
    const auto triplets = stencil::laplacian_triplets(spec);
    const std::vector<std::pair<std::string, std::shared_ptr<const LinearOperator<double>>>>
        ops = {{"csr", sparse::make_described<double>("csr", D, R, triplets)},
               {"sell", sparse::make_described<double>("sell", D, R, triplets)},
               {"matfree", stencil::make_matrix_free_laplacian(spec, D, R)}};
    const std::vector<double> x = stencil::random_rhs(n, 7);
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    const double entries = static_cast<double>(spec.total_nnz());
    std::map<std::string, double> out;
    for (const auto& [name, op] : ops) {
        std::vector<double> batches;
        for (int b = 0; b < 3; ++b) {
            const double us = time_call([&] { op->multiply_add(x, y); }, 0.03);
            batches.push_back(us * 1e3 / entries);
        }
        out[name] = kdrbench::median(batches);
    }
    return out;
}

// --------------------------------------------------------------- output

struct MetricOut {
    double value = 0.0;
    std::string unit;
    std::string clock; ///< "host", "virtual", or "count"
    double samples = 1.0;
};

std::map<std::string, MetricOut> metrics(const Outcome& out, const Options& o) {
    std::map<std::string, MetricOut> m;
    const auto put = [&m](const std::string& name, double v, const char* unit,
                          const char* clock, double samples = 1.0) {
        m[name] = {v, unit, clock, samples};
    };
    const auto n_solves = static_cast<double>(out.solves.size());
    std::vector<double> per_it, to_solution, latency, iters;
    double gap = 0.0, misses = 0.0, recovered = 0.0, hits = 0.0, analysis = 0.0;
    for (const Solve& s : out.solves) {
        per_it.push_back(s.us_per_it);
        to_solution.push_back((s.finish - s.start) * 1e3);
        latency.push_back((s.finish - s.due) * 1e3);
        iters.push_back(s.iterations);
        if (s.true_residual >= 0.0) gap = std::max(gap, (s.true_residual - s.recurrence) / s.tol);
        if (s.deadline > 0.0 && s.finish - s.due > s.deadline) misses += 1.0;
        if (s.recovered) recovered += 1.0;
        if (s.trace_hit) hits += 1.0;
        analysis += s.analysis_tasksum_s;
    }

    // End to end (unprofiled). Host seconds are normalized by the reference
    // probe taken right after each set-up and between each pass's units;
    // other host metrics by the run's median probe (`speed`). host_s is the
    // mean of the faster half of the passes.
    const auto normalized = [](const std::vector<double>& wall,
                               const std::vector<double>& probe) {
        std::vector<double> v;
        for (std::size_t i = 0; i < wall.size(); ++i) {
            v.push_back(wall[i] * kdrbench::kReferenceNominalS / probe[i]);
        }
        return kdrbench::median(v);
    };
    const double speed = out.speed();
    put("setup_s", normalized(out.setup_s, out.setup_ref_s), "s", "host",
        static_cast<double>(out.setup_s.size()));
    put("host_s", kdrbench::faster_half_mean(out.pass_norm_s), "s", "host",
        static_cast<double>(out.pass_s.size()));
    put("peak_rss_mb", out.peak_rss_mb, "MB", "host");
    put("virtual_us_per_it", kdrbench::geomean(per_it), "us", "virtual", n_solves);
    put("virtual_ms_to_solution", kdrbench::geomean(to_solution), "ms", "virtual", n_solves);
    put("solves_per_s", out.solves_per_s, "1/s", "virtual", n_solves);
    put("latency_p50_ms", kdrbench::median(latency), "ms", "virtual", n_solves);
    put("latency_p99_ms", kdrbench::nearest_rank(latency, 0.99), "ms", "virtual", n_solves);

    // Per layer. Virtual counters come from the first unprofiled pass,
    // critical-path seconds from the profiled pass.
    const LayerTally& v = out.virt;
    const double it = v.iterations;
    put("host_us_per_task", out.host_region_s / out.host_region_tasks * 1e6 * speed, "us",
        "host", out.host_region_tasks);
    put("tasks_per_it", v.tasks / it, "count", "count", it);
    put("depanalysis_skipped_frac", v.depanalysis_skipped / v.tasks, "ratio", "count", v.tasks);
    put("trace_invalidations", v.trace_invalidations, "count", "count");
    put("analysis_stall_tasksum_us_per_it", v.analysis_stall_tasksum_s / it * 1e6, "us",
        "virtual", it);
    put("allreduce_wait_tasksum_us_per_it", v.allreduce_wait_tasksum_s / it * 1e6, "us",
        "virtual", it);
    put("transfer_bytes_per_it", v.transfer_bytes / it, "B", "count", it);
    put("transfer_msgs_per_it", v.transfer_msgs / it, "count", "count", it);
    put("coalesced_msgs_per_it", v.coalesced_msgs / it, "count", "count", it);
    put("task_retries", v.task_retries, "count", "count");
    put("global_syncs_per_it", v.global_syncs / it, "count", "count", it);
    put("node_utilization_mean", v.busy_proc_s / v.capacity_proc_s, "ratio", "virtual");
    put("load_imbalance", v.max_node_busy_s / v.mean_node_busy_s, "ratio", "virtual");
    put("iterations_to_solution", kdrbench::geomean(iters), "count", "count", n_solves);
    put("true_residual_gap_max", gap, "ratio", "count", n_solves);
    put("trace_cache_hit_rate", hits / n_solves, "ratio", "count", n_solves);
    put("analysis_tasksum_us_per_job", analysis / n_solves * 1e6, "us", "virtual", n_solves);
    put("deadline_misses", misses, "count", "count", n_solves);
    put("recovered", recovered, "count", "count", n_solves);
    put("host_ms_per_step", out.steps.seconds / out.steps.steps * 1e3 * speed, "ms", "host",
        out.steps.steps);
    put("host_ms_add_operator", kdrbench::median(out.add_operator_s) * 1e3 * speed, "ms",
        "host", static_cast<double>(out.add_operator_s.size()));
    put("reference_probe_ms", kdrbench::median(out.tracker.probes()) * 1e3, "ms", "host",
        static_cast<double>(out.tracker.probes().size()));
    if (!o.trace) return m;

    const LayerTally& p = out.prof;
    for (std::size_t c = 0; c < kdrbench::kCpNames.size(); ++c) {
        put(std::string("cp_") + kdrbench::kCpNames[c] + "_us_per_it",
            p.cp[c] / p.iterations * 1e6, "us", "virtual", p.iterations);
    }
    put("events_dropped", p.events_dropped, "count", "count");
    put("profiler_host_overhead_frac",
        (out.profiled_host_s - out.unprofiled_host_s) / out.unprofiled_host_s, "ratio", "host");
    for (const auto& [op, us] : out.call_us) {
        put("host_us_per_call." + op, us * speed, "us", "host");
    }
    return m;
}

void print_solves(const Outcome& out) {
    Table t({"solve", "virtual us/it", "virtual ms", "latency ms", "iterations",
             "true residual", "host ms/step"});
    const std::size_t shown = std::min<std::size_t>(out.solves.size(), 12);
    for (std::size_t i = 0; i < shown; ++i) {
        const Solve& s = out.solves[i];
        t.add_row({s.name, Table::num(s.us_per_it, 3), Table::num((s.finish - s.start) * 1e3, 4),
                   Table::num((s.finish - s.due) * 1e3, 4), Table::num(s.iterations, 0),
                   s.true_residual >= 0.0 ? Table::num(s.true_residual * 1e9, 4) + "e-9"
                                          : "-",
                   s.host_ms_per_step > 0.0 ? Table::num(s.host_ms_per_step, 3) : "-"});
    }
    t.print(std::cout);
    if (shown < out.solves.size()) {
        std::cout << "(" << out.solves.size() - shown << " more solves not shown)\n";
    }
}

int run(const Options& o) {
    Outcome out;
    if (o.workload == "fig8_16n") out = fig8_16n(o);
    else if (o.workload == "scale_512p") out = scale_512p(o);
    else if (o.workload == "poisson_functional") out = poisson_functional(o);
    else out = service_stream(o);

    std::map<std::string, MetricOut> m = metrics(out, o);
    if (o.trace) {
        const BaselineStats b = run_baselines(out.solves);
        m["petsc_us_per_it"] = {b.petsc_us, "us", "virtual", 1.0};
        m["trilinos_us_per_it"] = {b.trilinos_us, "us", "virtual", 1.0};
        m["speedup_vs_petsc"] = {b.vs_petsc, "ratio", "virtual", 1.0};
        m["speedup_vs_trilinos"] = {b.vs_trilinos, "ratio", "virtual", 1.0};
        const gidx side = o.tiny ? 32 : 256;
        const stencil::Spec spec = square_2d(side);
        const IndexSpace D = IndexSpace::create(spec.unknowns());
        const CsrMatrix<double> a = stencil::laplacian_csr(spec, D, D);
        const std::vector<double> rhs = stencil::random_rhs(spec.unknowns(), derive(o.seed, 1));
        std::vector<double> runs;
        kdrbench::PlainCgResult cg;
        for (int i = 0; i < 3; ++i) {
            cg = kdrbench::plain_cg(a, rhs, 1e-8, static_cast<int>(10 * spec.unknowns()));
            runs.push_back(cg.host_s);
        }
        m["plain_cg_host_s"] = {kdrbench::median(runs) * out.speed(), "s", "host", 3.0};
        std::cout << "plain CG reference (" << side << "^2): " << cg.iterations
                  << " iterations, true residual " << cg.true_residual << "\n";
        for (const auto& [fmt, ns] : spmv_ns_per_entry(side)) {
            m["host_ns_per_entry_spmv." + fmt] = {ns * out.speed(), "ns", "host", 3.0};
        }
    }

    print_solves(out);
    std::cout << "host wall: set-up median " << kdrbench::median(out.setup_s)
              << " s, pass median " << kdrbench::median(out.pass_s)
              << " s; reference probe median " << kdrbench::median(out.tracker.probes()) * 1e3
              << " ms (normalized = wall x " << out.speed() << ")\n";
    for (const std::string& f : out.failures) std::cout << "FAILED: " << f << "\n";

    obs::json::Value doc;
    obs::json::Value::Object& root = doc.object();
    root.emplace("workload", obs::json::Value(o.workload));
    root.emplace("seed", obs::json::Value(static_cast<double>(o.seed)));
    root.emplace("trace", obs::json::Value(o.trace));
    root.emplace("build_type", obs::json::Value(KDRBENCH_BUILD_TYPE));
    root.emplace("attempted", obs::json::Value(static_cast<double>(out.attempted)));
    root.emplace("failed", obs::json::Value(static_cast<double>(out.failures.size())));
    obs::json::Value::Object mo;
    for (const auto& [name, v] : m) {
        obs::json::Value::Object e;
        e.emplace("value", obs::json::Value(v.value));
        e.emplace("unit", obs::json::Value(v.unit));
        e.emplace("clock", obs::json::Value(v.clock));
        e.emplace("samples", obs::json::Value(v.samples));
        mo.emplace(name, obs::json::Value(std::move(e)));
    }
    root.emplace("metrics", obs::json::Value(std::move(mo)));
    const auto array = [](const std::vector<double>& v) {
        obs::json::Value::Array a;
        for (const double x : v) a.emplace_back(x);
        return obs::json::Value(std::move(a));
    };
    root.emplace("setup_s", array(out.setup_s));
    root.emplace("pass_s", array(out.pass_s));
    root.emplace("setup_reference_s", array(out.setup_ref_s));
    root.emplace("pass_normalized_s", array(out.pass_norm_s));
    root.emplace("reference_probe_s", array(out.tracker.probes()));
    obs::json::Value::Array solves;
    for (const Solve& s : out.solves) {
        obs::json::Value::Object e;
        e.emplace("name", obs::json::Value(s.name));
        e.emplace("virtual_us_per_it", obs::json::Value(s.us_per_it));
        e.emplace("virtual_finish_s", obs::json::Value(s.finish));
        e.emplace("iterations", obs::json::Value(s.iterations));
        e.emplace("true_residual", obs::json::Value(s.true_residual));
        solves.emplace_back(std::move(e));
    }
    root.emplace("solves", obs::json::Value(std::move(solves)));
    obs::json::Value::Array windows;
    for (const CpWindow& w : out.cp_windows) {
        obs::json::Value::Object e;
        e.emplace("name", obs::json::Value(w.name));
        e.emplace("virtual_s", obs::json::Value(w.virtual_s));
        e.emplace("cp_total_s", obs::json::Value(w.cp_total));
        e.emplace("cp_sum_s", obs::json::Value(w.cp_sum));
        windows.emplace_back(std::move(e));
    }
    root.emplace("cp_windows", obs::json::Value(std::move(windows)));
    std::cout << doc.dump() << "\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const Options o = parse_options(argc, argv);
    try {
        return run(o);
    } catch (const std::exception& e) {
        std::cerr << "kdrbench: " << e.what() << "\n";
        return 1;
    }
}
