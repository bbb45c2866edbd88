#pragma once

/// \file probes.hpp
/// Measurement helpers of the benchmark driver. Everything here observes
/// the library from outside, through its public API:
///  * host clocks, small statistics, and the machine-speed reference probe
///    that host times are normalized by;
///  * `Window`: counter, busy-time and critical-path deltas of one runtime
///    over a span of launches, folded into a summable `LayerTally`;
///  * `TimedSolver`: a Solver wrapper that times every step() call;
///  * a plain single-threaded CSR conjugate gradient and the true residual
///    ‖b − A x‖₂, both computed without the runtime.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/solvers.hpp"
#include "runtime/runtime.hpp"
#include "sparse/csr.hpp"
#include "support/rng.hpp"

namespace kdrbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Machine-speed reference. Host timings on a shared machine drift by tens
/// of percent over seconds to minutes with other tenants' load, far more
/// than the changes the benchmark should detect. The probe is fixed work in
/// the runtime's own style (small allocations, tree walks, branches) that
/// no program change touches; timed right next to the measured work, it
/// tracks the machine's current speed. Host times are reported in
/// *normalized seconds*: wall seconds × kReferenceNominalS / probe seconds,
/// i.e. what they would take where the probe takes 5 ms (about its time on
/// an idle core of the recorded machine).
inline constexpr double kReferenceNominalS = 5e-3;

/// Host seconds of one run of the reference probe.
inline double reference_probe_once() {
    static const std::vector<std::uint64_t> keys = [] {
        std::vector<std::uint64_t> k(4000);
        kdr::SplitMix64 sm(99);
        for (std::uint64_t& x : k) x = sm.next() % 100000;
        return k;
    }();
    const Clock::time_point t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int rep = 0; rep < 4; ++rep) {
        std::map<std::uint64_t, std::vector<std::uint64_t>> m;
        for (const std::uint64_t k : keys) m[k].push_back(k * 3);
        for (const std::uint64_t k : keys) {
            const auto it = m.lower_bound(k / 2);
            if (it != m.end()) acc += it->second.size() + it->first;
        }
    }
    static volatile std::uint64_t sink = 0;
    sink = sink + acc;
    return seconds_since(t0);
}

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double geomean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double log_sum = 0.0;
    for (const double x : v) log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Mean of the faster half of `v` (of its single value if it has one).
/// Other tenants' load only ever slows work down, and the reference probe
/// corrects for it only in part, so the slices that ran under a burst of
/// load are left out.
[[nodiscard]] inline double faster_half_mean(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t k = std::max<std::size_t>(1, v.size() / 2);
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) sum += v[i];
    return sum / static_cast<double>(k);
}

/// Median host seconds of `reps` runs of the reference probe.
[[nodiscard]] inline double reference_probe_s(int reps = 1) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) t.push_back(reference_probe_once());
    return median(std::move(t));
}

/// Converts timed slices of measured work to normalized seconds. After
/// every `interval` wall seconds of work it reruns the reference probe, so
/// each slice is scaled by the machine speed measured next to it (long
/// solves see the machine change under them).
class SpeedTracker {
public:
    explicit SpeedTracker(double interval = 0.25) : interval_(interval) {}

    /// Normalized seconds of a slice of work that took `wall` seconds.
    double add(double wall) {
        if (probes_.empty() || since_probe_ >= interval_) {
            const Clock::time_point t0 = Clock::now();
            probes_.push_back(reference_probe_once());
            probe_wall_ += seconds_since(t0);
            since_probe_ = 0.0;
        }
        since_probe_ += wall;
        return scale(wall);
    }
    /// Normalized seconds of `wall` at the latest measured speed.
    [[nodiscard]] double scale(double wall) const {
        return probes_.empty() ? wall : wall * kReferenceNominalS / probes_.back();
    }
    [[nodiscard]] const std::vector<double>& probes() const noexcept { return probes_; }
    /// Wall seconds spent probing (to subtract from enclosing timings).
    [[nodiscard]] double probe_wall() const noexcept { return probe_wall_; }

private:
    double interval_;
    double since_probe_ = 0.0;
    double probe_wall_ = 0.0;
    std::vector<double> probes_;
};

/// Host time of a stretch of measured work, probes excluded.
struct HostTime {
    double wall = 0.0;
    double normalized = 0.0;

    void add(const HostTime& o) {
        wall += o.wall;
        normalized += o.normalized;
    }
};

/// Nearest-rank quantile (the ServiceEngine's definition: exact, no
/// interpolation).
[[nodiscard]] inline double nearest_rank(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
    rank = std::min(rank, v.size());
    return v[rank - 1];
}

/// Critical-path categories, in obs::EventCategory order.
inline constexpr std::array<const char*, kdr::obs::kEventCategoryCount> kCpNames = {
    "kernel", "transfer", "handshake", "allreduce", "runtime", "idle"};

/// Per-layer sums over one or more measurement windows. Every field is a
/// plain sum, so tallies of several cells add up; per-iteration metrics
/// divide by `iterations` at the end.
struct LayerTally {
    double iterations = 0.0;     ///< Krylov iterations in the windows
    double steps = 0.0;          ///< Solver::step calls in the windows
    double virtual_s = 0.0;      ///< window virtual seconds
    double tasks = 0.0;
    double analysis_stall_tasksum_s = 0.0;
    double allreduce_wait_tasksum_s = 0.0;
    double transfer_bytes = 0.0;
    double transfer_msgs = 0.0;
    double coalesced_msgs = 0.0;
    double task_retries = 0.0;
    double depanalysis_skipped = 0.0;
    double trace_invalidations = 0.0;
    double global_syncs = 0.0;
    double busy_proc_s = 0.0;     ///< summed processor busy seconds
    double capacity_proc_s = 0.0; ///< window seconds × processors
    double max_node_busy_s = 0.0; ///< busiest node's busy seconds
    double mean_node_busy_s = 0.0;
    std::array<double, kdr::obs::kEventCategoryCount> cp{}; ///< profiled windows only
    double cp_total = 0.0;        ///< clipped critical-path length (profiled)
    double events_dropped = 0.0;

    void add(const LayerTally& o) {
        iterations += o.iterations;
        steps += o.steps;
        virtual_s += o.virtual_s;
        tasks += o.tasks;
        analysis_stall_tasksum_s += o.analysis_stall_tasksum_s;
        allreduce_wait_tasksum_s += o.allreduce_wait_tasksum_s;
        transfer_bytes += o.transfer_bytes;
        transfer_msgs += o.transfer_msgs;
        coalesced_msgs += o.coalesced_msgs;
        task_retries += o.task_retries;
        depanalysis_skipped += o.depanalysis_skipped;
        trace_invalidations += o.trace_invalidations;
        global_syncs += o.global_syncs;
        busy_proc_s += o.busy_proc_s;
        capacity_proc_s += o.capacity_proc_s;
        max_node_busy_s += o.max_node_busy_s;
        mean_node_busy_s += o.mean_node_busy_s;
        for (std::size_t c = 0; c < cp.size(); ++c) cp[c] += o.cp[c];
        cp_total += o.cp_total;
        events_dropped = std::max(events_dropped, o.events_dropped);
    }
};

/// Deltas of one runtime between construction and close(). With the event
/// profiler on, the whole-run critical path (which ends at the profiled
/// horizon) is clipped to the window: its segments tile [0, horizon], so the
/// clipped category seconds tile [t0, t1] and sum to the window's virtual
/// time.
class Window {
public:
    explicit Window(kdr::rt::Runtime& rt) : rt_(rt), base_(rt.capture_baseline()) {}

    [[nodiscard]] double start() const noexcept { return base_.horizon; }

    [[nodiscard]] LayerTally close(double iterations, double steps) const {
        const kdr::obs::Registry& m = rt_.metrics();
        const auto since = [&](const char* name) {
            return m.counter_value_since(name, base_.metrics);
        };
        LayerTally t;
        t.iterations = iterations;
        t.steps = steps;
        const double t0 = base_.horizon;
        const double t1 = rt_.current_time();
        t.virtual_s = t1 - t0;
        t.tasks = static_cast<double>(rt_.tasks_launched() - base_.tasks);
        t.analysis_stall_tasksum_s = since("analysis_stall_seconds");
        t.allreduce_wait_tasksum_s = since("allreduce_wait_seconds");
        t.transfer_bytes = rt_.transfer_bytes() - base_.transfer_bytes;
        t.transfer_msgs = static_cast<double>(rt_.transfer_count() - base_.transfer_count);
        t.coalesced_msgs = since("coalesced_messages");
        t.task_retries = since("task_retries");
        t.depanalysis_skipped = since("trace_depanalysis_skipped");
        t.trace_invalidations = since("trace_invalidations");
        t.global_syncs = since("global_syncs");

        const kdr::sim::MachineDesc& mach = rt_.machine();
        kdr::sim::SimCluster& cl = rt_.cluster();
        double total = 0.0;
        double max_busy = 0.0;
        for (int n = 0; n < mach.nodes; ++n) {
            double busy = cl.proc_busy({n, kdr::sim::ProcKind::CPU, 0});
            for (int g = 0; g < mach.gpus_per_node; ++g) {
                busy += cl.proc_busy({n, kdr::sim::ProcKind::GPU, g});
            }
            busy -= base_.node_busy[static_cast<std::size_t>(n)];
            total += busy;
            max_busy = std::max(max_busy, busy);
        }
        t.busy_proc_s = total;
        t.capacity_proc_s = t.virtual_s * static_cast<double>(mach.nodes) *
                            static_cast<double>(1 + mach.gpus_per_node);
        t.max_node_busy_s = max_busy;
        t.mean_node_busy_s = total / static_cast<double>(mach.nodes);

        if (const kdr::obs::Profiler* prof = rt_.profiler(); prof != nullptr) {
            const kdr::obs::CriticalPath cp = prof->critical_path();
            for (const kdr::obs::PathSegment& s : cp.segments) {
                const double lo = std::max(s.start, t0);
                const double hi = std::min(s.end, t1);
                if (hi > lo) t.cp[static_cast<std::size_t>(s.category)] += hi - lo;
            }
            t.cp_total = std::min(cp.total, t1) - std::max(0.0, t0);
            t.events_dropped = static_cast<double>(prof->events_dropped());
        }
        return t;
    }

private:
    kdr::rt::Runtime& rt_;
    kdr::rt::Runtime::SolveBaseline base_;
};

/// Host seconds and calls accumulated by TimedSolver; with a tracker, also
/// normalized seconds.
struct StepClock {
    double seconds = 0.0;
    double normalized = 0.0;
    double steps = 0.0;
    SpeedTracker* tracker = nullptr;

    void add(double wall) {
        seconds += wall;
        normalized += tracker != nullptr ? tracker->add(wall) : wall;
        steps += 1.0;
    }
};

/// Delegating Solver that times each step() from outside the solver. It
/// launches nothing itself, so virtual time and numerics are those of the
/// wrapped solver. `on_finalize` runs after the wrapped finalize() with the
/// convergence measure observed just before it (the value and ready time
/// the solve driver classified).
template <typename T>
class TimedSolver final : public kdr::core::Solver<T> {
public:
    using FinalizeHook = std::function<void(const kdr::core::Scalar& measure)>;

    TimedSolver(std::unique_ptr<kdr::core::Solver<T>> inner, StepClock& clock,
                FinalizeHook on_finalize = {})
        : inner_(std::move(inner)), clock_(clock), on_finalize_(std::move(on_finalize)) {}

    void step() override {
        const Clock::time_point t0 = Clock::now();
        inner_->step();
        clock_.add(seconds_since(t0));
    }
    [[nodiscard]] kdr::core::Scalar get_convergence_measure() const override {
        return inner_->get_convergence_measure();
    }
    void finalize() override {
        const kdr::core::Scalar measure = inner_->get_convergence_measure();
        inner_->finalize();
        if (on_finalize_) on_finalize_(measure);
    }
    [[nodiscard]] kdr::core::SolveStatus status() const noexcept override {
        return inner_->status();
    }
    [[nodiscard]] const char* name() const override { return inner_->name(); }
    [[nodiscard]] int iterations_per_step() const noexcept override {
        return inner_->iterations_per_step();
    }

private:
    std::unique_ptr<kdr::core::Solver<T>> inner_;
    StepClock& clock_;
    FinalizeHook on_finalize_;
};

/// ‖b − A x‖₂ computed on the host from the assembled matrix.
[[nodiscard]] inline double true_residual(const kdr::CsrMatrix<double>& a,
                                          std::span<const double> x,
                                          std::span<const double> b) {
    const std::vector<kdr::gidx>& rowptr = a.rowptr();
    const std::vector<kdr::gidx>& cols = a.cols();
    const std::vector<double>& vals = a.entries();
    double sum = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        double ax = 0.0;
        for (auto k = static_cast<std::size_t>(rowptr[i]);
             k < static_cast<std::size_t>(rowptr[i + 1]); ++k) {
            ax += vals[k] * x[static_cast<std::size_t>(cols[k])];
        }
        const double r = b[i] - ax;
        sum += r * r;
    }
    return std::sqrt(sum);
}

struct PlainCgResult {
    int iterations = 0;
    double residual = 0.0; ///< recurrence ‖r‖₂ at exit
    double true_residual = 0.0;
    double host_s = 0.0;
};

/// Textbook single-threaded CG (x₀ = 0) on raw CSR arrays: the host
/// reference the task-runtime solves are compared against.
[[nodiscard]] inline PlainCgResult plain_cg(const kdr::CsrMatrix<double>& a,
                                            const std::vector<double>& b, double tol,
                                            int max_iterations) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<kdr::gidx>& rowptr = a.rowptr();
    const std::vector<kdr::gidx>& cols = a.cols();
    const std::vector<double>& vals = a.entries();
    const std::size_t n = b.size();
    std::vector<double> x(n, 0.0), r(b), p(b), ap(n, 0.0);
    const auto dot = [n](const std::vector<double>& u, const std::vector<double>& v) {
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) s += u[i] * v[i];
        return s;
    };
    double rr = dot(r, r);
    PlainCgResult out;
    while (std::sqrt(rr) > tol && out.iterations < max_iterations) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (auto k = static_cast<std::size_t>(rowptr[i]);
                 k < static_cast<std::size_t>(rowptr[i + 1]); ++k) {
                s += vals[k] * p[static_cast<std::size_t>(cols[k])];
            }
            ap[i] = s;
        }
        const double alpha = rr / dot(p, ap);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        const double rr_next = dot(r, r);
        const double beta = rr_next / rr;
        rr = rr_next;
        for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
        ++out.iterations;
    }
    out.host_s = seconds_since(t0);
    out.residual = std::sqrt(rr);
    out.true_residual = true_residual(a, x, b);
    return out;
}

} // namespace kdrbench
