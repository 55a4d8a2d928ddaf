/**
 * @file
 * The benchmark's own plumbing, kept apart from the workloads so tests
 * can drive it directly: order statistics, the exact-counter gate
 * behind `failed_frac`, the stored reference, host-time spans with
 * self-time arithmetic, and the report with its JSON form.
 */

#ifndef HOSTBENCH_CORE_HH
#define HOSTBENCH_CORE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/bench.hh"
#include "harness/results_io.hh"
#include "harness/scenario.hh"

namespace hostbench
{

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Moves the calling thread round the CPUs it may run on, one CPU per
 * next(), and gives it back all of them when destroyed.  On a shared
 * host each vCPU's speed drifts on its own, by up to a third over tens
 * of seconds; a single-threaded run left on one vCPU takes that one's
 * speed for the whole run, while repetitions spread over every vCPU
 * sample all of them.  A no-op where affinity cannot be set.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin the calling thread to the next CPU of its original set. */
    void next();

  private:
    std::vector<int> cpus_;
    std::size_t step_ = 0;
};

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> v);

/**
 * Median over simulations of each simulation's median host time:
 * @p per_sim[i] holds simulation i's time in every repetition.  A
 * pooled median of a workload with a few simulations of different
 * lengths lands between the longest short one and the shortest long
 * one, so it swings with host noise; this one does not.
 */
double medianOfMedians(const std::vector<std::vector<double>> &per_sim);

/**
 * Nearest-rank 90th percentile, only when at least @p min_beyond
 * samples lie strictly beyond its rank: with n samples the rank is
 * ceil(0.9 n), so n - rank samples are beyond it.  Empty otherwise, so
 * a tail figure is never reported from too few samples.
 */
std::optional<double> p90WithTail(std::vector<double> v,
                                  std::size_t min_beyond = 10);

/**
 * One simulation's deterministic counters: the 13 BenchCounters
 * totals plus the per-kernel and per-tenant deltas of scenario and
 * multi-tenant runs.
 */
struct SimCounters
{
    gvc::BenchCounters totals;
    std::vector<gvc::KernelStats> kernels;
    std::vector<gvc::TenantStats> tenants;

    static SimCounters fromResult(const gvc::RunResult &r);

    gvc::Json toJson() const;
    static bool fromJson(const gvc::Json &j, SimCounters &out,
                         std::string *err);

    bool operator==(const SimCounters &o) const;
    bool operator!=(const SimCounters &o) const { return !(*this == o); }
};

/** Simulation id -> counters, for one (workload, seed). */
using CounterTable = std::map<std::string, SimCounters>;

/**
 * Stored reference counters: workload -> seed -> simulation id.  The
 * workload scales are stamped in too, so a reference taken at another
 * size is refused rather than silently mismatching.
 */
struct Reference
{
    std::map<std::string, double> scales;
    std::map<std::string, std::map<std::uint64_t, CounterTable>> tables;

    const CounterTable *find(const std::string &workload,
                             std::uint64_t seed) const;

    gvc::Json toJson() const;
    static bool fromJson(const gvc::Json &j, Reference &out,
                         std::string *err);
    static bool load(const std::string &path, Reference &out,
                     std::string *err);
    bool save(const std::string &path, std::string *err) const;
};

/**
 * The correctness gate.  Every simulation the benchmark runs passes
 * through check(); a mismatch is recorded, never fatal, so one bad
 * counter shows up as failed/attempted instead of losing the run.
 * With a reference table the counters must equal it; without one they
 * must equal the first occurrence of the same id in this process
 * (repetitions are identical).
 */
class CounterGate
{
  public:
    explicit CounterGate(const CounterTable *reference = nullptr)
        : reference_(reference)
    {
    }

    /** Count one simulation and check it; true when it matched. */
    bool check(const std::string &id, const SimCounters &c);

    /**
     * Count one extra check simulation (a live run against its
     * replay): it fails when @p a and @p b differ.
     */
    bool checkPair(const std::string &id, const SimCounters &a,
                   const SimCounters &b);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    const CounterTable *reference_;
    std::map<std::string, SimCounters> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** One traced interval of host time. */
struct Span
{
    std::string name;   ///< "<layer>.<call>", e.g. "sim.drain".
    double start = 0.0; ///< Seconds, steady clock.
    double end = 0.0;
    int parent = -1;    ///< Index into the span list, -1 for a root.
    std::uint64_t sim = 0; ///< Simulation id (0: not per-simulation).

    double duration() const { return end - start; }
    /** Layer name: the part of `name` before the first '.'. */
    std::string layer() const;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children (children clipped to the
 * parent, overlapping children counted once).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Collects spans in memory; written out once at the end.  Not
 * thread-safe: callers on worker threads serialize through their own
 * lock (the Sweep cell hook already runs under one).
 */
class Tracer
{
  public:
    /** Open a span under @p parent (-1: root); returns its index. */
    int begin(std::string name, int parent = -1, std::uint64_t sim = 0);
    void end(int span);
    /** Record an already-measured interval. */
    int add(std::string name, double start, double end, int parent = -1,
            std::uint64_t sim = 0);

    const std::vector<Span> &spans() const { return spans_; }
    gvc::Json toJson() const;

  private:
    std::vector<Span> spans_;
};

/** One named figure of a report. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0; ///< Timings: how many samples; else 0.

    bool operator==(const Metric &o) const = default;
};

/** Everything one benchmark process measured and checked. */
struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    bool traced = false;
    double seconds = 0.0;
    std::map<std::string, std::string> fingerprint;
    /** "stored" (reference counters) or "fallback" (no reference). */
    std::string reference;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    bool correct() const { return failed == 0 && attempted > 0; }
    double failedFrac() const
    {
        return attempted ? double(failed) / double(attempted) : 0.0;
    }
    void add(std::string name, double value, std::string unit,
             std::uint64_t samples = 0);
    const Metric *find(const std::string &name) const;

    gvc::Json toJson() const;
    static bool fromJson(const gvc::Json &j, Report &out,
                         std::string *err);

    bool operator==(const Report &o) const = default;
};

} // namespace hostbench

#endif // HOSTBENCH_CORE_HH
