/**
 * @file
 * The four benchmark workloads and the run that measures one of them.
 * Every simulation goes through the harness's public entry points
 * (runWorkload, runSource, runTenants, Sweep); the traced run adds
 * spans around those calls and replays each workload's captured
 * streams through standalone component objects.  Nothing here reaches
 * inside the simulator.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core.hh"

namespace hostbench
{

/** How to measure one workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;   ///< Timed repetitions run at least this long.
    bool traced = false;     ///< Per-layer run instead of end-to-end.
    std::string reference;   ///< Stored reference counters (JSON).
    std::string scratch;     ///< Directory for trace files; must exist.
    std::string spans_out;   ///< Traced run: where spans are written.
    std::map<std::string, std::string> fingerprint;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Set up, time, check and (when traced) profile one workload. */
Report measure(const Options &opts);

/**
 * Run every workload once per seed, untimed, and return each
 * simulation's counters.  This is how the stored reference is made.
 */
Reference recordReference(const std::vector<std::uint64_t> &seeds,
                          const std::string &scratch);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
