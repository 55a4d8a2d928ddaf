/**
 * @file
 * Multi-tenant GPU runs: N tenants, each a (workload, params) pair with
 * its own address space(s) in one shared Vm, its own captured kernel
 * round, and a deterministic seeded arrival process, scheduled onto one
 * persistent memory system.  Every scheduler slot transition applies a
 * sweepable switch policy (built on the kernel-boundary layer), and an
 * optional shootdown-storm injector fires periodic cross-tenant protect
 * bursts through the Vm's shootdown callbacks — the serving-style
 * contention regime (MPS-style sharing, Mosaic's multi-application
 * setting) where translation filtering is most stressed.
 *
 * Construction mirrors runScenario: the whole schedule is materialized
 * as one combined trace (per-tenant op logs rebased onto fresh ASIDs,
 * kernels interleaved in slot order, boundary markers between slots)
 * and replayed through runSource, so a tenant run is bit-deterministic
 * by construction and N=1/keep-all/no-storm degenerates to the exact
 * trace runScenario would build.
 */

#ifndef GVC_HARNESS_TENANTS_HH
#define GVC_HARNESS_TENANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "mmu/boundary.hh"

namespace gvc
{

/**
 * What happens to translation/cache state when the scheduler switches
 * tenants.  The first three map directly onto BoundaryPolicy presets;
 * per-ASID shootdown instead leaves shared state resident and tears
 * down only the outgoing tenant's translations through the Vm's full
 * shootdown listeners (the OS-directed selective path).
 */
enum class SwitchPolicy {
    kKeepAll,       ///< Tagged state survives the switch untouched.
    kFlushL1,       ///< Drop the (virtual) L1s only.
    kFlushAll,      ///< Cold-start: flush L1+L2+FBT, shoot down TLBs.
    kAsidShootdown, ///< Vm::shootdownAll on the outgoing tenant's ASIDs.
};

/** Stable hyphenated name ("keep-all", ..., "asid-shootdown"). */
const char *switchPolicyName(SwitchPolicy p);

/** switchPolicyName inverse; case- and '-'/'_'-insensitive. */
bool switchPolicyFromName(const std::string &name, SwitchPolicy &out);

/** The boundary policy a switch applies (keep-all for ASID shootdown:
 *  the teardown happens through the Vm, not the boundary layer). */
BoundaryPolicy switchBoundary(SwitchPolicy p);

/** Deterministic seeded kernel-round arrival process, per tenant. */
struct ArrivalSpec
{
    enum class Kind {
        kFixed,   ///< Round r arrives at phase*t + interval*r.
        kPoisson, ///< Seeded random inter-arrivals with mean `interval`.
    };

    Kind kind = Kind::kFixed;
    /** Inter-arrival spacing (fixed) or mean (poisson), in ticks. */
    Tick interval = 0;
    /** Per-tenant stream stagger: tenant t's arrivals shift by t*phase. */
    Tick phase = 0;
    /** Poisson-like draw seed (split per tenant, SplitMix-style). */
    std::uint64_t seed = 0xa221ull;
};

const char *arrivalKindName(ArrivalSpec::Kind k);
bool arrivalKindFromName(const std::string &name, ArrivalSpec::Kind &out);

/**
 * Shootdown-storm injector: every `period` scheduler boundaries, bounce
 * `pages` randomly chosen mapped pages (across all tenants' writable
 * anonymous regions) to read-only and back.  Each bounced page fires
 * two per-page shootdowns through every subscribed structure — TLBs,
 * IOMMU, FBT/virtual caches — without changing the final VM image.
 */
struct StormSpec
{
    unsigned pages = 0;  ///< Pages bounced per burst (0 disables).
    unsigned period = 1; ///< Burst every this many boundaries.
    std::uint64_t seed = 0x5702ull;
};

/** One tenant: a workload identity plus its generation parameters. */
struct TenantSpec
{
    std::string workload;
    WorkloadParams params;
};

/** Slot ordering discipline. */
enum class TenantSched {
    kSerial,     ///< Tenant 0's rounds, then tenant 1's, ...
    kFifo,       ///< Earliest arrival first (ties: lowest tenant id).
    kRoundRobin, ///< Round 0 of every tenant, then round 1, ...
};

const char *tenantSchedName(TenantSched s);
bool tenantSchedFromName(const std::string &name, TenantSched &out);

/** A complete multi-tenant run description. */
struct TenantsSpec
{
    std::vector<TenantSpec> tenants;
    /** Kernel rounds per tenant (>= 1). */
    unsigned rounds = 2;
    TenantSched sched = TenantSched::kFifo;
    ArrivalSpec arrival;
    SwitchPolicy switch_policy = SwitchPolicy::kKeepAll;
    StormSpec storm;
};

/**
 * Execute @p spec under @p cfg (design/soc; `cfg.workload`/`trace_in`
 * are ignored — each tenant brings its own params).  The result carries
 * per-slot KernelStats deltas in `kernels` (as any scenario run does),
 * per-tenant aggregates in `tenants` that sum field-exactly to the
 * cumulative totals, and the context-switch/storm counters.  The
 * simulation seed is tenant 0's workload seed.  @p inspect runs after
 * the last slot drains, as in runSource.
 */
RunResult runTenants(const TenantsSpec &spec, const RunConfig &cfg,
                     const InspectFn &inspect = {});

} // namespace gvc

#endif // GVC_HARNESS_TENANTS_HH
