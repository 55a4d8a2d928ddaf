#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cache/cache_array.hh"
#include "core/fbt.hh"
#include "gpu/coalescer.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "harness/tenants.hh"
#include "mem/phys_mem.hh"
#include "mem/vm.hh"
#include "sim/logging.hh"
#include "tlb/tlb.hh"
#include "trace/kernel_source.hh"

namespace hostbench
{

namespace
{

using gvc::MmuDesign;
using gvc::RunConfig;
using gvc::RunResult;
namespace trace = gvc::trace;

// Sizes.  The graph workloads are the BENCH_PR10.json cells (scale 1),
// so their reference counters can be cross-checked against that file.
// The tenant and sweep sizes keep one repetition at a few seconds on a
// 4-core host, so a 25-second run holds several repetitions.
constexpr double kGraphScale = 1.0;
constexpr double kTenantScale = 0.1;
constexpr unsigned kTenantRounds = 6;
constexpr unsigned kTenantStormPages = 64;
constexpr double kSweepScale = 0.5;
// Set-up is short, so its median needs several samples to be steady.
constexpr unsigned kSetupRepeats = 5;

const std::vector<std::string> kGraphInputs = {"pagerank", "bfs"};
const std::vector<std::string> kRegularInputs = {
    "hotspot", "lud", "nw", "pathfinder", "kmeans", "backprop"};
const std::vector<MmuDesign> kAllDesigns = {
    MmuDesign::kIdeal,          MmuDesign::kBaseline512,
    MmuDesign::kBaseline16K,    MmuDesign::kBaselineLargeTlb,
    MmuDesign::kVcNoOpt,        MmuDesign::kVcOpt,
    MmuDesign::kL1Vc32,         MmuDesign::kL1Vc128,
    MmuDesign::kBase2MB,        MmuDesign::kBaseCoalesced,
    MmuDesign::kBaseVictima};

std::string
simId(const std::string &workload, MmuDesign d)
{
    return workload + "/" + gvc::designName(d);
}

RunConfig
configOf(MmuDesign d, const gvc::WorkloadParams &params)
{
    RunConfig cfg;
    cfg.design = d;
    cfg.workload = params;
    return cfg;
}

/** One simulation of a repetition. */
struct Sim
{
    std::string id;
    RunConfig cfg;
    RunResult result;
};

/** What one repetition of a workload's timed body produced. */
struct RepOut
{
    std::vector<Sim> sims;
    std::vector<double> cell_s; ///< Host seconds per simulation, as sims.
    double export_s = 0.0;
    double journal_s = 0.0;
    std::size_t memo_hits = 0;
};

/** One captured input stream of a workload. */
struct Input
{
    std::string workload;
    gvc::WorkloadParams params;
    std::shared_ptr<const trace::Trace> trace;
    std::string file; ///< Non-empty when the body replays from a file.
};

/** Share of host time and of page walks due to boundary work. */
struct BoundaryCost
{
    double host_share = 0.0;
    double walk_share = 0.0;
};

/** A simulation the traced run re-drives through a timing source. */
struct Probe
{
    std::shared_ptr<const trace::Trace> trace; ///< Null: live source.
    std::string workload;
    RunConfig cfg;
};

/** Time @p f, record a span when tracing, return the seconds. */
template <class F>
double
timed(Tracer *tr, const char *name, int parent, std::uint64_t sim, F &&f)
{
    const double t0 = nowS();
    f();
    const double t1 = nowS();
    if (tr)
        tr->add(name, t0, t1, parent, sim);
    return t1 - t0;
}

class Workload
{
  public:
    Workload(std::uint64_t seed, unsigned jobs) : seed_(seed), jobs_(jobs)
    {
    }
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Untimed set-up: capture (and write) every input stream. */
    virtual void setup() = 0;

    /** One repetition of the timed body. */
    virtual RepOut rep(Tracer *tr, int parent) = 0;

    /**
     * Replay-against-live checks, once per run and outside timing.
     * @p fallback: no stored reference for this seed.
     */
    virtual void check(CounterGate &gate, const RepOut &first,
                       bool fallback) = 0;

    /** Simulations the traced run re-drives for the sim.* figures. */
    virtual std::vector<Probe> probes() const = 0;

    /** Design whose geometry the component replays use. */
    virtual MmuDesign geometry() const = 0;

    /** Workload scale, stamped into the reference. */
    virtual double scale() const = 0;

    /** What boundary work costs (tenant-churn only; zero elsewhere). */
    virtual BoundaryCost boundaryCost() { return {}; }

    virtual unsigned jobs() const { return 1; }

    const std::vector<Input> &inputs() const { return inputs_; }

  protected:
    gvc::WorkloadParams
    params(double scale) const
    {
        gvc::WorkloadParams p;
        p.scale = scale;
        p.seed = seed_;
        return p;
    }

    void
    capture(const std::vector<std::string> &names, double scale)
    {
        inputs_.clear();
        for (const auto &w : names) {
            inputs_.push_back(Input{
                w, params(scale),
                std::make_shared<const trace::Trace>(
                    trace::captureWorkloadTrace(w, params(scale))),
                {}});
        }
    }

    /**
     * Prove each input replays like the live workload on design @p d.
     * The body's own simulation of the pair (from @p first, when it
     * ran one) stands in for its side; the other side runs here.
     */
    void
    checkReplayAgainstLive(CounterGate &gate, MmuDesign d,
                           const RepOut *first) const
    {
        for (const Input &in : inputs_) {
            const RunConfig cfg = configOf(d, in.params);
            const std::string id = simId(in.workload, d);
            const Sim *body = nullptr;
            for (std::size_t i = 0; first && i < first->sims.size(); ++i)
                if (first->sims[i].id == id)
                    body = &first->sims[i];
            const bool live_body = body && liveBody();
            const bool replay_body = body && !liveBody();
            trace::TraceKernelSource src(in.trace);
            const SimCounters replay = SimCounters::fromResult(
                replay_body ? body->result : gvc::runSource(src, cfg));
            const SimCounters live = SimCounters::fromResult(
                live_body ? body->result
                          : gvc::runWorkload(in.workload, cfg));
            gate.checkPair(id + " (replay vs live)", replay, live);
        }
    }

    /** True when the timed body generates its inputs live. */
    virtual bool liveBody() const { return false; }

    std::uint64_t seed_;
    unsigned jobs_;
    std::vector<Input> inputs_;
};

// --- graph-translate / graph-filter -------------------------------------

class GraphWorkload : public Workload
{
  public:
    GraphWorkload(std::uint64_t seed, bool filter)
        : Workload(seed, 1), filter_(filter)
    {
    }

    void setup() override { capture(kGraphInputs, kGraphScale); }

    RepOut
    rep(Tracer *tr, int parent) override
    {
        RepOut out;
        const MmuDesign d = geometry();
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            const Input &in = inputs_[i];
            Sim s{simId(in.workload, d), configOf(d, in.params), {}};
            double secs;
            if (filter_) {
                secs = timed(tr, "body.runSource", parent, i + 1, [&] {
                    trace::TraceKernelSource src(in.trace);
                    s.result = gvc::runSource(src, s.cfg);
                });
            } else {
                secs = timed(tr, "body.runWorkload", parent, i + 1,
                             [&] {
                                 s.result =
                                     gvc::runWorkload(in.workload, s.cfg);
                             });
            }
            out.cell_s.push_back(secs);
            out.sims.push_back(std::move(s));
        }
        return out;
    }

    void
    check(CounterGate &gate, const RepOut &first, bool fallback) override
    {
        // graph-filter always proves its replay equals a live run; the
        // live graph-translate body only needs it without a reference.
        if (filter_ || fallback)
            checkReplayAgainstLive(gate, geometry(), &first);
    }

    std::vector<Probe>
    probes() const override
    {
        std::vector<Probe> out;
        for (const Input &in : inputs_) {
            out.push_back(Probe{filter_ ? in.trace : nullptr, in.workload,
                                configOf(geometry(), in.params)});
        }
        return out;
    }

    MmuDesign
    geometry() const override
    {
        return filter_ ? MmuDesign::kVcOpt : MmuDesign::kBaseline512;
    }

    double scale() const override { return kGraphScale; }

  protected:
    bool liveBody() const override { return !filter_; }

  private:
    bool filter_;
};

// --- tenant-churn ---------------------------------------------------------

class TenantWorkload : public Workload
{
  public:
    explicit TenantWorkload(std::uint64_t seed) : Workload(seed, 1) {}

    void
    setup() override
    {
        capture(kGraphInputs, kTenantScale);
        spec_ = gvc::TenantsSpec{};
        for (const Input &in : inputs_)
            spec_.tenants.push_back(gvc::TenantSpec{in.workload, in.params});
        spec_.rounds = kTenantRounds;
        spec_.sched = gvc::TenantSched::kFifo;
        spec_.arrival.kind = gvc::ArrivalSpec::Kind::kPoisson;
        spec_.arrival.interval = 1000;
        spec_.switch_policy = gvc::SwitchPolicy::kAsidShootdown;
        spec_.storm.pages = kTenantStormPages;
        spec_.storm.period = 1;
        // Arrivals and storms keep runTenants' default seeds, so every
        // seed runs the same schedule; the seed varies the tenants'
        // inputs.  Seeded schedules changed the number of tenant
        // switches, and with it the page walks by up to 2x.
    }

    RepOut
    rep(Tracer *tr, int parent) override
    {
        RepOut out;
        for (std::size_t i = 0; i < designs_.size(); ++i) {
            Sim s{simId(name(), designs_[i]),
                  configOf(designs_[i], inputs_[0].params), {}};
            out.cell_s.push_back(
                timed(tr, "body.runTenants", parent, i + 1,
                      [&] { s.result = gvc::runTenants(spec_, s.cfg); }));
            out.sims.push_back(std::move(s));
        }
        return out;
    }

    void
    check(CounterGate &gate, const RepOut &, bool fallback) override
    {
        // runTenants replays each tenant's captured round; without a
        // reference, prove those rounds replay like the live workloads.
        if (fallback)
            for (const MmuDesign d : designs_)
                checkReplayAgainstLive(gate, d, nullptr);
    }

    std::vector<Probe>
    probes() const override
    {
        std::vector<Probe> out;
        for (const MmuDesign d : designs_)
            for (const Input &in : inputs_)
                out.push_back(
                    Probe{in.trace, in.workload, configOf(d, in.params)});
        return out;
    }

    MmuDesign geometry() const override { return MmuDesign::kBaseline512; }
    double scale() const override { return kTenantScale; }

    BoundaryCost
    boundaryCost() override
    {
        // The same tenants with the boundary work switched off: no
        // per-ASID shootdowns, no storms.  The difference is what the
        // boundary work costs, downstream refills included.  Timings
        // alternate four times and take medians, so host noise hits
        // both sides; the page-walk counts are exact.
        gvc::TenantsSpec quiet = spec_;
        quiet.switch_policy = gvc::SwitchPolicy::kKeepAll;
        quiet.storm.pages = 0;
        std::vector<double> full, calm;
        std::uint64_t walks_full = 0, walks_calm = 0;
        for (int k = 0; k < 4; ++k) {
            for (const gvc::TenantsSpec *s : {&spec_, &quiet}) {
                std::uint64_t walks = 0;
                (s == &spec_ ? full : calm).push_back(timed(
                    nullptr, "", -1, 0, [&] {
                        for (const MmuDesign d : designs_)
                            walks += gvc::runTenants(
                                         *s,
                                         configOf(d, inputs_[0].params))
                                         .page_walks;
                    }));
                (s == &spec_ ? walks_full : walks_calm) = walks;
            }
        }
        return BoundaryCost{
            1.0 - median(calm) / median(full),
            walks_full ? 1.0 - double(walks_calm) / double(walks_full)
                       : 0.0};
    }

  private:
    static std::string name() { return "pagerank+bfs"; }

    const std::vector<MmuDesign> designs_ = {MmuDesign::kBaseline512,
                                             MmuDesign::kVcOpt};
    gvc::TenantsSpec spec_;
};

// --- regular-sweep ----------------------------------------------------------

class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::uint64_t seed, unsigned jobs,
                  const std::string &scratch)
        : Workload(seed, jobs), scratch_(scratch)
    {
    }

    void
    setup() override
    {
        capture(kRegularInputs, kSweepScale);
        for (Input &in : inputs_) {
            in.file = scratch_ + "/" + in.workload + ".gvct";
            std::string err;
            if (!trace::TraceWriter::writeFile(in.file, *in.trace, &err))
                gvc::fatal("hostbench: " + err);
        }
    }

    RepOut
    rep(Tracer *tr, int parent) override
    {
        RepOut out;
        gvc::Sweep sweep(jobs_);
        sweep.setProgress(false);
        sweep.setCapture(false);
        std::vector<std::string> ids, keys;
        std::vector<RunConfig> cfgs;
        for (const Input &in : inputs_) {
            for (const MmuDesign d : kAllDesigns) {
                RunConfig cfg = configOf(d, in.params);
                cfg.trace_in = in.file;
                ids.push_back(simId(in.workload, d));
                keys.push_back(gvc::runConfigKey(in.workload, cfg));
                cfgs.push_back(cfg);
                sweep.add(in.workload, cfg);
            }
        }

        // The hook runs under the sweep's mutex on the worker that
        // finished the cell; that worker started its cell when its
        // previous hook returned, so the gap is the cell's host time.
        const int sweep_span = tr ? tr->begin("body.Sweep.run", parent)
                                  : -1;
        std::map<std::thread::id, double> free_since;
        out.cell_s.assign(sweep.size(), 0.0);
        const double start = nowS();
        std::size_t journal_bytes = 0;
        sweep.setCellHook([&](std::size_t idx, const RunResult &r) {
            const double t = nowS();
            double &since =
                free_since.emplace(std::this_thread::get_id(), start)
                    .first->second;
            out.cell_s[idx] = t - since;
            int hook = -1;
            if (tr) {
                tr->add("body.cell", since, t, sweep_span, idx + 1);
                hook = tr->begin("harness.cell_hook", sweep_span, idx + 1);
            }
            out.journal_s += timed(tr, "harness.journalFrame", hook, idx + 1,
                                   [&] {
                                       journal_bytes +=
                                           gvc::journalFrame(
                                               keys[idx],
                                               gvc::ResultRecord{cfgs[idx],
                                                                 r})
                                               .size();
                                   });
            if (tr)
                tr->end(hook);
            since = nowS();
        });
        sweep.run();
        if (tr)
            tr->end(sweep_span);

        std::size_t export_bytes = 0;
        const auto records = sweep.records();
        out.export_s += timed(tr, "harness.resultsToJson", parent, 0, [&] {
            gvc::ExportMeta meta;
            meta.generator = "hostbench";
            meta.workloads = kRegularInputs;
            for (const MmuDesign d : kAllDesigns)
                meta.designs.push_back(gvc::designName(d));
            meta.scale = kSweepScale;
            meta.seed = seed_;
            meta.jobs = sweep.jobs();
            export_bytes += gvc::resultsToJson(meta, records).dump(2).size();
        });
        out.export_s += timed(tr, "harness.resultsToCsv", parent, 0, [&] {
            export_bytes += gvc::resultsToCsv(records).size();
        });
        if (journal_bytes == 0 || export_bytes == 0)
            gvc::fatal("hostbench: sweep produced no journal or export");

        out.memo_hits = sweep.size() - sweep.uniqueRuns();
        for (std::size_t i = 0; i < sweep.size(); ++i)
            out.sims.push_back(Sim{ids[i], cfgs[i], sweep.result(i)});
        return out;
    }

    void
    check(CounterGate &gate, const RepOut &first, bool fallback) override
    {
        if (fallback)
            checkReplayAgainstLive(gate, MmuDesign::kBaseline512, &first);
    }

    std::vector<Probe>
    probes() const override
    {
        std::vector<Probe> out;
        for (const Input &in : inputs_)
            for (const MmuDesign d : kAllDesigns)
                out.push_back(
                    Probe{in.trace, in.workload, configOf(d, in.params)});
        return out;
    }

    MmuDesign geometry() const override { return MmuDesign::kBaseline512; }
    double scale() const override { return kSweepScale; }
    unsigned jobs() const override { return jobs_; }

  private:
    std::string scratch_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &scratch)
{
    if (name == "graph-translate")
        return std::make_unique<GraphWorkload>(seed, false);
    if (name == "graph-filter")
        return std::make_unique<GraphWorkload>(seed, true);
    if (name == "tenant-churn")
        return std::make_unique<TenantWorkload>(seed);
    if (name == "regular-sweep")
        return std::make_unique<SweepWorkload>(
            seed, std::clamp(std::thread::hardware_concurrency(), 1u, 4u),
            scratch);
    gvc::fatal("hostbench: unknown workload '" + name + "'");
}

// --- traced run: probes --------------------------------------------------

/**
 * Wraps a KernelSource to timestamp the runner's calls into it:
 * setup() is the source's own work, the gap from setup() returning to
 * kernels() being pulled is the construction of Dram,
 * SystemUnderTest and Gpu, and kernels() to the InspectFn is the
 * event-queue drain.
 */
class TimedSource final : public trace::KernelSource
{
  public:
    TimedSource(trace::KernelSource &inner, Tracer &tr, int parent,
                std::uint64_t sim, const char *setup_span)
        : inner_(inner), tr_(tr), parent_(parent), sim_(sim),
          setup_span_(setup_span)
    {
    }

    std::string name() const override { return inner_.name(); }
    const gvc::WorkloadParams &params() const override
    {
        return inner_.params();
    }
    const std::vector<trace::TraceBoundary> &
    boundaries() const override
    {
        return inner_.boundaries();
    }

    void
    setup(gvc::Vm &vm) override
    {
        const double t0 = nowS();
        inner_.setup(vm);
        setup_end_ = nowS();
        tr_.add(setup_span_, t0, setup_end_, parent_, sim_);
    }

    std::vector<gvc::KernelLaunch>
    kernels() override
    {
        drain_start_ = nowS();
        tr_.add("mmu.build", setup_end_, drain_start_, parent_, sim_);
        return inner_.kernels();
    }

    double drainStart() const { return drain_start_; }
    double buildSeconds() const { return drain_start_ - setup_end_; }

  private:
    trace::KernelSource &inner_;
    Tracer &tr_;
    int parent_;
    std::uint64_t sim_;
    const char *setup_span_;
    double setup_end_ = 0.0;
    double drain_start_ = 0.0;
};

struct ProbeTotals
{
    double drain_s = 0.0, build_s = 0.0, collect_s = 0.0, run_s = 0.0;
    std::uint64_t events = 0, l1_accesses = 0, sims = 0;
    // Simulated operation counts, for the layer-share estimates.
    std::uint64_t percu = 0, percu_miss = 0, iommu = 0, fbt = 0;
};

ProbeTotals
runProbes(const std::vector<Probe> &probes, Tracer &tr)
{
    ProbeTotals tot;
    std::uint64_t sim = 1000;
    for (const Probe &p : probes) {
        ++sim;
        std::unique_ptr<trace::KernelSource> inner;
        if (p.trace)
            inner = std::make_unique<trace::TraceKernelSource>(p.trace);
        else
            inner = std::make_unique<trace::WorkloadKernelSource>(
                p.workload, p.cfg.workload);
        const int root = tr.begin("harness.runSource", -1, sim);
        TimedSource src(*inner, tr, root, sim,
                        p.trace ? "trace.setup" : "workloads.setup");
        double collect_start = 0.0;
        const RunResult r = gvc::runSource(
            src, p.cfg, [&](gvc::SystemUnderTest &, gvc::Gpu &,
                            gvc::SimContext &ctx) {
                collect_start = nowS();
                tr.add("sim.drain", src.drainStart(), collect_start, root,
                       sim);
                tot.events += ctx.eq.executed();
            });
        const double end = nowS();
        tr.add("harness.collect", collect_start, end, root, sim);
        tr.end(root);
        const Span &s = tr.spans()[std::size_t(root)];
        tot.run_s += s.duration();
        tot.drain_s += collect_start - src.drainStart();
        tot.collect_s += end - collect_start;
        tot.build_s += src.buildSeconds();
        tot.l1_accesses += r.l1_accesses;
        tot.percu += r.tlb_accesses;
        tot.percu_miss += r.tlb_misses;
        tot.iommu += r.iommu_accesses;
        tot.fbt += r.fbt_lookups;
        ++tot.sims;
    }
    return tot;
}

// --- traced run: component replays ----------------------------------------

/** Host time and call count of one component's replay. */
struct OpTimer
{
    double s = 0.0;
    std::uint64_t ops = 0;
    double ns() const { return ops ? s * 1e9 / double(ops) : 0.0; }
};

struct ComponentTimes
{
    OpTimer coalesce, percu, iommu, invalidate, translate, l1, l2, fbt;
};

constexpr std::size_t kMaxRefsPerInput = 200000;
constexpr std::size_t kMaxInvalidations = 20000;

/**
 * Replay one captured input through standalone components with the
 * design's geometry: the coalescer on every memory instruction (warps
 * interleaved instruction by instruction within a kernel, warp w on
 * CU w mod num_cus), per-CU TLBs on the coalesced lines, the IOMMU TLB
 * and the functional walk on the per-CU miss stream, L1/L2 arrays on
 * the lines, and the FBT on the L2 misses.
 */
void
replayInput(const Input &in, const gvc::SocConfig &soc, Tracer &tr,
            ComponentTimes &t)
{
    const unsigned cus = soc.gpu.num_cus;
    struct Ref
    {
        unsigned cu;
        gvc::Asid asid;
        bool store;
        const gvc::WarpInst *inst;
    };
    std::vector<Ref> refs;
    for (const trace::TraceKernel &k : in.trace->kernels) {
        std::size_t longest = 0;
        for (const auto &w : k.warps)
            longest = std::max(longest, w.size());
        for (std::size_t i = 0; i < longest; ++i) {
            for (std::size_t w = 0; w < k.warps.size(); ++w) {
                if (i >= k.warps[w].size())
                    continue;
                const gvc::WarpInst &inst = k.warps[w][i];
                if (inst.op != gvc::WarpOp::kLoad &&
                    inst.op != gvc::WarpOp::kStore)
                    continue;
                if (refs.size() < kMaxRefsPerInput)
                    refs.push_back(Ref{unsigned(w % cus), k.asid,
                                       inst.op == gvc::WarpOp::kStore,
                                       &inst});
            }
        }
    }

    gvc::Coalescer co;
    std::size_t sink = 0;
    t.coalesce.s += timed(&tr, "gpu.coalesce", -1, 0, [&] {
        for (const Ref &r : refs)
            sink += co.coalesce(r.inst->lane_addrs).size();
    });
    t.coalesce.ops += refs.size();

    // Untimed: the line stream and each line's translation.
    gvc::PhysMem pm(soc.phys_mem_bytes);
    gvc::Vm vm(pm);
    vm.setPagePolicy(gvc::Vm::PagePolicy(soc.vm_page_policy));
    gvc::applyVmOps(vm, in.trace->vm_ops);
    struct Line
    {
        unsigned cu;
        gvc::Asid asid;
        bool store;
        gvc::Vaddr va;
        gvc::TlbLookup xl;
    };
    std::vector<Line> lines;
    std::unordered_map<std::uint64_t, gvc::TlbLookup> xlate;
    for (const Ref &r : refs) {
        for (const gvc::Vaddr va : co.coalesce(r.inst->lane_addrs)) {
            const std::uint64_t key =
                (std::uint64_t(r.asid) << 52) ^ gvc::pageOf(va);
            auto it = xlate.find(key);
            if (it == xlate.end()) {
                const auto x = vm.translate(r.asid, va);
                if (!x)
                    continue;
                it = xlate.emplace(key, gvc::TlbLookup{x->ppn, x->perms,
                                                       x->large})
                         .first;
            }
            lines.push_back(Line{r.cu, r.asid, r.store, va, it->second});
        }
    }

    std::vector<std::unique_ptr<gvc::Tlb>> percu;
    for (unsigned i = 0; i < cus; ++i) {
        percu.push_back(std::make_unique<gvc::Tlb>(gvc::TlbParams{
            soc.percu_tlb_entries, soc.percu_tlb_assoc,
            soc.percu_tlb_infinite, false, soc.translation_memo,
            soc.tlb_max_reach, soc.tlb_merge_on_insert,
            soc.percu_tlb_fill_policy, soc.tlb_replacement}));
    }
    const gvc::IommuParams io = soc.iommuParams();
    gvc::Tlb iommu(gvc::TlbParams{io.tlb_entries, io.tlb_assoc,
                                  io.tlb_infinite, false, io.tlb_memo,
                                  io.tlb_max_reach, io.tlb_merge_on_insert,
                                  io.tlb_fill_policy, io.tlb_replacement});
    std::vector<std::size_t> misses;
    misses.reserve(lines.size());
    gvc::Tick now = 0;
    t.percu.s += timed(&tr, "tlb.percu_lookup", -1, 0, [&] {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const Line &l = lines[i];
            const gvc::Vpn vpn = gvc::pageOf(l.va);
            if (!percu[l.cu]->lookup(l.asid, vpn, ++now)) {
                percu[l.cu]->insert(l.asid, vpn, l.xl, now);
                misses.push_back(i);
            }
        }
    });
    t.percu.ops += lines.size();
    t.iommu.s += timed(&tr, "tlb.iommu_lookup", -1, 0, [&] {
        for (const std::size_t i : misses) {
            const Line &l = lines[i];
            const gvc::Vpn vpn = gvc::pageOf(l.va);
            if (!iommu.lookup(l.asid, vpn, ++now))
                iommu.insert(l.asid, vpn, l.xl, now);
        }
    });
    t.iommu.ops += misses.size();
    t.translate.s += timed(&tr, "mem.translate", -1, 0, [&] {
        for (const std::size_t i : misses) {
            const auto x = vm.translate(lines[i].asid, lines[i].va);
            sink += x ? std::size_t(x->ppn) : 0;
        }
    });
    t.translate.ops += misses.size();

    std::vector<std::size_t> l2refs;
    std::vector<std::unique_ptr<gvc::CacheArray>> l1;
    for (unsigned i = 0; i < cus; ++i) {
        l1.push_back(std::make_unique<gvc::CacheArray>(gvc::CacheParams{
            soc.l1_size, soc.l1_assoc, unsigned(gvc::kLineSize), false,
            false, false}));
    }
    t.l1.s += timed(&tr, "cache.l1_access", -1, 0, [&] {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const Line &l = lines[i];
            const bool hit = l1[l.cu]->access(l.asid, l.va, l.store, ++now);
            if (!hit && !l.store)
                l1[l.cu]->insert(l.asid, l.va, l.xl.perms, false, now);
            if (!hit || l.store)
                l2refs.push_back(i);
        }
    });
    t.l1.ops += lines.size();
    gvc::CacheArray l2(gvc::CacheParams{soc.l2_size, soc.l2_assoc,
                                        unsigned(gvc::kLineSize), true,
                                        true, false});
    std::vector<std::size_t> l2miss;
    t.l2.s += timed(&tr, "cache.l2_access", -1, 0, [&] {
        for (const std::size_t i : l2refs) {
            const Line &l = lines[i];
            if (!l2.access(l.asid, l.va, l.store, ++now)) {
                l2.insert(l.asid, l.va, l.xl.perms, l.store, now);
                l2miss.push_back(i);
            }
        }
    });
    t.l2.ops += l2refs.size();

    const std::size_t n_inv = std::min(misses.size(), kMaxInvalidations);
    gvc::Fbt fbt(soc.fbt);
    t.fbt.s += timed(&tr, "core.fbt_op", -1, 0, [&] {
        for (const std::size_t i : l2miss) {
            const Line &l = lines[i];
            fbt.onCacheMiss(l.asid, gvc::pageOf(l.va), l.xl.ppn, l.xl.perms,
                            gvc::lineInPage(l.va), l.store);
        }
        for (const std::size_t i : misses)
            sink += fbt.forwardLookup(lines[i].asid, gvc::pageOf(lines[i].va))
                        ? 1
                        : 0;
        for (std::size_t k = 0; k < n_inv; ++k) {
            const Line &l = lines[misses[k]];
            sink += fbt.shootdownPage(l.asid, gvc::pageOf(l.va)) ? 1 : 0;
        }
    });
    t.fbt.ops += l2miss.size() + misses.size() + n_inv;

    std::vector<gvc::Asid> asids;
    for (const trace::TraceKernel &k : in.trace->kernels)
        if (std::find(asids.begin(), asids.end(), k.asid) == asids.end())
            asids.push_back(k.asid);
    t.invalidate.s += timed(&tr, "tlb.invalidate", -1, 0, [&] {
        for (std::size_t k = 0; k < n_inv; ++k) {
            const Line &l = lines[misses[k]];
            percu[l.cu]->invalidatePage(l.asid, gvc::pageOf(l.va), now);
            iommu.invalidatePage(l.asid, gvc::pageOf(l.va), now);
        }
        for (const gvc::Asid a : asids) {
            for (auto &tlb : percu)
                tlb->invalidateAsid(a, now);
            iommu.invalidateAsid(a, now);
        }
    });
    t.invalidate.ops += 2 * n_inv + asids.size() * (cus + 1);
    if (sink == 0)
        gvc::fatal("hostbench: component replay of '" + in.workload +
                   "' touched nothing");
}

ComponentTimes
replayComponents(const std::vector<Input> &inputs, MmuDesign d,
                 Tracer &tr)
{
    const gvc::SocConfig soc = gvc::configFor(d);
    ComponentTimes t;
    for (const Input &in : inputs)
        replayInput(in, soc, tr, t);
    return t;
}

/** Drain every warp stream of @p src without simulating. */
std::uint64_t
drainStreams(trace::KernelSource &src)
{
    std::uint64_t n = 0;
    gvc::WarpInst inst;
    for (auto &launch : src.kernels())
        for (auto &warp : launch.warps)
            while (warp->next(inst))
                ++n;
    return n;
}

/** Live generation of every input: setup plus all warp streams. */
double
timeGeneration(const std::vector<Input> &inputs, Tracer &tr)
{
    double s = 0.0;
    for (const Input &in : inputs) {
        s += timed(&tr, "workloads.gen", -1, 0, [&] {
            gvc::PhysMem pm(gvc::SocConfig{}.phys_mem_bytes);
            gvc::Vm vm(pm);
            trace::WorkloadKernelSource src(in.workload, in.params);
            src.setup(vm);
            if (drainStreams(src) == 0)
                gvc::fatal("hostbench: '" + in.workload + "' is empty");
        });
    }
    return s;
}

/** Decode every captured stream (reading the file when the body does). */
double
timeDecode(const std::vector<Input> &inputs, Tracer &tr)
{
    double s = 0.0;
    for (const Input &in : inputs) {
        s += timed(&tr, "trace.decode", -1, 0, [&] {
            std::shared_ptr<const trace::Trace> t = in.trace;
            if (!in.file.empty()) {
                auto fresh = std::make_shared<trace::Trace>();
                std::string err;
                if (!trace::TraceReader::readFile(in.file, *fresh, &err))
                    gvc::fatal("hostbench: " + err);
                t = fresh;
            }
            trace::TraceKernelSource src(t);
            if (drainStreams(src) != t->totalInstructions())
                gvc::fatal("hostbench: decode lost instructions");
        });
    }
    return s;
}

// --- measurement -------------------------------------------------------------

/** Exact simulated counts of one repetition, summed over its sims. */
void
addCounts(Report &rep, const RepOut &r)
{
    std::uint64_t insts = 0, mem = 0, percu = 0, percu_miss = 0, iommu = 0,
                  walks = 0, l1 = 0, l2 = 0, dram = 0, fbt = 0, switches = 0,
                  storms = 0;
    double lines = 0.0, wait = 0.0;
    for (const Sim &s : r.sims) {
        const RunResult &x = s.result;
        insts += x.instructions;
        mem += x.mem_instructions;
        lines += x.lines_per_mem_inst * double(x.mem_instructions);
        percu += x.tlb_accesses;
        percu_miss += x.tlb_misses;
        iommu += x.iommu_accesses;
        wait += x.iommu_serialization_mean * double(x.iommu_accesses);
        walks += x.page_walks;
        l1 += x.l1_accesses;
        l2 += x.l2_accesses;
        dram += x.dram_accesses;
        fbt += x.fbt_lookups;
        switches += x.tenant_context_switches;
        storms += x.tenant_storm_pages;
    }
    rep.add("gpu.warp_insts", double(insts), "count");
    rep.add("gpu.lines_per_mem_inst", mem ? lines / double(mem) : 0.0,
            "lines");
    rep.add("tlb.percu_accesses", double(percu), "count");
    rep.add("tlb.percu_misses", double(percu_miss), "count");
    rep.add("tlb.iommu_accesses", double(iommu), "count");
    rep.add("tlb.page_walks", double(walks), "count");
    rep.add("tlb.iommu_wait_cycles_mean", iommu ? wait / double(iommu) : 0.0,
            "cycles");
    rep.add("cache.l1_accesses", double(l1), "count");
    rep.add("cache.l2_accesses", double(l2), "count");
    rep.add("mem.dram_accesses", double(dram), "count");
    rep.add("core.fbt_lookups", double(fbt), "count");
    rep.add("harness.tenant_switches", double(switches), "count");
    rep.add("harness.storm_pages", double(storms), "count");
}

std::uint64_t
warpInsts(const RepOut &r)
{
    std::uint64_t n = 0;
    for (const Sim &s : r.sims)
        n += s.result.instructions;
    return n;
}

/** Export and journal @p r's records as gvc_run/gvc_sweep users do. */
void
timeExport(const RepOut &r, Tracer &tr, double &export_s,
           double &journal_s)
{
    std::vector<gvc::ResultRecord> records;
    for (const Sim &s : r.sims)
        records.push_back(gvc::ResultRecord{s.cfg, s.result});
    std::size_t bytes = 0;
    export_s = timed(&tr, "harness.resultsToJson", -1, 0, [&] {
        bytes += gvc::resultsToJson(gvc::ExportMeta{}, records)
                     .dump(2)
                     .size();
    });
    export_s += timed(&tr, "harness.resultsToCsv", -1, 0, [&] {
        bytes += gvc::resultsToCsv(records).size();
    });
    journal_s = timed(&tr, "harness.journalFrame", -1, 0, [&] {
        for (const auto &rec : records)
            bytes += gvc::journalFrame(rec.result.workload, rec).size();
    });
    if (bytes == 0)
        gvc::fatal("hostbench: empty export");
}

void
writeSpans(const Tracer &tr, const std::string &path)
{
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        gvc::fatal("hostbench: cannot write spans to '" + path + "'");
    const std::string text = tr.toJson().dump(1) + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    if (std::fclose(f) != 0 || !ok)
        gvc::fatal("hostbench: short write to '" + path + "'");
}

/** Per-layer self time (seconds) over every recorded span. */
std::map<std::string, double>
selfByLayer(const Tracer &tr)
{
    std::map<std::string, double> out;
    const auto self = selfTimes(tr.spans());
    for (std::size_t i = 0; i < self.size(); ++i)
        out[tr.spans()[i].layer()] += self[i];
    return out;
}

void
tracedRun(Workload &wl, const Options &o, CounterGate &gate,
          Report &report, RepOut &first)
{
    Tracer tr;
    // Alternate untraced and traced repetitions so drift hits both
    // sides alike; their ratio is the tracing overhead.
    std::vector<double> plain, traced;
    double elapsed = 0.0;
    bool have_first = false;
    double busy_frac = 0.0, export_s = 0.0, journal_s = 0.0;
    std::size_t memo_hits = 0, cells = 0;
    while (plain.empty() || traced.empty() || elapsed < o.seconds) {
        const bool tracing = plain.size() > traced.size();
        int body = tracing ? tr.begin("body.rep") : -1;
        const double t0 = nowS();
        RepOut r = wl.rep(tracing ? &tr : nullptr, body);
        const double wall = nowS() - t0;
        if (tracing)
            tr.end(body);
        elapsed += wall;
        (tracing ? traced : plain).push_back(wall);
        for (const Sim &s : r.sims)
            gate.check(s.id, SimCounters::fromResult(s.result));
        if (tracing) {
            double cell_sum = 0.0;
            for (const double c : r.cell_s)
                cell_sum += c;
            busy_frac = cell_sum / (double(wl.jobs()) * wall);
            export_s = r.export_s;
            journal_s = r.journal_s;
            memo_hits = r.memo_hits;
            cells = r.sims.size();
        }
        if (!have_first) {
            first = std::move(r);
            have_first = true;
        }
    }
    const double wall_plain = median(plain);
    const double wall_traced = median(traced);

    // Bodies without an export of their own (all but regular-sweep) are
    // charged what exporting their records costs a gvc_run --json user.
    if (export_s == 0.0)
        timeExport(first, tr, export_s, journal_s);
    const ProbeTotals p = runProbes(wl.probes(), tr);
    const ComponentTimes c =
        replayComponents(wl.inputs(), wl.geometry(), tr);
    const double gen_s = timeGeneration(wl.inputs(), tr);
    const double decode_s = timeDecode(wl.inputs(), tr);
    double encoded = 0.0;
    for (const Input &in : wl.inputs())
        encoded += double(trace::TraceWriter::serialize(*in.trace).size());
    const BoundaryCost boundary = wl.boundaryCost();

    report.add("sim.drain_s", p.drain_s, "s", p.sims);
    report.add("sim.events", double(p.events), "count");
    report.add("sim.ns_per_event",
               p.events ? p.drain_s * 1e9 / double(p.events) : 0.0, "ns");
    report.add("sim.events_per_l1_access",
               p.l1_accesses ? double(p.events) / double(p.l1_accesses)
                             : 0.0,
               "ratio");
    report.add("workloads.gen_s", gen_s, "s", wl.inputs().size());
    report.add("trace.decode_s", decode_s, "s", wl.inputs().size());
    report.add("trace.encoded_mb", encoded / 1e6, "MB");
    report.add("mmu.build_ms", p.sims ? p.build_s * 1e3 / double(p.sims) : 0,
               "ms", p.sims);
    report.add("harness.collect_ms",
               p.sims ? p.collect_s * 1e3 / double(p.sims) : 0.0, "ms",
               p.sims);
    report.add("harness.export_ms", export_s * 1e3, "ms");
    report.add("harness.journal_ms", journal_s * 1e3, "ms");
    report.add("harness.pool_busy_frac", busy_frac, "share");
    report.add("harness.memo_hit_ratio",
               cells ? double(memo_hits) / double(cells) : 0.0, "share");
    addCounts(report, first);
    report.add("gpu.coalesce_ns", c.coalesce.ns(), "ns");
    report.add("tlb.percu_lookup_ns", c.percu.ns(), "ns");
    report.add("tlb.iommu_lookup_ns", c.iommu.ns(), "ns");
    report.add("tlb.invalidate_ns", c.invalidate.ns(), "ns");
    report.add("mem.translate_ns", c.translate.ns(), "ns");
    report.add("cache.l1_access_ns", c.l1.ns(), "ns");
    report.add("cache.l2_access_ns", c.l2.ns(), "ns");
    report.add("core.fbt_op_ns", c.fbt.ns(), "ns");

    // Layer shares, estimated from outside: a component's replay cost
    // per operation times how often the probed simulations performed
    // it, over their drain time.
    const double tlb_mem =
        (c.percu.ns() * double(p.percu) + c.iommu.ns() * double(p.iommu) +
         c.translate.ns() * double(p.percu_miss)) *
        1e-9;
    report.add("tlb_mem.share", p.drain_s > 0 ? tlb_mem / p.drain_s : 0.0,
               "share");
    report.add("core.share",
               p.drain_s > 0 ? c.fbt.ns() * double(p.fbt) * 1e-9 / p.drain_s
                             : 0.0,
               "share");
    const double per_rep_harness = export_s + journal_s;
    report.add("harness_mmu.share",
               (p.build_s + p.collect_s + per_rep_harness) /
                   (p.run_s + per_rep_harness),
               "share");
    report.add("harness.boundary_share", boundary.host_share, "share");
    report.add("harness.boundary_walk_share", boundary.walk_share, "share");
    report.add("trace.overhead_frac", wall_traced / wall_plain - 1.0,
               "share");

    report.add("wall_s.untraced", wall_plain, "s", plain.size());
    report.add("wall_s.traced", wall_traced, "s", traced.size());
    for (const auto &[layer, s] : selfByLayer(tr))
        report.add("self_s." + layer, s, "s");
    writeSpans(tr, o.spans_out);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "graph-translate", "graph-filter", "tenant-churn", "regular-sweep"};
    return names;
}

Report
measure(const Options &o)
{
    auto wl = makeWorkload(o.workload, o.seed, o.scratch);
    Report report;
    report.workload = o.workload;
    report.seed = o.seed;
    report.traced = o.traced;
    report.seconds = o.seconds;
    report.fingerprint = o.fingerprint;
    report.fingerprint["jobs"] = std::to_string(wl->jobs());

    // Untraced single-threaded set-ups and repetitions each run on the
    // next CPU; the sweep's pool already runs on all of them.
    CpuRotation cpus;
    const bool rotate = !o.traced && wl->jobs() == 1;

    // Set-up is repeated so its median is steady; the last one's
    // inputs are the ones the body uses.
    Reference ref;
    std::vector<double> setup_s;
    const unsigned repeats = o.traced ? 1 : kSetupRepeats;
    for (unsigned i = 0; i < repeats; ++i) {
        if (rotate)
            cpus.next();
        const double t0 = nowS();
        std::string err;
        if (!Reference::load(o.reference, ref, &err))
            gvc::fatal("hostbench: " + err);
        wl->setup();
        setup_s.push_back(nowS() - t0);
    }
    const auto sc = ref.scales.find(o.workload);
    if (sc != ref.scales.end() && sc->second != wl->scale())
        gvc::fatal("hostbench: reference was taken at another scale");
    const CounterTable *table = ref.find(o.workload, o.seed);
    report.reference = table ? "stored" : "fallback";
    CounterGate gate(table);

    RepOut first;
    if (o.traced) {
        tracedRun(*wl, o, gate, report, first);
    } else {
        std::vector<double> walls, cells;
        std::vector<std::vector<double>> per_sim;
        double elapsed = 0.0;
        while (walls.size() < 2 || elapsed < o.seconds) {
            if (rotate)
                cpus.next();
            const double t0 = nowS();
            RepOut r = wl->rep(nullptr, -1);
            const double wall = nowS() - t0;
            elapsed += wall;
            walls.push_back(wall);
            cells.insert(cells.end(), r.cell_s.begin(), r.cell_s.end());
            per_sim.resize(r.cell_s.size());
            for (std::size_t i = 0; i < r.cell_s.size(); ++i)
                per_sim[i].push_back(r.cell_s[i]);
            for (const Sim &s : r.sims)
                gate.check(s.id, SimCounters::fromResult(s.result));
            if (walls.size() == 1)
                first = std::move(r);
        }
        const double wall = median(walls);
        std::string each;
        for (const double w : walls)
            each += (each.empty() ? "" : " ") + std::to_string(w);
        report.notes.push_back("repetition wall_s: " + each);
        report.add("wall_s", wall, "s", walls.size());
        report.add("warp_inst_per_s", double(warpInsts(first)) / wall, "1/s",
                   walls.size());
        report.add("cell_p50_ms", medianOfMedians(per_sim) * 1e3, "ms",
                   cells.size());
        if (const auto p90 = p90WithTail(cells))
            report.add("cell_p90_ms", *p90 * 1e3, "ms", cells.size());
        else
            report.notes.push_back(
                "cell_p90_ms not reported: " + std::to_string(cells.size()) +
                " cells leave fewer than 10 beyond the 90th percentile");
    }
    wl->check(gate, first, table == nullptr);

    report.add("setup_s", median(setup_s), "s", setup_s.size());
    report.add("peak_rss_mb", double(gvc::peakRssKb()) / 1024.0, "MB");
    report.attempted = gate.attempted();
    report.failed = gate.failed();
    report.failures = gate.failures();
    report.add("failed_frac", report.failedFrac(), "share",
               report.attempted);
    return report;
}

Reference
recordReference(const std::vector<std::uint64_t> &seeds,
                const std::string &scratch)
{
    Reference ref;
    for (const std::string &name : workloadNames()) {
        for (const std::uint64_t seed : seeds) {
            auto wl = makeWorkload(name, seed, scratch);
            wl->setup();
            ref.scales[name] = wl->scale();
            CounterTable &table = ref.tables[name][seed];
            for (const Sim &s : wl->rep(nullptr, -1).sims)
                table[s.id] = SimCounters::fromResult(s.result);
            std::fprintf(stderr, "[hostbench] reference %s seed %llu: %zu "
                                 "simulations\n",
                         name.c_str(), (unsigned long long)seed,
                         table.size());
        }
    }
    return ref;
}

} // namespace hostbench
