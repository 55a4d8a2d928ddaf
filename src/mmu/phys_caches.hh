/**
 * @file
 * Physically-tagged GPU cache pipeline shared by the IDEAL and baseline
 * MMU designs (and the physical L2 of the L1-only virtual-cache design):
 * per-CU write-through-no-allocate L1s in front of a banked, write-back,
 * write-allocate shared L2, backed by a directory hop and DRAM.
 */

#ifndef GVC_MMU_PHYS_CACHES_HH
#define GVC_MMU_PHYS_CACHES_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/bank_port.hh"
#include "cache/cache_array.hh"
#include "cache/directory.hh"
#include "cache/mshr.hh"
#include "mem/dram.hh"
#include "mmu/soc_config.hh"
#include "sim/sim_context.hh"

namespace gvc
{

/**
 * The physical cache hierarchy.  Callers provide already-translated
 * line-aligned physical addresses; completion callbacks fire when load
 * data returns to the CU (including the return NoC hop) or when a store
 * has been accepted by the L2.
 */
class PhysCaches
{
  public:
    PhysCaches(SimContext &ctx, const SocConfig &cfg, Dram &dram)
        : ctx_(ctx), cfg_(cfg), dram_(dram),
          dir_(ctx, dram, Directory::Params{cfg.dir_latency}),
          l2_(CacheParams{cfg.l2_size, cfg.l2_assoc, unsigned(kLineSize),
                          /*write_back=*/true, /*write_allocate=*/true,
                          cfg.track_lifetimes})
    {
        // External probes invalidate by physical address directly.
        dir_.setProbeSink(DirNode::kGpu, [this](Paddr line, bool inv) {
            ProbeOutcome out;
            if (inv) {
                if (auto info = l2_.invalidateLine(0, line)) {
                    out.had_line = true;
                    out.was_dirty = info->dirty;
                }
                for (auto &l1 : l1s_)
                    if (l1->invalidateLine(0, line))
                        out.had_line = true;
            } else {
                out.had_line = l2_.present(0, line);
            }
            return out;
        });
        l1s_.reserve(cfg.gpu.num_cus);
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            l1s_.push_back(std::make_unique<CacheArray>(
                CacheParams{cfg.l1_size, cfg.l1_assoc, unsigned(kLineSize),
                            /*write_back=*/false, /*write_allocate=*/false,
                            cfg.track_lifetimes}));
        }
        banks_.reserve(cfg.l2_banks);
        for (unsigned i = 0; i < cfg.l2_banks; ++i)
            banks_.emplace_back(1.0);
    }

    /**
     * Access starting at the L1 of @p cu.  Stores write through: the L1
     * line is updated on hit but never allocated, and the store always
     * proceeds to the L2.
     */
    void
    accessL1(unsigned cu, Paddr line, bool is_store, Callback done)
    {
        ctx_.eq.scheduleIn(cfg_.l1_latency, [this, cu, line, is_store,
                                             done = std::move(done)]() mutable {
            const bool hit =
                l1s_[cu]->access(0, line, is_store, ctx_.now());
            if (is_store) {
                accessL2(cu, line, true, std::move(done));
            } else if (hit) {
                done();
            } else {
                accessL2(cu, line, false, std::move(done));
            }
        });
    }

    /**
     * Access the shared L2 directly (the L1-only-VC design lands here
     * after translation).  Includes the CU<->L2 NoC hops and the bank
     * port arbitration.
     */
    void
    accessL2(unsigned cu, Paddr line, bool is_store, Callback done,
             bool fill_l1 = true)
    {
        const Tick arrive = ctx_.now() + cfg_.cu_to_l2;
        const unsigned bank = bankOf(line);
        ctx_.eq.schedule(arrive, [this, cu, line, is_store, bank, fill_l1,
                                  done = std::move(done)]() mutable {
            const Tick start = banks_[bank].acquire(ctx_.now());
            ctx_.eq.schedule(
                start + cfg_.l2_latency,
                [this, cu, line, is_store, fill_l1,
                 done = std::move(done)]() mutable {
                    l2Access(cu, line, is_store, std::move(done), fill_l1);
                });
        });
    }

    CacheArray &l1(unsigned cu) { return *l1s_[cu]; }
    const CacheArray &l1(unsigned cu) const { return *l1s_[cu]; }
    const std::vector<std::unique_ptr<CacheArray>> &
    l1s() const
    {
        return l1s_;
    }
    CacheArray &l2() { return l2_; }
    const CacheArray &l2() const { return l2_; }
    MshrTable &mshrs() { return mshrs_; }
    Directory &directory() { return dir_; }

    /**
     * Kernel-boundary invalidation: drop the selected levels without
     * modelling writeback traffic or bumping result counters — the
     * boundary is a harness-level reset, not a simulated event, so a
     * flushed warm run must stay bit-identical to a fresh cold run.
     * (The L2 is write-back; its dirty lines are dropped silently.)
     */
    void
    boundaryFlush(bool flush_l1, bool flush_l2)
    {
        if (flush_l1) {
            for (auto &l1 : l1s_)
                l1->invalidateAll();
        }
        if (flush_l2)
            l2_.invalidateAll();
    }

    /** Record lifetimes of lines still resident (end of simulation). */
    void
    flushLifetimes()
    {
        for (auto &l1 : l1s_)
            l1->flushLifetimes();
        l2_.flushLifetimes();
    }

  private:
    unsigned
    bankOf(Paddr line) const
    {
        return unsigned((line >> kLineShift) % cfg_.l2_banks);
    }

    void
    l2Access(unsigned cu, Paddr line, bool is_store, Callback done,
             bool fill_l1)
    {
        const bool hit = l2_.access(0, line, is_store, ctx_.now());
        if (hit) {
            if (!is_store && fill_l1)
                fillL1(cu, line);
            ctx_.eq.scheduleIn(cfg_.cu_to_l2, std::move(done));
            return;
        }

        // Miss: merge with any outstanding fill of the same line.
        const std::uint64_t key = line >> kLineShift;
        pending_store_[key] = pending_store_[key] || is_store;
        // Built as a WakeFn up front: allocate() takes an rvalue ref,
        // and a raw lambda would be converted through a temporary that
        // steals the captures even when the result is kPrimary.
        MshrTable::WakeFn waiter = [this, cu, line, is_store, fill_l1,
                                    done = std::move(done)]() mutable {
            if (!is_store && fill_l1)
                fillL1(cu, line);
            ctx_.eq.scheduleIn(cfg_.cu_to_l2, std::move(done));
        };
        const auto res = mshrs_.allocate(key, std::move(waiter));
        if (res == MshrTable::Result::kSecondary)
            return;

        // Primary: fetch through the directory (exclusive for stores).
        const bool exclusive = pending_store_[key];
        ctx_.eq.scheduleIn(cfg_.l2_to_dir, [this, key, line, exclusive] {
            dir_.fetch(DirNode::kGpu, line, exclusive,
                       [this, key, line] { fillComplete(key, line); });
        });
        // The primary's own completion rides the MSHR like a secondary.
        mshrs_.allocate(key, std::move(waiter));
    }

    void
    fillComplete(std::uint64_t key, Paddr line)
    {
        const bool dirty = pending_store_[key];
        pending_store_.erase(key);
        const auto victim = l2_.insert(0, line, kPermRead | kPermWrite,
                                       dirty, ctx_.now());
        if (victim && victim->dirty)
            dir_.writeback(DirNode::kGpu, victim->line_addr);
        mshrs_.complete(key);
    }

    void
    fillL1(unsigned cu, Paddr line)
    {
        l1s_[cu]->insert(0, line, kPermRead | kPermWrite, false,
                         ctx_.now());
    }

    SimContext &ctx_;
    const SocConfig &cfg_;
    Dram &dram_;
    Directory dir_;
    std::vector<std::unique_ptr<CacheArray>> l1s_;
    CacheArray l2_;
    std::vector<BankPort> banks_;
    MshrTable mshrs_;
    std::unordered_map<std::uint64_t, bool> pending_store_;
};

} // namespace gvc

#endif // GVC_MMU_PHYS_CACHES_HH
