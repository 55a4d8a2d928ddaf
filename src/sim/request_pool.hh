/**
 * @file
 * RequestPool: stable-address storage for in-flight request records.
 *
 * A memory request crosses several pipeline hops (CU injection, TLB,
 * NoC, IOMMU port, cache bank, MSHR), each one a scheduled event.  The
 * request's fields and its completion Callback live in one record from
 * the moment a layer accepts the request until that layer hands it on,
 * so every hop schedules a 16-byte `[this, record]` closure that is
 * built in its event slot and never spills to the callback pool.
 *
 * Records sit in fixed-size chunks that never move, so a record's
 * address stays valid while the pool grows.  A released record goes
 * onto a free list and keeps its objects constructed: its fields are
 * overwritten by the next acquire(), and its Callback members are
 * empty because the owning layer moved them out before releasing.
 * Every record, live or free, is destroyed with the pool.
 *
 * live() counts acquired records not yet released.  When the event
 * queue has drained every request has completed, so live() is 0; the
 * drain-audit tests check that for every design.
 */

#ifndef GVC_SIM_REQUEST_POOL_HH
#define GVC_SIM_REQUEST_POOL_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace gvc
{

/** Pool of default-constructible records of type @p T. */
template <typename T>
class RequestPool
{
  public:
    RequestPool() = default;
    // Records are referenced by address from pending events.
    RequestPool(const RequestPool &) = delete;
    RequestPool &operator=(const RequestPool &) = delete;

    /**
     * A record for a new request.  Its fields hold whatever its last
     * user left in them; the caller sets every field it reads.
     */
    T *
    acquire()
    {
        ++live_;
        if (!free_.empty()) {
            T *r = free_.back();
            free_.pop_back();
            return r;
        }
        if (used_ % kChunkRecords == 0)
            chunks_.push_back(std::make_unique<T[]>(kChunkRecords));
        return &chunks_.back()[used_++ % kChunkRecords];
    }

    /** Return @p r; the caller has moved its Callbacks out. */
    void
    release(T *r)
    {
        --live_;
        free_.push_back(r);
    }

    /** Records acquired and not yet released. */
    std::size_t live() const { return live_; }

  private:
    static constexpr std::size_t kChunkRecords = 256;

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<T *> free_;
    std::size_t used_ = 0; ///< Records ever handed out of the chunks.
    std::size_t live_ = 0;
};

} // namespace gvc

#endif // GVC_SIM_REQUEST_POOL_HH
