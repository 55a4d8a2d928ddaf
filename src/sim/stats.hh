/**
 * @file
 * Statistics primitives: counters, running distributions, linear
 * histograms (for CDFs), interval samplers (events per fixed time window,
 * as used by the paper's Figures 3 and 8), and lifetime recorders (Figure
 * 12).  A StatRegistry collects named readouts for dumping.
 */

#ifndef GVC_SIM_STATS_HH
#define GVC_SIM_STATS_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace gvc
{

/** A plain event counter.  Cheap enough for the hottest paths. */
struct Counter
{
    std::uint64_t value = 0;

    Counter &operator++() { ++value; return *this; }
    Counter &operator+=(std::uint64_t n) { value += n; return *this; }
    void reset() { value = 0; }
    explicit operator std::uint64_t() const { return value; }
};

/**
 * Running mean / standard deviation / extrema over a stream of samples.
 * Uses sum and sum-of-squares; adequate for the magnitudes we track.
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        sum_sq_ += v * v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    /** Account @p n additional samples of value zero in O(1). */
    void
    sampleZeros(std::uint64_t n)
    {
        if (n == 0)
            return;
        count_ += n;
        min_ = std::min(min_, 0.0);
        max_ = std::max(max_, 0.0);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }

    double
    stdev() const
    {
        if (count_ < 2)
            return 0.0;
        const double m = mean();
        const double var =
            std::max(0.0, sum_sq_ / double(count_) - m * m);
        return std::sqrt(var);
    }

    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = sum_sq_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width linear histogram with an overflow bucket; supports quantile
 * and CDF queries.  Used for the lifetime CDFs of Figure 12.
 */
class LinearHistogram
{
  public:
    LinearHistogram(double bucket_width, std::size_t num_buckets)
        : width_(bucket_width), buckets_(num_buckets + 1, 0)
    {
    }

    void
    sample(double v)
    {
        std::size_t idx = v < 0 ? 0 : std::size_t(v / width_);
        idx = std::min(idx, buckets_.size() - 1);
        ++buckets_[idx];
        ++total_;
    }

    std::uint64_t total() const { return total_; }

    /** Fraction of samples with value <= upper edge of bucket of @p v. */
    double
    cdfAt(double v) const
    {
        if (total_ == 0)
            return 0.0;
        std::size_t idx = v < 0 ? 0 : std::size_t(v / width_);
        idx = std::min(idx, buckets_.size() - 1);
        std::uint64_t below = 0;
        for (std::size_t i = 0; i <= idx; ++i)
            below += buckets_[i];
        return double(below) / double(total_);
    }

    /** Smallest bucket upper edge whose CDF reaches @p q in [0,1]. */
    double
    quantile(double q) const
    {
        if (total_ == 0)
            return 0.0;
        const double target = q * double(total_);
        std::uint64_t below = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            below += buckets_[i];
            if (double(below) >= target)
                return double(i + 1) * width_;
        }
        return double(buckets_.size()) * width_;
    }

    /** Accumulate another histogram with identical geometry. */
    void
    merge(const LinearHistogram &other)
    {
        if (other.buckets_.size() != buckets_.size() ||
            other.width_ != width_) {
            panic("LinearHistogram::merge: geometry mismatch");
        }
        for (std::size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += other.buckets_[i];
        total_ += other.total_;
    }

    double bucketWidth() const { return width_; }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t total_ = 0;
};

/**
 * Counts events per fixed-length time window and summarizes the
 * per-window rates (mean, standard deviation, max, and the fraction of
 * windows above a threshold).  This reproduces the paper's 1 µs sampling
 * of IOMMU TLB accesses (Figures 3 and 8).
 */
class IntervalSampler
{
  public:
    /**
     * @param window_ticks  Window length in ticks (cycles).
     * @param threshold_per_cycle  Rate used for the "fraction of windows
     *        above threshold" statistic (paper: one access per cycle).
     */
    explicit IntervalSampler(Tick window_ticks,
                             double threshold_per_cycle = 1.0)
        : window_(window_ticks), threshold_(threshold_per_cycle)
    {
    }

    /** Record @p n events occurring at time @p now. */
    void
    record(Tick now, std::uint64_t n = 1)
    {
        advanceTo(now);
        current_count_ += n;
    }

    /** Close the final window at simulation end time @p end. */
    void
    finish(Tick end)
    {
        advanceTo(end);
        // A window that ends exactly at `end` was already closed by the
        // advance; only close the trailing partial window if it saw any
        // simulated time or events.
        if (end % window_ != 0 || current_count_ > 0)
            closeCurrent();
        finished_ = true;
    }

    /** Mean events per cycle across windows. */
    double meanPerCycle() const { return rates_.mean(); }
    /** Standard deviation of per-cycle rate across windows. */
    double stdevPerCycle() const { return rates_.stdev(); }
    /** Maximum per-cycle rate observed in any window. */
    double maxPerCycle() const { return rates_.max(); }
    /** Number of complete windows observed. */
    std::uint64_t windows() const { return rates_.count(); }

    /** Fraction of windows whose rate exceeded the threshold. */
    double
    fractionAboveThreshold() const
    {
        return rates_.count()
            ? double(above_threshold_) / double(rates_.count())
            : 0.0;
    }

    Tick windowTicks() const { return window_; }

  private:
    void
    advanceTo(Tick now)
    {
        const std::uint64_t target = now / window_;
        if (target == current_window_)
            return;
        closeCurrent();
        // Any fully-skipped windows saw zero events.
        const std::uint64_t skipped = target - current_window_ - 1;
        rates_.sampleZeros(skipped);
        current_window_ = target;
    }

    void
    closeCurrent()
    {
        const double rate = double(current_count_) / double(window_);
        rates_.sample(rate);
        if (rate > threshold_)
            ++above_threshold_;
        current_count_ = 0;
    }

    Tick window_;
    double threshold_;
    std::uint64_t current_window_ = 0;
    std::uint64_t current_count_ = 0;
    std::uint64_t above_threshold_ = 0;
    Distribution rates_;
    bool finished_ = false;
};

/**
 * Records the lifetimes of entries in a structure (TLB entries, cache
 * lines).  Callers report durations; the recorder keeps both a running
 * distribution and a linear histogram for CDF extraction (Figure 12).
 */
class LifetimeRecorder
{
  public:
    LifetimeRecorder(double bucket_ticks = 256.0,
                     std::size_t num_buckets = 1024)
        : hist_(bucket_ticks, num_buckets)
    {
    }

    void
    record(Tick lifetime)
    {
        dist_.sample(double(lifetime));
        hist_.sample(double(lifetime));
    }

    const Distribution &distribution() const { return dist_; }
    const LinearHistogram &histogram() const { return hist_; }

  private:
    Distribution dist_;
    LinearHistogram hist_;
};

/**
 * A flat registry of named scalar readouts.  Components register either
 * counters (by pointer) or arbitrary functions; the registry can dump
 * everything or answer point queries by name.
 */
class StatRegistry
{
  public:
    void
    addCounter(std::string name, const Counter *c)
    {
        entries_.emplace_back(std::move(name),
                              [c] { return double(c->value); });
    }

    void
    addScalar(std::string name, std::function<double()> fn)
    {
        entries_.emplace_back(std::move(name), std::move(fn));
    }

    /** Value of the stat named @p name; NaN when absent. */
    double
    lookup(const std::string &name) const
    {
        for (const auto &[n, fn] : entries_)
            if (n == name)
                return fn();
        return std::nan("");
    }

    /**
     * Print every stat as "name = value", one a line.  Integral values
     * print as exact integers and all others in the shortest form that
     * reads back to the same double, so no digits are lost.
     */
    void
    dump(std::ostream &os) const
    {
        for (const auto &[n, fn] : entries_)
            os << n << " = " << formatValue(fn()) << '\n';
    }

    /**
     * Evaluate every registered stat right now, in registration order.
     * Scenario runs snapshot the registry at each kernel boundary and
     * difference consecutive snapshots into per-kernel deltas.
     */
    std::vector<std::pair<std::string, double>>
    snapshot() const
    {
        std::vector<std::pair<std::string, double>> out;
        out.reserve(entries_.size());
        for (const auto &[n, fn] : entries_)
            out.emplace_back(n, fn());
        return out;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    /** One stat value as dump() prints it. */
    static std::string
    formatValue(double v)
    {
        // 2^63: the integral doubles below it convert to int64 exactly.
        constexpr double kInt64Limit = 9223372036854775808.0;
        if (std::isfinite(v) && v == std::trunc(v) &&
            std::fabs(v) < kInt64Limit)
            return std::to_string(static_cast<long long>(v));
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        return std::string(buf, res.ptr);
    }

    std::vector<std::pair<std::string, std::function<double()>>> entries_;
};

} // namespace gvc

#endif // GVC_SIM_STATS_HH
