/**
 * @file
 * Simple named-statistic registry used throughout the simulator.
 *
 * Mirrors the role of the thesis simulator's per-run statistics tables
 * (Tables 6.2-6.5): counters (events), scalars (measured quantities),
 * distributions (min/max/mean over samples), and fixed-bucket log2
 * histograms (exact count/sum plus percentile estimates) for the
 * latency and occupancy metrics the aggregate tables hide.
 */
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qm {

/** Accumulates samples and reports count/min/max/mean. */
class Distribution
{
  public:
    void
    sample(double value)
    {
        if (count_ == 0 || value < min_)
            min_ = value;
        if (count_ == 0 || value > max_)
            max_ = value;
        sum_ += value;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double sum() const { return sum_; }

    /** Rebuild from persisted raw moments (durable checkpoints). */
    static Distribution
    fromRaw(std::uint64_t count, double min, double max, double sum)
    {
        Distribution d;
        d.count_ = count;
        d.min_ = min;
        d.max_ = max;
        d.sum_ = sum;
        return d;
    }

  private:
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Fixed-bucket log2 histogram over non-negative integer samples
 * (cycle counts, hop counts, queue depths).
 *
 * Bucket 0 holds exact zeros; bucket i (1 <= i < kNumBuckets-1) holds
 * values in [2^(i-1), 2^i); the last bucket is the overflow bucket for
 * everything at or above 2^(kNumBuckets-2). Count and sum are exact;
 * min/max are exact; percentiles are estimated by linear interpolation
 * inside the covering bucket (clamped to the exact min/max), which is
 * accurate to within one power of two - plenty for "where did the
 * cycles go" questions. Two histograms merge exactly (bucket-wise
 * addition), so per-PE views fold into system totals without loss.
 */
class Histogram
{
  public:
    static constexpr int kNumBuckets = 32;

    void
    sample(std::uint64_t value)
    {
        if (count_ == 0 || value < min_)
            min_ = value;
        if (count_ == 0 || value > max_)
            max_ = value;
        sum_ += value;
        ++count_;
        ++buckets_[static_cast<std::size_t>(bucketIndex(value))];
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Samples recorded into bucket @p index. */
    std::uint64_t
    bucketCount(int index) const
    {
        return buckets_[static_cast<std::size_t>(index)];
    }

    /** Bucket @p value lands in: 0 for zero, last bucket = overflow. */
    static int
    bucketIndex(std::uint64_t value)
    {
        if (value == 0)
            return 0;
        int width = std::bit_width(value);
        return width < kNumBuckets - 1 ? width : kNumBuckets - 1;
    }

    /** Inclusive lower bound of bucket @p index. */
    static std::uint64_t
    bucketLow(int index)
    {
        if (index <= 0)
            return 0;
        return std::uint64_t{1} << (index - 1);
    }

    /** Exclusive upper bound of bucket @p index (max for overflow). */
    static std::uint64_t
    bucketHigh(int index)
    {
        if (index <= 0)
            return 1;
        if (index >= kNumBuckets - 1)
            return ~std::uint64_t{0};
        return std::uint64_t{1} << index;
    }

    /**
     * Estimated value at percentile @p p in [0, 100]: linear
     * interpolation inside the bucket covering that rank, clamped to
     * the exact [min, max] envelope. Returns 0 on an empty histogram.
     */
    double percentile(double p) const;

    /** Bucket-wise exact merge. */
    void merge(const Histogram &other);

    /** Rebuild from persisted raw fields (durable checkpoints). */
    static Histogram
    fromRaw(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
            std::uint64_t max,
            const std::array<std::uint64_t, kNumBuckets> &buckets)
    {
        Histogram h;
        h.count_ = count;
        h.sum_ = sum;
        h.min_ = min;
        h.max_ = max;
        h.buckets_ = buckets;
        return h;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::array<std::uint64_t, kNumBuckets> buckets_{};
};

class StatScope;

/** Registry of named counters and distributions for one simulated run. */
class StatSet
{
  public:
    /** Add delta to the named counter (created on first use). */
    void inc(const std::string &name, std::uint64_t delta = 1);

    /** Set a named scalar outright. */
    void set(const std::string &name, double value);

    /** Add a sample to a named distribution. */
    void sample(const std::string &name, double value);

    /** Add a sample to a named histogram (created on first use). */
    void record(const std::string &name, std::uint64_t value);

    /**
     * Reference to the named counter's map slot (created on first
     * use, exactly like inc()). Hot emit sites cache the returned
     * reference to skip the string lookup per event; the reference is
     * stable until the whole StatSet is assigned over (checkpoint
     * restore), at which point cached references must be dropped.
     */
    std::uint64_t &
    counterRef(const std::string &name)
    {
        return counters_[name];
    }

    /** Histogram analogue of counterRef (created on first use). */
    Histogram &
    histogramRef(const std::string &name)
    {
        return histograms_[name];
    }

    /**
     * counterRef() through a handle the emit site keeps: @p slot is
     * resolved on first use - so a stat a run never emits still
     * creates no entry - and reused after, one string lookup per run
     * instead of one per event. The owner must null its handles
     * whenever this StatSet is assigned over (checkpoint restore).
     */
    std::uint64_t &
    counterRef(std::uint64_t *&slot, const char *name)
    {
        if (!slot)
            slot = &counters_[name];
        return *slot;
    }

    /** Histogram analogue of the cached counterRef. */
    Histogram &
    histogramRef(Histogram *&slot, const char *name)
    {
        if (!slot)
            slot = &histograms_[name];
        return *slot;
    }

    std::uint64_t counter(const std::string &name) const;
    double scalar(const std::string &name) const;
    const Distribution &distribution(const std::string &name) const;
    const Histogram &histogram(const std::string &name) const;
    bool hasCounter(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    // Ordered whole-registry views (metrics export).
    const std::map<std::string, std::uint64_t> &
    counterMap() const
    {
        return counters_;
    }
    const std::map<std::string, double> &
    scalarMap() const
    {
        return scalars_;
    }
    const std::map<std::string, Histogram> &
    histogramMap() const
    {
        return histograms_;
    }
    const std::map<std::string, Distribution> &
    distributionMap() const
    {
        return distributions_;
    }

    /**
     * Mutable slot for the named distribution (created on first use).
     * Exists for checkpoint restore, which rebuilds registry entries
     * from persisted raw moments.
     */
    Distribution &
    distributionRef(const std::string &name)
    {
        return distributions_[name];
    }

    /**
     * Merge another StatSet into this one (counters add, histograms
     * merge exactly, distributions fold their aggregate moments).
     */
    void merge(const StatSet &other);

    /** merge() with every incoming name prefixed by @p prefix. */
    void mergeScoped(const StatSet &other, const std::string &prefix);

    /** A prefixing view, e.g. `stats.scoped("pe3.")` (see StatScope). */
    StatScope scoped(std::string prefix);

    /** Render all statistics as "name value" lines, sorted by name. */
    std::string render() const;

  private:
    void mergeInto(const StatSet &other, const std::string &prefix);

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> scalars_;
    std::map<std::string, Distribution> distributions_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * Lightweight prefixing view over a StatSet: every name recorded
 * through the scope lands in the parent set as prefix+name. Used for
 * per-PE metric views ("pe0.ready_wait", ...) without the emit sites
 * having to assemble names themselves.
 */
/**
 * Render a registry in the Prometheus text exposition format
 * (version 0.0.4): counters become `counter` samples, scalars
 * `gauge`s, distributions a _count/_sum pair plus min/max gauges, and
 * log2 histograms full `histogram` families with cumulative `le`
 * buckets (+Inf included). Metric names are `<prefix>_<name>` with
 * every character outside [a-zA-Z0-9_:] mapped to '_', so registry
 * names like "pe0.ready_wait" scrape cleanly. Deterministic: maps are
 * name-ordered and doubles are locale-pinned.
 */
std::string renderPrometheus(const StatSet &stats,
                             const std::string &prefix = "qm");

class StatScope
{
  public:
    StatScope(StatSet &set, std::string prefix)
        : set_(&set), prefix_(std::move(prefix))
    {
    }

    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        set_->inc(prefix_ + name, delta);
    }

    void
    set(const std::string &name, double value)
    {
        set_->set(prefix_ + name, value);
    }

    void
    sample(const std::string &name, double value)
    {
        set_->sample(prefix_ + name, value);
    }

    void
    record(const std::string &name, std::uint64_t value)
    {
        set_->record(prefix_ + name, value);
    }

    const std::string &prefix() const { return prefix_; }

  private:
    StatSet *set_;
    std::string prefix_;
};

} // namespace qm
