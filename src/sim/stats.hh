/**
 * @file
 * Lightweight named-statistics registry, in the spirit of gem5's stats
 * package. Components register scalar counters, averages, and
 * histograms under hierarchical dotted names; a StatSet can be dumped
 * as text or queried programmatically by tests and benches.
 */

#ifndef TT_SIM_STATS_HH
#define TT_SIM_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace tt
{

/** A monotonically increasing scalar counter. */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1) { _value += delta; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }
    /** Restore a checkpointed value (recovery only). */
    void set(std::uint64_t v) { _value = v; }

  private:
    std::uint64_t _value = 0;
};

/** Running sample mean/min/max/variance over observed values. */
class Average
{
  public:
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
        if (v < _min || _count == 1)
            _min = v;
        if (v > _max || _count == 1)
            _max = v;
        // Welford update for the second moment. mean() stays _sum/_count
        // so pre-existing consumers see bit-identical values.
        const double d1 = v - _wmean;
        _wmean += d1 / _count;
        _m2 += d1 * (v - _wmean);
    }

    double mean() const { return _count ? _sum / _count : 0.0; }
    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double min() const { return _min; }
    double max() const { return _max; }

    /** Unbiased (n-1) sample variance; 0 with fewer than two samples. */
    double
    variance() const
    {
        return _count > 1 ? _m2 / static_cast<double>(_count - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    void
    reset()
    {
        _sum = 0;
        _count = 0;
        _min = 0;
        _max = 0;
        _wmean = 0;
        _m2 = 0;
    }

    /**
     * Full internal state, at native precision, for checkpointing.
     * mean()/variance() are derived quantities; restoring anything
     * less than (_sum, _count, _min, _max, _wmean, _m2) would break
     * the bit-identical-continuation guarantee.
     */
    struct State
    {
        double sum = 0;
        std::uint64_t count = 0;
        double min = 0;
        double max = 0;
        double wmean = 0;
        double m2 = 0;
    };

    State
    state() const
    {
        return {_sum, _count, _min, _max, _wmean, _m2};
    }

    void
    setState(const State& s)
    {
        _sum = s.sum;
        _count = s.count;
        _min = s.min;
        _max = s.max;
        _wmean = s.wmean;
        _m2 = s.m2;
    }

  private:
    double _sum = 0;
    std::uint64_t _count = 0;
    double _min = 0;
    double _max = 0;
    double _wmean = 0;
    double _m2 = 0;
};

/**
 * Fixed-width linear histogram with underflow and overflow buckets.
 *
 * Bucket i counts samples in the half-open interval
 * [i*width, (i+1)*width): a value exactly on a boundary always lands
 * in the bucket *starting* at that boundary. Negative samples go to
 * the underflow count, samples at or above buckets*width go to the
 * overflow count; both still contribute to summary(). Boundary
 * comparisons are made against i*width computed in double, so the
 * placement is deterministic even when v/width rounds across a bucket
 * edge (e.g. 0.3/0.1 == 2.999...96).
 */
class Histogram
{
  public:
    Histogram(double bucket_width = 1.0, std::size_t buckets = 32)
        : _width(bucket_width), _buckets(buckets, 0)
    {
        tt_assert(bucket_width > 0 && buckets > 0,
                  "bad histogram configuration");
    }

    void
    sample(double v)
    {
        // Non-finite samples have no bucket, and casting NaN/Inf to an
        // index below is undefined behaviour. Count them as underflow
        // and keep them out of the summary so mean/min/max stay
        // meaningful (a single NaN would otherwise poison all three).
        if (!std::isfinite(v)) {
            ++_underflow;
            return;
        }
        _avg.sample(v);
        if (v < 0) {
            ++_underflow;
            return;
        }
        auto idx = static_cast<std::size_t>(v / _width);
        // Correct FP rounding in the division against the actual
        // bucket boundaries so [i*w, (i+1)*w) holds exactly.
        if (idx > 0 && v < static_cast<double>(idx) * _width)
            --idx;
        else if (v >= static_cast<double>(idx + 1) * _width)
            ++idx;
        if (idx >= _buckets.size())
            ++_overflow;
        else
            ++_buckets[idx];
    }

    const std::vector<std::uint64_t>& buckets() const { return _buckets; }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t underflow() const { return _underflow; }
    double width() const { return _width; }
    std::size_t bucketCount() const { return _buckets.size(); }
    const Average& summary() const { return _avg; }

    void
    reset()
    {
        for (auto& b : _buckets)
            b = 0;
        _overflow = 0;
        _underflow = 0;
        _avg.reset();
    }

    /** Checkpoint restore: bucket counts + summary state. */
    void
    setState(const std::vector<std::uint64_t>& buckets,
             std::uint64_t underflow, std::uint64_t overflow,
             const Average::State& summary)
    {
        tt_assert(buckets.size() == _buckets.size(),
                  "histogram restore shape mismatch");
        _buckets = buckets;
        _underflow = underflow;
        _overflow = overflow;
        _avg.setState(summary);
    }

  private:
    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _overflow = 0;
    std::uint64_t _underflow = 0;
    Average _avg;
};

/**
 * A registry of named statistics. Components ask for counters by name;
 * repeated requests return the same object, so parallel components can
 * share aggregate stats or use per-node name prefixes.
 */
class StatSet
{
  public:
    Counter& counter(const std::string& name) { return _counters[name]; }
    Average& average(const std::string& name) { return _averages[name]; }

    Histogram&
    histogram(const std::string& name, double width = 1.0,
              std::size_t buckets = 32)
    {
        auto it = _histograms.find(name);
        if (it == _histograms.end()) {
            it = _histograms
                     .emplace(name, Histogram(width, buckets))
                     .first;
        }
        return it->second;
    }

    /** Look up a counter value; 0 if never registered. */
    std::uint64_t
    get(const std::string& name) const
    {
        auto it = _counters.find(name);
        return it == _counters.end() ? 0 : it->second.value();
    }

    bool
    hasCounter(const std::string& name) const
    {
        return _counters.count(name) != 0;
    }

    /** Dump everything, sorted by name, one stat per line. */
    void dump(std::ostream& os) const;

    /**
     * Dump everything as JSON with stable key order (the underlying
     * maps are name-sorted): counters as integers, averages with
     * mean/count/min/max/variance/stddev, histograms with width,
     * bucket array, and underflow/overflow counts.
     */
    void writeJson(std::ostream& os) const;

    const std::map<std::string, Counter>& counters() const
    {
        return _counters;
    }
    const std::map<std::string, Average>& averages() const
    {
        return _averages;
    }
    const std::map<std::string, Histogram>& histograms() const
    {
        return _histograms;
    }

    // Mutable views for checkpoint restore (src/recovery). Restoring
    // matches stats by name; both sides of a restore assemble the
    // identical machine, so the key sets agree (asserted there).
    std::map<std::string, Counter>& mutableCounters()
    {
        return _counters;
    }
    std::map<std::string, Average>& mutableAverages()
    {
        return _averages;
    }
    std::map<std::string, Histogram>& mutableHistograms()
    {
        return _histograms;
    }

    void reset();

  private:
    std::map<std::string, Counter> _counters;
    std::map<std::string, Average> _averages;
    std::map<std::string, Histogram> _histograms;
};

} // namespace tt

#endif // TT_SIM_STATS_HH
