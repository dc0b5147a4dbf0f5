/**
 * @file
 * Lightweight statistics package.
 *
 * Statistics are plain value objects registered by name into a
 * StatGroup; groups nest to mirror the module hierarchy. A report
 * walks the tree and prints an aligned name/value table, which is the
 * mechanism the benchmark harness uses to regenerate the paper's
 * tables and figures.
 */

#ifndef PIRANHA_STATS_STATS_H
#define PIRANHA_STATS_STATS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace piranha {

/** A named scalar statistic (count or accumulated value). */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { _value += 1.0; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    void set(double v) { _value = v; }
    void reset() { _value = 0.0; }
    double value() const { return _value; }

  private:
    double _value = 0.0;
};

/** Ratio of two scalars evaluated at report time. */
class Ratio
{
  public:
    Ratio() = default;
    Ratio(const Scalar *num, const Scalar *den) : _num(num), _den(den) {}

    double
    value() const
    {
        if (!_num || !_den || _den->value() == 0.0)
            return 0.0;
        return _num->value() / _den->value();
    }

  private:
    const Scalar *_num = nullptr;
    const Scalar *_den = nullptr;
};

/** Fixed-bucket histogram for distributions (latency, queue depth...). */
class Histogram
{
  public:
    /** Buckets of width @p bucket_width covering [0, width*count). */
    Histogram(double bucket_width = 1.0, unsigned bucket_count = 32)
        : _width(bucket_width), _buckets(bucket_count, 0)
    {}

    void
    sample(double v, std::uint64_t n = 1)
    {
        _samples += n;
        _sum += v * static_cast<double>(n);
        if (_samples == n || v > _max)
            _max = v;
        if (_samples == n || v < _min)
            _min = v;
        // Negative values would wrap the size_t cast to a huge index;
        // the histogram covers [0, width*count), so clamp them (and
        // anything in the first bucket's range) into bucket 0.
        size_t idx = 0;
        if (v >= _width) {
            idx = static_cast<size_t>(v / _width);
            if (idx >= _buckets.size())
                idx = _buckets.size() - 1;
        }
        _buckets[idx] += n;
    }

    void
    reset()
    {
        _samples = 0;
        _sum = 0;
        _min = 0;
        _max = 0;
        for (auto &b : _buckets)
            b = 0;
    }

    std::uint64_t samples() const { return _samples; }
    double mean() const { return _samples ? _sum / _samples : 0.0; }
    double min() const { return _min; }
    double max() const { return _max; }
    double sum() const { return _sum; }
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    double bucketWidth() const { return _width; }

    /** Value below which @p frac of samples fall (approximate). */
    double
    percentile(double frac) const
    {
        if (_samples == 0)
            return 0.0;
        std::uint64_t target =
            static_cast<std::uint64_t>(frac * static_cast<double>(_samples));
        std::uint64_t seen = 0;
        for (size_t i = 0; i < _buckets.size(); ++i) {
            seen += _buckets[i];
            if (seen >= target)
                return (static_cast<double>(i) + 0.5) * _width;
        }
        return _max;
    }

  private:
    double _width;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _samples = 0;
    double _sum = 0;
    double _min = 0;
    double _max = 0;
};

/**
 * A registry of named statistics. Groups form a tree; full names are
 * dotted paths. The group stores pointers: the stats themselves live
 * in their owning module, so updating them is a plain member access.
 */
class StatGroup
{
  public:
    struct ScalarEnt { const Scalar *s; std::string desc; };
    struct RatioEnt { Ratio r; std::string desc; };
    struct HistEnt { const Histogram *h; std::string desc; };

    explicit StatGroup(std::string name = "") : _name(std::move(name)) {}

    /** Register a scalar under @p name with a description. */
    void addScalar(const std::string &name, const Scalar *s,
                   const std::string &desc = "");
    /** Register a ratio under @p name. */
    void addRatio(const std::string &name, Ratio r,
                  const std::string &desc = "");
    /** Register a histogram under @p name. */
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc = "");
    /** Attach a child group (not owned). */
    void addChild(const StatGroup *child);
    /** Detach a child group; callers must detach before destroying a
     *  registered child (the tree holds raw pointers). */
    void removeChild(const StatGroup *child);

    const std::string &name() const { return _name; }

    /** Print "full.name  value  # desc" lines for this subtree. */
    void report(std::ostream &os, const std::string &prefix = "") const;

    /** Look up a registered scalar by local name (nullptr if absent). */
    const Scalar *scalar(const std::string &name) const;

    // Read-only views for serializers (stats/json_writer.*).
    const std::map<std::string, ScalarEnt> &scalars() const
    { return _scalars; }
    const std::map<std::string, RatioEnt> &ratios() const
    { return _ratios; }
    const std::map<std::string, HistEnt> &histograms() const
    { return _hists; }
    const std::vector<const StatGroup *> &children() const
    { return _children; }

  private:
    std::string _name;
    std::map<std::string, ScalarEnt> _scalars;
    std::map<std::string, RatioEnt> _ratios;
    std::map<std::string, HistEnt> _hists;
    std::vector<const StatGroup *> _children;
};

/**
 * Column-aligned plain-text table used by the benchmark harness to
 * print paper-figure reproductions.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row (must match header arity). */
    void addRow(std::vector<std::string> cells);
    /** Convenience for mixed text/number rows. */
    static std::string fmt(double v, int precision = 2);

    /** Render with padding and a separator under the header. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

} // namespace piranha

#endif // PIRANHA_STATS_STATS_H
