/**
 * @file
 * Shared plumbing of the benchmark binary: monotonic time, sample
 * summaries, the JSON result writer, and the in-memory span recorder
 * used by traced runs.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated percentile of a sorted sample, p in [0, 100]. */
inline double
sortedPercentile(const std::vector<double> &s, double p)
{
    if (s.empty())
        return 0.0;
    const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
}

/** Median, quartiles, tail and count of one sample. */
struct Summary
{
    double p50 = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    double p99 = 0.0;
    std::size_t n = 0;
};

inline Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.p50 = sortedPercentile(v, 50);
    s.q1 = sortedPercentile(v, 25);
    s.q3 = sortedPercentile(v, 75);
    s.p99 = sortedPercentile(v, 99);
    return s;
}

/**
 * One run's result file: named metrics (value, unit, the quartiles of
 * the repeats it is the median of, and the sample count behind it)
 * plus free-form info fields. Written as one JSON object.
 */
class Report
{
  public:
    /** A metric that is one number (count, ratio, deterministic score). */
    void
    metric(const std::string &name, double value, const std::string &unit,
           std::size_t samples = 1)
    {
        metrics_[name] = Entry{value, unit, value, value, samples, 1};
    }

    /**
     * A metric that is the median of @p repeats repeated measurements,
     * each over @p samples samples in total.
     */
    void
    median(const std::string &name, const std::vector<double> &repeats,
           const std::string &unit, std::size_t samples)
    {
        const Summary s = summarize(repeats);
        metrics_[name] = Entry{s.p50, unit, s.q1, s.q3, samples, s.n};
    }

    void info(const std::string &key, double v) { numbers_[key] = v; }

    double value(const std::string &name) const
    {
        auto it = metrics_.find(name);
        return it == metrics_.end() ? 0.0 : it->second.value;
    }

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            throw std::runtime_error("cannot write " + path);
        std::fprintf(f, "{\"metrics\": {");
        const char *sep = "";
        for (const auto &[name, e] : metrics_) {
            std::fprintf(f,
                         "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                         "\"q1\": %.17g, \"q3\": %.17g, \"samples\": %zu, "
                         "\"repeats\": %zu}",
                         sep, name.c_str(), finite(e.value), e.unit.c_str(),
                         finite(e.q1), finite(e.q3), e.samples, e.repeats);
            sep = ",";
        }
        std::fprintf(f, "\n}, \"info\": {");
        sep = "";
        for (const auto &[k, v] : numbers_) {
            std::fprintf(f, "%s\n  \"%s\": %.17g", sep, k.c_str(), finite(v));
            sep = ",";
        }
        std::fprintf(f, "\n}}\n");
        std::fclose(f);
    }

  private:
    static double finite(double v) { return std::isfinite(v) ? v : 0.0; }

    struct Entry
    {
        double value;
        std::string unit;
        double q1;
        double q3;
        std::size_t samples;
        std::size_t repeats;
    };
    std::map<std::string, Entry> metrics_;
    std::map<std::string, double> numbers_;
};

/**
 * A memory field (VmHWM, VmRSS) of process @p pid ("self" for this
 * process) in MiB; 0 when unreadable.
 */
inline double
procStatusMb(const char *field, const std::string &pid = "self")
{
    std::FILE *f = std::fopen(("/proc/" + pid + "/status").c_str(), "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    const std::size_t n = std::char_traits<char>::length(field);
    while (std::fgets(line, sizeof line, f))
        if (std::char_traits<char>::compare(line, field, n) == 0 &&
            line[n] == ':')
            kb = std::atof(line + n + 1);
    std::fclose(f);
    return kb / 1024.0;
}

// ---- tracing ---------------------------------------------------------------

/**
 * In-memory span recorder. A span has a name, start and end, the id
 * of the span that caused it, and the id of the request or batch it
 * belongs to. Spans are buffered per thread and written out when the
 * run ends; nothing is recorded unless enable() was called.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id;
        std::uint64_t parent; ///< 0 for a root span
        std::uint64_t group;  ///< request or batch id
        std::uint32_t name;
        std::int64_t t0;
        std::int64_t t1;
    };

    static Tracer &
    get()
    {
        static Tracer t;
        return t;
    }

    void enable() { enabled_ = true; }

    std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }

    std::uint32_t
    nameId(const std::string &name)
    {
        std::lock_guard<std::mutex> g(mu_);
        for (std::size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name)
                return static_cast<std::uint32_t>(i);
        names_.push_back(name);
        return static_cast<std::uint32_t>(names_.size() - 1);
    }

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint64_t
    record(std::uint32_t name, std::int64_t t0, std::int64_t t1,
           std::uint64_t parent = 0, std::uint64_t group = 0,
           std::uint64_t id = 0)
    {
        if (!enabled_)
            return 0;
        if (id == 0)
            id = newId();
        local().push_back(Span{id, parent, group, name, t0, t1});
        return id;
    }

    /** Per span name: count, total and self time in ms. */
    struct NameStats
    {
        std::size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /**
     * Write every span as CSV (id,parent,group,name,start_ns,end_ns)
     * and return per-name totals. Self time is a span's duration minus
     * the part of it its child spans cover.
     */
    std::map<std::string, NameStats>
    flush(const std::string &path)
    {
        std::vector<Span> all;
        {
            std::lock_guard<std::mutex> g(mu_);
            for (const auto &buf : buffers_)
                all.insert(all.end(), buf->begin(), buf->end());
        }
        std::map<std::uint64_t, std::vector<const Span *>> children;
        for (const Span &s : all)
            if (s.parent)
                children[s.parent].push_back(&s);
        std::map<std::string, NameStats> out;
        for (const Span &s : all) {
            std::vector<std::pair<std::int64_t, std::int64_t>> cover;
            auto it = children.find(s.id);
            if (it != children.end())
                for (const Span *c : it->second)
                    cover.emplace_back(std::max(c->t0, s.t0),
                                       std::min(c->t1, s.t1));
            std::sort(cover.begin(), cover.end());
            std::int64_t covered = 0, end = s.t0;
            for (auto [a, b] : cover) {
                a = std::max(a, end);
                if (b > a) {
                    covered += b - a;
                    end = b;
                }
            }
            NameStats &ns = out[names_[s.name]];
            ns.count++;
            ns.totalMs += static_cast<double>(s.t1 - s.t0) / 1e6;
            ns.selfMs += static_cast<double>(s.t1 - s.t0 - covered) / 1e6;
        }
        if (!path.empty()) {
            if (std::FILE *f = std::fopen(path.c_str(), "w")) {
                std::fprintf(f, "id,parent,group,name,start_ns,end_ns\n");
                for (const Span &s : all)
                    std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                                 static_cast<unsigned long long>(s.id),
                                 static_cast<unsigned long long>(s.parent),
                                 static_cast<unsigned long long>(s.group),
                                 names_[s.name].c_str(),
                                 static_cast<long long>(s.t0),
                                 static_cast<long long>(s.t1));
                std::fclose(f);
            }
        }
        return out;
    }

  private:
    std::vector<Span> &
    local()
    {
        thread_local std::vector<Span> *buf = nullptr;
        if (!buf) {
            std::lock_guard<std::mutex> g(mu_);
            buffers_.push_back(std::make_unique<std::vector<Span>>());
            buf = buffers_.back().get();
            buf->reserve(1 << 16);
        }
        return *buf;
    }

    bool enabled_ = false;
    std::atomic<std::uint64_t> nextId_{0};
    std::mutex mu_; ///< guards names_ and buffers_
    std::vector<std::string> names_;
    std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/** Add the trace's per-name totals to a report as info fields. */
inline void
reportSpans(Report &r, const std::map<std::string, Tracer::NameStats> &st)
{
    for (const auto &[name, s] : st) {
        r.info("span." + name + ".count", static_cast<double>(s.count));
        r.info("span." + name + ".total_ms", s.totalMs);
        r.info("span." + name + ".self_ms", s.selfMs);
    }
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
