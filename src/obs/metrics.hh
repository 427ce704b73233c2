/**
 * @file
 * hetsim::obs - the metrics registry half of the observability
 * subsystem.
 *
 * Three metric kinds, in the Prometheus mold:
 *
 *  - counters:   monotonically accumulated doubles (bytes moved,
 *                kernel launches, simulated seconds per phase);
 *  - gauges:     last-value-wins doubles (per-device idle seconds,
 *                final chunk size);
 *  - histograms: fixed-bucket distributions (co-execution chunk
 *                sizes, per-chunk throughput).
 *
 * Like the Tracer, the registry is disabled by default: every record
 * call returns after one relaxed atomic load, so instrumented hot
 * paths pay nothing when nobody asked for metrics.  The one dump
 * format is JSON (dumpJson).
 */

#ifndef HETSIM_OBS_METRICS_HH
#define HETSIM_OBS_METRICS_HH

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hetsim::obs
{

/** Snapshot of one fixed-bucket histogram. */
struct Histogram
{
    /** Upper bounds of the finite buckets, ascending. */
    std::vector<double> bounds;
    /** Per-bucket counts; counts.size() == bounds.size() + 1, with
     *  the final slot counting observations above every bound. */
    std::vector<u64> counts;
    u64 count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Thread-safe registry of named counters, gauges, and histograms. */
class Metrics
{
  public:
    /** Turn recording on or off (off = every record call is a no-op). */
    void setEnabled(bool on) { recording.store(on, std::memory_order_relaxed); }

    /** @return whether metrics are being recorded. */
    bool
    enabled() const
    {
        return recording.load(std::memory_order_relaxed);
    }

    /** Add @p delta to the counter @p name (creating it at 0). */
    void add(const std::string &name, double delta = 1.0);

    /** Set the gauge @p name to @p value. */
    void set(const std::string &name, double value);

    /**
     * Define the histogram @p name with the given ascending finite
     * bucket bounds.  Observations of an undefined histogram define
     * it with default decade bounds (1, 10, ..., 1e9).
     */
    void defineHistogram(const std::string &name,
                         std::vector<double> bounds);

    /** Record @p value into the histogram @p name. */
    void observe(const std::string &name, double value);

    /** Record a whole sample batch into @p name under one lock (bulk
     *  producers like the fleet simulator's per-job latencies). */
    void observeMany(const std::string &name,
                     const std::vector<double> &values);

    /** @return the counter's value, or 0 when never touched. */
    double counterValue(const std::string &name) const;

    /** @return the gauge's value, or 0 when never set. */
    double gaugeValue(const std::string &name) const;

    /** @return a snapshot of the histogram, if it exists. */
    std::optional<Histogram> histogram(const std::string &name) const;

    /** Remove every metric (definitions included). */
    void clear();

    /**
     * Dump all metrics as one JSON object.  Keys are emitted in
     * sorted order (the registry maps are ordered), so metric files
     * diff cleanly across runs; histograms carry p50/p90/p99 summary
     * fields at bucket resolution (common/stats).
     */
    void dumpJson(std::ostream &os) const;

    /** @return the process-wide registry (disabled until configured). */
    static Metrics &global();

  private:
    std::atomic<bool> recording{false};
    mutable std::mutex mtx;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram> histograms;
};

} // namespace hetsim::obs

#endif // HETSIM_OBS_METRICS_HH
