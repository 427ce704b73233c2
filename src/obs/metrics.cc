#include "metrics.hh"

#include <algorithm>
#include <iomanip>

#include "common/stats.hh"

namespace hetsim::obs
{

namespace
{

/** Default decade bounds for histograms observed before definition. */
std::vector<double>
defaultBounds()
{
    std::vector<double> bounds;
    for (double b = 1.0; b <= 1e9; b *= 10.0)
        bounds.push_back(b);
    return bounds;
}

void
recordInto(Histogram &hist, double value)
{
    size_t bucket = std::lower_bound(hist.bounds.begin(),
                                     hist.bounds.end(), value) -
                    hist.bounds.begin();
    hist.counts[bucket] += 1;
    if (hist.count == 0) {
        hist.min = value;
        hist.max = value;
    } else {
        hist.min = std::min(hist.min, value);
        hist.max = std::max(hist.max, value);
    }
    hist.count += 1;
    hist.sum += value;
}

} // namespace

void
Metrics::add(const std::string &name, double delta)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    counters[name] += delta;
}

void
Metrics::set(const std::string &name, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    gauges[name] = value;
}

void
Metrics::defineHistogram(const std::string &name,
                         std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = histograms.find(name);
    if (it != histograms.end())
        return; // first definition wins; observations keep buckets
    Histogram hist;
    std::sort(bounds.begin(), bounds.end());
    hist.counts.assign(bounds.size() + 1, 0);
    hist.bounds = std::move(bounds);
    histograms.emplace(name, std::move(hist));
}

void
Metrics::observe(const std::string &name, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        Histogram hist;
        hist.bounds = defaultBounds();
        hist.counts.assign(hist.bounds.size() + 1, 0);
        it = histograms.emplace(name, std::move(hist)).first;
    }
    recordInto(it->second, value);
}

void
Metrics::observeMany(const std::string &name,
                     const std::vector<double> &values)
{
    if (!enabled() || values.empty())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        Histogram hist;
        hist.bounds = defaultBounds();
        hist.counts.assign(hist.bounds.size() + 1, 0);
        it = histograms.emplace(name, std::move(hist)).first;
    }
    for (double value : values)
        recordInto(it->second, value);
}

double
Metrics::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

double
Metrics::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
}

std::optional<Histogram>
Metrics::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = histograms.find(name);
    if (it == histograms.end())
        return std::nullopt;
    return it->second;
}

void
Metrics::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    counters.clear();
    gauges.clear();
    histograms.clear();
}

void
Metrics::dumpJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);
    os << std::setprecision(15);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << name << "\":" << value;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << name << "\":" << value;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : histograms) {
        if (!first)
            os << ',';
        first = false;
        const Percentiles pct = percentilesFromBuckets(
            hist.bounds, hist.counts, hist.min, hist.max, hist.sum);
        os << '"' << name << "\":{\"count\":" << hist.count
           << ",\"sum\":" << hist.sum << ",\"min\":" << hist.min
           << ",\"max\":" << hist.max << ",\"p50\":" << pct.p50
           << ",\"p90\":" << pct.p90 << ",\"p99\":" << pct.p99
           << ",\"buckets\":[";
        for (size_t b = 0; b < hist.counts.size(); ++b) {
            if (b)
                os << ',';
            os << "{\"le\":";
            if (b < hist.bounds.size())
                os << hist.bounds[b];
            else
                os << "\"+Inf\"";
            os << ",\"count\":" << hist.counts[b] << '}';
        }
        os << "]}";
    }
    os << "}}\n";
}

Metrics &
Metrics::global()
{
    static Metrics metrics;
    return metrics;
}

} // namespace hetsim::obs
