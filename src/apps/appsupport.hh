/**
 * @file
 * Helpers shared by the proxy-application variants.
 */

#ifndef HETSIM_APPS_APPSUPPORT_HH
#define HETSIM_APPS_APPSUPPORT_HH

#include <cmath>
#include <limits>
#include <span>

#include "common/logging.hh"
#include "common/types.hh"
#include "kernelir/codegen.hh"
#include "kernelir/kernel.hh"
#include "sim/device.hh"
#include "sim/timing.hh"

namespace hetsim::apps
{

/** @return the 4-core A10-7850K spec (the OpenMP baseline host). */
inline sim::DeviceSpec
ompCpu()
{
    return sim::a10_7850kCpu();
}

/** @return a single-core variant of the A10-7850K (serial builds). */
inline sim::DeviceSpec
serialCpu()
{
    sim::DeviceSpec spec = sim::a10_7850kCpu();
    spec.computeUnits = 1;
    spec.memEfficiency = 0.15; // one core's share of DDR3 bandwidth
    spec.name += " (1 core)";
    return spec;
}

/**
 * @return @p size, a problem size derived from the scale factor,
 * truncated to the integer type T.  A double->integer cast out of
 * range is undefined, so a size T cannot hold is a fatal error; every
 * scale up to core::maxScale stays far inside each app's size types.
 */
template <typename T>
T
sizeCast(double size)
{
    if (!(size >= 0.0 &&
          size < std::ldexp(1.0, std::numeric_limits<T>::digits)))
        fatal("problem size %g out of range (scale too large)", size);
    return static_cast<T>(size);
}

/** Relative comparison with absolute floor, elementwise over spans. */
template <typename Real>
bool
almostEqual(std::span<const Real> a, std::span<const Real> b,
            double rel_tol = 1e-4, double abs_tol = 1e-6)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        double x = static_cast<double>(a[i]);
        double y = static_cast<double>(b[i]);
        double diff = std::fabs(x - y);
        double scale = std::max(std::fabs(x), std::fabs(y));
        if (diff > abs_tol && diff > rel_tol * scale)
            return false;
    }
    return true;
}

/** Scalar version of almostEqual. */
inline bool
almostEqualScalar(double x, double y, double rel_tol = 1e-4,
                  double abs_tol = 1e-6)
{
    double diff = std::fabs(x - y);
    double scale = std::max(std::fabs(x), std::fabs(y));
    return diff <= abs_tol || diff <= rel_tol * scale;
}

/**
 * Simulated seconds a kernel takes when it falls back to one host
 * core (the paper's LULESH C++ AMP compiler-bug path).
 */
double hostFallbackSeconds(const ir::KernelDescriptor &desc, u64 items,
                           Precision prec);

/** @return precision of Real. */
template <typename Real>
constexpr Precision
precisionOf()
{
    return sizeof(Real) == 4 ? Precision::Single : Precision::Double;
}

} // namespace hetsim::apps

#endif // HETSIM_APPS_APPSUPPORT_HH
