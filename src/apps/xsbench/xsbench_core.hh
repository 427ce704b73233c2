/**
 * @file
 * XSBench proxy application - macroscopic neutron cross-section
 * lookup over a Hoogenboom-Martin-style reactor model.
 *
 * The benchmark builds per-nuclide energy grids of pointwise cross
 * sections, a *unionized* energy grid with per-nuclide indices (the
 * ~240 MB table the paper cites for -s small), and a set of
 * materials, each a list of nuclides.  Each lookup draws a
 * pseudo-random (energy, material) pair, binary-searches the
 * unionized grid (a serially dependent pointer chase) and
 * interpolates five cross sections for every nuclide in the material
 * - the single kernel of Table I, with appalling data locality.
 */

#ifndef HETSIM_APPS_XSBENCH_XSBENCH_CORE_HH
#define HETSIM_APPS_XSBENCH_XSBENCH_CORE_HH

#include <memory>
#include <vector>

#include "apps/appsupport.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kernelir/kernel.hh"
#include "kernelir/tracegen.hh"

namespace hetsim::apps::xsbench
{

/** -s small: nuclides and gridpoints per nuclide. */
constexpr int numNuclides = 68;
constexpr int baseGridpoints = 11303;
/** Default lookups. */
constexpr u64 baseLookups = 15000000;
/** Cross-section channels (total, elastic, absorption, fission, nu-f). */
constexpr int xsChannels = 5;
/** Number of materials in the reactor model. */
constexpr int numMaterials = 12;

/**
 * The immutable lookup tables: per-nuclide grids, the unionized grid
 * and the materials.  Their seeds are fixed, so they are a pure
 * function of (Real, gridpoints) and one build can serve every run of
 * that size.
 */
template <typename Real>
struct Tables
{
    int gridpointsPerNuclide = 0;
    u64 unionSize = 0; ///< numNuclides * gridpointsPerNuclide

    /** Per-nuclide grids: energies[n][g] sorted; xs[n][g*5 + c]. */
    std::vector<Real> nuclideEnergy; ///< [n * G + g]
    std::vector<Real> nuclideXs;     ///< [(n * G + g) * 5 + c]

    /** Unionized grid: sorted energies + per-nuclide lower indices. */
    std::vector<Real> unionEnergy;  ///< [unionSize]
    std::vector<u32> unionIndex;    ///< [unionSize * numNuclides]

    /** Materials: CSR of nuclide ids + lookup probability weights. */
    std::vector<u32> matStart;   ///< numMaterials + 1
    std::vector<u32> matNuclide; ///< concatenated nuclide lists

    explicit Tables(int gridpoints);
};

/** Problem state of one XSBench run: tables shared with every other
 *  problem of the same precision and size (a process-wide memo keeps
 *  the last one built per precision), exposed under their historical
 *  member names, plus this run's lookups and results. */
template <typename Real>
struct Problem
{
    /** Declared first: the references below bind into it. */
    std::shared_ptr<const Tables<Real>> tables;

    const int gridpointsPerNuclide;
    u64 lookups = 0;
    const u64 unionSize;

    const std::vector<Real> &nuclideEnergy;
    const std::vector<Real> &nuclideXs;
    const std::vector<Real> &unionEnergy;
    const std::vector<u32> &unionIndex;
    const std::vector<u32> &matStart;
    const std::vector<u32> &matNuclide;

    /** Per-lookup verification output (sum of the 5 macro XS). */
    std::vector<Real> results;

    Problem(int gridpoints, u64 lookups);

    /** The single device kernel: lookups [begin, end). */
    void macroXsLookup(u64 begin, u64 end);

    /** Mean of the results array (figure of merit). */
    double checksum() const;

    /** @return true when all results are finite. */
    bool finite() const;

    /** Kernel descriptor with traces over the real table. */
    ir::KernelDescriptor descriptor() const;

    /** Total table footprint in bytes (the paper's 240 MB). */
    u64 tableBytes() const;

    /** Deterministic (energy, material) pair of lookup @p i. */
    void samplePair(u64 i, double &energy, u32 &material) const;

  private:
    double avgNuclidesPerLookup() const;
};

extern template struct Tables<float>;
extern template struct Tables<double>;
extern template struct Problem<float>;
extern template struct Problem<double>;

/** Gridpoints per nuclide for a scale factor. */
inline int
scaledGridpoints(double scale)
{
    return std::max(256,
                    sizeCast<int>(baseGridpoints * scale + 0.5));
}

/** Lookups for a scale factor. */
inline u64
scaledLookups(double scale)
{
    return std::max<u64>(
        4096, sizeCast<u64>(double(baseLookups) * scale + 0.5));
}

/** Serial reference over a fresh problem. */
template <typename Real>
void
runReference(Problem<Real> &prob)
{
    prob.macroXsLookup(0, prob.lookups);
}

/** Compare results of two problems. */
template <typename Real>
bool
sameState(const Problem<Real> &a, const Problem<Real> &b)
{
    return almostEqual<Real>(a.results, b.results);
}

} // namespace hetsim::apps::xsbench

#endif // HETSIM_APPS_XSBENCH_XSBENCH_CORE_HH
