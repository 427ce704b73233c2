/**
 * @file
 * CoMD proxy application - Lennard-Jones molecular dynamics with link
 * cells and velocity Verlet integration.
 *
 * The paper runs CoMD at -x 60 -y 60 -z 60 (4 atoms per fcc unit
 * cell = 864,000 atoms) with the LJ potential, which offloads three
 * kernels: ComputeForceLJ, AdvanceVelocity and AdvancePosition
 * (Table I: "3 (LJ)").  Atoms are binned into link cells of at least
 * the cutoff radius (with a safety margin so the bins are rebuilt
 * only periodically); the force kernel scans the 27 surrounding cells
 * - the divergent, variable-trip-count gather loop whose vectorization
 * separates the programming models in the paper.
 */

#ifndef HETSIM_APPS_COMD_COMD_CORE_HH
#define HETSIM_APPS_COMD_COMD_CORE_HH

#include <vector>

#include "apps/appsupport.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kernelir/kernel.hh"
#include "kernelir/tracegen.hh"

namespace hetsim::apps::comd
{

/** Unit cells per edge at scale 1.0 (the paper's -x/-y/-z 60). */
constexpr int baseCells = 60;
/** Time steps at scale 1.0 (CoMD default -N 100). */
constexpr int baseSteps = 100;

/** LJ / lattice parameters (reduced units). */
struct Params
{
    double sigma = 1.0;
    double epsilon = 1.0;
    double mass = 1.0;
    double cutoff = 2.5;       ///< LJ cutoff, in sigma
    double cellMargin = 1.10;  ///< link-cell safety margin
    double lattice = 1.7;      ///< fcc lattice constant
    double dt = 0.004;
    double initTemp = 0.1;
    int rebuildInterval = 10;  ///< steps between link-cell rebuilds
};

/** Problem state of one CoMD run. */
template <typename Real>
struct Problem
{
    int unitCells = 0; ///< fcc unit cells per edge
    int steps = 0;
    Params ps;

    u64 numAtoms = 0;
    double boxLen = 0.0;   ///< cubic box edge
    int cellsPerDim = 0;
    double cellLen = 0.0;

    // Atom state (SoA).
    std::vector<Real> rx, ry, rz;
    std::vector<Real> vx, vy, vz;
    std::vector<Real> fx, fy, fz;
    std::vector<Real> ePot; ///< per-atom potential energy

    // Link cells (CSR: atoms sorted by cell).
    std::vector<u32> cellStart; ///< cellsPerDim^3 + 1
    std::vector<u32> cellAtoms; ///< atom ids, cell-major

    /**
     * @param unit_cells fcc unit cells per edge.
     * @param steps      time steps.
     * @param compute_initial_forces run the first force evaluation
     *        (skip for timing-only runs; the timing model does not
     *        depend on atom state).
     */
    Problem(int unit_cells, int steps,
            bool compute_initial_forces = true);

    /** (Re)build the link-cell bins from current positions. */
    void buildCells();

    // --- The three LJ kernels -------------------------------------------
    /** v += (f/m) * dt/2 over atoms [begin, end). */
    void advanceVelocity(u64 begin, u64 end);
    /** r += v * dt (with periodic wrap) over atoms [begin, end). */
    void advancePosition(u64 begin, u64 end);
    /** LJ force + potential over atoms [begin, end). */
    void computeForceLj(u64 begin, u64 end);

    /** Total kinetic energy. */
    double kineticEnergy() const;
    /** Total potential energy (sum of ePot). */
    double potentialEnergy() const;
    /** Figure of merit. */
    double
    checksum() const
    {
        return kineticEnergy() + potentialEnergy();
    }

    /** @return true when atom state is finite. */
    bool finite() const;

    // Kernel descriptors.
    ir::KernelDescriptor forceDescriptor() const;
    ir::KernelDescriptor advanceVelocityDescriptor() const;
    ir::KernelDescriptor advancePositionDescriptor() const;

    /** Seconds of host work per link-cell rebuild (timing model). */
    double rebuildHostSeconds() const;

  private:
    int cellIndexOf(double x, double y, double z) const;
};

extern template struct Problem<float>;
extern template struct Problem<double>;

/** Unit cells per edge for a scale factor. */
inline int
scaledCells(double scale)
{
    return std::max(6, sizeCast<int>(baseCells * scale + 0.5));
}

/** Steps for a scale factor. */
inline int
scaledSteps(double scale)
{
    return std::max(2, sizeCast<int>(baseSteps * scale + 0.5));
}

/** Serial reference: run the whole simulation in place. */
template <typename Real>
void runReference(Problem<Real> &prob);

extern template void runReference<float>(Problem<float> &);
extern template void runReference<double>(Problem<double> &);

/** Compare atom state of two problems. */
template <typename Real>
bool
sameState(const Problem<Real> &a, const Problem<Real> &b)
{
    return almostEqual<Real>(a.rx, b.rx) && almostEqual<Real>(a.ry, b.ry)
        && almostEqual<Real>(a.rz, b.rz) && almostEqual<Real>(a.vx, b.vx)
        && almostEqual<Real>(a.ePot, b.ePot);
}

} // namespace hetsim::apps::comd

#endif // HETSIM_APPS_COMD_COMD_CORE_HH
