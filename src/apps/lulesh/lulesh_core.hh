/**
 * @file
 * LULESH proxy application - reduced Sedov-blast Lagrangian shock
 * hydrodynamics on a structured hexahedral mesh.
 *
 * This is a compact re-implementation of the LULESH computational
 * pipeline with the paper-relevant structure preserved:
 *
 *  - a structured s^3-element mesh with explicit 8-corner nodelists
 *    (genuine gather patterns for the cache model),
 *  - corner-force staging arrays and a node->corner adjacency for
 *    force assembly (the classic GPU LULESH data flow),
 *  - 28 distinct device kernels per iteration (paper Table I),
 *  - per-iteration host dt reduction (the host<->device round trip
 *    that penalizes discrete GPUs).
 *
 * The physics is simplified (monotonic-Q and the EOS iteration are
 * reduced-order) but every kernel performs real floating-point work on
 * real data structures, and all programming-model variants must
 * produce bit-identical results to the serial implementation.
 */

#ifndef HETSIM_APPS_LULESH_LULESH_CORE_HH
#define HETSIM_APPS_LULESH_LULESH_CORE_HH

#include <algorithm>
#include <cmath>
#include <vector>

#include "apps/appsupport.hh"
#include "common/logging.hh"

namespace hetsim::apps::lulesh
{

/** Number of device kernels per iteration (paper Table I). */
constexpr int kernelCount = 28;

/** Mesh edge elements at scale 1.0 (the paper's -s 100). */
constexpr int baseEdge = 100;
/** Iterations at scale 1.0 (the paper's -i 100). */
constexpr int baseIterations = 100;

/** Material / control constants (LULESH defaults, reduced set). */
struct Constants
{
    double hgcoef = 3.0;       ///< hourglass control coefficient
    double cfl = 0.3;          ///< Courant factor
    double dtInitial = 1e-4;
    double dtMaxGrowth = 1.1;
    double eMin = -1e15;
    double pMin = 0.0;
    double qStop = 1e12;
    double uCut = 1e-7;        ///< velocity cutoff
    double vCut = 1e-10;       ///< volume snap-to-one cutoff
    double qlcMonoq = 0.5;     ///< linear Q coefficient
    double qqcMonoq = 2.0 / 3.0; ///< quadratic Q coefficient
    double dvovMax = 0.1;
    double refDens = 1.0;
    double initialEnergy = 3.948746e+7;
    double gammaEos = 2.0 / 3.0; ///< ideal-gas-like (p = 2/3 * e / v)
};

/** Full problem state. */
template <typename Real>
struct Problem
{
    int edge = 0;      ///< elements per mesh edge
    int iterations = 0;
    u64 numElem = 0;
    u64 numNode = 0;
    Constants cs;

    // --- Mesh connectivity -------------------------------------------
    std::vector<u32> nodelist;      ///< 8 corner nodes per element
    std::vector<u32> nodeElemStart; ///< CSR start into nodeElemCorner
    std::vector<u32> nodeElemCorner;///< corner slots touching a node

    // --- Nodal state ---------------------------------------------------
    std::vector<Real> x, y, z;    ///< coordinates
    std::vector<Real> xd, yd, zd; ///< velocities
    std::vector<Real> xdd, ydd, zdd;
    std::vector<Real> fx, fy, fz; ///< force accumulators
    std::vector<Real> nodalMass;

    // --- Element state ---------------------------------------------------
    std::vector<Real> e, p, q, v, volo, delv, vdov, arealg, ss;
    std::vector<Real> vnew, determ;
    std::vector<Real> elemMass;
    std::vector<Real> sigxx, sigyy, sigzz;
    std::vector<Real> dxx, dyy, dzz;
    std::vector<Real> delvXi, delvEta, delvZeta;
    std::vector<Real> ql, qq;
    std::vector<Real> compression, workPOld, workEOld, workQOld;
    std::vector<Real> pHalf, eNew, pNew, qNew, bvc;
    std::vector<Real> hgCoefs;

    // --- Staging -----------------------------------------------------------
    std::vector<Real> fxElem, fyElem, fzElem; ///< per-corner forces
    std::vector<Real> dtCourantElem, dtHydroElem;

    // --- Time stepping ------------------------------------------------------
    double dt = 0.0;
    double simTime = 0.0;
    double dtCourant = 1e20;
    double dtHydro = 1e20;

    Problem(int edge, int iterations);

    /** @return the 8 corner node ids of element @p elem. */
    const u32 *corners(u64 elem) const { return &nodelist[8 * elem]; }

    /** Figure of merit: origin energy + total volume (finite, stable). */
    double checksum() const;

    /** @return true when all state arrays are finite. */
    bool finite() const;

    // --- The 28 per-iteration kernels, in launch order ---------------------
    // Each runs over work-item range [begin, end).
    void k01InitStress(u64 begin, u64 end);           // elems
    void k02IntegrateStress(u64 begin, u64 end);      // elems
    void k03SumStressForces(u64 begin, u64 end);      // nodes
    void k04CalcHourglassCoefs(u64 begin, u64 end);   // elems
    void k05CalcHourglassForce(u64 begin, u64 end);   // elems
    void k06SumHourglassForces(u64 begin, u64 end);   // nodes
    void k07CalcAcceleration(u64 begin, u64 end);     // nodes
    void k08ApplyAccelBcX(u64 begin, u64 end);        // face nodes
    void k09ApplyAccelBcY(u64 begin, u64 end);        // face nodes
    void k10ApplyAccelBcZ(u64 begin, u64 end);        // face nodes
    void k11CalcVelocity(u64 begin, u64 end);         // nodes
    void k12CalcPosition(u64 begin, u64 end);         // nodes
    void k13CalcKinematics(u64 begin, u64 end);       // elems
    void k14CalcLagrangeRemaining(u64 begin, u64 end);// elems
    void k15CalcMonotonicQGradient(u64 begin, u64 end);// elems
    void k16CalcMonotonicQRegion(u64 begin, u64 end); // elems
    void k17ApplyMaterialProps(u64 begin, u64 end);   // elems
    void k18EosCompress(u64 begin, u64 end);          // elems
    void k19EosInitWork(u64 begin, u64 end);          // elems
    void k20CalcPressureHalf(u64 begin, u64 end);     // elems
    void k21CalcEnergyHalf(u64 begin, u64 end);       // elems
    void k22CalcPressureNew(u64 begin, u64 end);      // elems
    void k23CalcEnergyNew(u64 begin, u64 end);        // elems
    void k24CalcQNew(u64 begin, u64 end);             // elems
    void k25CalcSoundSpeed(u64 begin, u64 end);       // elems
    void k26UpdateVolumes(u64 begin, u64 end);        // elems
    void k27CalcCourantConstraint(u64 begin, u64 end);// elems
    void k28CalcHydroConstraint(u64 begin, u64 end);  // elems

    /** Host step: reduce dt candidates and advance time. */
    void updateDtHost();

    /** @return items (elements or nodes) a kernel runs over. */
    u64 itemsFor(int kernel_index) const;

  private:
    void buildMesh();
    void initSedov();

    /** Hexahedron volume from its 8 corner coordinates. */
    static double hexVolume(const double px[8], const double py[8],
                            const double pz[8]);

    void gatherCorners(u64 elem, double px[8], double py[8],
                       double pz[8]) const;
    void gatherCornerVelocities(u64 elem, double vx[8], double vy[8],
                                double vz[8]) const;
    /** Corner area-normals of a hex (face normals spread to corners). */
    static void cornerNormals(const double px[8], const double py[8],
                              const double pz[8], double nx[8],
                              double ny[8], double nz[8]);
};

extern template struct Problem<float>;
extern template struct Problem<double>;

/** Mesh edge for a scale factor (paper -s 100 at scale 1). */
inline int
scaledEdge(double scale)
{
    return std::max(4, sizeCast<int>(baseEdge * scale + 0.5));
}

/** Iterations for a scale factor (paper -i 100 at scale 1). */
inline int
scaledIterations(double scale)
{
    return std::max(2, sizeCast<int>(baseIterations * scale + 0.5));
}

/**
 * Run the full serial reference (all 28 kernels, all iterations) on a
 * problem, for validating the programming-model variants.
 */
template <typename Real>
void runReference(Problem<Real> &prob);

extern template void runReference<float>(Problem<float> &);
extern template void runReference<double>(Problem<double> &);

/**
 * Compare the physics state of two problems (energy, pressure,
 * volume, coordinates); @return true when they match.
 */
template <typename Real>
bool
sameState(const Problem<Real> &a, const Problem<Real> &b)
{
    return almostEqual<Real>(a.e, b.e) && almostEqual<Real>(a.p, b.p) &&
           almostEqual<Real>(a.v, b.v) && almostEqual<Real>(a.x, b.x) &&
           almostEqual<Real>(a.xd, b.xd);
}

} // namespace hetsim::apps::lulesh

#endif // HETSIM_APPS_LULESH_LULESH_CORE_HH
