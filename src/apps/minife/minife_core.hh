/**
 * @file
 * miniFE proxy application - finite-element assembly of a 27-point
 * stencil sparse system on a brick mesh, solved with unpreconditioned
 * conjugate gradient.
 *
 * The paper's -nx 100 -ny 100 -nz 100 run yields ~1.03M rows and
 * ~27.6M nonzeros.  Three device kernels run per CG iteration
 * (Table I): SpMV (the dominant kernel; the OpenCL variant uses
 * CSR-Adaptive per the paper's reference [15]), DOT and WAXPBY.
 * Each dot product finishes on the host, which costs a small
 * read-back on the discrete GPU every iteration.
 */

#ifndef HETSIM_APPS_MINIFE_MINIFE_CORE_HH
#define HETSIM_APPS_MINIFE_MINIFE_CORE_HH

#include <vector>

#include "apps/appsupport.hh"
#include "common/logging.hh"
#include "kernelir/kernel.hh"
#include "kernelir/tracegen.hh"

namespace hetsim::apps::minife
{

/** Mesh cells per edge at scale 1.0 (the paper's -nx/-ny/-nz 100). */
constexpr int baseEdge = 100;
/** CG iterations in timing mode (miniFE's default max_iters=200). */
constexpr int baseIterations = 200;

/** How a programming model expresses the SpMV. */
enum class SpmvStyle
{
    CsrAdaptive, ///< OpenCL: LDS-staged row blocks (paper ref [15])
    CsrVector,   ///< C++ AMP: one tile per row group
    CsrScalar,   ///< OpenACC: one thread per row (uncoalesced)
    CsrRowSerial,///< CPU: row loop streams the matrix in order
};

/** Problem state of one miniFE run. */
template <typename Real>
struct Problem
{
    int edge = 0;
    int iterations = 0;
    u64 rows = 0;
    u64 nnz = 0;

    // CSR matrix.
    std::vector<u32> rowStart;
    std::vector<u32> cols;
    std::vector<Real> vals;

    // CG vectors.
    std::vector<Real> x, b, r, p, ap;
    std::vector<Real> dotScratch; ///< per-row products for reductions

    double residual = 0.0; ///< latest ||r||^2

    Problem(int edge, int iterations);

    // --- Kernels ----------------------------------------------------------
    /** ap[row] = A * p over rows [begin, end). */
    void spmv(u64 begin, u64 end);
    /** dotScratch[i] = u[i] * v[i] over [begin, end). */
    void dotKernel(const std::vector<Real> &u,
                   const std::vector<Real> &v, u64 begin, u64 end);
    /** w = alpha * u + beta * w over [begin, end). */
    void waxpby(std::vector<Real> &w, double alpha,
                const std::vector<Real> &u, double beta, u64 begin,
                u64 end);

    /** Host finalization of a dot product (sum of dotScratch). */
    double dotFinish() const;

    /** ||b - A x||^2 computed from scratch (for validation). */
    double trueResidual();

    /** Figure of merit. */
    double checksum() const;

    /** @return true when x and r are finite. */
    bool finite() const;

    // Descriptors.
    ir::KernelDescriptor spmvDescriptor(SpmvStyle style) const;
    ir::KernelDescriptor dotDescriptor() const;
    ir::KernelDescriptor waxpbyDescriptor() const;

  private:
    void buildMatrix();
};

extern template struct Problem<float>;
extern template struct Problem<double>;

/** Mesh edge for a scale factor. */
inline int
scaledEdge(double scale)
{
    return std::max(8, sizeCast<int>(baseEdge * scale + 0.5));
}

/** CG iterations for a scale factor. */
inline int
scaledIterations(double scale)
{
    return std::max(8, sizeCast<int>(baseIterations * scale + 0.5));
}

/** Serial CG reference over a fresh problem. */
template <typename Real>
void runReference(Problem<Real> &prob);

extern template void runReference<float>(Problem<float> &);
extern template void runReference<double>(Problem<double> &);

/** Compare solver state of two problems. */
template <typename Real>
bool
sameState(const Problem<Real> &a, const Problem<Real> &b)
{
    return almostEqual<Real>(a.x, b.x, 1e-3, 1e-5) &&
           almostEqualScalar(a.residual, b.residual, 1e-3, 1e-8);
}

} // namespace hetsim::apps::minife

#endif // HETSIM_APPS_MINIFE_MINIFE_CORE_HH
