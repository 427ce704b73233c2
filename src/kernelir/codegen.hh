/**
 * @file
 * Per-programming-model code generation: the model kinds, the paper's
 * Figure 11 feature matrix and the codegen result a kernel launch
 * carries.
 *
 * Each programming model in the paper reaches the GPU through a
 * different toolchain (Table III): the AMD Catalyst OpenCL driver, the
 * CLAMP C++ AMP compiler, and PGI's OpenACC compiler.  What that
 * toolchain makes of a kernel - the SIMD efficiency of the generated
 * ISA, the coalescing quality of its memory accesses, extra launch
 * overhead, whether LDS staging and hand optimizations are honored,
 * and how well it manages host<->device transfers - is one
 * BackendCaps row of the capability table, and one function,
 * ir::compileWithCaps (captable.hh), interprets every row.
 *
 * Calibration rule (see DESIGN.md): the relative code-generation
 * quality of the three device compilers is calibrated ONCE from the
 * paper's read-memory micro-benchmark (kernel-only time: OpenCL 1x,
 * C++ AMP 1.3x slower, OpenACC 2x slower) and then held fixed for all
 * applications.  Every other effect is a modeled mechanism.
 */

#ifndef HETSIM_KERNELIR_CODEGEN_HH
#define HETSIM_KERNELIR_CODEGEN_HH

#include "kernelir/kernel.hh"
#include "sim/device.hh"
#include "sim/timing.hh"

namespace hetsim::ir
{

/**
 * The programming models compared by the paper (+ Serial and HC),
 * extended with the Memeti-et-al. backends: OpenMP 4.x target offload
 * (a directive model, distinct from the host OpenMp build) and a
 * CUDA-style explicit model.
 */
enum class ModelKind
{
    Serial,
    OpenMp,
    OpenCl,
    CppAmp,
    OpenAcc,
    Hc,
    OmpTarget,
    Cuda,
};

/** @return short identifier, e.g. "opencl". */
const char *toString(ModelKind kind);

/** @return display name as used in the paper, e.g. "C++ AMP". */
const char *displayName(ModelKind kind);

/** The optimization-capability matrix of the paper's Figure 11. */
struct CompilerFeatures
{
    bool vectorization = false;
    bool localDataStore = false;
    bool fineGrainedSync = false;
    bool explicitUnrolling = false;
    bool reducedCodeMotion = false;
};

/** Extension of sim::CodegenResult carried through kernel launches. */
struct Codegen : sim::CodegenResult
{
    /**
     * Multiplier on the kernel's sustainable dependent-chain
     * concurrency (scheduling quality around long-latency loads).
     */
    double chainEfficiency = 1.0;

    bool operator==(const Codegen &) const = default;
};

} // namespace hetsim::ir

#endif // HETSIM_KERNELIR_CODEGEN_HH
