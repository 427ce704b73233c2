/**
 * @file
 * The declarative backend capability table.
 *
 * The paper's Figure 11 matrix (which optimizations each programming
 * model's toolchain can express), the calibration anchors and the
 * model's CLI names, in ONE table: every programming model is a
 * BackendCaps row, and one table-driven compiler (compileWithCaps)
 * interprets the rows.  Adding a backend means adding a row, not a
 * class - the OpenMP target-offload and CUDA-style models (Memeti et
 * al., PAPERS.md) plug in exactly this way, with their codegen quirks
 * (implicit data mapping, collapse flattening, occupancy-limited
 * launches) expressed as table entries.  The rows are also the only
 * source of model names: modelByName() and backendByName() read them.
 *
 * Calibration rule (DESIGN.md): the relative code-generation quality
 * of the device compilers is calibrated ONCE from the paper's
 * read-memory micro-benchmark and then held fixed for all
 * applications.  The numbers in this table ARE those anchors; the
 * table-driven compiler reproduces the pre-refactor per-class
 * constants bitwise.
 */

#ifndef HETSIM_KERNELIR_CAPTABLE_HH
#define HETSIM_KERNELIR_CAPTABLE_HH

#include <optional>
#include <span>
#include <string_view>

#include "kernelir/codegen.hh"
#include "sim/device.hh"

namespace hetsim::ir
{

/**
 * Multiplicative SIMD-efficiency factors per loop trait, applied in a
 * fixed canonical order: divergent, variable-trip, indirect (+ the
 * gather-with-variable-trip compound), reduction, collapse relief,
 * unroll bonus, hoist bonus.  A factor of 1.0 is a no-op, so backends
 * only pay for the traits their toolchain mishandles.
 */
struct TraitMultipliers
{
    /** Divergent control flow (tiled / well-structured path). */
    double divergent = 1.0;
    /** Divergent control flow when tiling gates vectorization and the
     *  kernel is NOT tiled (C++ AMP's flat parallel_for_each). */
    double divergentUntiled = 1.0;
    /** Variable trip count (tiled / well-structured path). */
    double variableTrip = 1.0;
    /** Variable trip count on the untiled path. */
    double variableTripUntiled = 1.0;
    /** Indirect (gather) addressing. */
    double indirect = 1.0;
    /** EXTRA factor when gather combines with a variable trip count
     *  (PGI's near-scalar CoMD pathology). */
    double indirectVariableTrip = 1.0;
    /** Reduction lowered through the LDS (hint honored). */
    double reductionWithLds = 1.0;
    /** Reduction without LDS staging. */
    double reductionNoLds = 1.0;
    /** Bonus when the author unrolled (hints.unroll > 1) and the loop
     *  nest has unrollable depth; only meaningful for backends with
     *  explicit unrolling control. */
    double unrollBonus = 1.0;
    /** Bonus for manually hoisted loop invariants. */
    double hoistBonus = 1.0;
};

/**
 * Device-type-conditional override for irregular kernels (gather +
 * divergence + variable trip, the XSBench shape).  Models runtime
 * backends whose scheduling quality flips with the device: CLAMP's
 * HSA path beats hand OpenCL on the APU while the Catalyst-era SPIR
 * path schedules the same kernel poorly on the dGPU.
 */
struct IrregularOverride
{
    sim::DeviceType device = sim::DeviceType::DiscreteGpu;
    double bwEfficiency = 1.0;
    double chainEfficiency = 1.0;
};

/** One backend's complete declarative capability row. */
struct BackendCaps
{
    ModelKind kind = ModelKind::Serial;
    /** Short CLI identifier, e.g. "opencl". */
    const char *name = "";
    /** Second CLI name, e.g. "ocl"; null when there is none. */
    const char *alias = nullptr;
    /** Runs on the host CPU (the Serial and OpenMP baselines), so it
     *  is never a device backend. */
    bool host = false;
    /** Display name as used in the paper, e.g. "C++ AMP". */
    const char *display = "";
    /** Toolchain (paper Table III). */
    const char *toolchain = "";
    /** Figure 11 optimization-capability row. */
    CompilerFeatures features;
    /** Runtime manages host<->device transfers itself (directive and
     *  single-source models); explicit models stage manually. */
    bool managesTransfers = false;
    /** Achieved fraction of the PCIe link's effective bandwidth. */
    double transferEfficiency = 1.0;
    /** Read-memory SIMD-efficiency calibration anchor. */
    double baseEfficiency = 1.0;
    /** Read-memory bandwidth-efficiency calibration anchor. */
    double bwEfficiency = 1.0;
    /** Dependent-chain scheduling quality. */
    double chainEfficiency = 1.0;
    /** Per-launch overhead in microseconds. */
    double launchOverheadUs = 0.0;
    /** Per-trait SIMD-efficiency multipliers. */
    TraitMultipliers traits;
    /** Tiling gates the divergent/variable-trip multipliers: untiled
     *  kernels take the *Untiled factors (C++ AMP). */
    bool tilingGatesVectorization = false;
    /** Loudly warn (and ignore) when the author hints LDS staging a
     *  directive model cannot express. */
    bool warnsOnLdsHint = false;
    /** Relief multiplier on the variable-trip penalty when the author
     *  collapses a regular nest (hints.collapse > 1) - OpenMP target's
     *  collapse(n) flattens the iteration space the vectorizer sees. */
    double collapseRelief = 1.0;
    /** Blocks larger than this many work-items exhaust the per-CU
     *  register file and cut resident wavefronts (CUDA's
     *  occupancy-limited launches).  0 = no limit. */
    u32 occupancyWorkgroupLimit = 0;
    /** chainEfficiency multiplier past the occupancy limit. */
    double occupancyPenalty = 1.0;
    /** Irregular-kernel device sensitivity (empty span = none). */
    std::span<const IrregularOverride> irregular = {};
    /** Codegen note (tiled path / default path). */
    const char *noteTiled = nullptr;
    const char *note = "";
};

/** @return the full capability table, in fixed ModelKind order. */
std::span<const BackendCaps> backendTable();

/** @return the capability row for one backend. */
const BackendCaps &capsFor(ModelKind kind);

/**
 * @return the model a CLI or JobSpec name selects: a row's name or
 * alias (serial, openmp/omp, opencl/ocl, cppamp/amp, openacc/acc, hc,
 * omptarget/target, cuda), if valid.
 */
std::optional<ModelKind> modelByName(std::string_view name);

/**
 * @return the device backend a `--backend` / JobSpec "backend" name
 * selects for GPU pool slots: modelByName() over the non-host rows,
 * with one exception.  "omp" means OpenMP *target offload* here, not
 * the host OpenMP baseline it names under `--model`: a backend always
 * names a device model.
 */
std::optional<ModelKind> backendByName(std::string_view name);

/**
 * @return the five device backends the comparison tables cover
 * (OpenCL, C++ AMP, OpenACC, OpenMP target, CUDA), in table order.
 */
std::span<const ModelKind> deviceBackends();

/**
 * Compile @p desc under the declarative row @p caps - the one
 * table-driven codegen path every backend shares.
 */
Codegen compileWithCaps(const BackendCaps &caps,
                        const KernelDescriptor &desc,
                        const OptHints &hints,
                        const sim::DeviceSpec &spec);

} // namespace hetsim::ir

#endif // HETSIM_KERNELIR_CAPTABLE_HH
