/**
 * @file
 * read-memory, OpenMP target-offload implementation (the Memeti et
 * al. extension of the paper's Figure 5 comparison): the same loop
 * annotated with "#pragma omp target teams distribute parallel for";
 * the runtime's implicit tofrom mapping manages the data movement.
 */

#include "readmem_core.hh"
#include "readmem_variants.hh"

#include "omp/omp.hh"

namespace hetsim::apps::readmem
{

namespace
{

template <typename Real>
core::RunResult
runImpl(const sim::DeviceSpec &spec, const core::WorkloadConfig &cfg)
{
    Problem<Real> prob(cfg.scale);
    Precision prec = precisionOf<Real>();

    omp::TargetRuntime rt(spec, prec);
    rt.runtime().setFunctionalExecution(cfg.functional);
    if (cfg.freq.coreMhz > 0.0)
        rt.runtime().setFreq(cfg.freq);

    const Real *in = prob.in.data();
    Real *out = prob.out.data();
    rt.declare(in, prob.elements * sizeof(Real), "in");
    rt.declare(out, prob.items() * sizeof(Real), "out");

    ir::KernelDescriptor desc = prob.descriptor();

    // #pragma omp target teams distribute parallel for
    //     num_teams(size/BLOCKSIZE) thread_limit(BLOCKSIZE)
    omp::ForClauses clauses;
    clauses.numTeams = prob.elements / blockSize;
    clauses.threadLimit = static_cast<u32>(blockSize);

    omp::targetLoop(rt, desc, prob.items(), clauses, {in}, {out},
                    [in, out](u64 block) {
                        u64 i = block * blockSize;
                        Real sum = Real(0);
                        for (u64 j = 0; j < blockSize; ++j)
                            sum += in[i + j];
                        out[block] = sum;
                    });

    core::RunResult result = core::summarize(rt.runtime());
    result.checksum = prob.checksum();
    if (cfg.functional) {
        auto ref = prob.reference();
        result.validated = almostEqual<Real>(prob.out, ref);
    }
    return result;
}

} // namespace

core::RunResult
runOmpTarget(const sim::DeviceSpec &device,
             const core::WorkloadConfig &cfg)
{
    if (cfg.precision == Precision::Single)
        return runImpl<float>(device, cfg);
    return runImpl<double>(device, cfg);
}

} // namespace hetsim::apps::readmem
