/**
 * @file
 * LULESH, OpenMP target-offload implementation: a hand-placed
 * "target data" environment keeps the mesh resident across the time
 * loop; every kernel is a "target teams distribute parallel for"
 * region.  The dt partials live outside the data environment, so the
 * implicit tofrom rule stages them around every iteration (the
 * conservative default the directive exists to avoid).
 */

#include "lulesh_meta.hh"
#include "lulesh_variants.hh"

#include "omp/omp.hh"

namespace hetsim::apps::lulesh
{

namespace
{

template <typename Real>
core::RunResult
runImpl(const sim::DeviceSpec &spec, const core::WorkloadConfig &cfg)
{
    Problem<Real> prob(scaledEdge(cfg.scale),
                       scaledIterations(cfg.scale));
    auto descs = buildDescriptors(prob);
    const auto &io = kernelIo();
    Precision prec = precisionOf<Real>();

    omp::TargetRuntime rt(spec, prec);
    rt.runtime().setFunctionalExecution(cfg.functional);
    if (cfg.freq.coreMhz > 0.0)
        rt.runtime().setFreq(cfg.freq);

    // Representative host pointer per logical array group (the [0:n]
    // array sections of the map clauses).
    std::array<const void *, static_cast<size_t>(Buf::Count)> ptr{};
    ptr[size_t(Buf::Coords)] = prob.x.data();
    ptr[size_t(Buf::Vel)] = prob.xd.data();
    ptr[size_t(Buf::Accel)] = prob.xdd.data();
    ptr[size_t(Buf::Force)] = prob.fx.data();
    ptr[size_t(Buf::Mass)] = prob.nodalMass.data();
    ptr[size_t(Buf::ElemCore)] = prob.e.data();
    ptr[size_t(Buf::Stress)] = prob.sigxx.data();
    ptr[size_t(Buf::QGrad)] = prob.delvXi.data();
    ptr[size_t(Buf::EosWork)] = prob.compression.data();
    ptr[size_t(Buf::Connect)] = prob.nodelist.data();
    ptr[size_t(Buf::CornerF)] = prob.fxElem.data();
    ptr[size_t(Buf::DtPart)] = prob.dtCourantElem.data();
    for (int b = 0; b < static_cast<int>(Buf::Count); ++b) {
        Buf group = static_cast<Buf>(b);
        rt.declare(ptr[size_t(b)], bufBytes(prob, group),
                   bufName(group));
    }

    auto ptrs_of = [&](const std::vector<Buf> &groups) {
        std::vector<const void *> list;
        for (Buf group : groups)
            list.push_back(ptr[static_cast<size_t>(group)]);
        return list;
    };

    {
        // #pragma omp target data map(to:mesh) map(from:state)
        //                         map(alloc:scratch)
        omp::TargetData data(
            rt,
            omp::MapTo{ptr[size_t(Buf::Coords)], ptr[size_t(Buf::Vel)],
                       ptr[size_t(Buf::Mass)],
                       ptr[size_t(Buf::ElemCore)],
                       ptr[size_t(Buf::Connect)]},
            omp::MapFrom{ptr[size_t(Buf::Coords)],
                         ptr[size_t(Buf::ElemCore)]},
            omp::MapAlloc{ptr[size_t(Buf::Accel)],
                          ptr[size_t(Buf::Force)],
                          ptr[size_t(Buf::Stress)],
                          ptr[size_t(Buf::QGrad)],
                          ptr[size_t(Buf::EosWork)],
                          ptr[size_t(Buf::CornerF)]});

        for (int iter = 0; iter < prob.iterations; ++iter) {
            for (int k = 0; k < kernelCount; ++k) {
                u64 items = prob.itemsFor(k + 1);
                omp::ForClauses clauses;
                clauses.numTeams = (items + 127) / 128;
                clauses.threadLimit = 128;
                // The 3D gather nests collapse cleanly.
                clauses.collapse =
                    descs[k].loop.unrollableDepth > 0 ? 2 : 1;
                clauses.reduction = descs[k].loop.reduction;

                omp::targetRegion(rt, descs[k], items, clauses,
                                  ptrs_of(io[k].reads),
                                  ptrs_of(io[k].writes),
                                  kernelBody(prob, k));
            }
            // DtPart is outside the data environment: the implicit
            // rule maps it back after k27/k28; final min on the host.
            rt.runtime().hostWork(2e-6);
            if (cfg.functional)
                prob.updateDtHost();
        }
    } // target data exit: map(from:Coords, ElemCore)

    core::RunResult result = core::summarize(rt.runtime());
    result.checksum = prob.checksum();
    if (cfg.functional) {
        Problem<Real> ref(prob.edge, prob.iterations);
        runReference(ref);
        result.validated = sameState(prob, ref) && prob.finite();
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

} // namespace hetsim::apps::lulesh
