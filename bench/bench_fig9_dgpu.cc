/**
 * @file
 * Regenerates paper Figure 9: performance of the proxy applications
 * under OpenCL / C++ AMP / OpenACC on the AMD Radeon R9 280X discrete
 * GPU, single and double precision, versus the 4-core OpenMP
 * baseline.  (The CoMD OpenCL SP bar is the paper's famous "58.75".)
 */

#include "benchsupport.hh"

namespace
{

using namespace hetsim;

void
benchDgpuRun(benchmark::State &state)
{
    auto wl = core::workloadByName("readmem");
    core::WorkloadConfig cfg;
    cfg.scale = 0.25;
    cfg.functional = false;
    for (auto _ : state) {
        auto result = wl->run(core::ModelKind::OpenCl,
                              sim::radeonR9_280X(), cfg);
        benchmark::DoNotOptimize(result.seconds);
    }
    state.SetLabel("host-side cost of one simulated dGPU run");
}
BENCHMARK(benchDgpuRun)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);
    bench::printTableII();
    bench::printSpeedupFigure(
        "Figure 9: Performance comparison of programming models on "
        "AMD Radeon R9 280X",
        sim::radeonR9_280X(), opts.scale, opts.csv);
    return bench::runRegisteredBenchmarks(opts);
}
