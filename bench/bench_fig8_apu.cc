/**
 * @file
 * Regenerates paper Figure 8: performance of the proxy applications
 * under OpenCL / C++ AMP / OpenACC on the AMD A10-7850K APU, single
 * and double precision, versus the 4-core OpenMP baseline.
 */

#include "benchsupport.hh"

namespace
{

using namespace hetsim;

void
benchApuRun(benchmark::State &state)
{
    auto wl = core::workloadByName("readmem");
    core::WorkloadConfig cfg;
    cfg.scale = 0.25;
    cfg.functional = false;
    for (auto _ : state) {
        auto result = wl->run(core::ModelKind::OpenCl,
                              sim::a10_7850kGpu(), cfg);
        benchmark::DoNotOptimize(result.seconds);
    }
    state.SetLabel("host-side cost of one simulated APU run");
}
BENCHMARK(benchApuRun)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);
    bench::printTableII();
    bench::printSpeedupFigure(
        "Figure 8: Performance comparison of programming models on "
        "AMD A10-7850K",
        sim::a10_7850kGpu(), opts.scale, opts.csv);
    return bench::runRegisteredBenchmarks(opts);
}
