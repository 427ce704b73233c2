/**
 * @file
 * Regenerates paper Figure 10: productivity (Equation 1) of each
 * programming model per application, double precision, on the APU and
 * the discrete GPU, with the harmonic-mean summary column.
 *
 *   productivity = (t_OMP / t_model) / (lines_model / lines_OMP)
 */

#include "benchsupport.hh"

#include "core/productivity.hh"
#include "core/sloc.hh"

namespace
{

using namespace hetsim;

void
printProductivity(const sim::DeviceSpec &device, double scale,
                  char sub)
{
    Table table(std::string("(") + sub + ") " + device.name);
    table.setHeader({"Model", "read-bench.", "LULESH", "CoMD",
                     "XSBench", "miniFE", "Har. Mean"});

    auto workloads = core::makeAllWorkloads();
    std::vector<std::unique_ptr<core::Harness>> harnesses;
    for (auto &wl : workloads)
        harnesses.push_back(
            std::make_unique<core::Harness>(*wl, scale, false));

    std::vector<core::ModelKind> models = bench::paperModels();
    models.push_back(core::ModelKind::Hc); // Section VII extension
    for (core::ModelKind model : models) {
        std::vector<double> values;
        for (size_t i = 0; i < workloads.size(); ++i) {
            auto point = harnesses[i]->speedup(device, model,
                                               Precision::Double);
            double model_lines = core::SlocManifest::linesChanged(
                workloads[i]->name(), model);
            double omp_lines = core::SlocManifest::linesChanged(
                workloads[i]->name(), core::ModelKind::OpenMp);
            values.push_back(core::productivity(
                point.baselineSeconds, point.seconds, model_lines,
                omp_lines));
        }
        std::vector<double> row = values;
        row.push_back(core::harmonicMean(values));
        table.addRow(ir::displayName(model), row, 3);
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
benchProductivityRow(benchmark::State &state)
{
    auto wl = core::workloadByName("readmem");
    for (auto _ : state) {
        core::Harness harness(*wl, 0.25, false);
        auto point = harness.speedup(sim::a10_7850kGpu(),
                                     core::ModelKind::CppAmp,
                                     Precision::Double);
        benchmark::DoNotOptimize(point.speedup);
    }
    state.SetLabel("one productivity cell (two simulated runs)");
}
BENCHMARK(benchProductivityRow)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);

    std::cout << "Figure 10: Productivity (Eq. 1) comparison, double "
                 "precision\n"
              << std::string(70, '=') << "\n\n";
    printProductivity(sim::a10_7850kGpu(), opts.scale, 'a');
    printProductivity(sim::radeonR9_280X(), opts.scale, 'b');

    return bench::runRegisteredBenchmarks(opts);
}
