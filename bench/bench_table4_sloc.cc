/**
 * @file
 * Regenerates paper Table IV: source lines of code changed starting
 * from the serial CPU implementation, per application and programming
 * model, measured with the repository's own SLOC counter over the
 * per-model variant files (see core/sloc.hh for the methodology).
 */

#include "benchsupport.hh"

#include "core/sloc.hh"

namespace
{

using namespace hetsim;

void
benchSlocCount(benchmark::State &state)
{
    for (auto _ : state) {
        int total = 0;
        for (const auto &wl : core::makeAllWorkloads()) {
            total += core::SlocManifest::linesChanged(
                wl->alias(), core::ModelKind::OpenCl);
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetLabel("count+diff all OpenCL variants");
}
BENCHMARK(benchSlocCount)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);

    Table table("Table IV: Source Lines of Code Changed Starting from "
                "the CPU Serial Implementation");
    table.setHeader({"Application", "OpenMP", "OpenCL", "C++ AMP",
                     "OpenACC", "HC*"});
    for (const auto &wl : core::makeAllWorkloads()) {
        std::vector<std::string> row{wl->name()};
        for (core::ModelKind model :
             {core::ModelKind::OpenMp, core::ModelKind::OpenCl,
              core::ModelKind::CppAmp, core::ModelKind::OpenAcc,
              core::ModelKind::Hc})
            row.push_back(std::to_string(
                core::SlocManifest::linesChanged(wl->alias(), model)));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\n(*HC is this reproduction's Section-VII "
                 "extension, not part of the paper's Table IV.)\n";
    std::cout << "(Methodology: non-comment code lines of each "
                 "model's variant file that do not appear in the\n"
                 "serial variant; absolute counts are specific to this "
                 "reproduction - compare the ordering.)\n\n";

    return bench::runRegisteredBenchmarks(opts);
}
