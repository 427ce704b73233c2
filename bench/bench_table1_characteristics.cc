/**
 * @file
 * Regenerates paper Table I: characteristics of the proxy
 * applications (LLC miss rate, IPC, kernel count, boundedness),
 * measured on the discrete GPU under OpenCL at the paper's problem
 * sizes, plus the command lines (bottom half of Table I).
 */

#include "benchsupport.hh"

namespace
{

using namespace hetsim;

void
benchCharacteristics(benchmark::State &state)
{
    auto wl = core::workloadByName("readmem");
    for (auto _ : state) {
        core::Harness harness(*wl, 0.25, false);
        auto chars = harness.characteristics(sim::radeonR9_280X(),
                                             Precision::Single);
        benchmark::DoNotOptimize(chars.ipc);
    }
    state.SetLabel("full Table-I row (incl. sensitivity probes)");
}
BENCHMARK(benchCharacteristics)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);

    Table table("Table I: Characteristics of Proxy Applications");
    table.setHeader({"Application", "LLC Miss Rate", "IPC",
                     "Kernels", "Boundedness"});
    std::vector<std::pair<std::string, std::string>> cmdlines;
    for (auto &wl : core::makeAllWorkloads()) {
        if (wl->name() == "read-benchmark")
            continue; // Table I lists the four proxies only
        core::Harness harness(*wl, opts.scale, false);
        auto chars = harness.characteristics(sim::radeonR9_280X(),
                                             Precision::Single);
        table.addRow({chars.application,
                      Table::num(100.0 * chars.llcMissRatio, 1) + "%",
                      Table::num(chars.ipc, 2),
                      std::to_string(chars.kernels),
                      chars.boundedness});
        cmdlines.emplace_back(wl->name(), wl->cmdline());
    }
    table.print(std::cout);

    Table cmd("\nCommand Line Parameters");
    cmd.setHeader({"Application", "Command"});
    for (const auto &[name, line] : cmdlines)
        cmd.addRow({name, line});
    cmd.print(std::cout);
    std::cout << '\n';

    return bench::runRegisteredBenchmarks(opts);
}
