/**
 * @file
 * Regenerates paper Figure 7: normalized performance of each proxy
 * application on the discrete GPU under OpenCL while sweeping the
 * core clock (200-1000 MHz) at eight memory clocks (480-1250 MHz).
 *
 * One series (row) per memory frequency, matching the paper's plots;
 * values are normalized so the slowest clock pair reads 0.5.
 */

#include "benchsupport.hh"

namespace
{

using namespace hetsim;

const std::vector<double> kCoreMhz{200, 300, 400, 500, 600,
                                   700, 800, 900, 1000};
const std::vector<double> kMemMhz{480, 590, 700, 810,
                                  920, 1030, 1140, 1250};

void
benchSweepPoint(benchmark::State &state)
{
    auto wl = core::workloadByName("readmem");
    core::Harness harness(*wl, 0.25, false);
    for (auto _ : state) {
        auto result = harness.runAt(sim::radeonR9_280X(),
                                    core::ModelKind::OpenCl,
                                    Precision::Single, {600, 810});
        benchmark::DoNotOptimize(result.seconds);
    }
    state.SetLabel("host-side cost of one sweep point");
}
BENCHMARK(benchSweepPoint)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    // Sweeps run 72 configurations per application; default to half
    // scale (use --scale 1.0 for the paper's exact problem sizes -
    // the normalized shapes are the same).
    bench::Options opts = bench::parseOptions(argc, argv, 0.5);

    std::cout << "Figure 7: Normalized performance vs core frequency "
                 "(one series per memory frequency)\n"
              << std::string(79, '=') << "\n";
    std::printf("Device: AMD Radeon R9 280X, OpenCL, SP, scale %.2f\n\n",
                opts.scale);

    char sub = 'a';
    for (auto &wl : core::makeAllWorkloads()) {
        core::Harness harness(*wl, opts.scale, false);
        auto rows = harness.freqSweep(sim::radeonR9_280X(),
                                      core::ModelKind::OpenCl,
                                      Precision::Single, kCoreMhz,
                                      kMemMhz);
        Table table(std::string("(") + sub++ + ") " + wl->name());
        std::vector<std::string> header{"Mem\\Core"};
        for (double core : kCoreMhz)
            header.push_back(Table::num(core, 0));
        table.setHeader(header);
        for (size_t m = 0; m < rows.size(); ++m) {
            std::vector<double> vals;
            for (const auto &point : rows[m])
                vals.push_back(point.normalizedPerf);
            table.addRow(Table::num(kMemMhz[m], 0) + " MHz", vals, 2);
        }
        table.print(std::cout);
        if (opts.csv)
            table.printCsv(std::cout);

        // The boundedness read off the sweep (Table I's last column).
        double core_sens = rows[4].front().seconds /
                           rows[4].back().seconds;
        double mem_sens = rows.front()[8].seconds /
                          rows.back()[8].seconds;
        std::printf("    -> core sensitivity %.2fx, memory "
                    "sensitivity %.2fx: %s\n\n",
                    core_sens, mem_sens,
                    core::classifyBoundedness(core_sens, mem_sens)
                        .c_str());
    }
    return bench::runRegisteredBenchmarks(opts);
}
