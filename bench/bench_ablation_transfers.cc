/**
 * @file
 * Ablation for the paper's central discrete-GPU observation:
 * "compiler-generated code for data-transfers performs worse than
 * explicit programmer-written code" (Sec. VI-A).
 *
 * Three studies:
 *  (1) read-memory and XSBench total time split into kernel vs
 *      staging per model, on the dGPU and the APU (zero copy),
 *  (2) OpenACC with and without a hand-placed data region,
 *  (3) the same OpenACC loop on the APU, where staging vanishes.
 */

#include "benchsupport.hh"

#include "acc/acc.hh"

namespace
{

using namespace hetsim;

void
printTransferSplit(core::Workload &wl, const sim::DeviceSpec &device,
                   double scale)
{
    Table table(wl.name() + " on " + device.name);
    table.setHeader({"Model", "total (s)", "kernel (s)",
                     "staging (s)", "staging %"});
    core::Harness harness(wl, scale, false);
    for (core::ModelKind model : bench::paperModels()) {
        auto result = harness.runAt(device, model, Precision::Single,
                                    {0, 0});
        double pct = result.seconds > 0.0
                         ? 100.0 * result.transferSeconds /
                               result.seconds
                         : 0.0;
        table.addRow({ir::displayName(model),
                      Table::num(result.seconds, 4),
                      Table::num(result.kernelSeconds, 4),
                      Table::num(result.transferSeconds, 4),
                      Table::num(pct, 1)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

/** OpenACC iterative loop with / without a data region. */
double
accLoopSeconds(const sim::DeviceSpec &device, bool use_data_region,
               int iterations)
{
    acc::Runtime rt(device, Precision::Single);
    rt.runtime().setFunctionalExecution(false);
    std::vector<float> data(16 << 20);
    rt.declare(data.data(), data.size() * 4, "field");

    ir::KernelDescriptor desc;
    desc.name = "acc_iterative_update";
    desc.flopsPerItem = 8;
    ir::MemStream stream;
    stream.buffer = "field";
    stream.bytesPerItemSp = 8;
    stream.workingSetBytesSp = data.size() * 4;
    desc.streams.push_back(stream);

    acc::LoopClauses clauses;
    clauses.independent = true;
    clauses.vector = 128;

    auto body = [&] {
        for (int it = 0; it < iterations; ++it) {
            acc::kernelsLoop(rt, desc, data.size(), clauses,
                             {data.data()}, {data.data()},
                             [](u64) {});
        }
    };
    if (use_data_region) {
        acc::DataRegion region(rt, acc::CopyIn{data.data()},
                               acc::CopyOut{data.data()});
        body();
    } else {
        body();
    }
    return rt.elapsedSeconds();
}

void
benchAccDataRegion(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            accLoopSeconds(sim::radeonR9_280X(), true, 10));
    }
    state.SetLabel("host-side cost of the data-region study");
}
BENCHMARK(benchAccDataRegion)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);

    std::cout << "Ablation: explicit vs compiler-managed data "
                 "transfers (paper Sec. VI-A)\n"
              << std::string(75, '=') << "\n\n";

    auto readmem = core::workloadByName("readmem");
    auto xsbench = core::workloadByName("xsbench");
    printTransferSplit(*readmem, sim::radeonR9_280X(), opts.scale);
    printTransferSplit(*readmem, sim::a10_7850kGpu(), opts.scale);
    printTransferSplit(*xsbench, sim::radeonR9_280X(),
                       opts.scale * 0.5);
    printTransferSplit(*xsbench, sim::a10_7850kGpu(),
                       opts.scale * 0.5);

    Table region("OpenACC 'data' directive ablation (64 MiB field, "
                 "10 kernels regions)");
    region.setHeader({"Configuration", "total (s)"});
    region.addRow({"dGPU, per-region transfers (default)",
                   Table::num(accLoopSeconds(sim::radeonR9_280X(),
                                             false, 10),
                              4)});
    region.addRow({"dGPU, hand-placed data region",
                   Table::num(accLoopSeconds(sim::radeonR9_280X(),
                                             true, 10),
                              4)});
    region.addRow({"APU (zero copy), default",
                   Table::num(accLoopSeconds(sim::a10_7850kGpu(),
                                             false, 10),
                              4)});
    region.print(std::cout);
    std::cout << '\n';

    return bench::runRegisteredBenchmarks(opts);
}
