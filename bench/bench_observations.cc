/**
 * @file
 * Audits the five bullet observations of the paper's Section VI-A
 * against this reproduction, one verdict per bullet, with the
 * measured evidence next to it.  Also prints the APU -> dGPU
 * performance-portability factors behind the fifth bullet.
 */

#include "benchsupport.hh"

#include <map>

namespace
{

using namespace hetsim;

using SpeedupMap = std::map<core::ModelKind, double>;

SpeedupMap
speedups(core::Workload &wl, const sim::DeviceSpec &device,
         double scale)
{
    core::Harness harness(wl, scale, false);
    SpeedupMap out;
    for (const auto &point : harness.speedups(device)) {
        if (point.precision == Precision::Single)
            out[point.model] = point.speedup;
    }
    return out;
}

void
benchObservationSweep(benchmark::State &state)
{
    auto wl = core::workloadByName("readmem");
    for (auto _ : state) {
        auto s = speedups(*wl, sim::a10_7850kGpu(), 0.25);
        benchmark::DoNotOptimize(s[core::ModelKind::OpenCl]);
    }
    state.SetLabel("one observation data point (8 runs)");
}
BENCHMARK(benchObservationSweep)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 0.5);

    std::cout << "Section VI-A observations audit (scale "
              << Table::num(opts.scale, 2) << ")\n"
              << std::string(75, '=') << "\n\n";

    auto workloads = core::makeAllWorkloads();
    std::map<std::string, SpeedupMap> apu, dgpu;
    for (auto &wl : workloads) {
        apu[wl->name()] = speedups(*wl, sim::a10_7850kGpu(),
                                   opts.scale);
        dgpu[wl->name()] = speedups(*wl, sim::radeonR9_280X(),
                                    opts.scale);
    }
    using MK = core::ModelKind;

    Table verdicts("Observations");
    verdicts.setHeader({"#", "Paper claim", "Verdict", "Evidence"});

    // 1. C++ AMP outperformed OpenACC in most cases.
    int amp_wins = 0, cases = 0;
    for (auto &wl : workloads) {
        for (auto *table : {&apu, &dgpu}) {
            ++cases;
            amp_wins += (*table)[wl->name()][MK::CppAmp] >
                        (*table)[wl->name()][MK::OpenAcc];
        }
    }
    verdicts.addRow({"1", "C++ AMP outperformed OpenACC in most cases",
                     amp_wins * 2 > cases ? "HOLDS" : "FAILS",
                     std::to_string(amp_wins) + "/" +
                         std::to_string(cases) + " cases"});

    // 2. OpenCL best for compute-bound applications (CoMD, XSBench
    //    on the dGPU - suboptimal vectorization elsewhere).
    bool ocl_compute =
        dgpu["CoMD"][MK::OpenCl] > dgpu["CoMD"][MK::CppAmp] &&
        dgpu["CoMD"][MK::OpenCl] > dgpu["CoMD"][MK::OpenAcc] &&
        dgpu["XSBench"][MK::OpenCl] > dgpu["XSBench"][MK::CppAmp] &&
        dgpu["XSBench"][MK::OpenCl] > dgpu["XSBench"][MK::OpenAcc];
    verdicts.addRow(
        {"2", "OpenCL best for compute-bound applications",
         ocl_compute ? "HOLDS" : "FAILS",
         "CoMD " + Table::num(dgpu["CoMD"][MK::OpenCl], 1) + " vs " +
             Table::num(dgpu["CoMD"][MK::CppAmp], 1) + "/" +
             Table::num(dgpu["CoMD"][MK::OpenAcc], 1)});

    // 3. C++ AMP best on the APU for apps with large transfer costs
    //    (XSBench and its 240 MB table).
    bool amp_apu =
        apu["XSBench"][MK::CppAmp] > apu["XSBench"][MK::OpenCl] &&
        apu["XSBench"][MK::CppAmp] > apu["XSBench"][MK::OpenAcc];
    verdicts.addRow(
        {"3", "C++ AMP best on APU for transfer-heavy apps",
         amp_apu ? "HOLDS" : "FAILS",
         "XSBench APU: AMP " +
             Table::num(apu["XSBench"][MK::CppAmp], 2) + " vs OCL " +
             Table::num(apu["XSBench"][MK::OpenCl], 2)});

    // 4. Emerging models slower than OpenCL on the dGPU (managed
    //    transfers + codegen).
    bool ocl_dgpu = true;
    for (auto &wl : workloads) {
        ocl_dgpu &= dgpu[wl->name()][MK::OpenCl] >=
                    dgpu[wl->name()][MK::CppAmp];
        ocl_dgpu &= dgpu[wl->name()][MK::OpenCl] >=
                    dgpu[wl->name()][MK::OpenAcc];
    }
    verdicts.addRow({"4",
                     "Emerging models slower than OpenCL on the dGPU",
                     ocl_dgpu ? "HOLDS" : "FAILS", "all 5 apps"});

    // 5. Performance portability: unmodified emerging-model code
    //    speeds up in all cases when moved APU -> dGPU.
    bool portable = true;
    for (auto &wl : workloads) {
        for (MK model : {MK::OpenCl, MK::CppAmp, MK::OpenAcc}) {
            portable &= dgpu[wl->name()][model] >
                        apu[wl->name()][model];
        }
    }
    verdicts.addRow({"5", "All models speed up moving APU -> dGPU",
                     portable ? "HOLDS" : "FAILS",
                     "see portability table below"});

    // Extension: HC delivers OpenCL performance (Section VII).
    bool hc_fast = true;
    for (auto &wl : workloads) {
        hc_fast &= dgpu[wl->name()][MK::Hc] >=
                   0.95 * dgpu[wl->name()][MK::OpenCl];
    }
    verdicts.addRow({"+", "HC matches OpenCL performance (Sec. VII)",
                     hc_fast ? "HOLDS" : "FAILS", "all 5 apps, dGPU"});
    verdicts.print(std::cout);
    std::cout << '\n';

    Table omp("Baseline sanity: 4-core OpenMP over serial (SP)");
    omp.setHeader({"App", "serial (s)", "OpenMP (s)", "scaling"});
    for (auto &wl : workloads) {
        core::Harness harness(*wl, opts.scale, false);
        auto serial = harness.runAt(sim::a10_7850kCpu(),
                                    MK::Serial, Precision::Single,
                                    {0, 0});
        auto omp_run = harness.runAt(sim::a10_7850kCpu(),
                                     MK::OpenMp, Precision::Single,
                                     {0, 0});
        double s_t = wl->kernelOnlyComparison() ? serial.kernelSeconds
                                                : serial.seconds;
        double o_t = wl->kernelOnlyComparison()
                         ? omp_run.kernelSeconds
                         : omp_run.seconds;
        omp.addRow({wl->name(), Table::num(s_t, 4),
                    Table::num(o_t, 4),
                    Table::num(s_t / o_t, 2) + "x"});
    }
    omp.print(std::cout);
    std::cout << '\n';

    Table port("Performance portability: dGPU speedup / APU speedup "
               "(same source)");
    port.setHeader({"App", "OpenCL", "C++ AMP", "OpenACC", "HC"});
    for (auto &wl : workloads) {
        std::vector<double> vals;
        for (MK model : {MK::OpenCl, MK::CppAmp, MK::OpenAcc, MK::Hc})
            vals.push_back(dgpu[wl->name()][model] /
                           apu[wl->name()][model]);
        port.addRow(wl->name(), vals, 2);
    }
    port.print(std::cout);
    std::cout << '\n';

    return bench::runRegisteredBenchmarks(opts);
}
