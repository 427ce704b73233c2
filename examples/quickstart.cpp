/**
 * @file
 * Quickstart: run the read-memory micro-benchmark under every
 * programming model on both simulated machines and print the paper's
 * headline comparison.
 *
 *   $ ./quickstart
 *
 * This is the 20-line tour of the public API: pick a workload, pick a
 * device, pick a model, run, read the simulated results.
 */

#include <cstdio>

#include "common/logging.hh"
#include "core/harness.hh"
#include "core/workload.hh"

using namespace hetsim;

int
main()
{
    setInformEnabled(false);

    // A workload bundles the serial reference plus one implementation
    // per programming model.
    std::unique_ptr<core::Workload> readmem =
        core::workloadByName("readmem");

    // First: one raw run, with functional execution and validation.
    core::WorkloadConfig cfg;
    cfg.scale = 0.25;       // quarter of the paper's problem size
    cfg.functional = true;  // actually compute (and check) results
    core::RunResult run = readmem->run(core::ModelKind::CppAmp,
                                       sim::radeonR9_280X(), cfg);
    std::printf("C++ AMP on the R9 280X: %.3f ms simulated, "
                "validated=%s, checksum=%.1f\n\n",
                run.seconds * 1e3, run.validated ? "yes" : "NO",
                run.checksum);

    // Then: the paper's comparison, via the harness.
    for (const sim::DeviceSpec &device :
         {sim::a10_7850kGpu(), sim::radeonR9_280X()}) {
        std::printf("=== %s (speedup vs 4-core OpenMP, kernel time) "
                    "===\n",
                    device.name.c_str());
        core::Harness harness(*readmem, 0.25, false);
        for (const core::SpeedupPoint &point :
             harness.speedups(device)) {
            if (point.precision != Precision::Single)
                continue;
            std::printf("  %-8s %6.2fx\n",
                        ir::displayName(point.model), point.speedup);
        }
        std::printf("\n");
    }

    std::printf("Next steps: bench/bench_fig8_apu and "
                "bench/bench_fig9_dgpu regenerate the full paper "
                "figures.\n");
    return 0;
}
