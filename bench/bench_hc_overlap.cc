/**
 * @file
 * Section VII study: Heterogeneous Compute's explicit asynchronous
 * transfers.  Compares, on the discrete GPU:
 *  (1) read-memory end-to-end (incl. staging) under every model,
 *      HC included,
 *  (2) a chunked streaming pipeline with synchronous staging vs
 *      HC's overlapped copies ("asynchronous kernel launches which
 *      help in overlapping kernel execution with data-transfers").
 */

#include "benchsupport.hh"

#include "hc/hc.hh"

namespace
{

using namespace hetsim;

/** Chunked stream-processing pipeline over n_chunks buffers. */
double
pipelineSeconds(bool overlap, int n_chunks, u64 chunk_elems)
{
    hc::AcceleratorView av(sim::DeviceType::DiscreteGpu,
                           Precision::Single);
    av.runtime().setFunctionalExecution(false);
    std::vector<float> buf_a(chunk_elems), buf_b(chunk_elems);
    av.registerPointer(buf_a.data(), chunk_elems * 4, "chunk-a");
    av.registerPointer(buf_b.data(), chunk_elems * 4, "chunk-b");
    const float *bufs[2] = {buf_a.data(), buf_b.data()};

    ir::KernelDescriptor desc;
    desc.name = "chunk_process";
    desc.flopsPerItem = 300; // roughly balances PCIe vs compute
    ir::MemStream stream;
    stream.buffer = "chunk";
    stream.bytesPerItemSp = 4;
    stream.workingSetBytesSp = chunk_elems * 4;
    desc.streams.push_back(stream);

    hc::CompletionFuture prev_kernel{};
    for (int i = 0; i < n_chunks; ++i) {
        hc::CompletionFuture copy = av.copyAsync(
            bufs[i % 2], hc::CopyDir::HostToDevice,
            overlap ? hc::CompletionFuture{} : prev_kernel);
        prev_kernel = av.launchAsync(desc, chunk_elems, {}, nullptr,
                                     {copy});
    }
    return av.wait();
}

void
benchPipeline(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(pipelineSeconds(true, 16, 4 << 20));
    state.SetLabel("schedule a 16-chunk async pipeline");
}
BENCHMARK(benchPipeline)->Unit(benchmark::kMicrosecond);

} // namespace

int
main(int argc, char **argv)
{
    using namespace hetsim;
    setInformEnabled(false);
    bench::Options opts = bench::parseOptions(argc, argv, 1.0);

    std::cout << "Section VII: Heterogeneous Compute - explicit "
                 "asynchronous data transfers\n"
              << std::string(75, '=') << "\n\n";

    // (1) End-to-end readmem, transfers included.
    auto wl = core::workloadByName("readmem");
    core::Harness harness(*wl, opts.scale, false);
    Table table("read-memory on the dGPU, end to end (staging "
                "included)");
    table.setHeader({"Model", "total (s)", "kernel (s)",
                     "staging (s)"});
    for (core::ModelKind model :
         {core::ModelKind::OpenCl, core::ModelKind::CppAmp,
          core::ModelKind::OpenAcc, core::ModelKind::Hc}) {
        auto result = harness.runAt(sim::radeonR9_280X(), model,
                                    Precision::Single, {0, 0});
        table.addRow({ir::displayName(model),
                      Table::num(result.seconds, 4),
                      Table::num(result.kernelSeconds, 4),
                      Table::num(result.transferSeconds, 4)});
    }
    table.print(std::cout);
    std::cout << '\n';

    // (2) Copy/compute overlap.
    Table pipe("Chunked streaming pipeline (16 x 16 MiB chunks, "
               "dGPU)");
    pipe.setHeader({"Staging style", "total (s)", "speedup"});
    double sync_s = pipelineSeconds(false, 16, 4 << 20);
    double async_s = pipelineSeconds(true, 16, 4 << 20);
    pipe.addRow({"synchronous (copy, then kernel)",
                 Table::num(sync_s, 4), "1.00x"});
    pipe.addRow({"HC async copy/compute overlap",
                 Table::num(async_s, 4),
                 Table::num(sync_s / async_s, 2) + "x"});
    pipe.print(std::cout);
    std::cout << "(paper Sec. VII: asynchronous kernel launches "
                 "\"help in overlapping kernel execution with "
                 "data-transfers, resulting in further speedup\")\n\n";

    return bench::runRegisteredBenchmarks(opts);
}
