/**
 * @file
 * The app registration table: one row per proxy application, in the
 * paper's order.  A row names the app and points at the eight
 * per-model entry points its <app>_variants.hh declares.
 */

#include "comd/comd_variants.hh"
#include "lulesh/lulesh_variants.hh"
#include "minife/minife_variants.hh"
#include "readmem/readmem_variants.hh"
#include "xsbench/xsbench_variants.hh"

namespace hetsim::apps
{

namespace
{

constexpr core::AppEntry kApps[] = {
    {"readmem", "read-benchmark",
     "./read-benchmark (in-house, BLOCKSIZE=64)", true,
     readmem::runSerial, readmem::runOpenMp, readmem::runOpenCl,
     readmem::runCppAmp, readmem::runOpenAcc, readmem::runHc,
     readmem::runOmpTarget, readmem::runCuda},
    {"lulesh", "LULESH", "./LULESH -s 100 -i 100", false,
     lulesh::runSerial, lulesh::runOpenMp, lulesh::runOpenCl,
     lulesh::runCppAmp, lulesh::runOpenAcc, lulesh::runHc,
     lulesh::runOmpTarget, lulesh::runCuda},
    {"comd", "CoMD", "./CoMD -x 60 -y 60 -z 60", false,
     comd::runSerial, comd::runOpenMp, comd::runOpenCl,
     comd::runCppAmp, comd::runOpenAcc, comd::runHc,
     comd::runOmpTarget, comd::runCuda},
    {"xsbench", "XSBench", "./XSBench -s small", false,
     xsbench::runSerial, xsbench::runOpenMp, xsbench::runOpenCl,
     xsbench::runCppAmp, xsbench::runOpenAcc, xsbench::runHc,
     xsbench::runOmpTarget, xsbench::runCuda},
    {"minife", "miniFE", "./miniFE -nx 100 -ny 100 -nz 100", false,
     minife::runSerial, minife::runOpenMp, minife::runOpenCl,
     minife::runCppAmp, minife::runOpenAcc, minife::runHc,
     minife::runOmpTarget, minife::runCuda},
};

} // namespace

} // namespace hetsim::apps

namespace hetsim::core
{

std::vector<std::unique_ptr<Workload>>
makeAllWorkloads()
{
    std::vector<std::unique_ptr<Workload>> workloads;
    for (const AppEntry &app : apps::kApps)
        workloads.push_back(std::make_unique<Workload>(app));
    return workloads;
}

std::unique_ptr<Workload>
workloadByName(const std::string &name)
{
    for (const AppEntry &app : apps::kApps) {
        if (name == app.alias)
            return std::make_unique<Workload>(app);
    }
    return nullptr;
}

} // namespace hetsim::core
