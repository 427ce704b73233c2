/**
 * @file
 * Tests for the hetsim CLI driver (parsing + command execution).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "core/workload.hh"
#include "kernelir/captable.hh"
#include "tools/cli.hh"

namespace hetsim::cli
{
namespace
{

TEST(CliParse, RunWithAllOptions)
{
    Args args = parse({"run", "--app", "comd", "--model", "amp",
                       "--device", "apu", "--scale", "0.5", "--dp",
                       "--functional", "--freq", "600:810",
                       "--stats"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "run");
    EXPECT_EQ(args.app, "comd");
    EXPECT_EQ(args.model, "amp");
    EXPECT_EQ(args.device, "apu");
    EXPECT_DOUBLE_EQ(args.scale, 0.5);
    EXPECT_TRUE(args.doublePrecision);
    EXPECT_TRUE(args.functional);
    EXPECT_TRUE(args.stats);
    EXPECT_DOUBLE_EQ(args.freq.coreMhz, 600);
    EXPECT_DOUBLE_EQ(args.freq.memMhz, 810);
}

TEST(CliParse, Errors)
{
    EXPECT_FALSE(parse({}).error.empty());
    EXPECT_FALSE(parse({"frobnicate"}).error.empty());
    EXPECT_FALSE(parse({"run", "--scale"}).error.empty());
    EXPECT_FALSE(parse({"run", "--scale", "-1"}).error.empty());
    EXPECT_FALSE(parse({"run", "--freq", "925"}).error.empty());
    EXPECT_FALSE(parse({"run", "--wat"}).error.empty());
}

TEST(CliParse, MalformedFreqIsRejectedNotDefaulted)
{
    // Every one of these used to silently atof() to 0:0 (stock
    // clocks); they must produce a clear error instead.
    for (const char *bad : {"a:b", "925:", ":1500", "925:junk",
                            "9x25:810", "-925:810", "925:-810",
                            "0:810", "925:0"}) {
        Args args = parse({"run", "--freq", bad});
        EXPECT_FALSE(args.error.empty()) << bad;
        EXPECT_NE(args.error.find("--freq"), std::string::npos) << bad;
    }
    // Well-formed values still parse.
    Args ok = parse({"run", "--freq", "925:1500"});
    EXPECT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_DOUBLE_EQ(ok.freq.coreMhz, 925);
    EXPECT_DOUBLE_EQ(ok.freq.memMhz, 1500);
}

TEST(CliParse, CoexecOptions)
{
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--policy", "adaptive", "--chunk",
                       "256", "--scale", "0.1", "--functional"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "coexec");
    EXPECT_EQ(args.devices, "cpu+dgpu");
    EXPECT_EQ(args.policy, "adaptive");
    EXPECT_EQ(args.chunk, 256u);

    EXPECT_FALSE(parse({"coexec", "--chunk", "nope"}).error.empty());
    EXPECT_FALSE(parse({"coexec", "--chunk", "-4"}).error.empty());
}

TEST(CliParse, FaultFlags)
{
    Args args = parse({"coexec", "--inject-faults",
                       "transfer:0.2,stall:0.1", "--fault-seed", "42",
                       "--retry-max", "7", "--fail-device", "gpu",
                       "--min-chunk", "128"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_TRUE(args.faultsGiven);
    EXPECT_DOUBLE_EQ(args.faultConfig.transferFailRate, 0.2);
    EXPECT_DOUBLE_EQ(args.faultConfig.stallRate, 0.1);
    EXPECT_EQ(args.faultConfig.seed, 42u);
    EXPECT_EQ(args.faultConfig.retryMax, 7u);
    EXPECT_EQ(args.faultConfig.failDevice, "gpu");
    EXPECT_EQ(args.minChunk, 128u);

    // No fault flag given: the campaign stays off.
    EXPECT_FALSE(parse({"coexec"}).faultsGiven);
    // --fault-seed/--retry-max alone configure but do not arm it.
    EXPECT_FALSE(parse({"coexec", "--fault-seed", "9"}).faultsGiven);
}

// Satellite 2: integer flags route through a strict validator;
// negatives, trailing junk, signs, and overflow are all rejected
// instead of being silently truncated.
TEST(CliParse, StrictIntegerFlagsRejectJunk)
{
    struct FlagCase
    {
        const char *flag;
        const char *bad;
    };
    const FlagCase cases[] = {
        {"--chunk", "-5"},       {"--chunk", "0"},
        {"--chunk", "12x"},      {"--chunk", "1.5"},
        {"--chunk", "+3"},       {"--chunk", " 4"},
        {"--min-chunk", "-1"},   {"--min-chunk", "0"},
        {"--min-chunk", "junk"}, {"--fault-seed", "-1"},
        {"--fault-seed", "0x10"},
        {"--fault-seed", "99999999999999999999999"},
        {"--retry-max", "-2"},   {"--retry-max", "65"},
        {"--retry-max", "3x"},
    };
    for (const FlagCase &c : cases) {
        Args args = parse({"coexec", c.flag, c.bad});
        EXPECT_FALSE(args.error.empty()) << c.flag << " " << c.bad;
        EXPECT_NE(args.error.find(c.flag), std::string::npos)
            << c.flag << " " << c.bad;
    }
    // Boundary values that must parse.
    EXPECT_TRUE(parse({"coexec", "--retry-max", "0"}).error.empty());
    EXPECT_TRUE(parse({"coexec", "--fault-seed", "0"}).error.empty());
    EXPECT_TRUE(
        parse({"coexec", "--inject-faults", "transfer:0"}).error
            .empty());
    EXPECT_FALSE(
        parse({"coexec", "--inject-faults", "transfer:0.1,"})
            .error.empty());
    EXPECT_FALSE(parse({"coexec", "--fail-device", ""}).error.empty());
}

// --- Parse contract ----------------------------------------------------

/**
 * One option's parse-error contract: the exact Args::error for the
 * option with no value after it, and for one bad value (nullptr when
 * the option takes any text).  A switch "misses" nothing, so its
 * missing-value error is whatever the bare switch produces on `run`.
 */
struct GoldenFlag
{
    const char *flag;
    const char *missing;
    const char *bad;
    const char *badError;
};

const GoldenFlag kGoldenFlags[] = {
    {"--app", "--app needs a value", nullptr, nullptr},
    {"--model", "--model needs a value", nullptr, nullptr},
    {"--device", "--device needs a value", nullptr, nullptr},
    {"--scale", "--scale needs a value", "x",
     "--scale wants a positive number, got 'x'"},
    {"--devices", "--devices needs a value", nullptr, nullptr},
    {"--backend", "--backend needs a value", "x",
     "--backend wants a device backend (ocl, amp, acc, hc, omp, cuda), "
     "got 'x'"},
    {"--power-model", "--power-model needs a value", "",
     "--power-model wants a file path"},
    {"--energy-out", "--energy-out needs a value", "",
     "--energy-out wants a file path"},
    {"--trace-out", "--trace-out needs a value", "",
     "--trace-out wants a file path"},
    {"--metrics-out", "--metrics-out needs a value", "",
     "--metrics-out wants a file path"},
    {"--profile-out", "--profile-out needs a value", "",
     "--profile-out wants a file path"},
    {"--observations-out", "--observations-out needs a value", "",
     "--observations-out wants a file path"},
    {"--trace-sample", "--trace-sample needs a value", "x",
     "--trace-sample wants a positive node count, got 'x'"},
    {"--policy", "--policy needs a value", nullptr, nullptr},
    {"--chunk", "--chunk needs a value", "x",
     "--chunk wants a positive item count, got 'x'"},
    {"--min-chunk", "--min-chunk needs a value", "x",
     "--min-chunk wants a positive item count, got 'x'"},
    {"--inject-faults", "--inject-faults needs a value", "x",
     "--inject-faults wants kind:rate pairs (transfer|launch|stall, "
     "rate in [0,1]), got 'x'"},
    {"--fault-seed", "--fault-seed needs a value", "x",
     "--fault-seed wants an unsigned integer, got 'x'"},
    {"--retry-max", "--retry-max needs a value", "x",
     "--retry-max wants a retry budget in [0, 64], got 'x'"},
    {"--fail-device", "--fail-device needs a value", "",
     "--fail-device wants a device alias"},
    {"--freq", "--freq needs a value", "x",
     "--freq wants core:mem in positive MHz, got 'x'"},
    {"--jobs", "--jobs needs a value", "", "--jobs wants a file path"},
    {"--results-out", "--results-out needs a value", "",
     "--results-out wants a file path"},
    {"--workers", "--workers needs a value", "x",
     "--workers wants a worker count, got 'x'"},
    {"--queue-cap", "--queue-cap needs a value", "x",
     "--queue-cap wants a job count (0 = unbounded), got 'x'"},
    {"--deadline-ms", "--deadline-ms needs a value", "x",
     "--deadline-ms wants milliseconds (0 = none), got 'x'"},
    {"--shots", "--shots needs a value", "x",
     "--shots wants a positive job count, got 'x'"},
    {"--admission", "--admission needs a value", "x",
     "--admission wants reject, shed, or block, got 'x'"},
    {"--stream",
     "--stream is a serve-verb flag (hetsim serve --stream < jobs.jsonl)",
     nullptr, nullptr},
    {"--tenants", "--tenants needs a value", "x",
     "--tenants: entry 'x' is not of the form name:value"},
    {"--quota", "--quota needs a value", "x",
     "--quota: entry 'x' is not of the form name:value"},
    {"--service-deadline-ms", "--service-deadline-ms needs a value", "x",
     "--service-deadline-ms wants simulated milliseconds (0 = none), "
     "got 'x'"},
    {"--max-preemptions", "--max-preemptions needs a value", "x",
     "--max-preemptions wants a preemption count, got 'x'"},
    {"--autoscale", "", nullptr, nullptr},
    {"--min-workers", "--min-workers needs a value", "x",
     "--min-workers wants a positive worker count, got 'x'"},
    {"--max-workers", "--max-workers needs a value", "x",
     "--max-workers wants a positive worker count (omit for --workers), "
     "got 'x'"},
    {"--topology", "--topology needs a value", "",
     "--topology wants a file path"},
    {"--nodes", "--nodes needs a value", "x",
     "--nodes wants a positive node count, got 'x'"},
    {"--njobs", "--njobs needs a value", "x",
     "--njobs wants a positive job count, got 'x'"},
    {"--placement", "--placement needs a value", "x",
     "--placement wants first-fit, least-loaded, or locality, got 'x'"},
    {"--rate", "--rate needs a value", "x",
     "--rate wants a positive jobs/sec arrival rate, got 'x'"},
    {"--slo-ms", "--slo-ms needs a value", "x",
     "--slo-ms wants milliseconds (0 = none), got 'x'"},
    {"--node-fail-rate", "--node-fail-rate needs a value", "x",
     "--node-fail-rate wants a fraction in [0, 1], got 'x'"},
    {"--seed", "--seed needs a value", "x",
     "--seed wants an unsigned integer, got 'x'"},
    {"--model-in", "--model-in needs a value", "",
     "--model-in wants a file path"},
    {"--model-out", "--model-out needs a value", "",
     "--model-out wants a file path"},
    {"--fit", "--fit needs a value", "",
     "--fit wants an observation JSONL file path"},
    {"--kernel", "--kernel needs a value", "",
     "--kernel wants a kernel name"},
    {"--items", "--items needs a value", "x",
     "--items wants a positive item count, got 'x'"},
    {"--predict-admission",
     "--predict-admission needs --model-in FILE (recorded job costs to "
     "predict from)",
     nullptr, nullptr},
    {"--no-surrogate", "", nullptr, nullptr},
    {"--sweep", "", nullptr, nullptr},
    {"--dp", "", nullptr, nullptr},
    {"--functional", "", nullptr, nullptr},
    {"--no-timing-cache", "", nullptr, nullptr},
    {"--stats", "", nullptr, nullptr},
    {"--kernels", "", nullptr, nullptr},
};

TEST(CliGolden, ParseErrors)
{
    EXPECT_EQ(std::size(kGoldenFlags), 57u);
    for (const GoldenFlag &g : kGoldenFlags) {
        EXPECT_EQ(parse({"run", g.flag}).error, g.missing) << g.flag;
        if (g.bad != nullptr) {
            EXPECT_EQ(parse({"run", g.flag, g.bad}).error, g.badError)
                << g.flag;
        }
    }

    // Boundary values on the flags with a range.
    const GoldenFlag bounds[] = {
        {"--chunk", nullptr, "0",
         "--chunk wants a positive item count, got '0'"},
        {"--retry-max", nullptr, "65",
         "--retry-max wants a retry budget in [0, 64], got '65'"},
        {"--node-fail-rate", nullptr, "1.5",
         "--node-fail-rate wants a fraction in [0, 1], got '1.5'"},
        {"--scale", nullptr, "0",
         "--scale wants a positive number, got '0'"},
        {"--scale", nullptr, "nan",
         "--scale wants a positive number, got 'nan'"},
        {"--scale", nullptr, "inf",
         "--scale wants a positive number, got 'inf'"},
        {"--scale", nullptr, "1e400",
         "--scale wants a positive number, got '1e400'"},
        {"--scale", nullptr, "4.5", "--scale wants at most 4, got '4.5'"},
        {"--scale", nullptr, "1e300",
         "--scale wants at most 4, got '1e300'"},
        {"--rate", nullptr, "inf",
         "--rate wants a positive jobs/sec arrival rate, got 'inf'"},
        {"--node-fail-rate", nullptr, "nan",
         "--node-fail-rate wants a fraction in [0, 1], got 'nan'"},
        {"--freq", nullptr, "nan:1500",
         "--freq wants core:mem in positive MHz, got 'nan:1500'"},
        {"--inject-faults", nullptr, "transfer:nan",
         "--inject-faults wants kind:rate pairs (transfer|launch|stall, "
         "rate in [0,1]), got 'transfer:nan'"},
        {"--freq", nullptr, "925",
         "--freq wants core:mem in positive MHz, got '925'"},
        {"--tenants", nullptr, "",
         "--tenants: empty entry in ''"},
        {"--seed", nullptr, "99999999999999999999999",
         "--seed wants an unsigned integer, got "
         "'99999999999999999999999'"},
    };
    for (const GoldenFlag &g : bounds)
        EXPECT_EQ(parse({"run", g.flag, g.bad}).error, g.badError)
            << g.flag << " " << g.bad;

    EXPECT_EQ(parse({"run", "--scale", "4"}).error, "");

    // Commands and unknown options.
    EXPECT_EQ(parse({}).error, "missing command");
    EXPECT_EQ(parse({"frobnicate"}).error, "unknown command 'frobnicate'");
    EXPECT_EQ(parse({"run", "--wat"}).error, "unknown option '--wat'");
    EXPECT_EQ(parse({"run", "readmem"}).error, "unknown option 'readmem'");
    // The first bad option wins.
    EXPECT_EQ(parse({"run", "--scale", "x", "--wat"}).error,
              "--scale wants a positive number, got 'x'");

    // The five cross-option checks, in the order they run.
    EXPECT_EQ(parse({"serve", "--predict-admission", "--stream"}).error,
              "--predict-admission needs --model-in FILE (recorded job "
              "costs to predict from)");
    EXPECT_EQ(parse({"batch", "--stream", "--energy-out", "e"}).error,
              "--stream is a serve-verb flag (hetsim serve --stream < "
              "jobs.jsonl)");
    EXPECT_EQ(parse({"serve", "--energy-out", "e.json"}).error,
              "--energy-out writes one run's energy report; it is a "
              "run/coexec-verb flag");
    EXPECT_EQ(parse({"serve", "--autoscale", "--min-workers", "8",
                     "--max-workers", "2"})
                  .error,
              "--min-workers exceeds the autoscale ceiling "
              "(--max-workers, default --workers)");
    EXPECT_EQ(parse({"serve", "--autoscale", "--min-workers", "5"}).error,
              "--min-workers exceeds the autoscale ceiling "
              "(--max-workers, default --workers)");
    EXPECT_EQ(parse({"predict"}).error,
              "predict needs --fit OBS_JSONL or --model-in FILE");
    for (const char *verb :
         {"list", "backends", "run", "compare", "sweep", "coexec",
          "breakdown", "profile", "batch", "serve", "fleet"})
        EXPECT_EQ(parse({verb}).error, "") << verb;
}

TEST(CliParse, EveryUsageFlagParses)
{
    std::ostringstream os;
    usage(os);
    const std::string text = os.str();
    std::set<std::string> flags;
    const std::regex flagToken("--[a-z][a-z-]*");
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        flagToken);
         it != std::sregex_iterator(); ++it)
        flags.insert(it->str());
    for (const std::string &flag : flags)
        EXPECT_EQ(parse({"run", flag}).error.find("unknown option"),
                  std::string::npos)
            << flag;
    // And the other way: every option the parser knows is documented.
    for (const GoldenFlag &g : kGoldenFlags)
        EXPECT_EQ(flags.count(g.flag), 1u) << g.flag;
    EXPECT_EQ(flags.size(), std::size(kGoldenFlags));
}

TEST(CliExecute, CoexecFailDeviceDegradesAndValidates)
{
    std::ostringstream os;
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--scale", "0.05", "--functional",
                       "--fail-device", "gpu"});
    ASSERT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(execute(args, os), 0) << os.str();
    EXPECT_NE(os.str().find("degradations"), std::string::npos);
    EXPECT_NE(os.str().find("dead devices"), std::string::npos);
    EXPECT_NE(os.str().find("yes"), std::string::npos);
}

TEST(CliExecute, CoexecAllDevicesDeadExitsCleanly)
{
    std::ostringstream os;
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu", "--scale", "0.05", "--fail-device",
                       "cpu"});
    ASSERT_TRUE(args.error.empty()) << args.error;
    // Structured error + exit 2, not a panic/abort.
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("error:"), std::string::npos);
}

TEST(CliLookups, Aliases)
{
    // Every app alias, in the registration table's (the paper's) order.
    const char *apps[] = {"readmem", "lulesh", "comd", "xsbench",
                          "minife"};
    auto all = core::makeAllWorkloads();
    ASSERT_EQ(all.size(), std::size(apps));
    for (size_t i = 0; i < std::size(apps); ++i) {
        EXPECT_EQ(all[i]->alias(), apps[i]);
        auto wl = core::workloadByName(apps[i]);
        ASSERT_NE(wl, nullptr) << apps[i];
        EXPECT_EQ(wl->alias(), apps[i]);
    }
    EXPECT_EQ(core::workloadByName("nope"), nullptr);
    EXPECT_EQ(core::workloadByName("LULESH"), nullptr); // display name

    // Every model name and alias, under --model and under --backend.
    // "omp" is the one name whose meaning differs: host OpenMP as a
    // model, OpenMP target offload as a backend.
    using K = core::ModelKind;
    const std::optional<K> none;
    const struct
    {
        const char *name;
        std::optional<K> model;
        std::optional<K> backend;
    } names[] = {
        {"serial", K::Serial, none},
        {"openmp", K::OpenMp, none},
        {"omp", K::OpenMp, K::OmpTarget},
        {"opencl", K::OpenCl, K::OpenCl},
        {"ocl", K::OpenCl, K::OpenCl},
        {"cppamp", K::CppAmp, K::CppAmp},
        {"amp", K::CppAmp, K::CppAmp},
        {"openacc", K::OpenAcc, K::OpenAcc},
        {"acc", K::OpenAcc, K::OpenAcc},
        {"hc", K::Hc, K::Hc},
        {"omptarget", K::OmpTarget, K::OmpTarget},
        {"target", K::OmpTarget, K::OmpTarget},
        {"cuda", K::Cuda, K::Cuda},
        {"sycl", none, none},
        {"OpenCL", none, none},
        {"", none, none},
    };
    for (const auto &n : names) {
        EXPECT_EQ(ir::modelByName(n.name), n.model) << n.name;
        EXPECT_EQ(ir::backendByName(n.name), n.backend) << n.name;
    }
    // Every row's name and alias resolves to its own row.
    for (const ir::BackendCaps &caps : ir::backendTable()) {
        EXPECT_EQ(ir::modelByName(caps.name), caps.kind) << caps.name;
        if (caps.alias != nullptr) {
            EXPECT_EQ(ir::modelByName(caps.alias), caps.kind)
                << caps.alias;
        }
    }
    ASSERT_TRUE(sim::deviceByName("apu").has_value());
    EXPECT_TRUE(sim::deviceByName("apu")->zeroCopy);
    EXPECT_FALSE(sim::deviceByName("fpga").has_value());
}

TEST(CliExecute, ListPrintsEveryApp)
{
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"list"}), os), 0);
    for (const char *app :
         {"readmem", "lulesh", "comd", "xsbench", "minife"})
        EXPECT_NE(os.str().find(app), std::string::npos) << app;
}

TEST(CliExecute, RunFunctionalValidates)
{
    std::ostringstream os;
    Args args = parse({"run", "--app", "readmem", "--model", "hc",
                       "--device", "dgpu", "--scale", "0.05",
                       "--functional", "--stats"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("validated"), std::string::npos);
    EXPECT_NE(os.str().find("yes"), std::string::npos);
    EXPECT_NE(os.str().find("kernel.launches"), std::string::npos);
}

TEST(CliExecute, CompareListsDeviceModels)
{
    std::ostringstream os;
    Args args = parse({"compare", "--app", "minife", "--device",
                       "apu", "--scale", "0.1"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("OpenCL"), std::string::npos);
    EXPECT_NE(os.str().find("C++ AMP"), std::string::npos);
    EXPECT_NE(os.str().find("HC"), std::string::npos);
}

TEST(CliExecute, SweepPrintsGrid)
{
    std::ostringstream os;
    Args args = parse({"sweep", "--app", "readmem", "--scale", "0.1"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("1000"), std::string::npos);
    EXPECT_NE(os.str().find("0.50"), std::string::npos); // slowest pt
}

TEST(CliExecute, BadNamesReturnError)
{
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"run", "--app", "doom"}), os), 2);
    EXPECT_EQ(execute(parse({"compare", "--device", "fpga"}), os), 2);
    EXPECT_EQ(execute(parse({"coexec", "--devices", "cpu+fpga"}), os),
              2);
    EXPECT_EQ(execute(parse({"coexec", "--policy", "greedy"}), os),
              2);
    EXPECT_EQ(execute(parse({"coexec", "--app", "lulesh"}), os), 2);
}

TEST(CliExecute, CoexecPrintsPerDeviceBreakdown)
{
    std::ostringstream os;
    Args args = parse({"coexec", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--policy", "adaptive", "--scale",
                       "0.02", "--functional"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("share"), std::string::npos);
    EXPECT_NE(out.find("pcie (s)"), std::string::npos);
    EXPECT_NE(out.find("idle (s)"), std::string::npos);
    EXPECT_NE(out.find("A10-7850K"), std::string::npos);
    EXPECT_NE(out.find("R9 280X"), std::string::npos);
    EXPECT_NE(out.find("co-exec speedup"), std::string::npos);
    EXPECT_NE(out.find("validated"), std::string::npos);
    EXPECT_NE(out.find("yes"), std::string::npos);
}

TEST(CliParse, ObservabilityFlags)
{
    Args args = parse({"breakdown", "--app", "xsbench", "--device",
                       "dgpu", "--trace-out", "/tmp/t.json",
                       "--metrics-out", "/tmp/m.json"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "breakdown");
    EXPECT_EQ(args.traceOut, "/tmp/t.json");
    EXPECT_EQ(args.metricsOut, "/tmp/m.json");
    EXPECT_FALSE(args.devicesGiven);

    Args coex = parse({"breakdown", "--app", "readmem", "--devices",
                       "cpu+dgpu"});
    EXPECT_TRUE(coex.error.empty()) << coex.error;
    EXPECT_TRUE(coex.devicesGiven);

    EXPECT_FALSE(parse({"run", "--trace-out"}).error.empty());
    EXPECT_FALSE(parse({"run", "--trace-out", ""}).error.empty());
    EXPECT_FALSE(parse({"run", "--metrics-out", ""}).error.empty());
}

TEST(CliParse, ProfilingFlags)
{
    Args args = parse({"profile", "--app", "xsbench", "--device",
                       "dgpu", "--profile-out", "/tmp/p.json",
                       "--observations-out", "/tmp/o.jsonl"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.command, "profile");
    EXPECT_EQ(args.profileOut, "/tmp/p.json");
    EXPECT_EQ(args.observationsOut, "/tmp/o.jsonl");

    Args fleet = parse({"fleet", "--trace-sample", "8"});
    EXPECT_TRUE(fleet.error.empty()) << fleet.error;
    EXPECT_EQ(fleet.traceSample, 8u);

    // Strict validation with line-tested messages.
    Args bad = parse({"run", "--profile-out", ""});
    EXPECT_EQ(bad.error, "--profile-out wants a file path");
    bad = parse({"run", "--observations-out", ""});
    EXPECT_EQ(bad.error, "--observations-out wants a file path");
    bad = parse({"fleet", "--trace-sample", "0"});
    EXPECT_EQ(bad.error,
              "--trace-sample wants a positive node count, got '0'");
    bad = parse({"fleet", "--trace-sample", "nope"});
    EXPECT_EQ(bad.error,
              "--trace-sample wants a positive node count, got "
              "'nope'");
    EXPECT_FALSE(parse({"run", "--profile-out"}).error.empty());
    EXPECT_FALSE(parse({"fleet", "--trace-sample"}).error.empty());
}

TEST(CliExecute, ProfileVerbAttributesTheRun)
{
    std::ostringstream os;
    Args args = parse({"profile", "--app", "xsbench", "--device",
                       "dgpu", "--scale", "0.1"});
    // Exit code 1 would mean an attribution error above 1e-9.
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("makespan attribution"), std::string::npos);
    EXPECT_NE(out.find("bottleneck"), std::string::npos);
    EXPECT_NE(out.find("attribution error"), std::string::npos);
    EXPECT_NE(out.find("observation records"), std::string::npos);
}

TEST(CliExecute, BreakdownPhaseSumsMatchMakespan)
{
    std::ostringstream os;
    Args args = parse({"breakdown", "--app", "xsbench", "--device",
                       "dgpu", "--scale", "0.1"});
    // Exit code 1 would mean a phase-sum error above 1%.
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("phase breakdown"), std::string::npos);
    EXPECT_NE(out.find("compute (s)"), std::string::npos);
    EXPECT_NE(out.find("xfer exposed (s)"), std::string::npos);
    EXPECT_NE(out.find("worst phase-sum error"), std::string::npos);
    EXPECT_NE(out.find("R9 280X"), std::string::npos);
}

TEST(CliExecute, BreakdownCoexecModeListsEveryPoolDevice)
{
    std::ostringstream os;
    Args args = parse({"breakdown", "--app", "readmem", "--devices",
                       "cpu+dgpu", "--scale", "0.05"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("A10-7850K"), std::string::npos);
    EXPECT_NE(out.find("R9 280X"), std::string::npos);
    EXPECT_NE(out.find("idle (s)"), std::string::npos);
}

TEST(CliExecute, UnwritableObsPathsFailLoudly)
{
    std::ostringstream os;
    Args args = parse({"run", "--app", "readmem", "--scale", "0.05",
                       "--trace-out", "/nonexistent-dir/t.json"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open trace output"),
              std::string::npos);

    std::ostringstream os2;
    Args args2 = parse({"run", "--app", "readmem", "--scale", "0.05",
                        "--metrics-out", "/nonexistent-dir/m.json"});
    EXPECT_EQ(execute(args2, os2), 2);
    EXPECT_NE(os2.str().find("cannot open metrics output"),
              std::string::npos);
}

// --- Serving layer (batch / serve verbs) -------------------------------

/** Writes @p text to a temp jobs file; removes it on destruction. */
class TempJobsFile
{
  public:
    explicit TempJobsFile(const std::string &text)
        // The pid keeps concurrent test processes (ctest -j) from
        // writing and removing each other's files.
        : filePath("hetsim_test_jobs_" + std::to_string(::getpid()) +
                   "_" + std::to_string(counter++) + ".jsonl")
    {
        std::ofstream out(filePath);
        out << text;
    }
    ~TempJobsFile() { std::remove(filePath.c_str()); }
    const std::string &path() const { return filePath; }

  private:
    static int counter;
    std::string filePath;
};

int TempJobsFile::counter = 0;

TEST(CliParse, ServeFlagsParseAndValidate)
{
    Args args = parse({"batch", "--jobs", "j.jsonl", "--results-out",
                       "r.jsonl", "--workers", "8", "--queue-cap",
                       "32", "--deadline-ms", "250", "--admission",
                       "shed"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.jobs, "j.jsonl");
    EXPECT_EQ(args.resultsOut, "r.jsonl");
    EXPECT_EQ(args.workers, 8u);
    EXPECT_EQ(args.queueCap, 32u);
    EXPECT_EQ(args.deadlineMs, 250u);
    EXPECT_EQ(args.admission, "shed");

    Args serve = parse({"serve", "--shots", "4"});
    EXPECT_TRUE(serve.error.empty()) << serve.error;
    EXPECT_EQ(serve.shots, 4u);
}

TEST(CliParse, ServeIntegerFlagsRejectJunk)
{
    struct FlagCase
    {
        const char *flag;
        const char *bad;
    };
    const FlagCase cases[] = {
        {"--workers", "-1"},     {"--workers", "4x"},
        {"--workers", "1.5"},    {"--queue-cap", "-3"},
        {"--queue-cap", "cap"},  {"--deadline-ms", "fast"},
        {"--deadline-ms", "-9"}, {"--shots", "0"},
        {"--shots", "ten"},      {"--scale", "big"},
        {"--scale", "1x"},
        // Worker and preemption counts are u32 in the server config:
        // larger values are rejected, never narrowed.
        {"--workers", "4294967296"},
        {"--workers", "4294967297"},
        {"--min-workers", "4294967296"},
        {"--max-workers", "4294967296"},
        {"--max-preemptions", "4294967296"},
    };
    for (const FlagCase &c : cases) {
        Args args = parse({"serve", c.flag, c.bad});
        EXPECT_FALSE(args.error.empty()) << c.flag << " " << c.bad;
        EXPECT_NE(args.error.find(c.flag), std::string::npos)
            << c.flag << " " << c.bad;
    }
    // --workers 0 parses; the server reports the structured error.
    EXPECT_TRUE(parse({"serve", "--workers", "0"}).error.empty());
    EXPECT_EQ(parse({"serve", "--workers", "4294967296"}).error,
              "--workers wants a worker count, got '4294967296'");
    Args widest = parse({"serve", "--workers", "4294967295",
                         "--max-preemptions", "4294967295"});
    EXPECT_TRUE(widest.error.empty()) << widest.error;
    EXPECT_EQ(widest.workers, 4294967295u);
    Args bad = parse({"batch", "--admission", "greedy"});
    EXPECT_FALSE(bad.error.empty());
    EXPECT_NE(bad.error.find("--admission"), std::string::npos);
}

TEST(CliParse, StreamTenantAndAutoscaleFlags)
{
    Args args = parse({"serve", "--stream", "--tenants", "a:3,b:1",
                       "--quota", "a:10,b:4",
                       "--service-deadline-ms", "5",
                       "--max-preemptions", "3", "--autoscale",
                       "--min-workers", "2", "--max-workers", "6"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_TRUE(args.stream);
    EXPECT_EQ(args.tenants, "a:3,b:1");
    EXPECT_EQ(args.quota, "a:10,b:4");
    EXPECT_EQ(args.serviceDeadlineMs, 5u);
    EXPECT_EQ(args.maxPreemptions, 3u);
    EXPECT_TRUE(args.autoscale);
    EXPECT_EQ(args.minWorkers, 2u);
    EXPECT_EQ(args.maxWorkers, 6u);

    // --stream belongs to serve only.
    Args wrongVerb = parse({"batch", "--jobs", "j.jsonl", "--stream"});
    EXPECT_FALSE(wrongVerb.error.empty());
    EXPECT_NE(wrongVerb.error.find("--stream"), std::string::npos);

    // Malformed tenant specs are parse-time errors.
    for (const char *flag : {"--tenants", "--quota"}) {
        Args bad = parse({"serve", flag, "a:"});
        EXPECT_FALSE(bad.error.empty()) << flag;
    }
    EXPECT_FALSE(
        parse({"serve", "--tenants", "a:0"}).error.empty());
    EXPECT_FALSE(
        parse({"serve", "--quota", "a:1.5"}).error.empty());

    // An autoscale floor above the ceiling is caught at parse time.
    Args inverted = parse({"serve", "--autoscale", "--min-workers",
                           "8", "--max-workers", "2"});
    EXPECT_FALSE(inverted.error.empty());

    // Junk numerics follow the strict-flag convention.
    EXPECT_FALSE(
        parse({"serve", "--service-deadline-ms", "soon"})
            .error.empty());
    EXPECT_FALSE(
        parse({"serve", "--max-preemptions", "-2"}).error.empty());
    EXPECT_FALSE(
        parse({"serve", "--min-workers", "0"}).error.empty());
}

TEST(CliExecute, ServeStreamSpeaksTheLineProtocol)
{
    std::istringstream feed(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02, "tenant": "a"})"
        "\n"
        R"({"id": 2, "app": "minife", "model": "openmp",)"
        R"( "device": "cpu", "scale": 0.02, "tenant": "b"})"
        "\nend\n");
    std::streambuf *old = std::cin.rdbuf(feed.rdbuf());
    std::ostringstream os;
    Args args = parse({"serve", "--stream", "--workers", "2",
                       "--tenants", "a:2,b:1"});
    const int rc = execute(args, os);
    std::cin.rdbuf(old);
    ASSERT_EQ(rc, 0) << os.str();
    // Two live result lines; without --results-out the stream stays
    // machine-readable (no summary table).
    size_t lines = 0;
    std::istringstream out(os.str());
    std::string line;
    while (std::getline(out, line)) {
        ++lines;
        EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos)
            << line;
    }
    EXPECT_EQ(lines, 2u);
    EXPECT_EQ(os.str().find("serving summary"), std::string::npos);
}

TEST(CliExecute, ServeStreamBadLineFailsWithLineNumber)
{
    std::istringstream feed("not json\n");
    std::streambuf *old = std::cin.rdbuf(feed.rdbuf());
    std::ostringstream os;
    Args args = parse({"serve", "--stream"});
    const int rc = execute(args, os);
    std::cin.rdbuf(old);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(os.str().find("line 1"), std::string::npos)
        << os.str();
}

TEST(CliExecute, BatchWithoutJobsFileIsAnError)
{
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"batch"}), os), 2);
    EXPECT_NE(os.str().find("--jobs"), std::string::npos);
}

TEST(CliExecute, BatchMissingJobsFileFailsLoudly)
{
    std::ostringstream os;
    Args args =
        parse({"batch", "--jobs", "/nonexistent-dir/jobs.jsonl"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open jobs file"),
              std::string::npos);
    EXPECT_NE(os.str().find("/nonexistent-dir/jobs.jsonl"),
              std::string::npos);
}

TEST(CliExecute, BatchMalformedJobsReportLineNumber)
{
    TempJobsFile jobs(R"({"app": "readmem", "scale": 0.02}
{"app": "readmem", "scale": oops}
)");
    std::ostringstream os;
    Args args = parse({"batch", "--jobs", jobs.path()});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("line 2"), std::string::npos) << os.str();
    EXPECT_NE(os.str().find(jobs.path()), std::string::npos);
}

TEST(CliExecute, BatchEmptyJobsFileIsAnError)
{
    TempJobsFile jobs("\n\n");
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"batch", "--jobs", jobs.path()}), os), 2);
    EXPECT_NE(os.str().find("no jobs"), std::string::npos) << os.str();
}

TEST(CliExecute, BatchUnwritableResultsOutFailsLoudly)
{
    TempJobsFile jobs(R"({"app": "readmem", "scale": 0.02})"
                      "\n");
    std::ostringstream os;
    Args args = parse({"batch", "--jobs", jobs.path(), "--results-out",
                       "/nonexistent-dir/results.jsonl"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open results output"),
              std::string::npos);
}

TEST(CliExecute, BatchZeroWorkersIsAStructuredError)
{
    TempJobsFile jobs(R"({"app": "readmem", "scale": 0.02})"
                      "\n");
    std::ostringstream os;
    Args args =
        parse({"batch", "--jobs", jobs.path(), "--workers", "0"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("at least one worker"), std::string::npos)
        << os.str();
}

TEST(CliExecute, BatchEmitsOrderedJsonlOnStdout)
{
    TempJobsFile jobs(R"({"id": 2, "app": "readmem", "scale": 0.02}
{"id": 1, "app": "minife", "model": "openmp", "device": "cpu", "scale": 0.02}
)");
    std::ostringstream os;
    Args args = parse({"batch", "--jobs", jobs.path(), "--workers",
                       "2"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    // Pure JSONL on stdout, id-ascending regardless of file order.
    EXPECT_EQ(out.rfind("{\"id\":1,", 0), 0u) << out;
    EXPECT_NE(out.find("\n{\"id\":2,"), std::string::npos) << out;
    EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos);
}

TEST(CliExecute, ServeRunsAClosedLoopAndSummarizes)
{
    std::ostringstream os;
    Args args = parse({"serve", "--shots", "6", "--workers", "2",
                       "--scale", "0.02"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("jobs submitted"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("sim throughput"), std::string::npos);
}

// --- Fleet simulator (fleet verb) --------------------------------------

TEST(CliParse, FleetFlagsParseAndValidate)
{
    Args args = parse({"fleet", "--nodes", "12", "--njobs", "500",
                       "--placement", "locality", "--rate", "250",
                       "--slo-ms", "40", "--node-fail-rate", "0.25",
                       "--seed", "7", "--sweep"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.nodes, 12u);
    EXPECT_EQ(args.njobs, 500u);
    EXPECT_EQ(args.placement, "locality");
    EXPECT_DOUBLE_EQ(args.rate, 250.0);
    EXPECT_EQ(args.sloMs, 40u);
    EXPECT_DOUBLE_EQ(args.nodeFailRate, 0.25);
    EXPECT_EQ(args.seed, 7u);
    EXPECT_TRUE(args.fleetSweep);

    Args topo = parse({"fleet", "--topology", "cluster.jsonl"});
    EXPECT_TRUE(topo.error.empty()) << topo.error;
    EXPECT_EQ(topo.topology, "cluster.jsonl");
    EXPECT_FALSE(topo.fleetSweep);
}

TEST(CliParse, FleetFlagsRejectJunk)
{
    struct FlagCase
    {
        const char *flag;
        const char *bad;
    };
    const FlagCase cases[] = {
        {"--nodes", "0"},          {"--nodes", "3x"},
        {"--njobs", "0"},          {"--njobs", "lots"},
        {"--placement", "greedy"}, {"--rate", "-5"},
        {"--rate", "fast"},        {"--slo-ms", "-1"},
        {"--node-fail-rate", "1.5"},
        {"--node-fail-rate", "often"},
        {"--seed", "-2"},          {"--topology", ""},
    };
    for (const FlagCase &c : cases) {
        Args args = parse({"fleet", c.flag, c.bad});
        EXPECT_FALSE(args.error.empty()) << c.flag << " " << c.bad;
        EXPECT_NE(args.error.find(c.flag), std::string::npos)
            << c.flag << " " << c.bad;
    }
}

TEST(CliExecute, FleetMissingTopologyFileFailsLoudly)
{
    std::ostringstream os;
    Args args = parse(
        {"fleet", "--topology", "/nonexistent-dir/topo.jsonl"});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find("cannot open topology file"),
              std::string::npos)
        << os.str();
}

TEST(CliExecute, FleetTopologyErrorsCarryPathAndLine)
{
    TempJobsFile topo("{\"device\": \"warp9\"}\n");
    std::ostringstream os;
    Args args = parse({"fleet", "--topology", topo.path()});
    EXPECT_EQ(execute(args, os), 2);
    EXPECT_NE(os.str().find(topo.path()), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("line 1"), std::string::npos);
    EXPECT_NE(os.str().find("unknown device"), std::string::npos);
}

TEST(CliExecute, FleetRunsACapacityTableAndRollup)
{
    std::ostringstream os;
    Args args = parse({"fleet", "--nodes", "4", "--njobs", "200",
                       "--scale", "0.02", "--node-fail-rate", "0.5",
                       "--seed", "3"});
    EXPECT_EQ(execute(args, os), 0);
    const std::string out = os.str();
    EXPECT_NE(out.find("Fleet capacity"), std::string::npos) << out;
    EXPECT_NE(out.find("digest"), std::string::npos);
    EXPECT_NE(out.find("0x"), std::string::npos);
    EXPECT_NE(out.find("Per-device-kind rollup"), std::string::npos);
    EXPECT_NE(out.find("dgpu"), std::string::npos);

    // Same invocation, byte-identical report: the whole pipeline -
    // class probe, placement, sharded timelines - is deterministic.
    std::ostringstream os2;
    EXPECT_EQ(execute(args, os2), 0);
    EXPECT_EQ(out, os2.str());
}

TEST(CliParse, SurrogateFlagValidation)
{
    // Each new flag rejects a missing or malformed operand with a
    // message naming the flag.
    for (const char *flag :
         {"--model-in", "--model-out", "--fit", "--kernel"}) {
        Args missing = parse({"predict", flag});
        EXPECT_FALSE(missing.error.empty()) << flag;
        EXPECT_NE(missing.error.find(flag), std::string::npos)
            << missing.error;
        Args empty = parse({"predict", flag, ""});
        EXPECT_FALSE(empty.error.empty()) << flag;
        EXPECT_NE(empty.error.find(flag), std::string::npos)
            << empty.error;
    }
    for (const char *bad : {"0", "-3", "junk", "1.5"}) {
        Args args = parse({"predict", "--model-in", "m.json",
                           "--items", bad});
        EXPECT_FALSE(args.error.empty()) << bad;
        EXPECT_NE(args.error.find("--items"), std::string::npos) << bad;
    }

    // Semantic cross-flag checks.
    EXPECT_EQ(parse({"predict"}).error,
              "predict needs --fit OBS_JSONL or --model-in FILE");
    EXPECT_EQ(parse({"serve", "--predict-admission"}).error,
              "--predict-admission needs --model-in FILE "
              "(recorded job costs to predict from)");

    Args ok = parse({"predict", "--fit", "obs.jsonl", "--kernel",
                     "read_mem", "--items", "4096", "--model-out",
                     "m.json"});
    EXPECT_TRUE(ok.error.empty()) << ok.error;
    EXPECT_EQ(ok.fitObs, "obs.jsonl");
    EXPECT_EQ(ok.kernel, "read_mem");
    EXPECT_EQ(ok.items, 4096u);
    EXPECT_EQ(ok.modelOut, "m.json");
    EXPECT_TRUE(ok.surrogate);

    Args fleet = parse({"fleet", "--model-in", "m.json",
                        "--no-surrogate"});
    EXPECT_TRUE(fleet.error.empty()) << fleet.error;
    EXPECT_EQ(fleet.modelIn, "m.json");
    EXPECT_FALSE(fleet.surrogate);
}

TEST(CliExecute, PredictFitsServesAndRoundTripsModels)
{
    const std::string obsPath = "hetsim_test_obs.jsonl";
    const std::string modelPath = "hetsim_test_model.jsonl";
    const std::string modelPath2 = "hetsim_test_model2.jsonl";

    // Generate observations from two real runs at different clocks.
    for (const char *freq : {"925:1250", "500:1250"}) {
        std::ostringstream os;
        Args run = parse({"run", "--app", "readmem", "--scale", "0.05",
                          "--freq", freq, "--observations-out",
                          obsPath});
        ASSERT_TRUE(run.error.empty()) << run.error;
        ASSERT_EQ(execute(run, os), 0) << os.str();
    }

    std::ostringstream fitOs;
    Args fit = parse({"predict", "--fit", obsPath, "--model-out",
                      modelPath});
    ASSERT_EQ(execute(fit, fitOs), 0) << fitOs.str();
    EXPECT_NE(fitOs.str().find("surrogate model"), std::string::npos);
    EXPECT_NE(fitOs.str().find("read_mem"), std::string::npos);

    // Reload + query a single launch; the anchor row proves the
    // prediction is checked against the exact observed mean.
    std::ostringstream queryOs;
    Args query = parse({"predict", "--model-in", modelPath, "--kernel",
                        "read_mem", "--items", "13107", "--freq",
                        "925:1250", "--model-out", modelPath2});
    ASSERT_EQ(execute(query, queryOs), 0) << queryOs.str();
    EXPECT_NE(queryOs.str().find("predicted"), std::string::npos);

    // Load -> save must reproduce the model file byte for byte.
    std::ifstream f1(modelPath), f2(modelPath2);
    std::stringstream m1, m2;
    m1 << f1.rdbuf();
    m2 << f2.rdbuf();
    EXPECT_FALSE(m1.str().empty());
    EXPECT_EQ(m1.str(), m2.str());

    std::ostringstream badOs;
    Args bad = parse({"predict", "--model-in", "no_such_model.jsonl"});
    EXPECT_EQ(execute(bad, badOs), 2);
    EXPECT_NE(badOs.str().find("no_such_model.jsonl"),
              std::string::npos);

    std::remove(obsPath.c_str());
    std::remove(modelPath.c_str());
    std::remove(modelPath2.c_str());
}

TEST(CliExecute, FleetSurrogateCostingReproducesProbedRun)
{
    const std::string modelPath = "hetsim_test_fleet_model.jsonl";
    std::vector<std::string> base{"fleet",   "--nodes", "4",
                                  "--njobs", "150",     "--scale",
                                  "0.02",    "--seed",  "7"};

    // Run A probes the simulator and records job costs.
    std::vector<std::string> recordArgs = base;
    recordArgs.insert(recordArgs.end(), {"--model-out", modelPath});
    std::ostringstream recorded;
    ASSERT_EQ(execute(parse(recordArgs), recorded), 0);

    // Run B answers class costing from the model; run C opts out.
    std::vector<std::string> surrogateArgs = base;
    surrogateArgs.insert(surrogateArgs.end(), {"--model-in", modelPath});
    std::ostringstream served;
    ASSERT_EQ(execute(parse(surrogateArgs), served), 0);

    std::vector<std::string> probeArgs = surrogateArgs;
    probeArgs.push_back("--no-surrogate");
    std::ostringstream probed;
    ASSERT_EQ(execute(parse(probeArgs), probed), 0);

    // Identical campaign reports - same class costs, placements, and
    // digests - whether costs came from the model or the simulator.
    EXPECT_EQ(served.str(), probed.str());
    EXPECT_EQ(served.str(), recorded.str());
    EXPECT_NE(served.str().find("digest"), std::string::npos);

    std::remove(modelPath.c_str());
}

TEST(CliExecute, FleetRunsFromATopologyFile)
{
    TempJobsFile topo(
        "{\"device\": \"apu\", \"count\": 2, \"name\": \"r0\"}\n"
        "{\"net_gbs\": 25, \"net_latency_us\": 2}\n");
    std::ostringstream os;
    Args args = parse({"fleet", "--topology", topo.path(), "--njobs",
                       "100", "--scale", "0.02", "--placement",
                       "first-fit"});
    EXPECT_EQ(execute(args, os), 0);
    EXPECT_NE(os.str().find("first-fit"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("apu"), std::string::npos);
}


// Satellite: strict validation for the energy/backend flags.
TEST(CliParse, EnergyAndBackendFlags)
{
    Args args = parse({"coexec", "--app", "xsbench", "--backend",
                       "cuda", "--power-model", "watts.jsonl",
                       "--energy-out", "energy.json"});
    EXPECT_TRUE(args.error.empty()) << args.error;
    EXPECT_EQ(args.backend, "cuda");
    EXPECT_EQ(args.powerModel, "watts.jsonl");
    EXPECT_EQ(args.energyOut, "energy.json");

    // Every serve-layer alias is accepted.
    for (const char *alias : {"ocl", "amp", "acc", "hc", "omp",
                              "cuda", "omptarget", "target"}) {
        EXPECT_TRUE(
            parse({"coexec", "--backend", alias}).error.empty())
            << alias;
    }

    // Unknown backend names fail at parse time, naming the choices.
    Args bad = parse({"coexec", "--backend", "sycl"});
    EXPECT_FALSE(bad.error.empty());
    EXPECT_NE(bad.error.find("sycl"), std::string::npos) << bad.error;
    EXPECT_NE(bad.error.find("cuda"), std::string::npos) << bad.error;

    // Values are required, not optional.
    EXPECT_FALSE(parse({"coexec", "--backend"}).error.empty());
    EXPECT_FALSE(parse({"run", "--power-model"}).error.empty());
    EXPECT_FALSE(parse({"run", "--energy-out"}).error.empty());

    // --energy-out is a single-run report: run/coexec only.
    Args misplaced = parse({"serve", "--energy-out", "e.json"});
    EXPECT_FALSE(misplaced.error.empty());
    EXPECT_NE(misplaced.error.find("--energy-out"), std::string::npos)
        << misplaced.error;
    EXPECT_TRUE(
        parse({"run", "--energy-out", "e.json"}).error.empty());
    EXPECT_TRUE(
        parse({"coexec", "--energy-out", "e.json"}).error.empty());
    // --power-model is global: any verb may swap the wattage table.
    EXPECT_TRUE(
        parse({"serve", "--power-model", "w.jsonl"}).error.empty());
}

TEST(CliExecute, BackendsDumpsTheCapabilityTable)
{
    std::ostringstream os;
    EXPECT_EQ(execute(parse({"backends"}), os), 0);
    const std::string text = os.str();
    for (const char *name : {"opencl", "cppamp", "openacc", "hc",
                             "omptarget", "cuda"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(text.find("Trait multipliers"), std::string::npos);
    EXPECT_NE(text.find("Codegen quirks"), std::string::npos);
}

TEST(CliExecute, EnergyOutWritesAReportAndPowerModelOverridesIt)
{
    const std::string energyPath = "hetsim_test_energy.json";
    std::vector<std::string> base{"run",     "--app",  "readmem",
                                  "--model", "cuda",   "--scale",
                                  "0.05",    "--energy-out",
                                  energyPath};

    std::ostringstream os;
    ASSERT_EQ(execute(parse(base), os), 0);
    EXPECT_NE(os.str().find("energy (J)"), std::string::npos)
        << os.str();
    std::ifstream in(energyPath);
    ASSERT_TRUE(in.good());
    std::stringstream report;
    report << in.rdbuf();
    EXPECT_NE(report.str().find("\"bucket_error\""),
              std::string::npos);
    EXPECT_NE(report.str().find("\"buckets\""), std::string::npos);

    // A hotter wattage table changes the reported joules.
    TempJobsFile watts("{\"device\": \"dgpu\", "
                       "\"compute_busy_w\": 2500}\n");
    std::vector<std::string> hot = base;
    hot.insert(hot.end(), {"--power-model", watts.path()});
    std::ostringstream hotOs;
    ASSERT_EQ(execute(parse(hot), hotOs), 0);
    EXPECT_NE(hotOs.str(), os.str());

    std::remove(energyPath.c_str());
}

TEST(CliExecute, PowerModelErrorsAreLoud)
{
    // Missing file: exit 2 and the path in the message.
    std::ostringstream missing;
    Args args = parse({"run", "--app", "readmem", "--scale", "0.05",
                       "--power-model", "no_such_watts.jsonl"});
    EXPECT_EQ(execute(args, missing), 2);
    EXPECT_NE(missing.str().find("cannot open power model"),
              std::string::npos)
        << missing.str();
    EXPECT_NE(missing.str().find("no_such_watts.jsonl"),
              std::string::npos);

    // Malformed row: exit 2 with path:line context.
    TempJobsFile badWatts("{\"device\": \"dgpu\", "
                          "\"compute_watts\": 9}\n");
    std::ostringstream malformed;
    Args badArgs = parse({"run", "--app", "readmem", "--scale",
                          "0.05", "--power-model", badWatts.path()});
    EXPECT_EQ(execute(badArgs, malformed), 2);
    EXPECT_NE(malformed.str().find("compute_watts"), std::string::npos)
        << malformed.str();

    // Unwritable --energy-out path: exit 2, run output still shown.
    std::ostringstream unwritable;
    Args outArgs = parse({"run", "--app", "readmem", "--scale",
                          "0.05", "--energy-out",
                          "/nonexistent-dir/e.json"});
    EXPECT_EQ(execute(outArgs, unwritable), 2);
    EXPECT_NE(unwritable.str().find("cannot open energy output"),
              std::string::npos)
        << unwritable.str();
}

} // namespace
} // namespace hetsim::cli
