/**
 * @file
 * Tests for the serving layer: JobSpec JSONL parsing, admission
 * control (reject/shed), queued-job deadlines, fault-schedule
 * determinism against standalone runs, and the byte-identical
 * results contract across worker counts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "core/workload.hh"
#include "model/surrogate.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "serve/server.hh"
#include "serve/stream.hh"

namespace hetsim::serve
{
namespace
{

JobSpec
tinyJob(u64 id, const char *app = "readmem")
{
    JobSpec spec;
    spec.id = id;
    spec.app = app;
    spec.model = "opencl";
    spec.device = "dgpu";
    spec.scale = 0.02;
    return spec;
}

// --- JSONL parsing -----------------------------------------------------

TEST(JobSpecParse, FullLineRoundTrips)
{
    std::string err;
    auto spec = parseJobLine(
        R"({"id": 9, "app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "policy": "dynamic", "scale": 0.5, "dp": true,)"
        R"( "functional": true, "freq": "600:810",)"
        R"( "timing_cache": false, "faults": "transfer:0.2",)"
        R"( "fault_seed": 42, "retry_max": 7, "deadline_ms": 250,)"
        R"( "priority": -3})",
        1, err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->id, 9u);
    EXPECT_EQ(spec->app, "xsbench");
    EXPECT_TRUE(spec->coexec());
    EXPECT_EQ(spec->policy, "dynamic");
    EXPECT_DOUBLE_EQ(spec->scale, 0.5);
    EXPECT_TRUE(spec->doublePrecision);
    EXPECT_TRUE(spec->functional);
    EXPECT_DOUBLE_EQ(spec->freq.coreMhz, 600);
    EXPECT_DOUBLE_EQ(spec->freq.memMhz, 810);
    EXPECT_FALSE(spec->timingCache);
    EXPECT_TRUE(spec->faultsGiven);
    EXPECT_DOUBLE_EQ(spec->faultConfig.transferFailRate, 0.2);
    EXPECT_EQ(spec->faultConfig.seed, 42u);
    EXPECT_EQ(spec->faultConfig.retryMax, 7u);
    EXPECT_DOUBLE_EQ(spec->deadlineMs, 250.0);
    EXPECT_EQ(spec->priority, -3);
}

TEST(JobSpecParse, MalformedLinesCarryTheLineNumber)
{
    const char *bad[] = {
        "not json",
        R"({"app": "readmem",})",
        R"({"app": 7})",
        R"({"unknown_key": 1})",
        R"({"scale": -1})",
        R"({"scale": 0})",
        R"({"scale": 4.5})",
        R"({"scale": 1e300})",
        R"({"freq": "925"})",
        R"({"faults": "meteor:0.5"})",
        R"({"retry_max": 65})",
        R"({"fault_seed": -1})",
        R"({"deadline_ms": -5})",
        R"({"app": "readmem"} trailing)",
        R"({"nested": {"x": 1}})",
        R"({"app": "a", "app": "b"})",
    };
    for (const char *line : bad) {
        std::string err;
        auto spec = parseJobLine(line, 7, err);
        EXPECT_FALSE(spec.has_value()) << line;
        EXPECT_NE(err.find("line 7"), std::string::npos)
            << line << " -> " << err;
    }
}

TEST(JobSpecParse, ScaleIsBoundedByMaxScale)
{
    std::string err;
    auto top = parseJobLine(R"({"scale": 4})", 3, err);
    ASSERT_TRUE(top.has_value()) << err;
    EXPECT_DOUBLE_EQ(top->scale, core::maxScale);
    EXPECT_FALSE(parseJobLine(R"({"scale": 4.5})", 3, err));
    EXPECT_EQ(err, "line 3: \"scale\" wants at most 4, got 4.5");
    EXPECT_FALSE(parseJobLine(R"({"scale": 1e300})", 3, err));
    EXPECT_EQ(err, "line 3: \"scale\" wants at most 4, got 1e+300");
}

TEST(JobSpecParse, StreamAssignsLineIdsAndRejectsDuplicates)
{
    std::istringstream ok(R"({"app": "readmem"}

{"app": "minife", "model": "openmp", "device": "cpu"}
)");
    std::string err;
    auto jobs = parseJobs(ok, err);
    ASSERT_TRUE(jobs.has_value()) << err;
    ASSERT_EQ(jobs->size(), 2u);
    // Implicit ids are the 1-based line numbers (blank lines count).
    EXPECT_EQ((*jobs)[0].id, 1u);
    EXPECT_EQ((*jobs)[1].id, 3u);

    std::istringstream dup(R"({"id": 4, "app": "readmem"}
{"id": 4, "app": "minife"}
)");
    auto dup_jobs = parseJobs(dup, err);
    EXPECT_FALSE(dup_jobs.has_value());
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

// --- runJob ------------------------------------------------------------

TEST(ServeRunJob, BadSpecsAreStructuredErrors)
{
    EXPECT_EQ(runJob(tinyJob(1, "doom")).status, JobStatus::Error);

    JobSpec faulty = tinyJob(2);
    faulty.faultConfig.transferFailRate = 0.5;
    faulty.faultsGiven = true;
    // Fault injection rides the co-execution path only.
    auto res = runJob(faulty);
    EXPECT_EQ(res.status, JobStatus::Error);
    EXPECT_NE(res.error.find("co-execution"), std::string::npos);

    JobSpec badModel = tinyJob(3);
    badModel.model = "sycl";
    EXPECT_EQ(runJob(badModel).status, JobStatus::Error);
}

TEST(ServeRunJob, FaultScheduleMatchesStandaloneBitwise)
{
    JobSpec spec;
    spec.id = 1;
    spec.app = "xsbench";
    spec.devices = "cpu+dgpu";
    spec.scale = 0.05;
    spec.faultConfig.transferFailRate = 0.3;
    spec.faultConfig.seed = 42;
    spec.faultsGiven = true;

    // Standalone run on this thread = the `hetsim coexec` path.
    JobResult standalone = runJob(spec);
    ASSERT_EQ(standalone.status, JobStatus::Ok);
    EXPECT_GT(standalone.faultsInjected, 0u);

    // Served run: same spec through a multi-worker server.
    ServerConfig cfg;
    cfg.workers = 4;
    std::string error;
    auto outcome = runBatch({spec}, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ASSERT_EQ(outcome->results.size(), 1u);
    const JobResult &served = outcome->results[0];
    ASSERT_EQ(served.status, JobStatus::Ok);
    EXPECT_EQ(served.faultScheduleHash, standalone.faultScheduleHash);
    EXPECT_EQ(served.faultsInjected, standalone.faultsInjected);
    // Bit-equal simulated outcome, not merely close.
    EXPECT_EQ(served.simSeconds, standalone.simSeconds);
    EXPECT_EQ(served.checksum, standalone.checksum);
}

// --- Admission control -------------------------------------------------

TEST(ServeAdmission, QueueFullRejectsTheIncomingJob)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.queueCap = 2;
    cfg.admission = Admission::Reject;
    std::vector<JobSpec> jobs;
    for (u64 id = 1; id <= 5; ++id)
        jobs.push_back(tinyJob(id));

    std::string error;
    auto outcome = runBatch(jobs, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ASSERT_EQ(outcome->results.size(), 5u);
    // The prefill is paused, so exactly the first two jobs fit and
    // jobs 3..5 are rejected, deterministically.
    EXPECT_EQ(outcome->results[0].status, JobStatus::Ok);
    EXPECT_EQ(outcome->results[1].status, JobStatus::Ok);
    for (size_t i = 2; i < 5; ++i) {
        EXPECT_EQ(outcome->results[i].status, JobStatus::Rejected)
            << "job " << i + 1;
        EXPECT_NE(outcome->results[i].error.find("queue full"),
                  std::string::npos);
    }
    EXPECT_EQ(outcome->report.rejected, 3u);
    EXPECT_EQ(outcome->report.completed, 2u);
}

TEST(ServeAdmission, ShedEvictsLowestPriorityNewestFirst)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.queueCap = 2;
    cfg.admission = Admission::Shed;
    JobSpec a = tinyJob(1);
    JobSpec b = tinyJob(2);
    JobSpec c = tinyJob(3);
    c.priority = 5;
    JobSpec d = tinyJob(4);

    std::string error;
    auto outcome = runBatch({a, b, c, d}, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ASSERT_EQ(outcome->results.size(), 4u);
    // c (priority 5) arrives at a full queue {a, b}: the victim is
    // the lowest-priority newest job, b.  d (priority 0) then arrives
    // at {a, c}; it is not strictly higher-priority than the victim
    // candidate a, so d itself is shed.
    EXPECT_EQ(outcome->results[0].status, JobStatus::Ok);
    EXPECT_EQ(outcome->results[1].status, JobStatus::Shed);
    EXPECT_EQ(outcome->results[2].status, JobStatus::Ok);
    EXPECT_EQ(outcome->results[3].status, JobStatus::Shed);
    EXPECT_EQ(outcome->report.shed, 2u);
}

TEST(ServeAdmission, HigherPriorityDequeuesFirst)
{
    ServerConfig cfg;
    cfg.workers = 1;
    JobSpec low = tinyJob(1);
    low.priority = 1;
    JobSpec high = tinyJob(2);
    high.priority = 5;
    JobSpec mid = tinyJob(3);
    mid.priority = 3;

    std::string error;
    auto outcome = runBatch({low, high, mid}, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    ASSERT_EQ(outcome->results.size(), 3u);
    // results are id-ordered; serviceSeq records dequeue order.
    EXPECT_EQ(outcome->results[1].serviceSeq, 0u); // priority 5
    EXPECT_EQ(outcome->results[2].serviceSeq, 1u); // priority 3
    EXPECT_EQ(outcome->results[0].serviceSeq, 2u); // priority 1
}

TEST(ServeAdmission, BlockAdmissionRefusesAPrefilledBatch)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.queueCap = 2;
    cfg.admission = Admission::Block;
    std::vector<JobSpec> jobs{tinyJob(1), tinyJob(2), tinyJob(3)};
    std::string error;
    EXPECT_FALSE(runBatch(jobs, cfg, error).has_value());
    EXPECT_NE(error.find("deadlock"), std::string::npos) << error;
}

// --- Config validation -------------------------------------------------

TEST(ServeConfig, ZeroWorkersIsAStructuredError)
{
    ServerConfig cfg;
    cfg.workers = 0;
    auto err = Server::validateConfig(cfg);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("worker"), std::string::npos);

    std::string error;
    EXPECT_FALSE(runBatch({tinyJob(1)}, cfg, error).has_value());
    EXPECT_FALSE(error.empty());

    Server server(cfg);
    EXPECT_TRUE(server.start().has_value());
}

// --- Deadlines ---------------------------------------------------------

TEST(ServeDeadline, ExpiresJobsStillQueuedPastTheirDeadline)
{
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(cfg);
    server.pause();
    ASSERT_FALSE(server.start().has_value());

    JobSpec doomed = tinyJob(1);
    doomed.deadlineMs = 5.0;
    JobSpec fine = tinyJob(2);
    server.submit(doomed);
    server.submit(fine);
    // The server is paused: both jobs sit in the queue while the
    // first one's deadline lapses.  Neither has started running.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.resume();
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Expired);
    EXPECT_NE(results[0].error.find("deadline"), std::string::npos);
    EXPECT_LT(results[0].worker, 0); // never ran
    EXPECT_EQ(results[1].status, JobStatus::Ok);
}

TEST(ServeDeadline, ExpiredErrorTextIsFreeOfHostTime)
{
    // The same doomed job, left queued for two different host times,
    // expires with the same error text; only hostQueueWaitMs differs.
    std::vector<JobResult> expired;
    for (int waitMs : {20, 80}) {
        ServerConfig cfg;
        cfg.workers = 1;
        Server server(cfg);
        server.pause();
        ASSERT_FALSE(server.start().has_value());
        JobSpec doomed = tinyJob(1);
        doomed.deadlineMs = 5.0;
        server.submit(doomed);
        std::this_thread::sleep_for(std::chrono::milliseconds(waitMs));
        server.resume();
        server.drain();
        auto results = server.takeResults();
        server.shutdown();
        ASSERT_EQ(results.size(), 1u);
        ASSERT_EQ(results[0].status, JobStatus::Expired);
        EXPECT_GE(results[0].hostQueueWaitMs, waitMs);
        expired.push_back(results[0]);
    }
    EXPECT_EQ(expired[0].error,
              "deadline expired in queue (waited over 5.000000 ms)");
    EXPECT_EQ(expired[1].error, expired[0].error);
}

// --- Determinism across worker counts ----------------------------------

TEST(ServeDeterminism, ResultsJsonlIsByteIdenticalAcrossWorkerCounts)
{
    std::vector<JobSpec> jobs;
    jobs.push_back(tinyJob(1));
    JobSpec coex;
    coex.id = 2;
    coex.app = "xsbench";
    coex.devices = "cpu+dgpu";
    coex.scale = 0.05;
    coex.faultConfig.transferFailRate = 0.25;
    coex.faultConfig.seed = 7;
    coex.faultsGiven = true;
    jobs.push_back(coex);
    // The same job twice with the same seed: both copies must
    // serialize identically (ISSUE acceptance).
    JobSpec again = coex;
    again.id = 3;
    jobs.push_back(again);
    JobSpec fn = tinyJob(4, "minife");
    fn.model = "openmp";
    fn.device = "cpu";
    fn.functional = true;
    jobs.push_back(fn);

    auto serialize = [&](u32 workers) {
        ServerConfig cfg;
        cfg.workers = workers;
        std::string error;
        auto outcome = runBatch(jobs, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        std::ostringstream os;
        writeResultsJsonl(os, outcome->results);
        return os.str();
    };

    const std::string one = serialize(1);
    const std::string four = serialize(4);
    EXPECT_EQ(one, four);
    // Ascending id order, every job terminal.
    EXPECT_LT(one.find("\"id\":1,"), one.find("\"id\":2,"));
    EXPECT_LT(one.find("\"id\":2,"), one.find("\"id\":3,"));
    // The two equal-seed copies produced identical payloads.
    std::istringstream lines(four);
    std::string l1, l2, l3;
    std::getline(lines, l1);
    std::getline(lines, l2);
    std::getline(lines, l3);
    EXPECT_EQ(l2.substr(l2.find("\"status\"")),
              l3.substr(l3.find("\"status\"")));
}

// --- Virtual-cluster accounting ----------------------------------------

TEST(ServeVirtualSchedule, ThroughputScalesWithVirtualWorkers)
{
    std::vector<JobSpec> jobs;
    for (u64 id = 1; id <= 8; ++id)
        jobs.push_back(tinyJob(id));

    auto makespan = [&](u32 workers) {
        ServerConfig cfg;
        cfg.workers = workers;
        std::string error;
        auto outcome = runBatch(jobs, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        EXPECT_EQ(outcome->report.completed, 8u);
        EXPECT_GT(outcome->report.virtualMakespanSeconds, 0.0);
        return outcome->report.virtualMakespanSeconds;
    };

    const double m1 = makespan(1);
    const double m8 = makespan(8);
    // Eight identical jobs on eight virtual workers: makespan drops
    // by the worker count exactly, deterministically on any host.
    EXPECT_GE(m1 / m8, 3.0);
}

TEST(ServeVirtualSchedule, ListSchedulesInServiceOrder)
{
    std::vector<JobResult> results(3);
    for (size_t i = 0; i < results.size(); ++i) {
        results[i].id = i + 1;
        results[i].worker = 0;
        results[i].serviceSeq = i;
        results[i].simSeconds = 1.0;
    }
    const double makespan2 = applyVirtualSchedule(results, 2);
    EXPECT_DOUBLE_EQ(makespan2, 2.0);
    EXPECT_DOUBLE_EQ(results[0].simQueueWaitSeconds, 0.0);
    EXPECT_DOUBLE_EQ(results[1].simQueueWaitSeconds, 0.0);
    EXPECT_DOUBLE_EQ(results[2].simQueueWaitSeconds, 1.0);
    EXPECT_DOUBLE_EQ(results[2].simFinishSeconds, 2.0);
}

TEST(ServeReport, LatencyPercentilesAreNearestRank)
{
    std::vector<double> values;
    for (int v = 100; v >= 1; --v)
        values.push_back(static_cast<double>(v));
    LatencySummary s = summarizeLatencies(values);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_DOUBLE_EQ(s.p95, 95.0);
    EXPECT_DOUBLE_EQ(s.p99, 99.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);

    EXPECT_EQ(summarizeLatencies({}).count, 0u);
}

// --- Observability -----------------------------------------------------

TEST(ServeObservability, WorkersEmitPerSessionTraceTracks)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);

    std::vector<JobSpec> jobs;
    for (u64 id = 1; id <= 4; ++id)
        jobs.push_back(tinyJob(id));
    ServerConfig cfg;
    cfg.workers = 2;
    std::string error;
    auto outcome = runBatch(jobs, cfg, error);
    tracer.setEnabled(false);
    ASSERT_TRUE(outcome.has_value()) << error;

    bool serveTrack = false;
    bool labelledDevice = false;
    for (const std::string &name : tracer.trackNames()) {
        if (name.rfind("serve/w", 0) == 0)
            serveTrack = true;
        // RuntimeContext resources constructed on a worker session
        // carry the session prefix, e.g. "w0/AMD Radeon .../compute".
        if (name.rfind("w0/", 0) == 0 || name.rfind("w1/", 0) == 0)
            labelledDevice = true;
    }
    tracer.clear();
    EXPECT_TRUE(serveTrack);
    EXPECT_TRUE(labelledDevice);
}

// --- Deadline inheritance (explicit 0 vs absent) -----------------------

TEST(ServeDeadline, ExplicitZeroDoesNotInheritTheServerDefault)
{
    std::string err;
    auto zero = parseJobLine(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02, "deadline_ms": 0})",
        1, err);
    auto absent = parseJobLine(
        R"({"id": 2, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02})",
        2, err);
    ASSERT_TRUE(zero.has_value()) << err;
    ASSERT_TRUE(absent.has_value()) << err;
    EXPECT_TRUE(zero->deadlineGiven);
    EXPECT_FALSE(absent->deadlineGiven);

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.defaultDeadlineMs = 5.0;
    Server server(cfg);
    server.pause();
    ASSERT_FALSE(server.start().has_value());
    server.submit(*zero);
    server.submit(*absent);
    // Both sit queued past the 5 ms default.  Only the job whose
    // line *omitted* deadline_ms inherits it; the explicit 0 means
    // "no deadline", not "use the default".
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.resume();
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_DOUBLE_EQ(results[0].deadlineMs, 0.0);
    EXPECT_EQ(results[1].status, JobStatus::Expired);
    EXPECT_DOUBLE_EQ(results[1].deadlineMs, 5.0);
}

TEST(ServeDeadline, ExplicitZeroServiceDeadlineDoesNotInherit)
{
    std::string err;
    auto zero = parseJobLine(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02,)"
        R"( "service_deadline_ms": 0})",
        1, err);
    ASSERT_TRUE(zero.has_value()) << err;
    EXPECT_TRUE(zero->serviceDeadlineGiven);

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.defaultServiceDeadlineMs = 0.01;
    Server server(cfg);
    ASSERT_FALSE(server.start().has_value());
    server.submit(*zero);
    JobSpec inherits = tinyJob(2);
    server.submit(inherits);
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].serviceDeadlineMs, 0.0);
    EXPECT_DOUBLE_EQ(results[1].serviceDeadlineMs, 0.01);
}

// --- Shed-victim result records (regression) ---------------------------

TEST(ServeAdmission, ShedRecordsCarryTheVictimsOwnContext)
{
    obs::Metrics &metrics = obs::Metrics::global();
    metrics.clear();
    metrics.setEnabled(true);

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.queueCap = 1;
    cfg.admission = Admission::Shed;
    Server server(cfg);
    server.pause();
    ASSERT_FALSE(server.start().has_value());

    JobSpec a = tinyJob(1); // queues at depth 0
    JobSpec b = tinyJob(2);
    b.priority = 1; // strictly higher: evicts a
    JobSpec c = tinyJob(3); // not higher than b: shed itself
    server.submit(a);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.submit(b);
    EXPECT_EQ(metrics.counterValue("serve.shed"), 1.0);
    server.submit(c);
    EXPECT_EQ(metrics.counterValue("serve.shed"), 2.0);
    server.resume();
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 3u);
    // The evicted victim's record carries *its* submit-time context:
    // the depth it observed (0, the queue was empty) and the wall
    // time it sat queued - not the shed instant's queue depth.
    EXPECT_EQ(results[0].status, JobStatus::Shed);
    EXPECT_EQ(results[0].queueDepthAtSubmit, 0u);
    EXPECT_GT(results[0].hostQueueWaitMs, 0.0);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    // The refused incoming job observed the current depth (1) and
    // never waited.
    EXPECT_EQ(results[2].status, JobStatus::Shed);
    EXPECT_EQ(results[2].queueDepthAtSubmit, 1u);
    EXPECT_DOUBLE_EQ(results[2].hostQueueWaitMs, 0.0);
    // Exactly one serve.shed count per shed event, never two.
    EXPECT_EQ(metrics.counterValue("serve.shed"), 2.0);
    EXPECT_EQ(metrics.counterValue("serve.completed"), 1.0);
}

// --- Predict-admission message + backlog arithmetic --------------------

TEST(ServePredictAdmission, RejectionMessageRoundTripsTheBacklog)
{
    JobSpec probe = tinyJob(1);
    const double cost = 0.00012345678901234567; // not 6-digit clean
    model::Surrogate surrogate;
    surrogate.setJobCost(jobClassKey(probe), jobDeviceKey(probe),
                         cost);

    ServerConfig cfg;
    cfg.workers = 2;
    cfg.predictAdmission = true;
    cfg.surrogate = &surrogate;
    Server server(cfg);
    server.pause();
    ASSERT_FALSE(server.start().has_value());
    // Three deadline-free jobs queue up and accumulate predicted
    // backlog exactly as the server folds it (sequential +=).
    double backlog = 0.0;
    for (u64 id = 1; id <= 3; ++id) {
        server.submit(tinyJob(id));
        backlog += cost;
    }
    JobSpec doomed = tinyJob(4);
    doomed.deadlineMs = 1e-6; // guaranteed below the prediction
    server.submit(doomed);
    server.resume();
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 4u);
    ASSERT_EQ(results[3].status, JobStatus::Rejected);
    // The message must quote the prediction computed from the
    // recorded costs (backlog spread over 2 workers plus the job's
    // own cost) in round-trip %.17g - std::to_string's fixed 6
    // digits would collapse it to "0.000185".
    const double predictedMs = (backlog / 2.0 + cost) * 1e3;
    const std::string expected =
        "predict-admission: predicted completion " +
        formatG17(predictedMs) + " ms > deadline " + formatG17(1e-6) +
        " ms";
    EXPECT_EQ(results[3].error, expected);
    // And the quoted number round-trips to the exact double.
    const size_t at = results[3].error.find("completion ") + 11;
    EXPECT_EQ(std::strtod(results[3].error.c_str() + at, nullptr),
              predictedMs);
}

// --- Preemption (service deadlines) ------------------------------------

JobSpec
coexJob(u64 id)
{
    JobSpec spec;
    spec.id = id;
    spec.app = "xsbench";
    spec.devices = "cpu+dgpu";
    spec.scale = 0.05;
    return spec;
}

TEST(ServePreemption, SlicesCheckpointAndResumeToCompletion)
{
    const JobSpec spec = coexJob(1);
    const double budget = 2e-3; // simulated seconds per slice

    auto first = runJobSlice(spec, budget, nullptr);
    ASSERT_EQ(first.result.status, JobStatus::Ok)
        << first.result.error;
    ASSERT_TRUE(first.preempted);
    ASSERT_FALSE(first.remaining.empty());
    // Checkpointed ranges are sorted and disjoint.
    for (size_t i = 0; i < first.remaining.size(); ++i) {
        EXPECT_LT(first.remaining[i].first, first.remaining[i].second);
        if (i > 0) {
            EXPECT_LE(first.remaining[i - 1].second,
                      first.remaining[i].first);
        }
    }

    // Drive the continuation chain to completion by hand; the
    // progress guarantee (>= 1 chunk per slice) bounds it.
    std::vector<coexec::ItemRange> remaining = first.remaining;
    u64 slices = 1;
    while (!remaining.empty()) {
        ASSERT_LT(slices, 200u) << "continuation chain diverged";
        auto next = runJobSlice(spec, budget, &remaining);
        ASSERT_EQ(next.result.status, JobStatus::Ok)
            << next.result.error;
        remaining = next.remaining;
        ++slices;
    }
    EXPECT_GT(slices, 1u);

    // The slice sequence is a pure function of (spec, budget).
    auto again = runJobSlice(spec, budget, nullptr);
    EXPECT_EQ(again.result.simSeconds, first.result.simSeconds);
    EXPECT_EQ(again.remaining, first.remaining);
}

TEST(ServePreemption, ServedJobSurvivesPreemptionsDeterministically)
{
    JobSpec spec = coexJob(1);
    spec.serviceDeadlineMs = 2.0; // forces several checkpoints
    spec.faultConfig.transferFailRate = 0.25;
    spec.faultConfig.seed = 11;
    spec.faultsGiven = true;

    auto serialize = [&](u32 workers) {
        ServerConfig cfg;
        cfg.workers = workers;
        std::string error;
        auto outcome = runBatch({spec, tinyJob(2)}, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        EXPECT_EQ(outcome->results[0].status, JobStatus::Ok);
        EXPECT_GT(outcome->results[0].preemptions, 0u);
        EXPECT_GT(outcome->report.preemptions, 0u);
        std::ostringstream os;
        writeResultsJsonl(os, outcome->results);
        return os.str();
    };
    const std::string one = serialize(1);
    EXPECT_EQ(one, serialize(3));
    EXPECT_NE(one.find("\"preemptions\":"), std::string::npos);
}

TEST(ServePreemption, ExpiresAfterMaxPreemptions)
{
    JobSpec spec = coexJob(1);
    spec.serviceDeadlineMs = 2.0;

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxPreemptions = 0; // first checkpoint already exceeds it
    Server server(cfg);
    ASSERT_FALSE(server.start().has_value());
    server.submit(spec);
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Expired);
    EXPECT_NE(results[0].error.find("service deadline"),
              std::string::npos);
    EXPECT_EQ(results[0].preemptions, 1u);
}

TEST(ServePreemption, FunctionalJobsNeverPreempt)
{
    JobSpec spec = coexJob(1);
    spec.functional = true;
    spec.serviceDeadlineMs = 1e-9; // would preempt instantly if read
    auto outcome = runJobSlice(spec, 1e-12, nullptr);
    EXPECT_EQ(outcome.result.status, JobStatus::Ok)
        << outcome.result.error;
    EXPECT_FALSE(outcome.preempted);
    EXPECT_TRUE(outcome.remaining.empty());
}

// --- Multi-tenant fair share -------------------------------------------

TEST(ServeTenants, WeightedFairShareDispatchesHeavyTenantsEarlier)
{
    std::string err;
    ServerConfig cfg;
    cfg.workers = 1;
    ASSERT_TRUE(cfg.tenants.applyWeights("heavy:4,light:1", err))
        << err;

    std::vector<JobSpec> jobs;
    for (u64 i = 0; i < 4; ++i) {
        JobSpec h = tinyJob(2 * i + 1);
        h.tenant = "heavy";
        JobSpec l = tinyJob(2 * i + 2);
        l.tenant = "light";
        jobs.push_back(l); // light submits first each round
        jobs.push_back(h);
    }
    std::string error;
    auto outcome = runBatch(jobs, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;

    ASSERT_EQ(outcome->report.tenants.size(), 2u);
    const auto &heavy = outcome->report.tenants[0];
    const auto &light = outcome->report.tenants[1];
    ASSERT_EQ(heavy.tenant, "heavy");
    ASSERT_EQ(light.tenant, "light");
    EXPECT_DOUBLE_EQ(heavy.weight, 4.0);
    EXPECT_DOUBLE_EQ(light.weight, 1.0);
    EXPECT_EQ(heavy.completed, 4u);
    EXPECT_EQ(light.completed, 4u);
    // The fair-share observable: the weighted-up tenant's jobs
    // dispatch earlier on average despite submitting second.
    EXPECT_LT(heavy.meanServiceSeq, light.meanServiceSeq);
}

TEST(ServeTenants, QuotaRejectsBeyondTheTenantsQueuedCap)
{
    std::string err;
    ServerConfig cfg;
    cfg.workers = 1;
    ASSERT_TRUE(cfg.tenants.applyQuotas("a:2", err)) << err;

    std::vector<JobSpec> jobs;
    for (u64 id = 1; id <= 4; ++id) {
        JobSpec spec = tinyJob(id);
        spec.tenant = "a";
        jobs.push_back(spec);
    }
    JobSpec other = tinyJob(5);
    other.tenant = "b"; // unlisted: no quota
    jobs.push_back(other);

    std::string error;
    auto outcome = runBatch(jobs, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    const auto &results = outcome->results;
    ASSERT_EQ(results.size(), 5u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    EXPECT_EQ(results[2].status, JobStatus::Rejected);
    EXPECT_NE(results[2].error.find("over quota"), std::string::npos);
    EXPECT_EQ(results[3].status, JobStatus::Rejected);
    EXPECT_EQ(results[4].status, JobStatus::Ok);
    EXPECT_EQ(results[4].tenant, "b");
}

TEST(ServeTenants, QuotaShedsWithinTheTenantOnly)
{
    std::string err;
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.admission = Admission::Shed;
    ASSERT_TRUE(cfg.tenants.applyQuotas("a:1", err)) << err;

    Server server(cfg);
    server.pause();
    ASSERT_FALSE(server.start().has_value());
    JobSpec bystander = tinyJob(1); // other tenant, lowest priority
    bystander.tenant = "b";
    bystander.priority = -5;
    JobSpec first = tinyJob(2);
    first.tenant = "a";
    JobSpec better = tinyJob(3);
    better.tenant = "a";
    better.priority = 3; // evicts its *own* tenant's job, not b's
    JobSpec worse = tinyJob(4);
    worse.tenant = "a"; // not higher than 'better': shed itself
    server.submit(bystander);
    server.submit(first);
    server.submit(better);
    server.submit(worse);
    server.resume();
    server.drain();
    auto results = server.takeResults();
    server.shutdown();

    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].status, JobStatus::Ok); // b untouched
    EXPECT_EQ(results[1].status, JobStatus::Shed);
    EXPECT_EQ(results[2].status, JobStatus::Ok);
    EXPECT_EQ(results[3].status, JobStatus::Shed);
    EXPECT_NE(results[3].error.find("over quota"), std::string::npos);
}

// --- Autoscaler --------------------------------------------------------

TEST(ServeAutoscale, QueueDepthRaisesTheGateAndDrainLowersIt)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.autoscale = true;
    cfg.minWorkers = 1;
    cfg.maxWorkers = 4;
    cfg.scaleUpQueueFactor = 1.0;
    Server server(cfg);
    server.pause();
    ASSERT_FALSE(server.start().has_value());
    for (u64 id = 1; id <= 8; ++id)
        server.submit(tinyJob(id));
    server.resume();
    server.drain();
    auto report = server.report();
    auto results = server.takeResults();
    server.shutdown();

    EXPECT_EQ(results.size(), 8u);
    for (const auto &res : results)
        EXPECT_EQ(res.status, JobStatus::Ok);
    ASSERT_FALSE(report.autoscaleEvents.empty());
    bool scaledUp = false;
    for (const auto &event : report.autoscaleEvents) {
        EXPECT_LE(event.toWorkers, 4u);
        EXPECT_GE(event.toWorkers, 1u);
        if (event.reason == "queue-depth") {
            scaledUp = true;
            EXPECT_GT(event.toWorkers, event.fromWorkers);
        }
    }
    EXPECT_TRUE(scaledUp);
    // The drained queue dropped the gate back to the floor.
    EXPECT_EQ(report.autoscaleEvents.back().reason, "drained");
    EXPECT_EQ(report.activeWorkers, 1u);
}

TEST(ServeAutoscale, BacklogRuleUsesPredictedCosts)
{
    JobSpec probe = tinyJob(1);
    model::Surrogate surrogate;
    surrogate.setJobCost(jobClassKey(probe), jobDeviceKey(probe),
                         0.5); // half a simulated second each

    ServerConfig cfg;
    cfg.workers = 4;
    cfg.autoscale = true;
    cfg.minWorkers = 1;
    cfg.maxWorkers = 4;
    cfg.autoscaleBacklogSeconds = 0.5; // one predicted job per worker
    cfg.predictAdmission = true;
    cfg.surrogate = &surrogate;
    Server server(cfg);
    server.pause();
    ASSERT_FALSE(server.start().has_value());
    for (u64 id = 1; id <= 4; ++id)
        server.submit(tinyJob(id));
    server.resume();
    server.drain();
    auto report = server.report();
    server.shutdown();

    bool backlogRule = false;
    for (const auto &event : report.autoscaleEvents)
        if (event.reason == "backlog") {
            backlogRule = true;
            EXPECT_GT(event.backlogSeconds, 0.0);
        }
    EXPECT_TRUE(backlogRule);
}

// --- Streaming front-end -----------------------------------------------

TEST(ServeStream, EndSentinelStopsIngestionAndEmitsLiveLines)
{
    std::istringstream in(
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02, "tenant": "a"})"
        "\n\n"
        R"({"id": 2, "app": "minife", "model": "openmp",)"
        R"( "device": "cpu", "scale": 0.02})"
        "\n  end  \n"
        "this is not json but it is after end and never read\n");
    std::ostringstream out;
    ServerConfig cfg;
    cfg.workers = 2;
    std::string error;
    auto outcome = runStream(in, out, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_TRUE(outcome->sawEnd);
    EXPECT_EQ(outcome->linesRead, 4u); // incl. blank + sentinel
    ASSERT_EQ(outcome->results.size(), 2u);
    ASSERT_EQ(outcome->specs.size(), 2u);
    EXPECT_EQ(outcome->results[0].tenant, "a");

    // The live lines are exactly the sorted serialization's lines,
    // possibly reordered (completion order is host-dependent).
    std::ostringstream sorted;
    writeResultsJsonl(sorted, outcome->results);
    std::istringstream live(out.str());
    std::string line;
    size_t lines = 0;
    while (std::getline(live, line)) {
        ++lines;
        EXPECT_NE(sorted.str().find(line + "\n"), std::string::npos)
            << line;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(ServeStream, EofBehavesLikeEnd)
{
    std::istringstream in(
        R"({"id": 7, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02})"
        "\n");
    std::ostringstream out;
    ServerConfig cfg;
    cfg.workers = 1;
    std::string error;
    auto outcome = runStream(in, out, cfg, error);
    ASSERT_TRUE(outcome.has_value()) << error;
    EXPECT_FALSE(outcome->sawEnd);
    ASSERT_EQ(outcome->results.size(), 1u);
    EXPECT_EQ(outcome->results[0].status, JobStatus::Ok);
}

TEST(ServeStream, BadLinesAreFatalWithTheLineNumber)
{
    ServerConfig cfg;
    cfg.workers = 1;
    {
        std::istringstream in(
            "{\"id\": 1, \"scale\": 0.02}\nnot json\n");
        std::ostringstream out;
        std::string error;
        EXPECT_FALSE(runStream(in, out, cfg, error).has_value());
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    }
    {
        std::istringstream in(
            R"({"id": 3, "app": "readmem", "scale": 0.02})"
            "\n"
            R"({"id": 3, "app": "readmem", "scale": 0.02})"
            "\n");
        std::ostringstream out;
        std::string error;
        EXPECT_FALSE(runStream(in, out, cfg, error).has_value());
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
        EXPECT_NE(error.find("duplicate job id 3"),
                  std::string::npos)
            << error;
    }
}

TEST(ServeStream, SortedResultsAreByteIdenticalAcrossWorkerCounts)
{
    // The ISSUE acceptance scenario: a two-tenant faulted stream with
    // forced preemption, byte-identical at 1, 2, and 7 workers.
    const std::string feed =
        R"({"id": 1, "app": "readmem", "model": "opencl",)"
        R"( "device": "dgpu", "scale": 0.02, "tenant": "a"})"
        "\n"
        R"({"id": 2, "app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "scale": 0.05, "tenant": "b",)"
        R"( "service_deadline_ms": 2, "faults": "transfer:0.25",)"
        R"( "fault_seed": 11})"
        "\n"
        R"({"id": 3, "app": "minife", "model": "openmp",)"
        R"( "device": "cpu", "scale": 0.02, "tenant": "a"})"
        "\n"
        R"({"id": 4, "app": "xsbench", "devices": "cpu+dgpu",)"
        R"( "scale": 0.05, "tenant": "b",)"
        R"( "service_deadline_ms": 2, "faults": "transfer:0.25",)"
        R"( "fault_seed": 11})"
        "\nend\n";
    auto serialize = [&](u32 workers) {
        std::istringstream in(feed);
        std::ostringstream out;
        ServerConfig cfg;
        cfg.workers = workers;
        std::string err;
        EXPECT_TRUE(
            cfg.tenants.applyWeights("a:2,b:1", err))
            << err;
        std::string error;
        auto outcome = runStream(in, out, cfg, error);
        EXPECT_TRUE(outcome.has_value()) << error;
        EXPECT_GT(outcome->report.preemptions, 0u);
        std::ostringstream sorted;
        writeResultsJsonl(sorted, outcome->results);
        return sorted.str();
    };
    const std::string one = serialize(1);
    EXPECT_EQ(one, serialize(2));
    EXPECT_EQ(one, serialize(7));
    EXPECT_NE(one.find("\"preemptions\":"), std::string::npos);
    // Equal specs (ids 2 and 4) serialized identical payloads.
    std::istringstream lines(one);
    std::string l1, l2, l3, l4;
    std::getline(lines, l1);
    std::getline(lines, l2);
    std::getline(lines, l3);
    std::getline(lines, l4);
    EXPECT_EQ(l2.substr(l2.find("\"status\"")),
              l4.substr(l4.find("\"status\"")));
}

TEST(ServeStream, VirtualThroughputScalesWithWorkers)
{
    // Every flavour the server routes, fed as a two-tenant (3:1)
    // stream whose faulted co-execution jobs are sliced by a simulated
    // service deadline.  The virtual schedule replays simulated
    // seconds, so the 8-vs-1-worker ratio is exact on any host.
    const struct
    {
        const char *fields;
        bool faulted;
    } kMix[] = {
        {R"("app": "readmem", "model": "opencl", "device": "dgpu")", false},
        {R"("app": "xsbench", "model": "opencl", "device": "apu")", false},
        {R"("app": "minife", "model": "openmp", "device": "cpu")", false},
        {R"("app": "readmem", "model": "hc", "device": "apu")", false},
        {R"("app": "xsbench", "devices": "cpu+dgpu")", true},
        {R"("app": "minife", "model": "opencl", "device": "dgpu")", false},
    };
    std::ostringstream feed;
    u64 jobs = 0;
    for (int rep = 0; rep < 4; ++rep) {
        for (const auto &flavor : kMix) {
            ++jobs;
            feed << "{\"id\": " << jobs << ", " << flavor.fields
                 << ", \"scale\": 0.05, \"tenant\": \""
                 << (jobs % 2 ? 'a' : 'b') << "\"";
            if (flavor.faulted)
                feed << ", \"faults\": \"transfer:0.2\", \"fault_seed\": "
                     << 40 + jobs << ", \"service_deadline_ms\": 10";
            feed << "}\n";
        }
    }
    feed << "end\n";

    auto throughput = [&](u32 workers) {
        ServerConfig cfg;
        cfg.workers = workers;
        cfg.maxPreemptions = 1000; // slice, never expire
        std::string error;
        EXPECT_TRUE(cfg.tenants.applyWeights("a:3,b:1", error)) << error;
        std::istringstream in(feed.str());
        std::ostringstream live;
        auto outcome = runStream(in, live, cfg, error);
        if (!outcome) {
            ADD_FAILURE() << error;
            return 0.0;
        }
        EXPECT_EQ(outcome->report.completed, jobs) << workers;
        EXPECT_GT(outcome->report.preemptions, 0u) << workers;
        return outcome->report.simJobsPerSecond();
    };
    const double one = throughput(1);
    EXPECT_GE(throughput(8), 3.0 * one);
}

} // namespace
} // namespace hetsim::serve
