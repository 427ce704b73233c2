/**
 * @file
 * Unit tests for the surrogate model layer: hypothesis selection,
 * per-items refinement, roofline (max-of-planes) terms, deterministic
 * serialization, and the exact job-cost anchors the serving layers
 * consume.
 *
 * The synthetic observations are generated from closed forms the
 * hypothesis grid can represent exactly, so fits must reproduce them
 * to rounding error - any structural regression shows up as a fat
 * residual, not a tolerance tweak.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "model/fit.hh"
#include "model/surrogate.hh"

#include "gate_fixtures.hh"

namespace hetsim::model
{
namespace
{

/** True generative forms, all expressible by the hypothesis grid. */
double trueIssue(double n, double fc) { return 3e-6 * n / fc; }
double trueMem(double n, double fc, double fm)
{
    // A bandwidth roofline: DRAM-limited at low mem clock,
    // issue-limited once fm > (8/3) fc - a max of planes through the
    // origin that no sum hypothesis can express.
    return std::max(4e-6 * n / fm, 1.5e-6 * n / fc);
}
double trueLatency(double n, double fc, double fm)
{
    return 1e-4 + 2e-6 * n / fc + 5e-7 * n / fm;
}
constexpr double kTrueLaunch = 1.8e-5;

double trueTotal(double n, double fc, double fm)
{
    return kTrueLaunch + std::max({trueIssue(n, fc),
                                   trueMem(n, fc, fm),
                                   trueLatency(n, fc, fm)});
}

obs::ObsRecord makeRec(const std::string &kernel, u64 items, double fc,
                       double fm, u64 launches = 4)
{
    const double n = static_cast<double>(items);
    const double launchCount = static_cast<double>(launches);
    obs::ObsRecord r;
    r.kernel = kernel;
    r.device = "dev";
    r.model = "opencl";
    r.precisionBits = 32;
    r.workgroup = 256;
    r.items = items;
    r.coreMhz = fc;
    r.memMhz = fm;
    r.launches = launches;
    r.issueSeconds = trueIssue(n, fc) * launchCount;
    r.memSeconds = trueMem(n, fc, fm) * launchCount;
    r.ldsSeconds = 0.0;
    r.latencySeconds = trueLatency(n, fc, fm) * launchCount;
    r.launchSeconds = kTrueLaunch * launchCount;
    r.meanSeconds = trueTotal(n, fc, fm);
    r.seconds = r.meanSeconds * launchCount;
    r.m2Seconds = 0.0;
    return r;
}

/** 3 item counts x 4 core x 2 mem clocks; two cells sit on the
 *  issue-limited side of the mem roofline at every item count. */
std::vector<obs::ObsRecord> makeGrid(const std::string &kernel)
{
    std::vector<obs::ObsRecord> recs;
    for (u64 items : {100000ull, 200000ull, 400000ull})
        for (double fc : {300.0, 400.0, 600.0, 1000.0})
            for (double fm : {800.0, 1200.0})
                recs.push_back(makeRec(kernel, items, fc, fm));
    return recs;
}

GroupKey gridKey(const std::string &kernel)
{
    GroupKey key;
    key.kernel = kernel;
    key.device = "dev";
    key.model = "opencl";
    key.precisionBits = 32;
    key.workgroup = 256;
    return key;
}

const char *hypothesisName(const TermFit &fit)
{
    return hypothesisGrid()[static_cast<size_t>(fit.hypothesis)].name;
}

TEST(ModelFit, RecoversExactFormsAndSelectsStructure)
{
    Surrogate surrogate;
    EXPECT_EQ(surrogate.fitFromObservations(makeGrid("k")), 1u);

    const KernelModel *m = surrogate.group(gridKey("k"));
    ASSERT_NE(m, nullptr);
    EXPECT_STREQ(hypothesisName(m->issue), "n/fc");
    EXPECT_STREQ(hypothesisName(m->mem), "max(n/fc,n/fm)");
    EXPECT_STREQ(hypothesisName(m->latency), "1+n/fc+n/fm");
    EXPECT_STREQ(hypothesisName(m->launch), "1");
    EXPECT_EQ(m->points, 24u);
    EXPECT_EQ(m->launches, 96u);
    EXPECT_EQ(m->refined.size(), 3u);
    EXPECT_LT(m->trainRelErr, 1e-9);

    for (const obs::ObsRecord &rec : makeGrid("k")) {
        const double n = static_cast<double>(rec.items);
        const Prediction p = m->predict(n, rec.coreMhz, rec.memMhz);
        EXPECT_NEAR(p.seconds, trueTotal(n, rec.coreMhz, rec.memMhz),
                    1e-9 * p.seconds)
            << "n=" << n << " fc=" << rec.coreMhz
            << " fm=" << rec.memMhz;
    }
}

TEST(ModelFit, RefinementInterpolatesAndGlobalFormExtrapolates)
{
    Surrogate surrogate;
    surrogate.fitFromObservations(makeGrid("k"));
    const KernelModel *m = surrogate.group(gridKey("k"));
    ASSERT_NE(m, nullptr);

    // Every true term is affine in items at fixed clocks, so linear
    // interpolation between the per-items refinements is exact.
    const Prediction mid = m->predict(150000.0, 400.0, 1200.0);
    EXPECT_NEAR(mid.seconds, trueTotal(150000.0, 400.0, 1200.0),
                1e-9 * mid.seconds);

    // Outside the refined range the global closed forms take over,
    // and they are exact for this generative model too.
    const Prediction above = m->predict(800000.0, 600.0, 800.0);
    EXPECT_NEAR(above.seconds, trueTotal(800000.0, 600.0, 800.0),
                1e-9 * above.seconds);
}

TEST(ModelFit, BoundednessMatchesArgmaxOfTerms)
{
    Surrogate surrogate;
    surrogate.fitFromObservations(makeGrid("k"));
    const KernelModel *m = surrogate.group(gridKey("k"));
    ASSERT_NE(m, nullptr);

    for (const obs::ObsRecord &rec : makeGrid("k")) {
        const Prediction p = m->predict(
            static_cast<double>(rec.items), rec.coreMhz, rec.memMhz);
        const char *label = "compute";
        double best = p.issueSeconds;
        if (p.memSeconds > best) {
            best = p.memSeconds;
            label = "memory";
        }
        if (p.ldsSeconds > best) {
            best = p.ldsSeconds;
            label = "lds";
        }
        if (p.latencySeconds > best) {
            best = p.latencySeconds;
            label = "latency";
        }
        if (p.launchSeconds > best)
            label = "launch";
        EXPECT_STREQ(p.bound, label);
    }
}

TEST(ModelFit, AnchorsAreBitExact)
{
    Surrogate surrogate;
    surrogate.fitFromObservations(makeGrid("k"));
    const GroupKey key = gridKey("k");
    const auto anchor = surrogate.anchorSeconds(key, 200000, 600.0,
                                               1200.0);
    ASSERT_TRUE(anchor.has_value());
    EXPECT_EQ(*anchor, trueTotal(200000.0, 600.0, 1200.0));
    EXPECT_FALSE(
        surrogate.anchorSeconds(key, 12345, 600.0, 1200.0).has_value());
}

TEST(ModelFit, SavesAreDeterministicAndRoundTrip)
{
    Surrogate a;
    a.fitFromObservations(makeGrid("k"));
    // Deliberately awkward doubles: they must survive the file
    // bit-for-bit because fleet costing replays them as exact costs.
    a.setJobCost("readmem|scale=0.5", "dgpu", 0.1 + 0.2);
    a.setJobCost("xsbench|scale=1", "cpu",
                 std::nextafter(1e-3, 2e-3));

    std::ostringstream s1;
    a.save(s1);
    Surrogate b;
    b.fitFromObservations(makeGrid("k"));
    b.setJobCost("readmem|scale=0.5", "dgpu", 0.1 + 0.2);
    b.setJobCost("xsbench|scale=1", "cpu",
                 std::nextafter(1e-3, 2e-3));
    std::ostringstream s2;
    b.save(s2);
    EXPECT_EQ(s1.str(), s2.str()) << "equal fits must be byte-equal";

    Surrogate loaded;
    std::istringstream in(s1.str());
    std::string error;
    ASSERT_TRUE(loaded.load(in, "model.json", error)) << error;
    EXPECT_EQ(loaded.groupCount(), a.groupCount());
    EXPECT_EQ(loaded.anchorCount(), a.anchorCount());
    EXPECT_EQ(loaded.refineCount(), a.refineCount());
    EXPECT_EQ(loaded.jobCostCount(), a.jobCostCount());
    EXPECT_EQ(loaded.fitDigest(), a.fitDigest());

    const auto cost = loaded.jobCost("readmem|scale=0.5", "dgpu");
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 0.1 + 0.2); // bitwise, not approximately
    const auto cost2 = loaded.jobCost("xsbench|scale=1", "cpu");
    ASSERT_TRUE(cost2.has_value());
    EXPECT_EQ(*cost2, std::nextafter(1e-3, 2e-3));

    std::ostringstream s3;
    loaded.save(s3);
    EXPECT_EQ(s3.str(), s1.str()) << "load/save must round-trip bytes";
}

TEST(ModelFit, LoaderReportsLineNumberedErrors)
{
    const auto loadError = [](const std::string &text) {
        Surrogate s;
        std::istringstream in(text);
        std::string error;
        EXPECT_FALSE(s.load(in, "m.json", error));
        EXPECT_TRUE(s.empty());
        return error;
    };

    EXPECT_NE(loadError("").find("empty model file"),
              std::string::npos);
    EXPECT_NE(loadError("{\"schema\":\"bogus.v9\"}")
                  .find("unsupported schema"),
              std::string::npos);
    EXPECT_NE(loadError("not json").find("m.json line 1"),
              std::string::npos);

    const std::string header =
        "{\"schema\":\"hetsim.model.v1\",\"groups\":0,\"refines\":0,"
        "\"anchors\":0,\"job_costs\":0,\"fit_digest\":\"0x0\"}\n";
    EXPECT_NE(loadError(header + "{\"record\":\"wat\"}")
                  .find("unknown record kind"),
              std::string::npos);
    EXPECT_NE(loadError(header + "{\"record\":\"group\"}")
                  .find("m.json line 2"),
              std::string::npos);
    EXPECT_NE(
        loadError(header +
                  "{\"record\":\"refine\",\"kernel\":\"k\","
                  "\"device\":\"d\",\"model\":\"opencl\","
                  "\"precision_bits\":32,\"workgroup\":256,"
                  "\"items\":10,\"points\":1}")
            .find("refine record before its group"),
        std::string::npos);
}

TEST(ModelFit, FindGroupPrefersExactModelMatch)
{
    std::vector<obs::ObsRecord> recs = makeGrid("k");
    for (obs::ObsRecord rec : makeGrid("k")) {
        rec.model = "openmp";
        rec.launches *= 2; // the busier group
        recs.push_back(rec);
    }
    Surrogate surrogate;
    EXPECT_EQ(surrogate.fitFromObservations(recs), 2u);

    GroupKey found;
    ASSERT_NE(surrogate.findGroup("k", "dev", 32, "opencl", &found),
              nullptr);
    EXPECT_EQ(found.model, "opencl");
    // No model constraint: the group with more launches wins.
    ASSERT_NE(surrogate.findGroup("k", "dev", 32, "", &found), nullptr);
    EXPECT_EQ(found.model, "openmp");
    EXPECT_EQ(surrogate.findGroup("k", "dev", 64, ""), nullptr);
    EXPECT_EQ(surrogate.findGroup("nope", "dev", 32, ""), nullptr);
}

TEST(ModelFit, SplitRatioBalancesLinearRates)
{
    // Two pure-linear devices: A runs an item in 1us, B in 3us.  The
    // minimax split puts 3/4 of the items on A.
    std::vector<obs::ObsRecord> recs;
    for (u64 items : {100000ull, 200000ull, 400000ull}) {
        obs::ObsRecord fast = makeRec("k", items, 925.0, 1250.0);
        fast.device = "fast";
        const double n = static_cast<double>(items);
        fast.issueSeconds = 1e-6 * n * 4;
        fast.memSeconds = 0.0;
        fast.latencySeconds = 0.0;
        fast.launchSeconds = 0.0;
        fast.meanSeconds = 1e-6 * n;
        fast.seconds = fast.meanSeconds * 4;
        obs::ObsRecord slow = fast;
        slow.device = "slow";
        slow.issueSeconds = 3e-6 * n * 4;
        slow.meanSeconds = 3e-6 * n;
        slow.seconds = slow.meanSeconds * 4;
        recs.push_back(fast);
        recs.push_back(slow);
    }
    Surrogate surrogate;
    surrogate.fitFromObservations(recs);

    GroupKey a = gridKey("k");
    a.device = "fast";
    GroupKey b = gridKey("k");
    b.device = "slow";
    const auto split = surrogate.splitRatio(a, 925.0, 1250.0, b, 925.0,
                                            1250.0, 300000.0);
    ASSERT_TRUE(split.has_value());
    EXPECT_NEAR(split->firstShare, 0.75, 1e-3);
    EXPECT_NEAR(split->first.seconds, split->second.seconds,
                1e-3 * split->seconds);
    EXPECT_FALSE(surrogate
                     .splitRatio(a, 925.0, 1250.0, gridKey("nope"),
                                 925.0, 1250.0, 300000.0)
                     .has_value());
}

TEST(ModelFit, LoadObservationsRejectsMalformedLines)
{
    std::istringstream in("{\"kernel\":\"k\"}\n");
    std::string error;
    EXPECT_FALSE(loadObservations(in, "obs.jsonl", error).has_value());
    EXPECT_NE(error.find("obs.jsonl line 1"), std::string::npos);
}

TEST(ModelFit, HeldOutSimulatedClockGridWithinFivePercent)
{
    // Per fit group, hold out every third interior point of the
    // (items, clocks)-sorted records, so the check interpolates.
    std::map<GroupKey, std::vector<obs::ObsRecord>> byGroup;
    for (obs::ObsRecord &rec : fixtures::simulateClockGrid())
        byGroup[fixtures::groupKeyOf(rec)].push_back(std::move(rec));
    std::vector<obs::ObsRecord> training, heldout;
    for (auto &[key, group] : byGroup) {
        std::sort(group.begin(), group.end(),
                  [](const obs::ObsRecord &a, const obs::ObsRecord &b) {
                      return std::tie(a.items, a.coreMhz, a.memMhz) <
                             std::tie(b.items, b.coreMhz, b.memMhz);
                  });
        for (size_t i = 0; i < group.size(); ++i) {
            const bool interior = i > 0 && i + 1 < group.size();
            (interior && i % 3 == 1 ? heldout : training)
                .push_back(group[i]);
        }
    }
    ASSERT_FALSE(heldout.empty());

    Surrogate surrogate;
    ASSERT_EQ(surrogate.fitFromObservations(training), byGroup.size());
    double worst = 0.0;
    for (const obs::ObsRecord &rec : heldout) {
        const auto pred = surrogate.predict(
            fixtures::groupKeyOf(rec), static_cast<double>(rec.items),
            rec.coreMhz, rec.memMhz);
        ASSERT_TRUE(pred.has_value()) << rec.kernel;
        const double actual =
            rec.seconds / static_cast<double>(std::max<u64>(rec.launches, 1));
        worst = std::max(worst, std::abs(pred->seconds - actual) / actual);
    }
    EXPECT_LE(worst, 0.05);
}

} // namespace
} // namespace hetsim::model
