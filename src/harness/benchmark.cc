#include "harness/benchmark.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "base/logging.hh"
#include "harness/manifest.hh"

namespace mclock {
namespace harness {

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
rate(std::uint64_t count, double secs)
{
    return secs > 0.0 ? static_cast<double>(count) / secs : 0.0;
}

}  // namespace

double
BenchScenario::bestSeconds() const
{
    return wallSeconds.empty()
        ? 0.0
        : *std::min_element(wallSeconds.begin(), wallSeconds.end());
}

double
BenchScenario::meanSeconds() const
{
    if (wallSeconds.empty())
        return 0.0;
    const double sum = std::accumulate(wallSeconds.begin(),
                                       wallSeconds.end(), 0.0);
    return sum / static_cast<double>(wallSeconds.size());
}

double
BenchReport::totalBestSeconds() const
{
    double sum = 0.0;
    for (const auto &s : scenarios)
        sum += s.bestSeconds();
    return sum;
}

std::uint64_t
BenchReport::totalAppOps() const
{
    std::uint64_t sum = 0;
    for (const auto &s : scenarios)
        sum += s.appOps;
    return sum;
}

std::uint64_t
BenchReport::totalSimAccesses() const
{
    std::uint64_t sum = 0;
    for (const auto &s : scenarios)
        sum += s.simAccesses;
    return sum;
}

BenchReport
runBenchmark(const std::vector<const Scenario *> &scenarios,
             const BenchOptions &opts)
{
    BenchReport report;
    report.repeat = std::max(1u, opts.repeat);
    report.warmup = opts.warmup;

    // Timing windows must not be contended by other scenarios' units:
    // anything but one harness worker is downgraded, loudly. Sharded
    // scenarios still thread internally (context.shards) — one
    // scenario at a time, that parallelism *is* the measurement.
    unsigned jobs = opts.jobs;
    if (jobs != 1) {
        std::fprintf(stderr,
                     "bench: --jobs %u downgraded to 1 (benchmark "
                     "repeats are timed one scenario at a time)\n",
                     jobs);
        jobs = 1;
    }
    report.jobs = jobs;

    RunnerOptions ro;
    ro.jobs = jobs;
    ro.writeArtifacts = false;
    ro.writeManifest = false;
    ro.quiet = true;
    ro.context = opts.context;

    // One scenario at a time: with the shared pool a slow scenario's
    // units would overlap the next scenario's timing window.
    for (const Scenario *sc : scenarios) {
        BenchScenario bench;
        bench.name = sc->name;
        const std::vector<const Scenario *> one{sc};
        for (unsigned i = 0; i < opts.warmup; ++i)
            runScenarios(one, ro);
        for (unsigned i = 0; i < report.repeat; ++i) {
            const auto start = std::chrono::steady_clock::now();
            RunReport rr = runScenarios(one, ro);
            const auto stop = std::chrono::steady_clock::now();
            MCLOCK_ASSERT(rr.results.size() == 1);
            ScenarioResult &result = rr.results.front();
            bench.wallSeconds.push_back(seconds(start, stop));
            bench.units = result.units;
            bench.appOps = result.appOps;
            bench.simAccesses = result.simAccesses;
            bench.summary = std::move(result.output.summary);
            if (!result.output.violations.empty())
                bench.clean = false;
        }
        report.scenarios.push_back(std::move(bench));
    }
    return report;
}

Json
loadBenchBaseline(const std::string &path, std::string *err)
{
    auto fail = [err](std::string why) {
        if (err)
            *err = std::move(why);
        return Json();
    };
    std::ifstream f(path);
    if (!f)
        return fail("cannot open file");
    std::stringstream ss;
    ss << f.rdbuf();
    std::string parseErr;
    Json doc = Json::parse(ss.str(), &parseErr);
    if (!parseErr.empty())
        return fail("not valid JSON: " + parseErr);
    if (!doc.isObject())
        return fail("not a JSON object");
    if (!doc["scenarios"].isObject())
        return fail("no \"scenarios\" object");
    return doc;
}

Json
benchReportToJson(const BenchReport &report, const BenchOptions &opts)
{
    Json scenarios{Json::Object{}};
    for (const auto &s : report.scenarios) {
        const double best = s.bestSeconds();
        Json entry{Json::Object{}};
        entry.set("units", static_cast<double>(s.units));
        entry.set("app_ops", static_cast<double>(s.appOps));
        entry.set("sim_accesses", static_cast<double>(s.simAccesses));
        Json walls{Json::Array{}};
        for (double w : s.wallSeconds)
            walls.push(Json(w));
        entry.set("wall_seconds", std::move(walls));
        entry.set("best_seconds", best);
        entry.set("mean_seconds", s.meanSeconds());
        entry.set("app_ops_per_sec", rate(s.appOps, best));
        entry.set("sim_accesses_per_sec", rate(s.simAccesses, best));
        scenarios.set(s.name, std::move(entry));
    }

    const double totalBest = report.totalBestSeconds();
    Json suite{Json::Object{}};
    suite.set("scenarios", static_cast<double>(report.scenarios.size()));
    suite.set("total_app_ops", static_cast<double>(report.totalAppOps()));
    suite.set("total_sim_accesses",
              static_cast<double>(report.totalSimAccesses()));
    suite.set("total_best_seconds", totalBest);
    suite.set("app_ops_per_sec", rate(report.totalAppOps(), totalBest));
    suite.set("sim_accesses_per_sec",
              rate(report.totalSimAccesses(), totalBest));

    Json doc{Json::Object{}};
    doc.set("bench_id", opts.benchId);
    doc.set("schema", "mclock-bench-v1");
    std::string sha = "unknown";
#ifdef MCLOCK_SOURCE_DIR
    sha = readGitSha(MCLOCK_SOURCE_DIR);
#endif
    doc.set("git_sha", sha);
    doc.set("golden_profile", Json(opts.context.golden));
    doc.set("seed", static_cast<double>(opts.context.seed));
    doc.set("jobs", static_cast<double>(report.jobs));
    doc.set("shards", static_cast<double>(opts.context.shards));
    doc.set("repeat", static_cast<double>(report.repeat));
    doc.set("warmup", static_cast<double>(report.warmup));
    doc.set("scenarios", std::move(scenarios));
    doc.set("suite", std::move(suite));

    if (!opts.baselinePath.empty()) {
        Json baseline = loadBenchBaseline(opts.baselinePath);
        if (baseline.isObject()) {
            // Speedup over the intersection, so a partial --filter run
            // still reports an honest like-for-like ratio.
            double baseSum = 0.0, measuredSum = 0.0;
            for (const auto &s : report.scenarios) {
                const Json &b = baseline["scenarios"][s.name];
                // Standalone baselines map name -> seconds; full
                // reports (a previous BENCH_<n>.json used directly)
                // map name -> {"best_seconds": ...}.
                double baseBest = 0.0;
                if (b.isNumber()) {
                    baseBest = b.asNumber();
                } else if (b.isObject() &&
                           b["best_seconds"].isNumber()) {
                    baseBest = b["best_seconds"].asNumber();
                }
                if (baseBest <= 0.0)
                    continue;
                baseSum += baseBest;
                measuredSum += s.bestSeconds();
            }
            doc.set("baseline", std::move(baseline));
            if (baseSum > 0.0 && measuredSum > 0.0) {
                doc.set("speedup_vs_baseline", baseSum / measuredSum);
            } else {
                // Empty intersection (renamed/filtered scenarios) or
                // degenerate timings: an honest ratio does not exist.
                // Emit an explicit null — never NaN/inf, and never a
                // silently missing key a dashboard would misread as
                // "no baseline configured".
                doc.set("speedup_vs_baseline", Json());
                MCLOCK_WARN(
                    "bench baseline %s shares no timed scenario with "
                    "this run; speedup_vs_baseline = null",
                    opts.baselinePath.c_str());
            }
        }
    }
    return doc;
}

}  // namespace harness
}  // namespace mclock
