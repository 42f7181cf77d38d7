/**
 * @file
 * Wall-clock benchmark mode for the experiment driver.
 *
 * Runs each selected scenario repeatedly on the host, measures real
 * (not simulated) time per repeat, and reports throughput as
 * application operations per second and simulated memory accesses per
 * second. The report serializes to a BENCH_<n>.json document that the
 * perf program checks in next to the golden fixtures, optionally
 * embedding a recorded baseline so the file itself documents the
 * speedup it claims.
 *
 * Benchmarking is observation-only: every repeat goes through the same
 * runScenarios() path as a normal invocation (artifacts and manifest
 * suppressed), so simulated results are byte-identical whether or not
 * --bench is given. bench_test.cc pins that contract.
 */

#ifndef MCLOCK_HARNESS_BENCHMARK_HH_
#define MCLOCK_HARNESS_BENCHMARK_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"

namespace mclock {
namespace harness {

/** Benchmark-mode configuration. */
struct BenchOptions
{
    unsigned repeat = 3;  ///< measured repeats per scenario (>= 1)
    unsigned warmup = 1;  ///< discarded warmup repeats per scenario
    /**
     * Worker threads inside each repeat. Benchmark timing requires 1
     * (scenarios must not compete for cores inside a timed window);
     * runBenchmark() warns and downgrades any other value. Sharded
     * scenarios still thread internally per context.shards — that is
     * the measured quantity, not a timing hazard, because each repeat
     * runs exactly one scenario.
     */
    unsigned jobs = 1;
    std::string benchId = "BENCH_8";  ///< document id ("BENCH_<pr>")
    /**
     * Optional path to a recorded baseline (the "baseline" object of a
     * previous report, or a standalone {"label", "total_seconds",
     * "scenarios": {name: seconds}} document). Embedded verbatim in the
     * output; the speedup field compares against it over the scenarios
     * present in both runs.
     */
    std::string baselinePath;
    RunContext context;
};

/** Measured outcome for one scenario. */
struct BenchScenario
{
    std::string name;
    std::size_t units = 0;
    /** Work per repeat (identical across repeats by determinism). */
    std::uint64_t appOps = 0;
    std::uint64_t simAccesses = 0;
    /** Host seconds per measured repeat, in execution order. */
    std::vector<double> wallSeconds;
    /** Golden-comparable summary of the last repeat (for contract tests). */
    MetricMap summary;
    bool clean = true;  ///< no invariant violations in any repeat

    double bestSeconds() const;
    double meanSeconds() const;
};

/** Whole-suite benchmark outcome. */
struct BenchReport
{
    std::vector<BenchScenario> scenarios;
    unsigned repeat = 0;
    unsigned warmup = 0;
    unsigned jobs = 0;

    bool
    clean() const
    {
        for (const auto &s : scenarios) {
            if (!s.clean)
                return false;
        }
        return true;
    }

    double totalBestSeconds() const;
    std::uint64_t totalAppOps() const;
    std::uint64_t totalSimAccesses() const;
};

/**
 * Benchmark @p scenarios one at a time (so repeats are not contended
 * by other scenarios' units): @c opts.warmup discarded runs, then
 * @c opts.repeat measured runs each.
 */
BenchReport runBenchmark(const std::vector<const Scenario *> &scenarios,
                         const BenchOptions &opts);

/**
 * Serialize @p report as the BENCH_<n>.json document. When
 * @p opts.baselinePath loads, the baseline is embedded and
 * "speedup_vs_baseline" is total baseline seconds / total best seconds
 * over the intersection of scenario names.
 */
Json benchReportToJson(const BenchReport &report,
                       const BenchOptions &opts);

/**
 * Load the baseline document: a JSON object with a "scenarios" object.
 * @param[out] err set to the reason on failure (when non-null)
 * @return the document, or a null Json on any failure
 */
Json loadBenchBaseline(const std::string &path, std::string *err = nullptr);

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_BENCHMARK_HH_
