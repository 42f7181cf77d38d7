#include "harness/runner.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "harness/manifest.hh"

namespace mclock {
namespace harness {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    // Host-time measurement only (wall_seconds in reports); never
    // feeds simulated state.
    // mclock-lint: wall-clock-ok(observation-only wall_seconds metric)
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

RunReport
runScenarios(const std::vector<const Scenario *> &scenarios,
             const RunnerOptions &opts)
{
    // mclock-lint: wall-clock-ok(observation-only wall_seconds metric)
    const auto runStart = std::chrono::steady_clock::now();

    unsigned jobs = opts.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());

    // Expand everything up front so units from different scenarios
    // share the pool (the slowest scenario no longer serializes).
    struct Expanded
    {
        const Scenario *scenario;
        std::vector<RunUnit> units;
        std::vector<RunRecord> records;
        std::chrono::steady_clock::time_point start;
        double wallSeconds = 0.0;
    };
    std::vector<Expanded> expanded;
    expanded.reserve(scenarios.size());
    for (const Scenario *sc : scenarios) {
        Expanded e;
        e.scenario = sc;
        e.units = sc->expand(opts.context);
        e.records.resize(e.units.size());
        expanded.push_back(std::move(e));
    }

    {
        base::ThreadPool pool(jobs);
        for (auto &e : expanded) {
            // mclock-lint: wall-clock-ok(per-scenario wall_seconds)
            e.start = std::chrono::steady_clock::now();
            for (std::size_t u = 0; u < e.units.size(); ++u) {
                RunUnit *unit = &e.units[u];
                RunRecord *slot = &e.records[u];
                const RunContext *ctx = &opts.context;
                pool.submit([unit, slot, ctx] {
                    *slot = unit->run(*ctx);
                });
            }
        }
        pool.drain();
    }

    RunReport report;
    for (auto &e : expanded) {
        ScenarioResult result;
        result.name = e.scenario->name;
        result.units = e.units.size();
        for (const auto &rec : e.records) {
            result.appOps += rec.perfAppOps;
            result.simAccesses += rec.perfSimAccesses;
        }
        result.output = e.scenario->reduce(opts.context, e.records);
        result.wallSeconds = secondsSince(e.start);
        if (!opts.quiet) {
            std::fputs(result.output.text.c_str(), stdout);
            std::fflush(stdout);
        }
        report.results.push_back(std::move(result));
    }

    if (opts.writeArtifacts) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir, ec);
        auto writeFile = [&](const std::filesystem::path &path,
                             const std::string &contents) {
            std::ofstream f(path);
            if (!f) {
                MCLOCK_FATAL("cannot write artifact '%s'",
                             path.string().c_str());
            }
            f << contents;
        };
        for (const auto &r : report.results) {
            for (const auto &a : r.output.artifacts) {
                writeFile(std::filesystem::path(opts.outDir) / a.filename,
                          a.contents);
            }
            // Stats-mode artifacts are named per unit; namespace them by
            // scenario so a multi-scenario --stats run cannot collide.
            for (const auto &a : r.output.statsArtifacts) {
                // '/' appears in compound unit names (fig06's
                // "policy/kernel"); flatten for the filesystem.
                std::string name = r.name + "_" + a.filename;
                for (char &c : name) {
                    if (c == '/')
                        c = '_';
                }
                writeFile(std::filesystem::path(opts.outDir) / name,
                          a.contents);
            }
        }
    }

    for (const auto &r : report.results) {
        for (const auto &v : r.output.violations) {
            std::fprintf(stderr, "INVARIANT VIOLATION [%s] %s\n",
                         r.name.c_str(), v.c_str());
        }
    }

    report.wallSeconds = secondsSince(runStart);
    if (opts.writeManifest)
        writeManifest(report, opts);
    return report;
}

ScenarioResult
runScenario(const std::string &name, const RunnerOptions &opts)
{
    const Scenario *sc = findScenario(name);
    if (!sc)
        MCLOCK_FATAL("unknown scenario '%s'", name.c_str());
    RunReport report = runScenarios({sc}, opts);
    return std::move(report.results.front());
}

}  // namespace harness
}  // namespace mclock
