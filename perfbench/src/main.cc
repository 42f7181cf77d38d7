/**
 * @file
 * The repository benchmark: runs one workload for a fixed host-time
 * budget, repeating set-up, measured phase and output checks, and prints
 * the metrics by name and unit. The last line of standard output is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <dir>] [--small]
 *
 * Every run starts with an untraced warm-up repeat, which is checked but
 * not measured, and so does every replica.
 * --trace 0 reports the end-to-end metrics from untraced repeats; the
 * single-host workloads run one replica per CPU (at most four).
 * --trace 1 runs one replica, alternates untraced and traced repeats,
 * reports the per-layer metrics of the fastest traced repeat plus the
 * tracing slowdown, and writes that repeat's spans to <dir> when given.
 * --small shrinks every workload for the benchmark's own tests.
 *
 * Exit status: 0 when every output check passed, 1 when one failed (the
 * failing checks are named on standard error), 2 on a usage error.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "stats/vmstat.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace perfbench;
using mclock::stats::VmItem;

namespace {

/** Measured untraced repeats every replica makes, whatever --seconds says. */
constexpr std::size_t kMinRepeats = 3;

/** Most replicas of a single-host workload a run makes. */
constexpr unsigned kMaxReplicas = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    RunOptions opts;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload kv_ycsb_a|graph_pagerank|"
                 "kv_sharded_churn --seed N --seconds S --trace 0|1 "
                 "[--trace-out DIR] [--small]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag + ": " + text).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--small") {
            a.opts.small = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned("--seed", value);
        } else if (flag == "--seconds") {
            a.seconds =
                static_cast<double>(parseUnsigned("--seconds", value));
        } else if (flag == "--trace") {
            const std::uint64_t t = parseUnsigned("--trace", value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = t == 1;
            haveTrace = true;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!haveTrace)
        usage("--trace is required");
    a.opts.seed = a.seed;
    return a;
}

// --- Host fingerprint ----------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
hostFingerprint()
{
    return "{\"nproc\": " + std::to_string(onlineCpus()) +
           ", \"cpu\": \"" + jsonEscape(cpuModel()) +
           "\", \"compiler\": \"" + jsonEscape(PERFBENCH_COMPILER) +
           "\", \"build_type\": \"" + jsonEscape(PERFBENCH_BUILD_TYPE) +
           "\"}";
}

/**
 * Peak resident memory of this process image. VmHWM starts afresh at
 * exec, unlike getrusage's ru_maxrss, which keeps the peak of the
 * process that forked us (a Python launcher, for one).
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Metrics -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    /** False: the workload has no such layer (reported as 0). */
    bool applicable = true;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
accessRate(const RepeatResult &r)
{
    return ratio(static_cast<double>(r.measured.accesses), r.measureS);
}

/** Per-layer metrics of one traced repeat, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(Workload w, const RepeatResult &r)
{
    const bool kv = w != Workload::GraphPagerank;
    const bool graph = w == Workload::GraphPagerank;
    const bool sharded = w == Workload::KvShardedChurn;

    TraceTotals t;
    for (const Tracer &tr : r.tracers)
        t.merge(tr.totals());
    const double ns = 1e-9;
    const double callS = static_cast<double>(t.callNs) * ns;
    // A daemon call's cost beyond a plain call. PageRank is a single
    // call that spans every daemon wake, so it has no plain baseline;
    // its daemon time stays inside the access path's self time.
    const double daemonCallS =
        kv ? static_cast<double>(t.daemonCallNs -
                                 static_cast<std::int64_t>(t.daemonCalls) *
                                     t.plainMedianNs()) *
                 ns
           : 0;
    const double hookInCallsS =
        static_cast<double>(t.plainCallHookNs +
                            (kv ? 0 : t.daemonCallHookNs)) *
        ns;

    const auto &m = r.measured;
    const auto vm = [&m](VmItem i) {
        return static_cast<double>(m.vmItem(i));
    };
    const double accesses = static_cast<double>(m.accesses);
    const double llcHits = static_cast<double>(m.llcHits);
    const double llcMisses = static_cast<double>(m.llcMisses);
    const ShardTiming &st = r.shard;

    std::vector<Metric> out = {
        {"workloads.keygen_s", static_cast<double>(t.keygenNs) * ns, "s",
         kv},
        {"workloads.kv_load_s", r.kvLoadS, "s", kv},
        {"workloads.graph_gen_s", r.graphGenS, "s", graph},
        {"workloads.graph_build_s", r.graphBuildS, "s", graph},
        {"workloads.kv_ops", static_cast<double>(r.ops), "count", kv},
        {"workloads.kv_failed", static_cast<double>(r.failed), "count", kv},
        {"sim.call_s", callS, "s"},
        {"sim.access_self_s", callS - hookInCallsS - daemonCallS, "s"},
        {"sim.accesses", accesses, "count"},
        {"sim.accesses_per_op", ratio(accesses, r.appOps), "ratio"},
        {"sim.tier0_share",
         ratio(static_cast<double>(m.tier0Accesses), accesses), "ratio"},
        {"sim.daemon_calls", static_cast<double>(t.daemonCalls), "count",
         kv},
        {"sim.daemon_call_s", daemonCallS, "s", kv},
        {"mem.llc_hits", llcHits, "count"},
        {"mem.llc_misses", llcMisses, "count"},
        {"mem.llc_hit_ratio", ratio(llcHits, llcHits + llcMisses), "ratio"},
        {"mem.llc_writebacks", static_cast<double>(m.llcWritebacks),
         "count"},
        {"vm.faults", vm(VmItem::PgfaultDram) + vm(VmItem::PgfaultPm),
         "count"},
        {"vm.swap_ins", vm(VmItem::Pswpin), "count"},
        {"vm.swap_outs", vm(VmItem::Pswpout), "count"},
    };
    for (std::size_t h = 0; h < kNumHooks; ++h) {
        const std::string stem =
            std::string("policies.") + hookName(static_cast<Hook>(h));
        out.push_back({stem + "_calls",
                       static_cast<double>(t.hookCalls[h]), "count"});
        out.push_back(
            {stem + "_s", static_cast<double>(t.hookSelfNs[h]) * ns, "s"});
    }
    const std::vector<Metric> rest = {
        {"core.kpromoted_wakes", vm(VmItem::KpromotedWake), "count"},
        {"core.pgpromote_selected", vm(VmItem::PgpromoteSelected), "count"},
        {"pfra.kswapd_wakes", vm(VmItem::KswapdWake), "count"},
        {"pfra.pgscan",
         vm(VmItem::PgscanActive) + vm(VmItem::PgscanInactive) +
             vm(VmItem::PgscanPromote),
         "count"},
        {"pfra.pgsteal", vm(VmItem::Pgsteal), "count"},
        {"migration.promotions", vm(VmItem::PgpromoteSuccess), "count"},
        {"migration.demotions", vm(VmItem::Pgdemote), "count"},
        {"migration.promote_fail", vm(VmItem::PgpromoteFail), "count"},
        {"migration.aborts", vm(VmItem::PgmigrateAbort), "count"},
        {"migration.promote_yield",
         ratio(vm(VmItem::PgpromoteSuccess), vm(VmItem::PgpromoteSelected)),
         "ratio"},
        {"shard.busy_s", st.busyS, "s", sharded},
        {"shard.epoch_wall_s", st.epochWallS, "s", sharded},
        {"shard.coordinator_s", st.runWallS - st.epochWallS, "s", sharded},
        {"shard.efficiency",
         ratio(st.busyS, st.workers * st.runWallS), "ratio", sharded},
        {"shard.imbalance", st.imbalance, "ratio", sharded},
        {"shard.epochs", static_cast<double>(st.epochs), "count", sharded},
        {"shard.merged_events", static_cast<double>(st.mergedEvents),
         "count", sharded},
        {"harness.verify_s", r.verifyS, "s"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    for (Metric &metric : out) {
        if (!metric.applicable)
            metric.value = 0;
    }
    return out;
}

/** Write the spans of @p r as JSON lines; returns where they went. */
std::string
writeSpans(const Args &a, const RepeatResult &r, const std::string &host)
{
    namespace fs = std::filesystem;
    fs::create_directories(a.traceOut);
    const std::string path = a.traceOut + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".spans.jsonl";
    std::ofstream f(path);
    if (!f)
        return "not written (cannot open " + path + ")";
    std::int64_t origin = 0;
    for (const Tracer &tr : r.tracers) {
        for (const Span &s : tr.spans()) {
            if (origin == 0 || s.startNs < origin)
                origin = s.startNs;
        }
    }
    std::uint64_t dropped = 0;
    for (const Tracer &tr : r.tracers)
        dropped += tr.droppedSpans();
    f << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"host\": " << host << ", \"dropped_spans\": " << dropped
      << "}\n";
    for (const Tracer &tr : r.tracers) {
        for (const Span &s : tr.spans()) {
            f << "{\"name\": \"" << s.name
              << "\", \"start_ns\": " << (s.startNs - origin)
              << ", \"end_ns\": " << (s.endNs - origin)
              << ", \"parent\": " << s.parent << ", \"shard\": " << s.shard
              << ", \"thread\": " << s.thread << "}\n";
        }
    }
    return path;
}

std::string
formatValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** What a run's repeats measured and checked. */
struct Samples
{
    std::vector<double> rates, tracedRates, modelled, setup;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0, failedOps = 0;
    /** The first warm-up repeat: the fingerprint every other must match. */
    std::optional<RepeatResult> first;
    std::optional<RepeatResult> fastestTraced;

    void
    note(const RepeatResult &r, const char *kind)
    {
        attempted += r.ops;
        failedOps += r.failed;
        failures.insert(failures.end(), r.failures.begin(), r.failures.end());
        checkFingerprint(r, kind);
    }

    void
    checkFingerprint(const RepeatResult &r, const char *kind)
    {
        if (first && !(r.fingerprint == first->fingerprint))
            failures.push_back(std::string("fingerprint_") + kind + ": " +
                               r.fingerprint.firstDifference(
                                   first->fingerprint));
    }

    /** Fold in another replica's samples, checking its fingerprint. */
    void
    merge(Samples &&o)
    {
        if (first)
            checkFingerprint(*o.first, "replica");
        else
            first = std::move(o.first);
        attempted += o.attempted;
        failedOps += o.failedOps;
        const auto append = [](auto &to, auto &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(rates, o.rates);
        append(tracedRates, o.tracedRates);
        append(modelled, o.modelled);
        append(setup, o.setup);
        append(failures, o.failures);
        if (o.fastestTraced)
            fastestTraced = std::move(o.fastestTraced);
    }
};

/**
 * One replica's repeats: a warm-up first, because the first repeat also
 * pays for growing the heap, then measured repeats until @p deadline.
 * Traced runs alternate untraced and traced repeats so the slowdown
 * compares like with like.
 */
void
measure(Workload w, const RunOptions &o, bool trace, std::int64_t deadline,
        Samples &s)
{
    s.first = runRepeat(w, o, false);
    s.note(*s.first, "repeat");
    do {
        RepeatResult r = runRepeat(w, o, false);
        s.note(r, "repeat");
        s.rates.push_back(accessRate(r));
        s.modelled.push_back(ratio(r.appOps, r.simS));
        s.setup.push_back(r.setupS);
        if (trace) {
            RepeatResult t = runRepeat(w, o, true);
            s.note(t, "traced");
            s.tracedRates.push_back(accessRate(t));
            if (!s.fastestTraced ||
                accessRate(t) > accessRate(*s.fastestTraced))
                s.fastestTraced = std::move(t);
        }
    } while (hostNowNs() < deadline || s.rates.size() < kMinRepeats);
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const std::optional<Workload> w = parseWorkload(a.workload);
    if (!w)
        usage(("unknown workload " + a.workload).c_str());

    const std::string host = hostFingerprint();
    std::printf("host: %s\n", host.c_str());
    std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0);

    const std::int64_t deadline =
        hostNowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
    // One warm-up repeat on this thread first: it gives the fingerprint
    // every other repeat must match and the peak memory of a single
    // simulator, before any replica runs.
    Samples all;
    all.first = runRepeat(*w, a.opts, false);
    all.note(*all.first, "repeat");
    const double peakRss = peakRssMib();

    // On a shared host the speed of each CPU moves in phases of seconds
    // to minutes, each CPU on its own schedule (see METRICS.md). So the
    // single-host workloads run one replica per CPU (at most four), each
    // an independent simulator with the same inputs, and a run pools
    // every CPU's repeats. kv_sharded_churn already keeps four workers
    // busy, and traced runs keep to one replica so the spans and the
    // slowdown come from a single simulator.
    const unsigned replicas =
        a.trace || *w == Workload::KvShardedChurn
            ? 1
            : std::clamp(onlineCpus(), 1u, kMaxReplicas);
    std::vector<Samples> perReplica(replicas);
    std::vector<std::thread> threads;
    for (Samples &s : perReplica)
        threads.emplace_back([&, sp = &s] {
            measure(*w, a.opts, a.trace, deadline, *sp);
        });
    for (std::thread &t : threads)
        t.join();
    for (Samples &s : perReplica)
        all.merge(std::move(s));
    const auto &[rates, tracedRates, modelled, setup, failures, attempted,
                 failedOps, first, fastestTraced] = all;

    std::vector<Metric> metrics;
    const double bestRate = *std::max_element(rates.begin(), rates.end());
    if (!a.trace) {
        metrics = {
            {"sim_accesses_per_s", median(rates), "1/s"},
            {"modelled_ops_per_s", median(modelled), "1/s"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mib", peakRss, "MiB"},
        };
    } else {
        metrics = layerMetrics(*w, *fastestTraced);
        metrics.push_back(
            {"harness.trace_slowdown",
             ratio(bestRate, accessRate(*fastestTraced)), "ratio"});
    }

    std::printf("replicas: %u; repeats: %u warm-up, %zu untraced, %zu "
                "traced; client ops attempted %llu, failed %llu\n",
                replicas, replicas + 1, rates.size(), tracedRates.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failedOps));
    std::printf("untraced repeats: sim_accesses_per_s median %.6g, "
                "slowest %.6g, fastest %.6g; setup_s median %.6g, "
                "fastest %.6g\n",
                median(rates), *std::min_element(rates.begin(), rates.end()),
                bestRate, median(setup),
                *std::min_element(setup.begin(), setup.end()));
    std::printf("per repeat, by replica: sim_accesses_per_s");
    for (double v : rates)
        std::printf(" %.4g", v);
    std::printf("\n");
    if (a.trace)
        std::printf("traced repeats: sim_accesses_per_s median %.6g, "
                    "best %.6g (per-layer figures are the best one's)\n",
                    median(tracedRates),
                    *std::max_element(tracedRates.begin(),
                                      tracedRates.end()));
    std::string notApplicable;
    for (const Metric &m : metrics) {
        if (m.applicable) {
            std::printf("  %-32s %20s %s\n", m.name.c_str(),
                        formatValue(m.value).c_str(), m.unit.c_str());
        } else {
            notApplicable += (notApplicable.empty() ? "" : ", ") + m.name;
        }
    }
    if (!notApplicable.empty())
        std::printf("not applicable on %s (reported as 0): %s\n",
                    a.workload.c_str(), notApplicable.c_str());
    if (a.trace && !a.traceOut.empty())
        std::printf("spans: %s\n",
                    writeSpans(a, *fastestTraced, host).c_str());

    for (const auto &f : failures)
        std::fprintf(stderr, "CHECK FAILED %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += failures.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failedOps);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                formatValue(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failures.empty() ? 0 : 1;
}
