/**
 * @file
 * The benchmark's three workloads, each driven through the simulator
 * library's public API by a closed-loop client: one client issues its
 * next operation only after the previous one returned.
 *
 *  - kv_ycsb_a:        one Simulator, KvStore, YCSB-A (50% get, 50%
 *                      update) over scrambled-zipfian keys, theta 0.99;
 *  - graph_pagerank:   one Simulator, Kronecker graph built as a CSR in
 *                      simulated memory, then gapbs::pagerank;
 *  - kv_sharded_churn: an 8-shard ShardedSimulator, one KvStore per
 *                      shard, gets/updates/insert+remove churn.
 *
 * One call of runRepeat() is one repeat: set-up, the measured phase,
 * then the output checks (outside the measured phase). Inputs come from
 * the seed only, so every repeat of one seed simulates the same thing
 * and must produce the same fingerprint.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "stats/vmstat.hh"
#include "tracer.hh"

namespace mclock {
namespace sim {
class Simulator;
}
}  // namespace mclock

namespace perfbench {

enum class Workload { KvYcsbA, GraphPagerank, KvShardedChurn };

const char *workloadName(Workload w);
std::optional<Workload> parseWorkload(const std::string &name);

/** Inputs of one repeat. */
struct RunOptions
{
    std::uint64_t seed = 1;
    /** Reduced sizes for the benchmark's own tests. */
    bool small = false;
    /** Worker threads of kv_sharded_churn (8 shards regardless). */
    unsigned workers = 4;
};

/** Library counters of one host, read through public accessors. */
struct Counters
{
    std::uint64_t accesses = 0;
    std::uint64_t tier0Accesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcWritebacks = 0;
    std::array<std::uint64_t, mclock::stats::kNumVmItems> vm{};

    static Counters of(mclock::sim::Simulator &sim);
    Counters &operator+=(const Counters &o);
    Counters operator-(const Counters &o) const;
    std::uint64_t
    vmItem(mclock::stats::VmItem item) const
    {
        return vm[static_cast<std::size_t>(item)];
    }
};

/**
 * The simulated outcome of a repeat: simulated clocks, access and
 * migration totals, LLC hits and misses, and the vmstat snapshot.
 */
struct Fingerprint
{
    std::vector<std::pair<std::string, std::uint64_t>> items;

    bool operator==(const Fingerprint &o) const { return items == o.items; }
    /** First differing item, for the failure message. */
    std::string firstDifference(const Fingerprint &o) const;
};

/** Host time of the sharded run loop, from the epoch-callback spans. */
struct ShardTiming
{
    double busyS = 0;
    double epochWallS = 0;
    double runWallS = 0;
    double imbalance = 0;
    unsigned workers = 0;
    std::uint64_t epochs = 0;
    std::uint64_t mergedEvents = 0;
};

/** Everything one repeat measured and checked. */
struct RepeatResult
{
    /** Host seconds from set-up start to measured-phase start. */
    double setupS = 0;
    /** Host seconds of the measured phase. */
    double measureS = 0;
    /** Simulated seconds of the measured phase (slowest shard). */
    double simS = 0;
    /** Client ops in the measured phase and how many failed. */
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /**
     * Application ops behind modelled_ops_per_s: client ops for the KV
     * workloads, traversed edges (iterations x CSR entries) for PageRank.
     */
    double appOps = 0;

    double kvLoadS = 0;
    double graphGenS = 0;
    double graphBuildS = 0;
    double verifyS = 0;

    /** Counter deltas over the measured phase, summed over hosts. */
    Counters measured;
    Fingerprint fingerprint;
    /** Names of failed output checks with their details. */
    std::vector<std::string> failures;

    /** Traced repeats only: one tracer per host. */
    std::vector<Tracer> tracers;
    ShardTiming shard;
};

RepeatResult runRepeat(Workload w, const RunOptions &opts, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HH_
