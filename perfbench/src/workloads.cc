#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "base/rng.hh"
#include "base/units.hh"
#include "harness/invariants.hh"
#include "harness/profiles.hh"
#include "policies/factory.hh"
#include "sim/sharded.hh"
#include "sim/simulator.hh"
#include "workloads/gapbs/builder.hh"
#include "workloads/gapbs/generator.hh"
#include "workloads/gapbs/pr.hh"
#include "workloads/kvstore.hh"
#include "workloads/zipf.hh"

namespace perfbench {

using namespace mclock;

namespace {

constexpr std::size_t kValueBytes = 1024;

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Independent stream seed for one purpose of a run (splitmix64). */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Host-time phase; also a span when traced. */
class Phase
{
  public:
    Phase(Tracer *tr, const char *name) : tr_(tr), startNs_(hostNowNs())
    {
        if (tr_)
            span_ = tr_->beginSpan(name);
    }

    /** Close the phase; returns its host seconds. */
    double
    end()
    {
        if (tr_)
            tr_->endSpan(span_);
        return seconds(hostNowNs() - startNs_);
    }

    std::int64_t startNs() const { return startNs_; }

  private:
    Tracer *tr_;
    std::int64_t startNs_;
    std::size_t span_ = 0;
};

/** MULTI-CLOCK with the scaled cadence, wrapped when traced. */
std::unique_ptr<policies::TieringPolicy>
makeMulticlock(SimTime interval, Tracer *tr)
{
    auto policy = policies::makePolicy(
        "multiclock", harness::benchPolicyOptions(interval));
    if (!tr)
        return policy;
    return std::make_unique<TracingPolicy>(std::move(policy), *tr);
}

/** The invariant sweep of one host, filed as check failures. */
void
verifyHost(sim::Simulator &sim, const std::string &host, RepeatResult &r)
{
    for (auto &v : harness::collectViolations(sim))
        r.failures.push_back("invariants: " + host + v);
    for (auto &v : harness::collectCounterViolations(sim))
        r.failures.push_back("counter_invariants: " + host + v);
}

void
addSnapshot(Fingerprint &fp, const stats::VmStat &vm)
{
    for (const auto &[name, value] : vm.snapshot())
        fp.items.emplace_back("vmstat." + name, value);
}

/** Fingerprint of a single-host run. */
Fingerprint
fingerprintOf(sim::Simulator &sim)
{
    Fingerprint fp;
    const auto add = [&fp](const char *k, std::uint64_t v) {
        fp.items.emplace_back(k, v);
    };
    add("now_ns", sim.now());
    add("accesses", sim.metrics().totalAccesses());
    add("promotions", sim.metrics().totalPromotions());
    add("demotions", sim.metrics().totalDemotions());
    add("llc_hits", sim.llc() ? sim.llc()->hits() : 0);
    add("llc_misses", sim.llc() ? sim.llc()->misses() : 0);
    addSnapshot(fp, sim.vmstat());
    return fp;
}

/** Failed client ops as a named check. */
void
checkFailedOps(const char *check, std::uint64_t failed, const char *what,
               RepeatResult &r)
{
    if (failed != 0)
        r.failures.push_back(std::string(check) + ": " +
                             std::to_string(failed) + " " + what);
}

void
checkItemCount(std::size_t got, std::size_t want, const std::string &host,
               RepeatResult &r)
{
    if (got != want)
        r.failures.push_back("kv_item_count: " + host + "itemCount() = " +
                             std::to_string(got) + ", client has " +
                             std::to_string(want) + " live keys");
}

// --- kv_ycsb_a -----------------------------------------------------------

RepeatResult
runKvYcsbA(const RunOptions &o, bool traced)
{
    const std::size_t records = o.small ? 9600 : 36000;
    const std::uint64_t ops = o.small ? 100000 : 3000000;
    sim::MachineConfig cfg =
        o.small ? harness::goldenYcsbMachine() : harness::ycsbMachine();
    cfg.seed = mixSeed(o.seed, 1);

    RepeatResult r;
    if (traced)
        r.tracers.emplace_back(0);
    Tracer *tr = traced ? &r.tracers[0] : nullptr;

    const std::int64_t t0 = hostNowNs();
    Phase construct(tr, "setup.construct");
    sim::Simulator sim(cfg);
    sim.setPolicy(makeMulticlock(harness::kScanInterval, tr));
    workloads::KvStore store(sim);
    construct.end();

    Phase load(tr, "workloads.kv_load");
    for (std::uint64_t k = 0; k < records; ++k)
        store.put(k, kValueBytes);
    r.kvLoadS = load.end();

    Rng rng(mixSeed(o.seed, 2));
    workloads::ScrambledZipfianGenerator zipf(records, 0.99);
    const Counters before = Counters::of(sim);
    const SimTime simStart = sim.now();
    if (tr)
        tr->startMeasuring();
    r.setupS = seconds(hostNowNs() - t0);
    Phase measure(tr, "measure");
    for (std::uint64_t op = 0; op < ops; ++op) {
        const std::int64_t k0 = tr ? hostNowNs() : 0;
        const bool read = rng.nextBool(0.5);
        const std::uint64_t key = zipf.next(rng);
        if (tr) {
            tr->addKeygen(hostNowNs() - k0);
            tr->beginCall(sim);
        }
        if (read) {
            if (!store.get(key))
                ++r.failed;
        } else {
            store.put(key, kValueBytes);
        }
        if (tr)
            tr->endCall(sim);
    }
    r.measureS = measure.end();
    r.simS = static_cast<double>(sim.now() - simStart) * 1e-9;
    r.ops = ops;
    r.appOps = static_cast<double>(ops);
    r.measured = Counters::of(sim) - before;

    Phase verify(tr, "harness.verify");
    checkFailedOps("live_get_hit", r.failed, "gets of live keys missed", r);
    checkItemCount(store.itemCount(), records, "", r);
    verifyHost(sim, "", r);
    r.verifyS = verify.end();
    r.fingerprint = fingerprintOf(sim);
    return r;
}

// --- graph_pagerank ------------------------------------------------------

using workloads::gapbs::Edge;
using workloads::gapbs::GNode;

/**
 * Host-side PageRank over the same edge list the simulated kernel got:
 * self-loops removed, every edge mirrored, duplicates kept, with the
 * kernel's damping and its pull formulation.
 */
workloads::gapbs::PrResult
referencePagerank(const std::vector<Edge> &edges, unsigned iterations)
{
    GNode maxId = 0;
    for (const auto &e : edges)
        maxId = std::max({maxId, e.u, e.v});
    const std::size_t n = static_cast<std::size_t>(maxId) + 1;

    std::vector<std::uint64_t> offsets(n + 1, 0);
    for (const auto &e : edges) {
        if (e.u != e.v) {
            ++offsets[e.u + 1];
            ++offsets[e.v + 1];
        }
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    std::vector<GNode> nbr(offsets[n]);
    std::vector<std::uint64_t> fill(offsets.begin(), offsets.end() - 1);
    for (const auto &e : edges) {
        if (e.u != e.v)
            nbr[fill[e.u]++] = e.v;
    }
    for (const auto &e : edges) {
        if (e.u != e.v)
            nbr[fill[e.v]++] = e.u;
    }

    const double damping = 0.85;
    const double base = (1.0 - damping) / static_cast<double>(n);
    std::vector<double> scores(n, 1.0 / static_cast<double>(n));
    std::vector<double> contrib(n, 0.0);
    for (unsigned it = 0; it < iterations; ++it) {
        for (std::size_t u = 0; u < n; ++u) {
            const auto degree =
                static_cast<double>(offsets[u + 1] - offsets[u]);
            contrib[u] = degree > 0.0 ? scores[u] / degree : 0.0;
        }
        for (std::size_t u = 0; u < n; ++u) {
            double sum = 0.0;
            for (std::uint64_t e = offsets[u]; e < offsets[u + 1]; ++e)
                sum += contrib[nbr[e]];
            scores[u] = base + damping * sum;
        }
    }
    workloads::gapbs::PrResult out;
    out.iterations = iterations;
    for (double s : scores) {
        out.scoreSum += s;
        out.maxScore = std::max(out.maxScore, s);
    }
    return out;
}

bool
closeRelative(double got, double want)
{
    return std::fabs(got - want) <= 1e-9 * std::fabs(want);
}

RepeatResult
runGraphPagerank(const RunOptions &o, bool traced)
{
    const unsigned scale = o.small ? 12 : 16;
    const unsigned degree = o.small ? 12 : 24;
    const unsigned iterations = o.small ? 4 : 8;
    sim::MachineConfig cfg =
        o.small ? harness::goldenGapbsMachine() : harness::gapbsMachine();
    cfg.seed = mixSeed(o.seed, 1);

    RepeatResult r;
    if (traced)
        r.tracers.emplace_back(0);
    Tracer *tr = traced ? &r.tracers[0] : nullptr;

    const std::int64_t t0 = hostNowNs();
    Phase construct(tr, "setup.construct");
    sim::Simulator sim(cfg);
    sim.setPolicy(makeMulticlock(harness::kScanInterval, tr));
    construct.end();

    Phase gen(tr, "workloads.graph_gen");
    Rng rng(mixSeed(o.seed, 3));
    std::vector<Edge> edges =
        workloads::gapbs::makeKroneckerEdges(scale, degree, rng);
    r.graphGenS = gen.end();

    // The reference's copy of the input is check work, not set-up.
    const std::int64_t copyStart = hostNowNs();
    const std::vector<Edge> refEdges = edges;
    const std::int64_t copyNs = hostNowNs() - copyStart;

    Phase build(tr, "workloads.graph_build");
    // As the GAPBS driver does for PageRank: first-touch an arena the
    // size of the kernel's two vertex arrays so they inherit DRAM
    // frames, then build the CSR, then release the arena.
    GNode maxId = 0;
    for (const auto &e : edges)
        maxId = std::max({maxId, e.u, e.v});
    const std::size_t arenaBytes = (static_cast<std::size_t>(maxId) + 1) * 16;
    const Vaddr arena = sim.mmap(arenaBytes, true, "vertex-array-arena");
    for (std::size_t off = 0; off < arenaBytes; off += kPageSize)
        sim.write(arena + off, 8);
    auto graph = workloads::gapbs::Builder::build(
        sim, std::move(edges), workloads::gapbs::BuildOptions{});
    sim.unmapRegion(arena);
    r.graphBuildS = build.end();

    const Counters before = Counters::of(sim);
    const SimTime simStart = sim.now();
    if (tr)
        tr->startMeasuring();
    r.setupS = seconds(hostNowNs() - t0 - copyNs);
    Phase measure(tr, "measure");
    if (tr)
        tr->beginCall(sim);
    const workloads::gapbs::PrResult pr =
        workloads::gapbs::pagerank(sim, *graph, iterations);
    if (tr)
        tr->endCall(sim);
    r.measureS = measure.end();
    r.simS = static_cast<double>(sim.now() - simStart) * 1e-9;
    r.ops = 1;
    r.appOps = static_cast<double>(iterations) *
               static_cast<double>(graph->numEdges());
    r.measured = Counters::of(sim) - before;

    const workloads::gapbs::PrResult ref =
        referencePagerank(refEdges, iterations);
    if (!closeRelative(pr.scoreSum, ref.scoreSum) ||
        !closeRelative(pr.maxScore, ref.maxScore)) {
        r.failed = 1;
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "pagerank_reference: scoreSum %.17g vs %.17g, "
                      "maxScore %.17g vs %.17g",
                      pr.scoreSum, ref.scoreSum, pr.maxScore, ref.maxScore);
        r.failures.emplace_back(buf);
    }
    Phase verify(tr, "harness.verify");
    verifyHost(sim, "", r);
    r.verifyS = verify.end();
    r.fingerprint = fingerprintOf(sim);
    return r;
}

// --- kv_sharded_churn ----------------------------------------------------

constexpr unsigned kShards = 8;

/** One epoch callback of one shard, as observed from outside. */
struct EpochSpan
{
    std::uint64_t epoch;
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint64_t thread;
};

/**
 * The client of one shard. Only the thread driving the shard in an
 * epoch touches it; the epoch barrier hands it over.
 */
struct ShardClient
{
    ShardClient(sim::Simulator &sim, std::size_t records, std::uint64_t seed)
        : store(sim), rng(seed), zipf(records, 0.8), slots(records),
          nextKey(records)
    {
        std::iota(slots.begin(), slots.end(), 0);
    }

    workloads::KvStore store;
    Rng rng;
    workloads::ScrambledZipfianGenerator zipf;
    /** Live keys, indexed by popularity rank. */
    std::vector<std::uint64_t> slots;
    std::uint64_t nextKey;
    std::uint64_t ops = 0;
    std::uint64_t failedGets = 0;
    std::uint64_t failedRemoves = 0;
    Counters atMeasure;
    SimTime simAtMeasure = 0;
    std::int64_t measureStartNs = 0;
    std::vector<EpochSpan> epochs;
};

/** One client call, bracketed when traced. */
template <typename Fn>
inline void
clientCall(Tracer *tr, sim::Simulator &sim, Fn &&fn)
{
    if (tr)
        tr->beginCall(sim);
    fn();
    if (tr)
        tr->endCall(sim);
}

void
churnOp(ShardClient &c, sim::Simulator &sim, Tracer *tr)
{
    const std::int64_t k0 = tr ? hostNowNs() : 0;
    const std::uint64_t kind = c.rng.nextRange(100);
    if (kind < 90) {
        const std::uint64_t key = c.slots[c.zipf.next(c.rng)];
        if (tr)
            tr->addKeygen(hostNowNs() - k0);
        if (kind < 50) {
            clientCall(tr, sim, [&] {
                if (!c.store.get(key))
                    ++c.failedGets;
            });
        } else {
            clientCall(tr, sim, [&] { c.store.put(key, kValueBytes); });
        }
        ++c.ops;
        return;
    }
    // Insert a new key, then remove an old one in its popularity slot.
    const std::uint64_t key = c.nextKey++;
    const std::uint64_t slot = c.rng.nextRange(c.slots.size());
    const std::uint64_t victim = c.slots[slot];
    if (tr)
        tr->addKeygen(hostNowNs() - k0);
    clientCall(tr, sim, [&] { c.store.put(key, kValueBytes); });
    clientCall(tr, sim, [&] {
        if (!c.store.remove(victim))
            ++c.failedRemoves;
    });
    c.slots[slot] = key;
    c.ops += 2;
}

/** Busy, epoch-wall and imbalance figures from the epoch callbacks. */
ShardTiming
shardTiming(const std::vector<std::unique_ptr<ShardClient>> &clients)
{
    ShardTiming t;
    // epoch -> (thread -> busy ns), and epoch -> [first start, last end]
    std::map<std::uint64_t, std::map<std::uint64_t, std::int64_t>> busy;
    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> wall;
    for (const auto &c : clients) {
        for (const EpochSpan &e : c->epochs) {
            const std::int64_t d = e.endNs - e.startNs;
            t.busyS += seconds(d);
            busy[e.epoch][e.thread] += d;
            auto [it, fresh] =
                wall.try_emplace(e.epoch, e.startNs, e.endNs);
            if (!fresh) {
                it->second.first = std::min(it->second.first, e.startNs);
                it->second.second = std::max(it->second.second, e.endNs);
            }
        }
    }
    for (const auto &[epoch, span] : wall)
        t.epochWallS += seconds(span.second - span.first);
    // Threads are spawned per epoch, so a worker is a thread within one
    // epoch: the slowest worker's busy time over the mean, each summed
    // over epochs (the critical path against a perfect split).
    double slowest = 0, mean = 0;
    for (const auto &[epoch, threads] : busy) {
        std::int64_t max = 0, sum = 0;
        for (const auto &[thread, ns] : threads) {
            max = std::max(max, ns);
            sum += ns;
        }
        slowest += seconds(max);
        mean += seconds(sum) / static_cast<double>(threads.size());
    }
    t.imbalance = mean > 0 ? slowest / mean : 0;
    return t;
}

RepeatResult
runKvShardedChurn(const RunOptions &o, bool traced)
{
    const std::size_t records = o.small ? 2400 : 9600;
    const std::uint64_t epochs = o.small ? 3 : 12;
    const std::uint64_t opsPerEpoch = o.small ? 5000 : 60000;

    sim::MachineConfig whole;
    whole.nodes = {{TierKind::Dram, o.small ? 8_MiB : 32_MiB},
                   {TierKind::Pmem, o.small ? 96_MiB : 384_MiB}};
    whole.cache.sizeBytes = 64_KiB;
    whole.cache.ways = 8;
    whole.metricsWindow = harness::kMetricsWindow;
    whole.seed = mixSeed(o.seed, 1);

    sim::ShardOptions so;
    so.shards = kShards;
    so.workers = o.workers;

    RepeatResult r;
    if (traced) {
        r.tracers.reserve(kShards);
        for (unsigned s = 0; s < kShards; ++s)
            r.tracers.emplace_back(s);
    }

    const std::int64_t t0 = hostNowNs();
    Phase construct(traced ? &r.tracers[0] : nullptr, "setup.construct");
    sim::ShardedSimulator host(whole, so);
    std::vector<std::unique_ptr<ShardClient>> clients;
    for (unsigned s = 0; s < host.shards(); ++s) {
        Tracer *tr = traced ? &r.tracers[s] : nullptr;
        host.shard(s).setPolicy(makeMulticlock(1_ms, tr));
        clients.push_back(std::make_unique<ShardClient>(
            host.shard(s), records, mixSeed(o.seed, 16 + s)));
    }
    construct.end();

    const std::int64_t runStart = hostNowNs();
    host.run([&](sim::Simulator &sim, unsigned s, std::uint64_t epoch) {
        ShardClient &c = *clients[s];
        Tracer *tr = traced ? &r.tracers[s] : nullptr;
        if (epoch == 1) {
            c.atMeasure = Counters::of(sim);
            c.simAtMeasure = sim.now();
            if (tr)
                tr->startMeasuring();
        }
        Phase cb(tr, epoch == 0 ? "workloads.kv_load" : "shard.epoch");
        if (epoch == 1)
            c.measureStartNs = cb.startNs();
        if (epoch == 0) {
            for (std::uint64_t k = 0; k < c.slots.size(); ++k)
                c.store.put(k, kValueBytes);
        } else {
            for (std::uint64_t i = 0; i < opsPerEpoch; ++i)
                churnOp(c, sim, tr);
        }
        cb.end();
        c.epochs.push_back({epoch, cb.startNs(), hostNowNs(),
                            std::hash<std::thread::id>{}(
                                std::this_thread::get_id())});
        return epoch < epochs;
    });
    const std::int64_t runEnd = hostNowNs();

    std::int64_t measureStart = runEnd;
    std::int64_t loadStart = runEnd, loadEnd = runStart;
    for (const auto &c : clients) {
        measureStart = std::min(measureStart, c->measureStartNs);
        loadStart = std::min(loadStart, c->epochs.front().startNs);
        loadEnd = std::max(loadEnd, c->epochs.front().endNs);
    }
    r.setupS = seconds(measureStart - t0);
    r.measureS = seconds(runEnd - measureStart);
    r.kvLoadS = seconds(loadEnd - loadStart);

    SimTime simSpan = 0;
    std::uint64_t failedGets = 0, failedRemoves = 0;
    for (unsigned s = 0; s < host.shards(); ++s) {
        ShardClient &c = *clients[s];
        sim::Simulator &sim = host.shard(s);
        simSpan = std::max(simSpan, sim.now() - c.simAtMeasure);
        r.measured += Counters::of(sim) - c.atMeasure;
        r.ops += c.ops;
        failedGets += c.failedGets;
        failedRemoves += c.failedRemoves;
    }
    r.failed = failedGets + failedRemoves;
    r.simS = static_cast<double>(simSpan) * 1e-9;
    r.appOps = static_cast<double>(r.ops);

    r.shard = shardTiming(clients);
    r.shard.runWallS = seconds(runEnd - runStart);
    r.shard.workers = host.workers();
    r.shard.epochs = host.epochs();
    r.shard.mergedEvents = host.events().size();

    Phase verify(traced ? &r.tracers[0] : nullptr, "harness.verify");
    checkFailedOps("live_get_hit", failedGets, "gets of live keys missed",
                   r);
    checkFailedOps("live_remove", failedRemoves,
                   "removes of live keys failed", r);
    for (unsigned s = 0; s < host.shards(); ++s) {
        const std::string name = "shard" + std::to_string(s) + ": ";
        checkItemCount(clients[s]->store.itemCount(), records, name, r);
        verifyHost(host.shard(s), name, r);
    }
    r.verifyS = verify.end();

    Fingerprint fp;
    for (unsigned s = 0; s < host.shards(); ++s)
        fp.items.emplace_back("shard" + std::to_string(s) + ".now_ns",
                              host.shard(s).now());
    const sim::Metrics merged = host.mergedMetrics();
    Counters llc;
    for (unsigned s = 0; s < host.shards(); ++s)
        llc += Counters::of(host.shard(s));
    fp.items.emplace_back("accesses", merged.totalAccesses());
    fp.items.emplace_back("promotions", merged.totalPromotions());
    fp.items.emplace_back("demotions", merged.totalDemotions());
    fp.items.emplace_back("llc_hits", llc.llcHits);
    fp.items.emplace_back("llc_misses", llc.llcMisses);
    addSnapshot(fp, host.mergedVmstat());
    r.fingerprint = std::move(fp);
    return r;
}

}  // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::KvYcsbA: return "kv_ycsb_a";
      case Workload::GraphPagerank: return "graph_pagerank";
      case Workload::KvShardedChurn: return "kv_sharded_churn";
    }
    return "?";
}

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::KvYcsbA, Workload::GraphPagerank,
                       Workload::KvShardedChurn}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

Counters
Counters::of(sim::Simulator &sim)
{
    Counters c;
    c.accesses = sim.metrics().totalAccesses();
    c.tier0Accesses = sim.metrics().totalTierAccesses(0);
    if (const CacheModel *llc = sim.llc()) {
        c.llcHits = llc->hits();
        c.llcMisses = llc->misses();
        c.llcWritebacks = llc->writebacks();
    }
    c.vm = sim.vmstat().globals();
    return c;
}

Counters &
Counters::operator+=(const Counters &o)
{
    accesses += o.accesses;
    tier0Accesses += o.tier0Accesses;
    llcHits += o.llcHits;
    llcMisses += o.llcMisses;
    llcWritebacks += o.llcWritebacks;
    for (std::size_t i = 0; i < vm.size(); ++i)
        vm[i] += o.vm[i];
    return *this;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d = *this;
    d.accesses -= o.accesses;
    d.tier0Accesses -= o.tier0Accesses;
    d.llcHits -= o.llcHits;
    d.llcMisses -= o.llcMisses;
    d.llcWritebacks -= o.llcWritebacks;
    for (std::size_t i = 0; i < vm.size(); ++i)
        d.vm[i] -= o.vm[i];
    return d;
}

std::string
Fingerprint::firstDifference(const Fingerprint &o) const
{
    const std::size_t n = std::min(items.size(), o.items.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (items[i] != o.items[i])
            return items[i].first + "=" + std::to_string(items[i].second) +
                   " vs " + o.items[i].first + "=" +
                   std::to_string(o.items[i].second);
    }
    if (items.size() != o.items.size())
        return std::to_string(items.size()) + " items vs " +
               std::to_string(o.items.size());
    return "none";
}

RepeatResult
runRepeat(Workload w, const RunOptions &opts, bool traced)
{
    switch (w) {
      case Workload::KvYcsbA: return runKvYcsbA(opts, traced);
      case Workload::GraphPagerank: return runGraphPagerank(opts, traced);
      case Workload::KvShardedChurn: return runKvShardedChurn(opts, traced);
    }
    return {};
}

}  // namespace perfbench
