/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot data structures: LRU
 * list operations, CLOCK scan passes, the LLC model, the workload
 * generators (RNG draws, zipfian ranks, R-MAT edges, CSR build), and the
 * simulator's end-to-end access path. These bound the host-time cost of
 * simulation and the simulated daemon overheads.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "mem/cache.hh"
#include "pfra/lru_lists.hh"
#include "pfra/vmscan.hh"
#include "policies/factory.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "vm/address_space.hh"
#include "vm/page.hh"
#include "workloads/gapbs/builder.hh"
#include "workloads/gapbs/generator.hh"
#include "workloads/zipf.hh"

using namespace mclock;

namespace {

void
BM_LruListMove(benchmark::State &state)
{
    AddressSpace space;
    pfra::NodeLists lists;
    std::vector<std::unique_ptr<Page>> pages;
    for (int i = 0; i < 1024; ++i) {
        pages.push_back(std::make_unique<Page>(&space, i, true));
        lists.add(pages.back().get(), LruListKind::InactiveAnon);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        Page *pg = pages[i++ & 1023].get();
        lists.moveTo(pg, LruListKind::ActiveAnon);
        lists.moveTo(pg, LruListKind::InactiveAnon);
    }
}
BENCHMARK(BM_LruListMove);

void
BM_ClockScanPass(benchmark::State &state)
{
    AddressSpace space;
    pfra::NodeLists lists;
    std::vector<std::unique_ptr<Page>> pages;
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) {
        pages.push_back(std::make_unique<Page>(&space, i, true));
        lists.add(pages.back().get(), LruListKind::ActiveAnon);
    }
    Rng rng(1);
    for (auto _ : state) {
        // Mark a third of the pages referenced, then shrink.
        for (std::size_t i = 0; i < n / 3; ++i)
            pages[rng.nextRange(n)]->setPteReferenced(true);
        pfra::ScanStats stats = pfra::shrinkActiveList(lists, true, n);
        benchmark::DoNotOptimize(stats.scanned);
        // Move everything back to active for the next iteration.
        auto &inactive = lists.list(LruListKind::InactiveAnon);
        while (Page *pg = inactive.back())
            lists.moveTo(pg, LruListKind::ActiveAnon);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ClockScanPass)->Arg(1024)->Arg(8192);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1_MiB;
    CacheModel cache(cfg);
    Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextRange(64_MiB), false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_ZipfianNext(benchmark::State &state)
{
    workloads::ZipfianGenerator zipf(1u << 20);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext);

void
BM_RngNextDouble(benchmark::State &state)
{
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.nextDouble());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextDouble);

void
BM_KroneckerEdges(benchmark::State &state)
{
    const auto scale = static_cast<unsigned>(state.range(0));
    Rng rng(5);
    std::size_t edges = 0;
    for (auto _ : state) {
        const auto list = workloads::gapbs::makeKroneckerEdges(scale, 8, rng);
        benchmark::DoNotOptimize(list.data());
        edges += list.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_KroneckerEdges)->Arg(14)->Unit(benchmark::kMillisecond);

void
BM_BuildCsr(benchmark::State &state)
{
    const auto scale = static_cast<unsigned>(state.range(0));
    Rng rng(6);
    const auto edges = workloads::gapbs::makeKroneckerEdges(scale, 8, rng);
    sim::Simulator sim(sim::benchMachine());
    sim.setPolicy(policies::makePolicy("static"));
    for (auto _ : state) {
        state.PauseTiming();
        auto input = edges;
        state.ResumeTiming();
        // Destroying the graph unmaps its arrays, so every iteration
        // builds into the same empty address space.
        auto graph = workloads::gapbs::Builder::build(
            sim, std::move(input), workloads::gapbs::BuildOptions{});
        benchmark::DoNotOptimize(graph->numEdges());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_BuildCsr)->Arg(14)->Unit(benchmark::kMillisecond);

void
BM_SimulatorAccessPath(benchmark::State &state)
{
    sim::MachineConfig cfg = sim::benchMachine();
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy("multiclock"));
    const std::size_t pages = 4096;
    const Vaddr base = sim.mmap(pages * kPageSize);
    // Pre-fault.
    for (std::size_t i = 0; i < pages; ++i)
        sim.write(base + i * kPageSize);
    Rng rng(4);
    for (auto _ : state) {
        const Vaddr va = base + rng.nextRange(pages) * kPageSize +
                         (rng.next64() & 0xfc0);
        sim.read(va, 8);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorAccessPath);

void
BM_MigrationRoundTrip(benchmark::State &state)
{
    sim::MachineConfig cfg = sim::benchMachine();
    sim::Simulator sim(cfg);
    sim.setPolicy(policies::makePolicy("static"));
    const Vaddr base = sim.mmap(kPageSize);
    sim.write(base);
    Page *pg = sim.space().lookup(pageNumOf(base));
    sim.policy().onPageFreed(pg);  // isolate
    for (auto _ : state) {
        sim.demotePage(pg, sim::Simulator::ChargeMode::Background);
        sim.promotePage(pg, sim::Simulator::ChargeMode::Background);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MigrationRoundTrip);

}  // namespace
