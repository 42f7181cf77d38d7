/**
 * @file
 * Unit tests for the base module: RNG, intrusive list, CSV, slab
 * arena, flat map, thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <unordered_map>
#include <vector>

#include "base/arena.hh"
#include "base/csv.hh"
#include "base/flat_map.hh"
#include "base/intrusive_list.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "base/types.hh"
#include "base/units.hh"

namespace mclock {
namespace {

// --- Types / units ---------------------------------------------------------

TEST(TypesTest, PageArithmetic)
{
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(pageNumOf(0), 0u);
    EXPECT_EQ(pageNumOf(4095), 0u);
    EXPECT_EQ(pageNumOf(4096), 1u);
    EXPECT_EQ(pageBaseOf(4097), 4096u);
    EXPECT_EQ(pageBaseOf(8191), 4096u);
}

TEST(UnitsTest, SizeLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
}

TEST(UnitsTest, TimeLiterals)
{
    EXPECT_EQ(1_us, 1000u);
    EXPECT_EQ(1_ms, 1000000u);
    EXPECT_EQ(2_s, 2000000000u);
}

TEST(TypesTest, TierRankAliases)
{
    // The legacy two-tier names are fixed ranks in the ordered topology.
    EXPECT_EQ(TierKind::Dram, 0);
    EXPECT_EQ(TierKind::Pmem, 1);
    EXPECT_LT(TierKind::Dram, TierKind::Pmem);
}

// --- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next64() == b.next64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(RngTest, RangeIsBounded)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextRange(17), 17u);
}

TEST(RngTest, RangeCoversAllValues)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (rng.nextBool(0.3))
            ++hits;
    }
    const double rate = static_cast<double>(hits) / n;
    EXPECT_NEAR(rate, 0.3, 0.01);
}

TEST(RngTest, ForkIsIndependent)
{
    Rng a(5);
    Rng child = a.fork();
    // The child stream must not equal the parent's continuation.
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next64() == child.next64())
            ++same;
    }
    EXPECT_LT(same, 2);
}

// Known answers: every workload is a function of these streams, so any
// change to the generator (including inlining or reordering it) must
// reproduce them bit for bit.
TEST(RngTest, KnownAnswerNext64)
{
    Rng rng(42);
    EXPECT_EQ(rng.next64(), 0x15780b2e0c2ec716ull);
    EXPECT_EQ(rng.next64(), 0x6104d9866d113a7eull);
    EXPECT_EQ(rng.next64(), 0xae17533239e499a1ull);
    EXPECT_EQ(rng.next64(), 0xecb8ad4703b360a1ull);
}

TEST(RngTest, KnownAnswerNextDouble)
{
    Rng rng(7);
    EXPECT_EQ(rng.nextDouble(), 0x1.66b1f5ee9df2ep-1);
    EXPECT_EQ(rng.nextDouble(), 0x1.1d70f6593d20ap-2);
    EXPECT_EQ(rng.nextDouble(), 0x1.ade3a6932a58fp-1);
    EXPECT_EQ(rng.nextDouble(), 0x1.f65270e63d00ep-1);
}

TEST(RngTest, KnownAnswerNextRange)
{
    Rng rng(9);
    EXPECT_EQ(rng.nextRange(1000), 840u);
    EXPECT_EQ(rng.nextRange(1000), 785u);
    EXPECT_EQ(rng.nextRange(1000), 767u);
    EXPECT_EQ(rng.nextRange(1000), 116u);
    // A bound just above 2^63 rejects almost half the raw draws.
    EXPECT_EQ(rng.nextRange((1ull << 63) + 1), 7758424192427231588u);
    EXPECT_EQ(rng.nextRange((1ull << 63) + 1), 4508544938127905439u);
}

TEST(RngTest, KnownAnswerNextBool)
{
    Rng rng(11);
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < 32; ++i)
        mask |= static_cast<std::uint32_t>(rng.nextBool(0.3)) << i;
    EXPECT_EQ(mask, 0x0e572617u);
}

TEST(RngTest, KnownAnswerFork)
{
    Rng parent(5);
    Rng child = parent.fork();
    EXPECT_EQ(child.next64(), 0x091202d77b981e85ull);
    EXPECT_EQ(child.next64(), 0xabed1bc85f216b95ull);
    EXPECT_EQ(parent.next64(), 0x9a22115a4d2624dcull);
}

// --- Intrusive list --------------------------------------------------------

struct ListItem
{
    ListItem() = default;
    explicit ListItem(int v) : value(v) {}
    int value = 0;
    ListHook hook;
};

using ItemList = IntrusiveList<ListItem, &ListItem::hook>;

TEST(IntrusiveListTest, StartsEmpty)
{
    ItemList list;
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.size(), 0u);
    EXPECT_EQ(list.front(), nullptr);
    EXPECT_EQ(list.back(), nullptr);
    EXPECT_EQ(list.popFront(), nullptr);
}

TEST(IntrusiveListTest, PushFrontOrdering)
{
    ItemList list;
    ListItem a{1}, b{2}, c{3};
    list.pushFront(&a);
    list.pushFront(&b);
    list.pushFront(&c);
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.front(), &c);
    EXPECT_EQ(list.back(), &a);
}

TEST(IntrusiveListTest, PushBackOrdering)
{
    ItemList list;
    ListItem a{1}, b{2};
    list.pushBack(&a);
    list.pushBack(&b);
    EXPECT_EQ(list.front(), &a);
    EXPECT_EQ(list.back(), &b);
}

TEST(IntrusiveListTest, EraseMiddle)
{
    ItemList list;
    ListItem a, b, c;
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    list.erase(&b);
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.front(), &a);
    EXPECT_EQ(list.back(), &c);
    EXPECT_FALSE(b.hook.linked());
}

TEST(IntrusiveListTest, PopBackReturnsTail)
{
    ItemList list;
    ListItem a, b;
    list.pushBack(&a);
    list.pushBack(&b);
    EXPECT_EQ(list.popBack(), &b);
    EXPECT_EQ(list.popBack(), &a);
    EXPECT_TRUE(list.empty());
}

TEST(IntrusiveListTest, RotateBackToFront)
{
    ItemList list;
    ListItem a, b, c;
    list.pushBack(&a);
    list.pushBack(&b);
    list.pushBack(&c);
    list.rotateBackToFront();
    EXPECT_EQ(list.front(), &c);
    EXPECT_EQ(list.back(), &b);
    EXPECT_EQ(list.size(), 3u);
}

TEST(IntrusiveListTest, IterationVisitsAllInOrder)
{
    ItemList list;
    ListItem items[5];
    for (int i = 0; i < 5; ++i) {
        items[i].value = i;
        list.pushBack(&items[i]);
    }
    std::vector<int> seen;
    for (ListItem *it : list)
        seen.push_back(it->value);
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(IntrusiveListTest, ReinsertAfterErase)
{
    ItemList list;
    ListItem a;
    list.pushBack(&a);
    list.erase(&a);
    list.pushFront(&a);
    EXPECT_EQ(list.size(), 1u);
    EXPECT_EQ(list.front(), &a);
}

// --- CsvWriter ----------------------------------------------------------------

TEST(CsvWriterTest, PlainRow)
{
    CsvWriter csv;
    csv.writeRow(std::vector<std::string>{"a", "b", "c"});
    EXPECT_EQ(csv.str(), "a,b,c\n");
}

TEST(CsvWriterTest, EscapesSpecialCharacters)
{
    CsvWriter csv;
    csv.writeRow(std::vector<std::string>{"a,b", "q\"q", "line\nbreak"});
    EXPECT_EQ(csv.str(), "\"a,b\",\"q\"\"q\",\"line\nbreak\"\n");
}

TEST(CsvWriterTest, DoubleRowPrecision)
{
    CsvWriter csv;
    csv.writeRow(std::vector<double>{1.5, 2.25}, 2);
    EXPECT_EQ(csv.str(), "1.50,2.25\n");
}

// --- SlabArena --------------------------------------------------------------

/** Arena element with observable construction/destruction. */
struct ArenaProbe
{
    static inline int liveProbes = 0;
    std::uint64_t value;

    explicit ArenaProbe(std::uint64_t v) : value(v) { ++liveProbes; }
    ~ArenaProbe() { --liveProbes; }
};

TEST(SlabArenaTest, CreateForwardsArgsAndCountsLive)
{
    SlabArena<ArenaProbe> arena(8);
    ASSERT_EQ(ArenaProbe::liveProbes, 0);
    ArenaProbe *a = arena.create(7u);
    ArenaProbe *b = arena.create(11u);
    EXPECT_EQ(a->value, 7u);
    EXPECT_EQ(b->value, 11u);
    EXPECT_EQ(arena.liveObjects(), 2u);
    EXPECT_EQ(ArenaProbe::liveProbes, 2);
    arena.destroy(a);
    arena.destroy(b);
    EXPECT_EQ(arena.liveObjects(), 0u);
    EXPECT_EQ(ArenaProbe::liveProbes, 0);
}

TEST(SlabArenaTest, AddressesStableAcrossChunkGrowth)
{
    // Tiny chunks force many growths; earlier objects must not move.
    SlabArena<std::uint64_t> arena(4);
    std::vector<std::uint64_t *> ptrs;
    for (std::uint64_t i = 0; i < 100; ++i)
        ptrs.push_back(arena.create(i));
    EXPECT_EQ(arena.numChunks(), 25u);
    EXPECT_EQ(arena.capacity(), 100u);
    std::set<std::uint64_t *> unique(ptrs.begin(), ptrs.end());
    EXPECT_EQ(unique.size(), ptrs.size());
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(*ptrs[i], i);
}

TEST(SlabArenaTest, SequentialCreationsAreContiguous)
{
    // The point of the arena: pages created back to back sit next to
    // each other, not wherever the heap scattered them.
    SlabArena<std::uint64_t> arena(64);
    std::uint64_t *first = arena.create(0u);
    for (std::uint64_t i = 1; i < 64; ++i)
        EXPECT_EQ(arena.create(i), first + i);
}

TEST(SlabArenaTest, RecyclingIsLifo)
{
    SlabArena<std::uint64_t> arena(8);
    std::uint64_t *a = arena.create(1u);
    std::uint64_t *b = arena.create(2u);
    arena.destroy(a);
    arena.destroy(b);
    // Most recently destroyed slot comes back first.
    EXPECT_EQ(arena.create(3u), b);
    EXPECT_EQ(arena.create(4u), a);
    EXPECT_EQ(arena.capacity(), 8u);  // no new chunk was needed
}

TEST(SlabArenaTest, ChurnPropertyAgainstLiveSet)
{
    // Random create/destroy churn: every live object keeps its value
    // and its address, capacity only grows, live count always matches.
    SlabArena<std::uint64_t> arena(16);
    Rng rng(123);
    std::vector<std::pair<std::uint64_t *, std::uint64_t>> live;
    std::uint64_t nextValue = 0;
    for (int step = 0; step < 5000; ++step) {
        if (live.empty() || rng.nextBool(0.6)) {
            const std::uint64_t v = nextValue++;
            live.emplace_back(arena.create(v), v);
        } else {
            const std::size_t i = static_cast<std::size_t>(
                rng.nextRange(live.size()));
            EXPECT_EQ(*live[i].first, live[i].second);
            arena.destroy(live[i].first);
            live[i] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(arena.liveObjects(), live.size());
        ASSERT_GE(arena.capacity(), live.size());
    }
    for (const auto &[ptr, v] : live)
        EXPECT_EQ(*ptr, v);
}

// --- FlatMap64 --------------------------------------------------------------

TEST(FlatMap64Test, EmplaceFindErase)
{
    FlatMap64<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    auto [slot, inserted] = map.emplace(42, 7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, 7);
    EXPECT_EQ(map.size(), 1u);

    // Duplicate emplace finds the existing entry, does not overwrite.
    auto [again, insertedAgain] = map.emplace(42, 99);
    EXPECT_FALSE(insertedAgain);
    EXPECT_EQ(*again, 7);
    EXPECT_EQ(map.size(), 1u);

    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 7);
    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_TRUE(map.empty());
}

TEST(FlatMap64Test, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(FlatMap64<int>().capacity(), 64u);
    EXPECT_EQ(FlatMap64<int>(1).capacity(), 16u);  // floor
    EXPECT_EQ(FlatMap64<int>(100).capacity(), 128u);
    EXPECT_EQ(FlatMap64<int>(128).capacity(), 128u);
}

TEST(FlatMap64Test, GrowthPreservesAllEntries)
{
    FlatMap64<std::uint64_t> map(16);
    for (std::uint64_t k = 0; k < 10000; ++k)
        ASSERT_TRUE(map.emplace(k * 0x10001, k).second);
    EXPECT_EQ(map.size(), 10000u);
    EXPECT_EQ(map.capacity() & (map.capacity() - 1), 0u);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        auto *v = map.find(k * 0x10001);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
    }
}

TEST(FlatMap64Test, TombstoneChurnStaysBounded)
{
    // Insert/erase the same small working set far more times than the
    // table has slots: tombstone purging must keep lookups terminating
    // and the capacity from growing without bound.
    FlatMap64<int> map(16);
    for (int round = 0; round < 10000; ++round) {
        const std::uint64_t k = 1000 + round % 8;
        map.emplace(k, round);
        ASSERT_TRUE(map.erase(k));
    }
    EXPECT_TRUE(map.empty());
    EXPECT_LE(map.capacity(), 64u);
}

TEST(FlatMap64Test, ChurnPropertyAgainstUnorderedMap)
{
    // Reference-model property test: a random op stream applied to both
    // FlatMap64 and std::unordered_map must agree on every result.
    FlatMap64<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(2026);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = rng.nextRange(512);
        const double op = rng.nextDouble();
        if (op < 0.5) {
            const auto got = map.emplace(key, static_cast<std::uint64_t>(step));
            const auto want =
                ref.emplace(key, static_cast<std::uint64_t>(step));
            ASSERT_EQ(got.second, want.second);
            ASSERT_EQ(*got.first, want.first->second);
        } else if (op < 0.8) {
            ASSERT_EQ(map.erase(key), ref.erase(key) > 0);
        } else {
            const auto *got = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end());
            if (got) {
                ASSERT_EQ(*got, it->second);
            }
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    for (const auto &[k, v] : ref) {
        const auto *got = map.find(k);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, v);
    }
}

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPoolTest, ManySubmitDrainRoundsOnOnePool)
{
    // The sharded epoch loop's pattern: one pool, a round of tasks,
    // drain, repeat. Every round must complete in full before drain()
    // returns, round after round.
    base::ThreadPool pool(3);
    std::atomic<unsigned> done{0};
    for (unsigned round = 1; round <= 200; ++round) {
        for (unsigned t = 0; t < 5; ++t)
            pool.submit([&done] { done.fetch_add(1); });
        pool.drain();
        ASSERT_EQ(done.load(), round * 5);
    }
}

TEST(ThreadPoolTest, DrainWithNothingSubmittedReturns)
{
    base::ThreadPool pool(2);
    pool.drain();
    pool.submit([] {});
    pool.drain();
    pool.drain();  // already drained: returns at once
}

TEST(ThreadPoolTest, RoundSeesPreviousRoundWrites)
{
    // Plain (non-atomic) cells: round r's tasks read every cell the
    // previous round wrote, on whichever worker wrote it. Correct only
    // because drain() orders those writes before the next submits
    // (tsan checks the edge).
    constexpr unsigned kCells = 8;
    std::vector<std::uint64_t> prev(kCells, 1), cur(kCells, 0);
    base::ThreadPool pool(4);
    for (unsigned round = 0; round < 50; ++round) {
        for (unsigned i = 0; i < kCells; ++i) {
            pool.submit([&prev, &cur, i] {
                cur[i] = prev[i] + prev[(i + 1) % kCells];
            });
        }
        pool.drain();
        prev.swap(cur);
    }
    // Every cell doubles each round from 1: 2^50.
    for (unsigned i = 0; i < kCells; ++i)
        EXPECT_EQ(prev[i], std::uint64_t{1} << 50);
}

TEST(ThreadPoolTest, OneWorkerRunsTasksInSubmissionOrder)
{
    // The sequential reference schedule of the sharded epoch loop.
    base::ThreadPool pool(1);
    std::vector<unsigned> order;
    for (unsigned t = 0; t < 16; ++t)
        pool.submit([&order, t] { order.push_back(t); });
    pool.drain();
    ASSERT_EQ(order.size(), 16u);
    for (unsigned t = 0; t < 16; ++t)
        EXPECT_EQ(order[t], t);
}

}  // namespace
}  // namespace mclock
