/**
 * @file
 * Tests of the benchmark itself: the tracing decorator forwards every
 * policy hook, and neither tracing nor the sharded worker count changes
 * what a workload simulates.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "tracer.hh"
#include "vm/page.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using mclock::NodeId;
using mclock::Page;
using mclock::policies::AccessContext;
using mclock::policies::FeatureRow;
using mclock::policies::TieringPolicy;

/** Counts every hook it receives and does nothing else. */
class RecordingPolicy : public TieringPolicy
{
  public:
    explicit RecordingPolicy(bool observes)
    {
        observesMemoryAccess_ = observes;
    }

    const char *name() const override { return "recording"; }
    void
    attach(mclock::sim::Simulator &sim) override
    {
        TieringPolicy::attach(sim);
        ++attached;
    }
    NodeId
    selectAllocationNode(Page &) override
    {
        ++selectNode;
        return 7;
    }
    void onPageAllocated(Page *) override { ++pageAllocated; }
    void onPageFreed(Page *) override { ++pageFreed; }
    void onMemoryAccess(Page *, AccessContext &) override { ++memoryAccess; }
    void onSupervisedAccess(Page *) override { ++supervisedAccess; }
    void onHintFault(Page *) override { ++hintFault; }
    void handlePressure(mclock::sim::Node &) override { ++pressure; }
    FeatureRow
    features() const override
    {
        FeatureRow row;
        row.tiering = "recorded";
        return row;
    }

    int attached = 0;
    int selectNode = 0;
    int pageAllocated = 0;
    int pageFreed = 0;
    int memoryAccess = 0;
    int supervisedAccess = 0;
    int hintFault = 0;
    int pressure = 0;
};

TEST(TracingPolicy, ForwardsEveryHook)
{
    mclock::sim::Simulator sim(mclock::sim::tinyTestMachine());
    Tracer tracer;
    auto recording = std::make_unique<RecordingPolicy>(true);
    RecordingPolicy &rec = *recording;
    sim.setPolicy(
        std::make_unique<TracingPolicy>(std::move(recording), tracer));
    TieringPolicy &policy = sim.policy();

    Page page(nullptr, 0, true);
    AccessContext ctx;
    EXPECT_STREQ(policy.name(), "recording");
    EXPECT_TRUE(policy.observesMemoryAccess());
    EXPECT_EQ(policy.selectAllocationNode(page), 7);
    policy.onPageAllocated(&page);
    policy.onPageFreed(&page);
    policy.onMemoryAccess(&page, ctx);
    policy.onSupervisedAccess(&page);
    policy.onHintFault(&page);
    policy.handlePressure(sim.memory().node(0));
    EXPECT_EQ(policy.features().tiering, "recorded");

    EXPECT_EQ(rec.attached, 1);
    EXPECT_EQ(rec.selectNode, 1);
    EXPECT_EQ(rec.pageAllocated, 1);
    EXPECT_EQ(rec.pageFreed, 1);
    EXPECT_EQ(rec.memoryAccess, 1);
    EXPECT_EQ(rec.supervisedAccess, 1);
    EXPECT_EQ(rec.hintFault, 1);
    EXPECT_EQ(rec.pressure, 1);

    // Each timed hook produced one call and one span.
    for (std::size_t h = 0; h < kNumHooks; ++h)
        EXPECT_EQ(tracer.totals().hookCalls[h], 1u) << hookName(Hook(h));
    EXPECT_EQ(tracer.spans().size(), kNumHooks);
}

TEST(TracingPolicy, CopiesMemoryAccessHint)
{
    Tracer tracer;
    TracingPolicy quiet(std::make_unique<RecordingPolicy>(false), tracer);
    EXPECT_FALSE(quiet.observesMemoryAccess());
    TracingPolicy observing(std::make_unique<RecordingPolicy>(true), tracer);
    EXPECT_TRUE(observing.observesMemoryAccess());
}

RunOptions
smallRun(std::uint64_t seed = 3)
{
    RunOptions o;
    o.small = true;
    o.seed = seed;
    return o;
}

class EveryWorkload : public ::testing::TestWithParam<Workload>
{};

TEST_P(EveryWorkload, TracedFingerprintEqualsUntraced)
{
    const RepeatResult plain = runRepeat(GetParam(), smallRun(), false);
    const RepeatResult traced = runRepeat(GetParam(), smallRun(), true);
    EXPECT_TRUE(plain.failures.empty()) << plain.failures.front();
    EXPECT_TRUE(traced.failures.empty()) << traced.failures.front();
    EXPECT_FALSE(plain.fingerprint.items.empty());
    EXPECT_TRUE(plain.fingerprint == traced.fingerprint)
        << plain.fingerprint.firstDifference(traced.fingerprint);
    EXPECT_GT(plain.ops, 0u);
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_FALSE(traced.tracers.empty());
}

TEST_P(EveryWorkload, SeedChangesTheInputs)
{
    const RepeatResult a = runRepeat(GetParam(), smallRun(3), false);
    const RepeatResult b = runRepeat(GetParam(), smallRun(4), false);
    EXPECT_TRUE(b.failures.empty()) << b.failures.front();
    EXPECT_FALSE(a.fingerprint == b.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EveryWorkload,
    ::testing::Values(Workload::KvYcsbA, Workload::GraphPagerank,
                      Workload::KvShardedChurn),
    [](const ::testing::TestParamInfo<Workload> &info) {
        return std::string(workloadName(info.param));
    });

TEST(KvShardedChurn, SameFingerprintAtOneAndFourWorkers)
{
    RunOptions one = smallRun();
    one.workers = 1;
    RunOptions four = smallRun();
    four.workers = 4;
    const RepeatResult a = runRepeat(Workload::KvShardedChurn, one, false);
    const RepeatResult b = runRepeat(Workload::KvShardedChurn, four, true);
    EXPECT_TRUE(a.failures.empty()) << a.failures.front();
    EXPECT_TRUE(b.failures.empty()) << b.failures.front();
    EXPECT_EQ(a.shard.workers, 1u);
    EXPECT_EQ(b.shard.workers, 4u);
    EXPECT_TRUE(a.fingerprint == b.fingerprint)
        << a.fingerprint.firstDifference(b.fingerprint);
}

}  // namespace
}  // namespace perfbench
