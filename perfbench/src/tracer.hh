/**
 * @file
 * Outside-in tracing for the benchmark: host-time spans recorded around
 * the calls the benchmark makes into the simulator library, plus a
 * TieringPolicy decorator that times every policy hook.
 *
 * Nothing here reaches inside the library. A Tracer belongs to one
 * simulated host (one shard of a sharded machine) and is only touched by
 * the thread currently driving that host, so tracing adds no
 * cross-thread synchronisation. Spans stay in memory until the run ends.
 *
 * Per-op client calls are far too many to keep one span each, so a call
 * becomes a span only when something happened inside it: a policy hook
 * fired, or the simulated clock passed the next daemon wake time read
 * before the call (a "daemon call"). Plain calls are aggregated into a
 * duration histogram, whose median is the baseline a daemon call's
 * extra time is measured against.
 */

#ifndef PERFBENCH_TRACER_HH_
#define PERFBENCH_TRACER_HH_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "policies/policy.hh"

namespace mclock {
namespace sim {
class Simulator;
}
}  // namespace mclock

namespace perfbench {

/** Host monotonic time in nanoseconds. */
inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The TieringPolicy hooks the decorator times. */
enum class Hook : unsigned {
    SelectNode,
    PageAllocated,
    PageFreed,
    Pressure,
    HintFault,
    Count,
};

constexpr std::size_t kNumHooks = static_cast<std::size_t>(Hook::Count);

/** Metric-name stem of @p h ("select_node", ...). */
const char *hookName(Hook h);

/** One host-time interval at a layer boundary. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span in the same buffer, or -1. */
    std::int64_t parent = -1;
    unsigned shard = 0;
    /** Hash of the host thread that recorded the span. */
    std::uint64_t thread = 0;
};

/** Aggregates over the measured phase of one host. */
struct TraceTotals
{
    std::uint64_t calls = 0;
    std::int64_t callNs = 0;
    std::int64_t keygenNs = 0;
    /** Top-level hook time inside calls that ran no daemon. */
    std::int64_t plainCallHookNs = 0;
    std::uint64_t daemonCalls = 0;
    std::int64_t daemonCallNs = 0;
    /** Top-level hook time inside daemon calls. */
    std::int64_t daemonCallHookNs = 0;
    std::array<std::uint64_t, kNumHooks> hookCalls{};
    /** Hook self time (nested hooks subtracted). */
    std::array<std::int64_t, kNumHooks> hookSelfNs{};
    /** Plain-call durations, 1 ns buckets; the last bucket overflows. */
    std::vector<std::uint32_t> plainHist;

    void merge(const TraceTotals &other);
    /** Median plain-call duration in ns (0 when there is none). */
    std::int64_t plainMedianNs() const;
};

/** Span buffer and aggregates for one simulated host. */
class Tracer
{
  public:
    /** Spans kept per host; later spans are only counted. */
    static constexpr std::size_t kMaxSpans = 1u << 20;

    explicit Tracer(unsigned shard = 0);

    /** Open a phase span; hooks and calls inside it name it parent. */
    std::size_t beginSpan(const char *name);
    void endSpan(std::size_t index);

    /** Reset the aggregates: the measured phase starts now. */
    void startMeasuring();

    /** Bracket one client call into @p sim (see file comment). */
    void beginCall(mclock::sim::Simulator &sim);
    void endCall(mclock::sim::Simulator &sim);

    void addKeygen(std::int64_t ns) { totals_.keygenNs += ns; }

    /** Bracket one policy hook (called by TracingPolicy). */
    void beginHook(Hook h);
    void endHook(Hook h);

    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t droppedSpans() const { return dropped_; }
    const TraceTotals &totals() const { return totals_; }

  private:
    static constexpr std::size_t kNoSpan = ~std::size_t{0};
    /** Parent placeholder for hooks of a call not yet recorded. */
    static constexpr std::int64_t kPendingCall = -2;

    struct HookFrame
    {
        std::int64_t startNs;
        std::int64_t childNs;
        std::size_t span;
    };

    std::size_t push(Span s);
    std::int64_t currentParent() const;

    unsigned shard_;
    std::uint64_t thread_ = 0;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
    std::vector<std::size_t> phases_;
    std::vector<HookFrame> hooks_;
    TraceTotals totals_;

    bool inCall_ = false;
    std::int64_t callStartNs_ = 0;
    std::int64_t callHookNs_ = 0;
    std::size_t callFirstSpan_ = 0;
    mclock::SimTime callDue_ = 0;
};

/**
 * Decorator that forwards every TieringPolicy hook to the wrapped policy
 * and times the ones named by Hook. It copies observesMemoryAccess() so
 * the simulator's fast-path dispatch is unchanged; simulated behaviour
 * is identical to installing the wrapped policy directly.
 */
class TracingPolicy : public mclock::policies::TieringPolicy
{
  public:
    TracingPolicy(std::unique_ptr<mclock::policies::TieringPolicy> inner,
                  Tracer &tracer);

    const char *name() const override { return inner_->name(); }
    void attach(mclock::sim::Simulator &sim) override;
    mclock::NodeId selectAllocationNode(mclock::Page &page) override;
    void onPageAllocated(mclock::Page *page) override;
    void onPageFreed(mclock::Page *page) override;
    void onMemoryAccess(mclock::Page *page,
                        mclock::policies::AccessContext &ctx) override;
    void onSupervisedAccess(mclock::Page *page) override;
    void onHintFault(mclock::Page *page) override;
    void handlePressure(mclock::sim::Node &node) override;
    mclock::policies::FeatureRow features() const override;

  private:
    std::unique_ptr<mclock::policies::TieringPolicy> inner_;
    Tracer &tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_HH_
