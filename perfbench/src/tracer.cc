#include "tracer.hh"

#include <algorithm>
#include <functional>
#include <thread>

#include "sim/simulator.hh"

namespace perfbench {

namespace {

/** Plain calls longer than this land in the overflow bucket. */
constexpr std::size_t kHistBuckets = 1u << 16;

std::uint64_t
threadHash()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

const char *
hookName(Hook h)
{
    switch (h) {
      case Hook::SelectNode: return "select_node";
      case Hook::PageAllocated: return "page_allocated";
      case Hook::PageFreed: return "page_freed";
      case Hook::Pressure: return "pressure";
      case Hook::HintFault: return "hint_fault";
      case Hook::Count: break;
    }
    return "?";
}

void
TraceTotals::merge(const TraceTotals &other)
{
    calls += other.calls;
    callNs += other.callNs;
    keygenNs += other.keygenNs;
    plainCallHookNs += other.plainCallHookNs;
    daemonCalls += other.daemonCalls;
    daemonCallNs += other.daemonCallNs;
    daemonCallHookNs += other.daemonCallHookNs;
    for (std::size_t h = 0; h < kNumHooks; ++h) {
        hookCalls[h] += other.hookCalls[h];
        hookSelfNs[h] += other.hookSelfNs[h];
    }
    if (plainHist.size() < other.plainHist.size())
        plainHist.resize(other.plainHist.size(), 0);
    for (std::size_t i = 0; i < other.plainHist.size(); ++i)
        plainHist[i] += other.plainHist[i];
}

std::int64_t
TraceTotals::plainMedianNs() const
{
    std::uint64_t total = 0;
    for (std::uint32_t c : plainHist)
        total += c;
    if (total == 0)
        return 0;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < plainHist.size(); ++i) {
        seen += plainHist[i];
        if (2 * seen >= total)
            return static_cast<std::int64_t>(i);
    }
    return static_cast<std::int64_t>(plainHist.size() - 1);
}

Tracer::Tracer(unsigned shard) : shard_(shard)
{
    totals_.plainHist.assign(kHistBuckets, 0);
}

std::size_t
Tracer::push(Span s)
{
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return kNoSpan;
    }
    s.shard = shard_;
    s.thread = thread_;
    spans_.push_back(s);
    return spans_.size() - 1;
}

std::int64_t
Tracer::currentParent() const
{
    if (!hooks_.empty()) {
        const std::size_t top = hooks_.back().span;
        return top == kNoSpan ? -1 : static_cast<std::int64_t>(top);
    }
    if (inCall_)
        return kPendingCall;
    return phases_.empty() ? -1 : static_cast<std::int64_t>(phases_.back());
}

std::size_t
Tracer::beginSpan(const char *name)
{
    // The thread is read per phase: a shard's epochs may run on
    // different worker threads.
    thread_ = threadHash();
    Span s;
    s.name = name;
    s.startNs = hostNowNs();
    s.parent = currentParent();
    const std::size_t index = push(s);
    phases_.push_back(index);
    return index;
}

void
Tracer::endSpan(std::size_t index)
{
    if (index != kNoSpan)
        spans_[index].endNs = hostNowNs();
    if (!phases_.empty())
        phases_.pop_back();
}

void
Tracer::startMeasuring()
{
    std::vector<std::uint32_t> hist = std::move(totals_.plainHist);
    std::fill(hist.begin(), hist.end(), 0u);
    totals_ = TraceTotals{};
    totals_.plainHist = std::move(hist);
}

void
Tracer::beginCall(mclock::sim::Simulator &sim)
{
    inCall_ = true;
    callDue_ = sim.daemons().nextDue();
    callHookNs_ = 0;
    callFirstSpan_ = spans_.size();
    callStartNs_ = hostNowNs();
}

void
Tracer::endCall(mclock::sim::Simulator &sim)
{
    const std::int64_t end = hostNowNs();
    const std::int64_t dur = end - callStartNs_;
    const bool daemon = sim.now() >= callDue_;
    inCall_ = false;

    ++totals_.calls;
    totals_.callNs += dur;
    if (daemon) {
        ++totals_.daemonCalls;
        totals_.daemonCallNs += dur;
        totals_.daemonCallHookNs += callHookNs_;
    } else {
        totals_.plainCallHookNs += callHookNs_;
        const auto bucket = std::min<std::size_t>(
            static_cast<std::size_t>(std::max<std::int64_t>(dur, 0)),
            totals_.plainHist.size() - 1);
        ++totals_.plainHist[bucket];
    }

    if (!daemon && spans_.size() == callFirstSpan_)
        return;  // a plain call with no hook inside: aggregate only
    Span s;
    s.name = daemon ? "sim.daemon_call" : "sim.call";
    s.startNs = callStartNs_;
    s.endNs = end;
    s.parent = currentParent();
    const std::size_t index = push(s);
    for (std::size_t i = callFirstSpan_; i < spans_.size(); ++i) {
        if (spans_[i].parent == kPendingCall)
            spans_[i].parent =
                index == kNoSpan ? -1 : static_cast<std::int64_t>(index);
    }
}

void
Tracer::beginHook(Hook h)
{
    Span s;
    s.name = hookName(h);
    s.startNs = hostNowNs();
    s.parent = currentParent();
    hooks_.push_back({s.startNs, 0, push(s)});
}

void
Tracer::endHook(Hook h)
{
    const std::int64_t end = hostNowNs();
    const HookFrame f = hooks_.back();
    hooks_.pop_back();
    const std::int64_t dur = end - f.startNs;
    const auto i = static_cast<std::size_t>(h);
    ++totals_.hookCalls[i];
    totals_.hookSelfNs[i] += dur - f.childNs;
    if (f.span != kNoSpan)
        spans_[f.span].endNs = end;
    if (!hooks_.empty())
        hooks_.back().childNs += dur;
    else if (inCall_)
        callHookNs_ += dur;
}

// --- TracingPolicy -------------------------------------------------------

namespace {

/** RAII bracket around one hook. */
class HookScope
{
  public:
    HookScope(Tracer &tracer, Hook h) : tracer_(tracer), hook_(h)
    {
        tracer_.beginHook(hook_);
    }
    ~HookScope() { tracer_.endHook(hook_); }
    HookScope(const HookScope &) = delete;
    HookScope &operator=(const HookScope &) = delete;

  private:
    Tracer &tracer_;
    Hook hook_;
};

}  // namespace

TracingPolicy::TracingPolicy(
    std::unique_ptr<mclock::policies::TieringPolicy> inner, Tracer &tracer)
    : inner_(std::move(inner)), tracer_(tracer)
{
    observesMemoryAccess_ = inner_->observesMemoryAccess();
}

void
TracingPolicy::attach(mclock::sim::Simulator &sim)
{
    TieringPolicy::attach(sim);
    inner_->attach(sim);
}

mclock::NodeId
TracingPolicy::selectAllocationNode(mclock::Page &page)
{
    HookScope scope(tracer_, Hook::SelectNode);
    return inner_->selectAllocationNode(page);
}

void
TracingPolicy::onPageAllocated(mclock::Page *page)
{
    HookScope scope(tracer_, Hook::PageAllocated);
    inner_->onPageAllocated(page);
}

void
TracingPolicy::onPageFreed(mclock::Page *page)
{
    HookScope scope(tracer_, Hook::PageFreed);
    inner_->onPageFreed(page);
}

void
TracingPolicy::onMemoryAccess(mclock::Page *page,
                              mclock::policies::AccessContext &ctx)
{
    // Untimed: it runs per LLC miss, and only for policies that set
    // observesMemoryAccess() (Memory-mode), which no workload uses.
    inner_->onMemoryAccess(page, ctx);
}

void
TracingPolicy::onSupervisedAccess(mclock::Page *page)
{
    // Untimed: no benchmark workload issues supervised accesses.
    inner_->onSupervisedAccess(page);
}

void
TracingPolicy::onHintFault(mclock::Page *page)
{
    HookScope scope(tracer_, Hook::HintFault);
    inner_->onHintFault(page);
}

void
TracingPolicy::handlePressure(mclock::sim::Node &node)
{
    HookScope scope(tracer_, Hook::Pressure);
    inner_->handlePressure(node);
}

mclock::policies::FeatureRow
TracingPolicy::features() const
{
    return inner_->features();
}

}  // namespace perfbench
