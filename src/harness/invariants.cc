#include "harness/invariants.hh"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "pfra/lru_lists.hh"
#include "sim/memory_system.hh"
#include "sim/node.hh"
#include "sim/simulator.hh"
#include "stats/vmstat.hh"
#include "vm/address_space.hh"
#include "vm/memcg.hh"
#include "vm/page.hh"
#include "vm/swap.hh"

#ifdef MCLOCK_DEBUG_VM
#include "debug/vm_checker.hh"
#endif

namespace mclock {
namespace harness {

namespace {

void
violation(std::vector<std::string> &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out.emplace_back(buf);
}

}  // namespace

std::vector<std::string>
collectViolations(sim::Simulator &sim)
{
    std::vector<std::string> out;
    auto &mem = sim.memory();
    const std::size_t numNodes = mem.numNodes();

    // Pass 1: walk the address space, counting residency per node.
    std::vector<std::size_t> residentPerNode(numNodes, 0);
    std::size_t resident = 0;
    sim.space().forEachPage([&](Page *pg) {
        if (!pg->resident()) {
            if (pg->onLru()) {
                violation(out,
                          "non-resident page vpn=%llu on list %d",
                          static_cast<unsigned long long>(pg->vpn()),
                          static_cast<int>(pg->list()));
            }
            return;
        }
        ++resident;
        const auto node = static_cast<std::size_t>(pg->node());
        if (node >= numNodes) {
            // Single-residency: the one node field must name a real
            // node; an out-of-range id would mean a torn placement.
            violation(out, "resident page vpn=%llu on bogus node %zu",
                      static_cast<unsigned long long>(pg->vpn()), node);
            return;
        }
        ++residentPerNode[node];
    });

    // Pass 2: per-node frame accounting and occupancy bounds.
    std::size_t onLists = 0;
    mem.forEachNode([&](sim::Node &node) {
        const auto id = static_cast<std::size_t>(node.id());
        if (node.usedFrames() > node.totalFrames()) {
            violation(out, "node %zu occupancy %zu exceeds capacity %zu",
                      id, node.usedFrames(), node.totalFrames());
        }
        if (node.usedFrames() != residentPerNode[id]) {
            violation(out,
                      "node %zu frame leak: %zu frames used but %zu "
                      "resident pages placed",
                      id, node.usedFrames(), residentPerNode[id]);
        }
        onLists += node.lists().totalPages();

        // Pass 3: list discipline — tags match, anonymity matches the
        // list family, and promote-list pages carry PagePromote (the
        // selection evidence shrink_promote_list consumes).
        for (int k = 1; k < kNumLruLists; ++k) {
            const auto kind = static_cast<LruListKind>(k);
            for (Page *pg : node.lists().list(kind)) {
                if (pg->list() != kind) {
                    violation(out,
                              "page vpn=%llu on list %d but tagged %d",
                              static_cast<unsigned long long>(pg->vpn()),
                              k, static_cast<int>(pg->list()));
                }
                if (pg->node() != node.id()) {
                    violation(out,
                              "page vpn=%llu on node %zu's list but "
                              "placed on node %d",
                              static_cast<unsigned long long>(pg->vpn()),
                              id, static_cast<int>(pg->node()));
                }
                if (kind != LruListKind::Unevictable) {
                    const bool anonList =
                        kind == LruListKind::InactiveAnon ||
                        kind == LruListKind::ActiveAnon ||
                        kind == LruListKind::PromoteAnon;
                    if (pg->isAnon() != anonList) {
                        violation(out,
                                  "page vpn=%llu anonymity mismatch on "
                                  "list %d",
                                  static_cast<unsigned long long>(
                                      pg->vpn()),
                                  k);
                    }
                }
                if (isPromoteList(kind) && !pg->promoteFlag()) {
                    violation(out,
                              "page vpn=%llu on promote list without "
                              "PagePromote set",
                              static_cast<unsigned long long>(pg->vpn()));
                }
            }
        }
    });

#ifdef MCLOCK_DEBUG_VM
    // Debug builds add the lockdep-style sweep: linkage validity and
    // shadow-state agreement on every list of every node.
    auto &checker = sim.vmChecker();
    mem.forEachNode([&](sim::Node &node) {
        for (int k = 1; k < kNumLruLists; ++k) {
            const auto kind = static_cast<LruListKind>(k);
            std::vector<debug::Violation> found;
            checker.validateList(node.lists().list(kind), kind,
                                 node.id(), &found);
            for (const auto &v : found) {
                violation(out, "debug_vm %s: %s",
                          debug::violationName(v.code),
                          v.detail.c_str());
            }
        }
    });
#endif

    // A resident page sits on exactly one list; isolated (mid-migration)
    // pages never survive to a quiescent point.
    if (onLists != resident) {
        violation(out,
                  "list membership mismatch: %zu pages on lists, %zu "
                  "resident",
                  onLists, resident);
    }
    return out;
}

namespace {

void
counterMismatch(std::vector<std::string> &out, const char *what,
                std::uint64_t counter, std::uint64_t truth)
{
    violation(out, "counter mismatch: %s = %llu but ground truth %llu",
              what, static_cast<unsigned long long>(counter),
              static_cast<unsigned long long>(truth));
}

}  // namespace

std::vector<std::string>
collectCounterViolations(sim::Simulator &sim)
{
    using stats::VmItem;
    std::vector<std::string> out;
    const auto &vm = sim.vmstat();

    // Migration accounting: three observers (vmstat, Metrics, the
    // migration engine) counted the same events independently.
    if (vm.global(VmItem::PgpromoteSuccess) !=
        sim.metrics().totalPromotions()) {
        counterMismatch(out, "pgpromote_success",
                        vm.global(VmItem::PgpromoteSuccess),
                        sim.metrics().totalPromotions());
    }
    if (vm.global(VmItem::Pgdemote) != sim.metrics().totalDemotions()) {
        counterMismatch(out, "pgdemote", vm.global(VmItem::Pgdemote),
                        sim.metrics().totalDemotions());
    }
    // A pgexchange implies the two nodes sat on different tiers; the
    // engine's same-tier exchanges are deliberately not counted.
    if (vm.global(VmItem::Pgexchange) !=
        sim.migrationEngine().tieredExchanges()) {
        counterMismatch(out, "pgexchange", vm.global(VmItem::Pgexchange),
                        sim.migrationEngine().tieredExchanges());
    }

    // Transactional migration: every injected abort (and every
    // post-copy rollback) the engine saw reached vmstat.
    if (vm.global(VmItem::PgmigrateAbort) != sim.migrationEngine().aborts())
        counterMismatch(out, "pgmigrate_abort",
                        vm.global(VmItem::PgmigrateAbort),
                        sim.migrationEngine().aborts());
    if (vm.global(VmItem::PgmigrateRollback) !=
        sim.migrationEngine().rollbacks()) {
        counterMismatch(out, "pgmigrate_rollback",
                        vm.global(VmItem::PgmigrateRollback),
                        sim.migrationEngine().rollbacks());
    }

    // Swap traffic and reclaim: the swap device counts its own page-ins
    // and page-outs. pswpout is charged only for anonymous pages
    // entering the swap area; file-backed evictions surface as
    // pgwriteback instead, and every evicted page of either kind was
    // stolen from its node.
    if (vm.global(VmItem::Pswpin) != sim.swap().pageIns())
        counterMismatch(out, "pswpin", vm.global(VmItem::Pswpin),
                        sim.swap().pageIns());
    if (vm.global(VmItem::Pswpout) != sim.swap().swapOuts())
        counterMismatch(out, "pswpout(swap)", vm.global(VmItem::Pswpout),
                        sim.swap().swapOuts());
    if (vm.global(VmItem::Pgwriteback) != sim.swap().writebacks())
        counterMismatch(out, "pgwriteback",
                        vm.global(VmItem::Pgwriteback),
                        sim.swap().writebacks());
    if (vm.global(VmItem::Pgsteal) !=
        vm.global(VmItem::Pswpout) + vm.global(VmItem::Pgwriteback)) {
        counterMismatch(out, "pgsteal", vm.global(VmItem::Pgsteal),
                        vm.global(VmItem::Pswpout) +
                            vm.global(VmItem::Pgwriteback));
    }

    // LRU scan classification never exceeds the charged scan volume
    // (page-table profiling passes are charged but not list scans).
    const std::uint64_t pgscan = vm.global(VmItem::PgscanActive) +
                                 vm.global(VmItem::PgscanInactive) +
                                 vm.global(VmItem::PgscanPromote);
    if (pgscan > sim.metrics().scannedPages()) {
        counterMismatch(out, "pgscan_active+inactive+promote", pgscan,
                        sim.metrics().scannedPages());
    }

    // Per-node attribution: node counts can never exceed the global
    // count, and the node-attributed items must account for every event.
    for (std::size_t i = 0; i < stats::kNumVmItems; ++i) {
        const auto item = static_cast<VmItem>(i);
        if (vm.nodeSum(item) > vm.global(item)) {
            violation(out,
                      "counter mismatch: per-node %s sums to %llu, over "
                      "the global %llu",
                      stats::vmItemName(item),
                      static_cast<unsigned long long>(vm.nodeSum(item)),
                      static_cast<unsigned long long>(vm.global(item)));
        }
    }
    for (VmItem item : {VmItem::PgscanActive, VmItem::PgscanInactive,
                        VmItem::PgscanPromote, VmItem::PgpromoteSuccess,
                        VmItem::Pgdemote, VmItem::Pgsteal,
                        VmItem::PgfaultDram, VmItem::PgfaultPm,
                        VmItem::Pswpin, VmItem::Pswpout,
                        VmItem::Pgwriteback, VmItem::PgmigrateAbort,
                        VmItem::PgmigrateRetry, VmItem::PgmigrateRollback,
                        VmItem::PgpromoteThrottled, VmItem::KswapdWake}) {
        if (vm.nodeSum(item) != vm.global(item)) {
            violation(out,
                      "counter mismatch: per-node %s sums to %llu, not "
                      "the global %llu",
                      stats::vmItemName(item),
                      static_cast<unsigned long long>(vm.nodeSum(item)),
                      static_cast<unsigned long long>(vm.global(item)));
        }
    }

    // Tier topology: every node belongs to exactly one rank bucket, the
    // rank buckets partition the machine, and per-tier frame occupancy
    // reconciles with the per-node books for every tier present.
    auto &mem = sim.memory();
    std::size_t bucketNodes = 0;
    std::size_t bucketTotal = 0;
    std::size_t bucketUsed = 0;
    for (TierRank rank : mem.tierOrder()) {
        std::size_t tierTotal = 0;
        std::size_t tierUsed = 0;
        std::size_t tierFree = 0;
        for (NodeId id : mem.tier(rank)) {
            const auto &node = mem.node(id);
            if (node.tier() != rank) {
                violation(out,
                          "node %d in tier %d's bucket but placed on "
                          "tier %d",
                          static_cast<int>(id), rank, node.tier());
            }
            ++bucketNodes;
            tierTotal += node.totalFrames();
            tierUsed += node.usedFrames();
            tierFree += node.freeFrames();
        }
        if (tierTotal != tierUsed + tierFree) {
            violation(out,
                      "tier %d occupancy mismatch: %zu frames total but "
                      "%zu used + %zu free",
                      rank, tierTotal, tierUsed, tierFree);
        }
        bucketTotal += tierTotal;
        bucketUsed += tierUsed;
    }
    std::size_t machineTotal = 0;
    std::size_t machineUsed = 0;
    mem.forEachNode([&](sim::Node &node) {
        machineTotal += node.totalFrames();
        machineUsed += node.usedFrames();
    });
    if (bucketNodes != mem.numNodes()) {
        violation(out,
                  "tier buckets cover %zu nodes but the machine has %zu",
                  bucketNodes, mem.numNodes());
    }
    if (bucketTotal != machineTotal || bucketUsed != machineUsed) {
        violation(out,
                  "tier occupancy sums (%zu/%zu used/total) diverge from "
                  "node totals (%zu/%zu)",
                  bucketUsed, bucketTotal, machineUsed, machineTotal);
    }

    // Swap-slot conservation: every slot a swap-out ever took is still
    // occupied, was freed by a page-in, or was released at unmap —
    // exactly once each. A double-release or a leaked slot (e.g. an
    // unmap racing a rollback) breaks the identity.
    const auto &swap = sim.swap();
    if (!swap.slotsConserved()) {
        violation(out,
                  "swap slot conservation: %llu swap-outs != %zu held + "
                  "%llu freed by page-in + %llu released at unmap",
                  static_cast<unsigned long long>(swap.swapOuts()),
                  swap.usedSlots(),
                  static_cast<unsigned long long>(swap.slotFrees()),
                  static_cast<unsigned long long>(swap.slotReleases()));
    }

    // Tenant demotions are a subset of all demotions, and a tenant page
    // deferred at the promotion gate was never also counted promoted.
    if (vm.global(VmItem::PgtenantDemote) > vm.global(VmItem::Pgdemote)) {
        counterMismatch(out, "pgtenant_demote <= pgdemote",
                        vm.global(VmItem::PgtenantDemote),
                        vm.global(VmItem::Pgdemote));
    }

    // Memcg charge conservation: each tenant's per-tier charge equals
    // the resident pages the walk actually finds tagged with it. A
    // drifting charge means a charge/uncharge/transfer hook was missed
    // on some migration, eviction, or rollback path.
    if (sim.memcg().active()) {
        std::map<std::pair<MemCgroupId, TierRank>, std::size_t> walked;
        sim.space().forEachPage([&](Page *pg) {
            if (!pg->resident() || pg->memcg() == kRootMemcg)
                return;
            const auto &node =
                mem.node(static_cast<NodeId>(pg->node()));
            ++walked[{pg->memcg(), node.tier()}];
        });
        sim.memcg().forEach([&](const MemCgroup &cg) {
            for (TierRank rank : mem.tierOrder()) {
                const std::size_t counted = walked.count({cg.id(), rank})
                                                ? walked[{cg.id(), rank}]
                                                : 0;
                if (cg.charged(rank) != counted) {
                    violation(out,
                              "memcg %s charge drift on tier %d: %zu "
                              "charged but %zu resident pages tagged",
                              cg.name().c_str(), rank, cg.charged(rank),
                              counted);
                }
            }
        });
    }
    return out;
}

}  // namespace harness
}  // namespace mclock
