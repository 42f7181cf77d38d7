/**
 * @file
 * Global simulator invariants, checked after every harness run.
 *
 * These are the properties that must hold at any quiescent point of any
 * policy, expressed as a library so the harness runner, the property
 * tests, and the golden regression suite all enforce the same set:
 *
 *  - frame conservation: each node's used-frame count equals the number
 *    of resident pages placed on it, and never exceeds its capacity;
 *  - single residency: a resident page is placed on exactly one node
 *    (never counted in two tiers) and sits on exactly one LRU list of
 *    that node; non-resident pages are on no list;
 *  - promote-list discipline: pages on a promote list carry the
 *    PagePromote flag (MULTI-CLOCK's PG_referenced-equivalent selection
 *    evidence), and promote lists only ever hold pages whose anonymity
 *    matches the list family.
 */

#ifndef MCLOCK_HARNESS_INVARIANTS_HH_
#define MCLOCK_HARNESS_INVARIANTS_HH_

#include <string>
#include <vector>

namespace mclock {

namespace sim {
class Simulator;
}

namespace harness {

/**
 * Check all invariants on @p sim.
 * @return one human-readable message per violation; empty when clean
 */
std::vector<std::string> collectViolations(sim::Simulator &sim);

/**
 * Cross-check the vmstat counter subsystem against the simulator's
 * independent ground truth:
 *
 *  - pgpromote_success == Metrics::totalPromotions() and pgdemote ==
 *    totalDemotions() (Metrics and vmstat observe the same
 *    migrations);
 *  - pgexchange == MigrationEngine::tieredExchanges(), and the engine's
 *    aborts and rollbacks reached pgmigrate_abort/pgmigrate_rollback;
 *  - pswpin / pswpout / pgwriteback match the swap device's own
 *    pageIns() / swapOuts() / writebacks(), and pgsteal == pswpout +
 *    pgwriteback;
 *  - LRU scan counters never exceed the charged scan volume:
 *    pgscan_active + pgscan_inactive + pgscan_promote <=
 *    Metrics::scannedPages() (page-table profiling passes charge but
 *    are not LRU scans);
 *  - per-node counts sum to at most the global count for every item,
 *    with equality for the node-attributed items above.
 */
std::vector<std::string> collectCounterViolations(sim::Simulator &sim);

}  // namespace harness
}  // namespace mclock

#endif  // MCLOCK_HARNESS_INVARIANTS_HH_
