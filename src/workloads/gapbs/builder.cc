#include "workloads/gapbs/builder.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"
#include "sim/simulator.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

std::unique_ptr<Graph>
Builder::build(sim::Simulator &sim, std::vector<Edge> edges,
               const BuildOptions &opts)
{
    // Determine the vertex count from the edge list.
    GNode maxId = 0;
    for (const auto &e : edges)
        maxId = std::max({maxId, e.u, e.v});
    const std::size_t n = static_cast<std::size_t>(maxId) + 1;

    if (opts.removeSelfLoops) {
        edges.erase(std::remove_if(edges.begin(), edges.end(),
                                   [](const Edge &e) { return e.u == e.v; }),
                    edges.end());
    }
    // With symmetrize, the CSR holds every edge in both directions: the
    // original edges first, then their reverses, each pass in list
    // order. Visiting the reverses in place keeps the edge list at its
    // input size.
    const auto forEachDirected = [&edges, &opts](auto &&visit) {
        for (const auto &e : edges)
            visit(e.u, e.v, e.w);
        if (opts.symmetrize) {
            for (const auto &e : edges)
                visit(e.v, e.u, e.w);
        }
    };

    // Optional degree-descending relabel (GAPBS TC preprocessing).
    if (opts.relabelByDegree) {
        std::vector<std::uint64_t> degree(n, 0);
        forEachDirected([&degree](GNode u, GNode, Weight) { ++degree[u]; });
        std::vector<GNode> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&degree](GNode a, GNode b) {
                      return degree[a] > degree[b];
                  });
        std::vector<GNode> relabel(n, 0);
        for (std::size_t rank = 0; rank < n; ++rank)
            relabel[order[rank]] = static_cast<GNode>(rank);
        for (auto &e : edges) {
            e.u = relabel[e.u];
            e.v = relabel[e.v];
        }
    }

    // Counting sort by source vertex into CSR.
    std::vector<std::uint64_t> offsets(n + 1, 0);
    forEachDirected([&offsets](GNode u, GNode, Weight) { ++offsets[u + 1]; });
    for (std::size_t i = 1; i <= n; ++i)
        offsets[i] += offsets[i - 1];
    const std::size_t m = offsets[n];
    std::vector<GNode> neighbors(m);
    std::vector<Weight> weights(opts.keepWeights ? m : 0);
    {
        std::vector<std::uint64_t> cursor(offsets.begin(),
                                          offsets.end() - 1);
        forEachDirected([&](GNode u, GNode v, Weight w) {
            const std::uint64_t pos = cursor[u]++;
            neighbors[pos] = v;
            if (opts.keepWeights)
                weights[pos] = w;
        });
    }
    // The edge list is no longer needed; free it before the simulated
    // arrays below take their host copies.
    std::vector<Edge>().swap(edges);

    if (opts.sortAndDedupNeighbors) {
        std::vector<GNode> deduped;
        deduped.reserve(neighbors.size());
        std::vector<std::uint64_t> newOffsets(n + 1, 0);
        for (std::size_t u = 0; u < n; ++u) {
            const auto begin =
                neighbors.begin() + static_cast<long>(offsets[u]);
            const auto end =
                neighbors.begin() + static_cast<long>(offsets[u + 1]);
            std::sort(begin, end);
            const std::size_t before = deduped.size();
            for (auto it = begin; it != end; ++it) {
                if (deduped.size() == before || deduped.back() != *it)
                    deduped.push_back(*it);
            }
            newOffsets[u + 1] = deduped.size();
        }
        MCLOCK_ASSERT(!opts.keepWeights);  // unsupported combination
        offsets = std::move(newOffsets);
        neighbors = std::move(deduped);
    }

    // Materialise in simulated memory, in allocation order. This is the
    // load phase: offsets first (small, hot), then the neighbor stream,
    // then weights.
    auto graph = std::make_unique<Graph>();
    graph->numVertices_ = n;
    graph->numEdges_ = neighbors.size();
    graph->offsets_.allocate(sim, n + 1, "gapbs-offsets");
    for (std::size_t i = 0; i <= n; ++i)
        graph->offsets_.poke(i, offsets[i]);
    graph->offsets_.streamInit();
    graph->neighbors_.allocate(sim, neighbors.size(), "gapbs-neighbors");
    for (std::size_t i = 0; i < neighbors.size(); ++i)
        graph->neighbors_.poke(i, neighbors[i]);
    graph->neighbors_.streamInit();
    if (opts.keepWeights) {
        graph->weights_.allocate(sim, weights.size(), "gapbs-weights");
        for (std::size_t i = 0; i < weights.size(); ++i)
            graph->weights_.poke(i, weights[i]);
        graph->weights_.streamInit();
    }
    return graph;
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
