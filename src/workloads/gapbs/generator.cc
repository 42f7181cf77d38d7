#include "workloads/gapbs/generator.hh"

#include "base/logging.hh"

namespace mclock {
namespace workloads {
namespace gapbs {

std::vector<Edge>
makeKroneckerEdges(unsigned scale, unsigned degree, Rng &rng)
{
    MCLOCK_ASSERT(scale > 0 && scale < 31);
    const std::size_t n = std::size_t{1} << scale;
    const std::size_t m = n * degree;
    std::vector<Edge> edges;
    edges.reserve(m);
    // Graph500 RMAT quadrant probabilities, as cumulative thresholds.
    const double a = 0.57, b = 0.19, c = 0.19;
    const double ab = a + b, abc = a + b + c;
    for (std::size_t i = 0; i < m; ++i) {
        GNode u = 0, v = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            // r picks quadrant (u,v) = (0,0), (0,1), (1,0) or (1,1) by
            // the first of a, ab, abc it falls below (the last if none).
            // The thresholds ascend, so u's bit is r >= ab and v's bit,
            // set in the second and fourth quadrant, is the parity of
            // the three comparisons. No branches: the quadrant is random.
            const double r = rng.nextDouble();
            const GNode geA = r >= a, geAb = r >= ab, geAbc = r >= abc;
            u |= geAb << bit;
            v |= (geA ^ geAb ^ geAbc) << bit;
        }
        edges.push_back({u, v, 1});
    }
    return edges;
}

std::vector<Edge>
makeUniformEdges(unsigned scale, unsigned degree, Rng &rng)
{
    MCLOCK_ASSERT(scale > 0 && scale < 31);
    const std::size_t n = std::size_t{1} << scale;
    const std::size_t m = n * degree;
    std::vector<Edge> edges;
    edges.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
        edges.push_back({static_cast<GNode>(rng.nextRange(n)),
                         static_cast<GNode>(rng.nextRange(n)), 1});
    }
    return edges;
}

void
assignWeights(std::vector<Edge> &edges, Weight maxWeight, Rng &rng)
{
    MCLOCK_ASSERT(maxWeight >= 1);
    for (auto &e : edges)
        e.w = static_cast<Weight>(1 + rng.nextRange(maxWeight));
}

}  // namespace gapbs
}  // namespace workloads
}  // namespace mclock
