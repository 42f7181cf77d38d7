/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator (workload generators, random
 * selection policies, samplers) draw from Rng so that every experiment is
 * reproducible from a single seed. The generator is xoshiro256**, which is
 * fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef MCLOCK_BASE_RNG_HH_
#define MCLOCK_BASE_RNG_HH_

#include <cstdint>

namespace mclock {

/**
 * xoshiro256** pseudo-random generator with splitmix64 seeding.
 *
 * The per-draw members are defined inline below: workload generation
 * makes tens of millions of draws per run, and an out-of-line call per
 * draw costs more than the generator itself.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform value in [0, bound) without modulo bias (bound > 0). */
    std::uint64_t nextRange(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of returning true. */
    bool nextBool(double p);

    /**
     * Fork a statistically independent child generator. Used to give each
     * workload phase its own stream while preserving determinism.
     */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

inline std::uint64_t
Rng::next64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

inline double
Rng::nextDouble()
{
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

inline bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

}  // namespace mclock

#endif  // MCLOCK_BASE_RNG_HH_
