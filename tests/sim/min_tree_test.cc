/**
 * @file
 * Unit tests for MinTree, the sharded engine's tournament-tree
 * selection: after any mix of builds and single-slot updates the
 * winner must be the slot a linear scan picks — smallest key, lowest
 * index among equals — for power-of-two and padded sizes alike.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/min_tree.hh"
#include "sim/random.hh"
#include "sim/types.hh"

using namespace shrimp;
using namespace shrimp::sim;

namespace
{

using Key = std::pair<Tick, std::int32_t>;

const Key padKey{maxTick, std::numeric_limits<std::int32_t>::max()};

/** First slot holding the smallest key: the order the tree must keep. */
std::size_t
linearWinner(const std::vector<Key> &keys)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < keys.size(); ++i) {
        if (keys[i] < keys[best])
            best = i;
    }
    return best;
}

/** A narrow key range, so equal keys across slots are common. */
Key
drawKey(Random &rng)
{
    if (rng.below(8) == 0)
        return {maxTick, 0}; // an empty queue
    return {rng.below(6), std::int32_t(rng.below(2) * 50)};
}

} // namespace

TEST(MinTree, DefaultTreeHasOneSlot)
{
    MinTree<Key> t;
    EXPECT_EQ(t.winner(), 0u);
    t.update(0, {7, 0});
    EXPECT_EQ(t.minKey(), (Key{7, 0}));
}

TEST(MinTree, TiesGoToTheLowerIndex)
{
    MinTree<Key> t;
    t.reset(5, padKey);
    for (std::size_t i = 0; i < 5; ++i)
        t.set(i, {10, 50});
    t.build();
    EXPECT_EQ(t.winner(), 0u);
    t.update(0, {11, 50});
    EXPECT_EQ(t.winner(), 1u);
    t.update(4, {10, 0});
    EXPECT_EQ(t.winner(), 4u) << "priority breaks the tick tie";
    t.update(2, {10, 0});
    EXPECT_EQ(t.winner(), 2u) << "equal keys: lower index";
}

TEST(MinTree, PaddingNeverWins)
{
    // Every real slot empty: a real slot still holds the root, so a
    // caller can map the winner back to a queue without a range check.
    for (std::size_t n : {1u, 3u, 5u, 7u, 9u}) {
        MinTree<Key> t;
        t.reset(n, padKey);
        for (std::size_t i = 0; i < n; ++i)
            t.set(i, {maxTick, 0});
        t.build();
        EXPECT_LT(t.winner(), n) << "n=" << n;
        EXPECT_EQ(t.winner(), 0u) << "n=" << n;
    }
}

TEST(MinTree, MatchesALinearScanUnderRandomUpdates)
{
    Random rng(12);
    for (std::size_t n = 1; n <= 70; ++n) {
        MinTree<Key> t;
        t.reset(n, padKey);
        std::vector<Key> keys(n);
        for (std::size_t i = 0; i < n; ++i) {
            keys[i] = drawKey(rng);
            t.set(i, keys[i]);
        }
        t.build();
        ASSERT_EQ(t.winner(), linearWinner(keys)) << "n=" << n;
        for (int step = 0; step < 200; ++step) {
            // Bias toward the current winner: that is the slot the
            // engine replays after every event it fires.
            const std::size_t i = rng.below(3) == 0
                                      ? t.winner()
                                      : std::size_t(rng.below(n));
            keys[i] = drawKey(rng);
            t.update(i, keys[i]);
            ASSERT_EQ(t.winner(), linearWinner(keys))
                << "n=" << n << " step=" << step;
            ASSERT_EQ(t.minKey(), keys[t.winner()]);
        }
    }
}

TEST(MinTree, RunnerUpIsTheSmallestKeyOfTheOtherSlots)
{
    Random rng(11);
    for (std::size_t n = 2; n <= 70; ++n) {
        MinTree<Key> t;
        t.reset(n, padKey);
        std::vector<Key> keys(n);
        for (std::size_t i = 0; i < n; ++i)
            t.set(i, keys[i] = drawKey(rng));
        t.build();
        for (int step = 0; step < 40; ++step) {
            const std::size_t w = linearWinner(keys);
            Key other = padKey;
            for (std::size_t i = 0; i < n; ++i) {
                if (i != w && keys[i] < other)
                    other = keys[i];
            }
            ASSERT_EQ(t.winner(), w) << "n=" << n;
            ASSERT_EQ(t.runnerUpKey(), other) << "n=" << n;
            const std::size_t i = rng.below(n);
            t.update(i, keys[i] = drawKey(rng));
        }
    }
}
