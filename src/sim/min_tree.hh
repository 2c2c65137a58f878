/**
 * @file
 * A tournament (winner) tree over a fixed number of keyed slots: the
 * sharded engine's merged next-event selection.
 *
 * Slots are the leaves in index order, padded to a power of two; each
 * internal node holds the index of the smaller of its two children's
 * winners. Ties go to the left child, so the winner is the smallest
 * key and, among equal keys, the lowest slot index. Changing one key
 * replays only the matches on its leaf-to-root path: O(log n).
 */

#ifndef SHRIMP_SIM_MIN_TREE_HH
#define SHRIMP_SIM_MIN_TREE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shrimp::sim
{

template <typename Key>
class MinTree
{
  public:
    /**
     * Size the tree for @p n slots and set every key — including the
     * padding leaves, which keep it for good — to @p pad. Pick a pad
     * that no real key exceeds, so padding never wins a real match.
     */
    void
    reset(std::size_t n, const Key &pad)
    {
        cap_ = 1;
        while (cap_ < n)
            cap_ *= 2;
        keys_.assign(cap_, pad);
        win_.assign(2 * cap_, 0);
        for (std::size_t i = 0; i < cap_; ++i)
            win_[cap_ + i] = std::uint32_t(i);
        build();
    }

    const Key &key(std::size_t i) const { return keys_[i]; }

    /** Set slot @p i's key without replaying; build() afterwards. */
    void set(std::size_t i, const Key &k) { keys_[i] = k; }

    /** Replay every match from the keys as they stand: O(n). */
    void
    build()
    {
        for (std::size_t p = cap_ - 1; p >= 1; --p)
            win_[p] = play(p);
    }

    /** Set slot @p i's key and replay its path to the root. */
    void
    update(std::size_t i, const Key &k)
    {
        keys_[i] = k;
        for (std::size_t p = (cap_ + i) / 2; p >= 1; p /= 2)
            win_[p] = play(p);
    }

    /** Slot holding the smallest key (lowest index among equals). */
    std::size_t winner() const { return win_[1]; }

    const Key &minKey() const { return keys_[winner()]; }

    /**
     * The smallest key among the slots other than winner(): the best
     * of the subtree winners it beat on its way to the root, O(log n).
     * Needs at least two slots.
     */
    const Key &
    runnerUpKey() const
    {
        const Key *best = nullptr;
        for (std::size_t p = cap_ + winner(); p > 1; p /= 2) {
            const Key &k = keys_[win_[p ^ 1]];
            if (!best || k < *best)
                best = &k;
        }
        return *best;
    }

  private:
    std::uint32_t
    play(std::size_t p) const
    {
        const std::uint32_t a = win_[2 * p];
        const std::uint32_t b = win_[2 * p + 1];
        return keys_[b] < keys_[a] ? b : a;
    }

    std::size_t cap_ = 1;
    std::vector<Key> keys_ = std::vector<Key>(1);
    /** win_[p] for internal p in [1, cap_); win_[cap_ + i] == i. */
    std::vector<std::uint32_t> win_ = std::vector<std::uint32_t>(2, 0);
};

} // namespace shrimp::sim

#endif // SHRIMP_SIM_MIN_TREE_HH
