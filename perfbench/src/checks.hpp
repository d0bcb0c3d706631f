// Output checks, computed apart from the program from what the benchmark
// itself recorded. Each returns an empty string when the check holds and a
// description of the first violation otherwise; tests/checks_test.cpp feeds
// every one a deliberately corrupted input.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trees/key.hpp"
#include "trees/sftree.hpp"

namespace pb {

using sftree::Key;
using sftree::Value;

// The keys a quiesced structure lists in order are strictly increasing
// (BST order, and no key twice).
std::string checkSortedUnique(const std::vector<Key>& keys);

// Per key k of [0, initial.size()): initial[k] + net[k] is 0 or 1 and
// equals finalPresent[k], where net[k] is the successful inserts minus the
// successful erases of k the benchmark saw returned.
std::string checkKeyTally(const std::vector<std::uint8_t>& initial,
                          const std::vector<std::int32_t>& net,
                          const std::vector<std::uint8_t>& finalPresent);

// The structure's reported size equals the initial size plus the
// successful inserts minus the successful erases.
std::string checkSizeTally(std::uint64_t initialSize, std::uint64_t inserts,
                           std::uint64_t erases, std::uint64_t reportedSize);

// A quiesced speculation-friendly tree is AVL-balanced:
// height <= 1.44 log2(nodes + 2).
std::string checkHeightBound(int height, std::uint64_t nodes);

// Every submitted request completed exactly once (completions[i] counts
// the callbacks request i received).
std::string checkExactlyOnce(const std::vector<std::uint8_t>& completions);

// A restored image (key order as listed, values by position) has exactly
// `expectedKeys` keys and no key twice.
std::string checkImageCount(const std::vector<Key>& keys,
                            std::uint64_t expectedKeys);

// A restored image equals the expected key/value set (both sorted by key).
std::string checkImageEquals(
    const std::vector<std::pair<Key, Value>>& expected,
    const std::vector<std::pair<Key, Value>>& actual);

// The program's own structural check plus the in-order walk above, on a
// quiesced tree.
std::string checkTreeStructure(sftree::trees::SFTree& tree);

}  // namespace pb
