#include "checks.hpp"

#include <cmath>

#include "trees/tree_checks.hpp"

namespace pb {

std::string checkSortedUnique(const std::vector<Key>& keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i - 1] >= keys[i]) {
      return "keys out of order at position " + std::to_string(i) + ": " +
             std::to_string(keys[i - 1]) + " then " + std::to_string(keys[i]);
    }
  }
  return {};
}

std::string checkKeyTally(const std::vector<std::uint8_t>& initial,
                          const std::vector<std::int32_t>& net,
                          const std::vector<std::uint8_t>& finalPresent) {
  if (initial.size() != net.size() || initial.size() != finalPresent.size())
    return "tally tables differ in size";
  std::uint64_t bad = 0;
  std::string first;
  for (std::size_t k = 0; k < initial.size(); ++k) {
    const std::int64_t expect = initial[k] + static_cast<std::int64_t>(net[k]);
    if ((expect == 0 || expect == 1) && expect == finalPresent[k]) continue;
    if (bad++ == 0) {
      first = "key " + std::to_string(k) + ": initial " +
              std::to_string(initial[k]) + " + net " + std::to_string(net[k]) +
              " vs final " + std::to_string(finalPresent[k]);
    }
  }
  return bad == 0 ? std::string{}
                  : std::to_string(bad) + " keys break the tally, first " +
                        first;
}

std::string checkSizeTally(std::uint64_t initialSize, std::uint64_t inserts,
                           std::uint64_t erases, std::uint64_t reportedSize) {
  const auto expect = static_cast<std::int64_t>(initialSize + inserts) -
                      static_cast<std::int64_t>(erases);
  if (expect == static_cast<std::int64_t>(reportedSize)) return {};
  return "size " + std::to_string(reportedSize) + " but the tallies give " +
         std::to_string(expect);
}

std::string checkHeightBound(int height, std::uint64_t nodes) {
  const double bound = 1.44 * std::log2(static_cast<double>(nodes) + 2.0);
  if (static_cast<double>(height) <= bound) return {};
  return "height " + std::to_string(height) + " exceeds 1.44 log2(n+2) = " +
         std::to_string(bound) + " for n = " + std::to_string(nodes);
}

std::string checkExactlyOnce(const std::vector<std::uint8_t>& completions) {
  std::uint64_t never = 0, repeated = 0;
  for (const std::uint8_t c : completions) {
    never += c == 0;
    repeated += c > 1;
  }
  if (never == 0 && repeated == 0) return {};
  return std::to_string(never) + " requests never completed, " +
         std::to_string(repeated) + " completed more than once";
}

std::string checkImageCount(const std::vector<Key>& keys,
                            std::uint64_t expectedKeys) {
  if (std::string e = checkSortedUnique(keys); !e.empty()) return e;
  if (keys.size() == expectedKeys) return {};
  return "image holds " + std::to_string(keys.size()) + " keys, expected " +
         std::to_string(expectedKeys);
}

std::string checkImageEquals(
    const std::vector<std::pair<Key, Value>>& expected,
    const std::vector<std::pair<Key, Value>>& actual) {
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] != actual[i]) {
      return "first difference at position " + std::to_string(i) +
             ": expected (" + std::to_string(expected[i].first) + ", " +
             std::to_string(expected[i].second) + "), got (" +
             std::to_string(actual[i].first) + ", " +
             std::to_string(actual[i].second) + ")";
    }
  }
  if (expected.size() != actual.size()) {
    return "image holds " + std::to_string(actual.size()) +
           " pairs, expected " + std::to_string(expected.size());
  }
  return {};
}

std::string checkTreeStructure(sftree::trees::SFTree& tree) {
  const sftree::trees::CheckResult r = sftree::trees::checkSFTree(tree);
  if (!r.ok) return "checkSFTree: " + r.error;
  return checkSortedUnique(tree.keysInOrder());
}

}  // namespace pb
