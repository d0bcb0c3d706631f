// Feeds every output check of the benchmark a correct input, which must
// pass, and a deliberately corrupted one, which must fail.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trees/sftree.hpp"

namespace {

int failures = 0;

void expect(bool passes, const std::string& verdict, const char* what) {
  const bool ok = passes ? verdict.empty() : !verdict.empty();
  std::printf("%s  %s%s%s\n", ok ? "ok  " : "FAIL", what,
              verdict.empty() ? "" : "  -> ", verdict.c_str());
  failures += ok ? 0 : 1;
}

std::unique_ptr<sftree::trees::SFTree> unmaintainedTree(
    const std::vector<pb::Key>& keys) {
  sftree::trees::SFTreeConfig cfg;
  cfg.startMaintenance = false;
  auto tree = std::make_unique<sftree::trees::SFTree>(cfg);
  for (const pb::Key k : keys) tree->insert(k, k * 10);
  return tree;
}

}  // namespace

int main() {
  using pb::Key;
  using pb::Value;

  expect(true, pb::checkSortedUnique({1, 2, 3}), "sorted keys");
  expect(false, pb::checkSortedUnique({1, 3, 2}), "keys out of order");
  expect(false, pb::checkSortedUnique({1, 2, 2}), "a key listed twice");

  {
    // A tree whose BST order is broken: swap the children of the top node.
    const auto tree = unmaintainedTree({4, 2, 6, 1, 3, 5, 7});
    expect(true, pb::checkTreeStructure(*tree), "intact tree");
    sftree::trees::SFNode* top = tree->rootForTest()->left.loadRelaxed();
    sftree::trees::SFNode* l = top->left.loadRelaxed();
    top->left.storeRelaxed(top->right.loadRelaxed());
    top->right.storeRelaxed(l);
    expect(false, pb::checkTreeStructure(*tree), "tree with broken BST order");
  }

  // Key 0 present and erased, key 1 absent and inserted, key 2 untouched.
  const std::vector<std::uint8_t> initial = {1, 0, 1};
  const std::vector<std::uint8_t> final = {0, 1, 1};
  expect(true, pb::checkKeyTally(initial, {-1, 1, 0}, final), "tally");
  expect(false, pb::checkKeyTally(initial, {-1, 0, 0}, final),
         "tally with a flipped insert result");
  expect(false, pb::checkKeyTally(initial, {-1, 1, 1}, {0, 1, 1}),
         "tally inserting a present key");

  expect(true, pb::checkSizeTally(100, 7, 5, 102), "size tally");
  expect(false, pb::checkSizeTally(100, 7, 5, 103),
         "size tally with a lost erase");

  expect(true, pb::checkHeightBound(7, 127), "balanced height");
  {
    std::vector<Key> ascending;
    for (Key k = 1; k <= 64; ++k) ascending.push_back(k);
    const auto chain = unmaintainedTree(ascending);
    expect(false, pb::checkHeightBound(chain->height(), chain->structuralSize()),
           "unbalanced chain of 64 keys");
  }

  expect(true, pb::checkExactlyOnce({1, 1, 1}), "every request once");
  expect(false, pb::checkExactlyOnce({1, 2, 1}), "a request completed twice");
  expect(false, pb::checkExactlyOnce({1, 0, 1}), "a request never completed");

  expect(true, pb::checkImageCount({1, 2, 3}, 3), "image count");
  expect(false, pb::checkImageCount({1, 3}, 3), "a key dropped from an image");
  expect(false, pb::checkImageCount({1, 2, 2, 3}, 3),
         "a key duplicated in an image");

  const std::vector<std::pair<Key, Value>> image = {{1, 10}, {2, 20}, {3, 30}};
  expect(true, pb::checkImageEquals(image, image), "restored image");
  expect(false, pb::checkImageEquals(image, {{1, 10}, {3, 30}}),
         "a key dropped from a restored image");
  expect(false, pb::checkImageEquals(image, {{1, 10}, {2, 21}, {3, 30}}),
         "a restored value changed");

  std::printf("%s: %d check(s) misjudged\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
