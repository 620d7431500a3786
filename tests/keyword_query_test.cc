// Tests for the §1.3 spatial keyword extension: boolean keyword kNN against
// brute force over a labelled object set.

#include "core/keyword_query.h"

#include <gtest/gtest.h>

#include "ground_truth.h"
#include "synth/building_generator.h"
#include "synth/objects.h"

namespace viptree {
namespace {

struct LabelledEnv {
  Venue venue;
  D2DGraph graph;
  IPTree tree;
  std::vector<IndoorPoint> objects;
  std::vector<std::vector<std::string>> keywords;

  LabelledEnv()
      : venue([] {
          synth::BuildingConfig cfg;
          cfg.floors = 4;
          cfg.rooms_per_floor = 24;
          cfg.staircases = 2;
          return synth::GenerateStandaloneBuilding(cfg, 600);
        }()),
        graph(venue),
        tree(IPTree::Build(venue, graph)) {
    Rng rng(601);
    objects = synth::PlaceObjects(venue, 16, rng);
    // Deterministic label mix: cafes, atms, printers; some accessible.
    const std::vector<std::string> kinds = {"cafe", "atm", "printer"};
    for (size_t o = 0; o < objects.size(); ++o) {
      std::vector<std::string> words = {kinds[o % kinds.size()]};
      if (o % 2 == 0) words.push_back("accessible");
      keywords.push_back(words);
    }
  }
};

std::vector<ObjectId> BruteKeywordKnn(
    const LabelledEnv& env, const IndoorPoint& q, size_t k,
    const std::vector<std::string>& query) {
  std::vector<std::pair<double, ObjectId>> matches;
  for (ObjectId o = 0; o < static_cast<ObjectId>(env.objects.size()); ++o) {
    bool all = true;
    for (const std::string& w : query) {
      if (std::find(env.keywords[o].begin(), env.keywords[o].end(), w) ==
          env.keywords[o].end()) {
        all = false;
        break;
      }
    }
    if (!all) continue;
    matches.emplace_back(
        testing::BruteDistance(env.venue, env.graph, q, env.objects[o]), o);
  }
  std::sort(matches.begin(), matches.end());
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < std::min(k, matches.size()); ++i) {
    ids.push_back(matches[i].second);
  }
  return ids;
}

class KeywordQueryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(KeywordQueryTest, BooleanKnnMatchesBruteForce) {
  LabelledEnv env;
  const ObjectIndex index(env.tree, env.objects);
  KeywordIndex keyword_index(env.tree, index, env.keywords);
  const KnnQuery knn(env.tree, index);
  const std::vector<std::string> query = {GetParam()};

  Rng rng(602);
  for (int i = 0; i < 15; ++i) {
    const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
    const auto expected = BruteKeywordKnn(env, q, 3, query);
    const auto actual = keyword_index.BooleanKnn(q, 3, query, knn);
    ASSERT_EQ(actual.size(), expected.size()) << GetParam();
    for (size_t j = 0; j < actual.size(); ++j) {
      EXPECT_NEAR(
          actual[j].distance,
          testing::BruteDistance(env.venue, env.graph, q,
                                 env.objects[expected[j]]),
          1e-3);
      // All results must carry the keyword.
      const auto& words = env.keywords[actual[j].object];
      EXPECT_NE(std::find(words.begin(), words.end(), GetParam()),
                words.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Words, KeywordQueryTest,
                         ::testing::Values("cafe", "atm", "printer",
                                           "accessible"));

TEST(KeywordQueryTest, ConjunctiveQuery) {
  LabelledEnv env;
  const ObjectIndex index(env.tree, env.objects);
  KeywordIndex keyword_index(env.tree, index, env.keywords);
  const KnnQuery knn(env.tree, index);
  Rng rng(603);
  const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
  // "accessible cafe" = the paper's motivating "accessible toilets" query.
  const auto results =
      keyword_index.BooleanKnn(q, 5, {"cafe", "accessible"}, knn);
  const auto expected = BruteKeywordKnn(env, q, 5, {"cafe", "accessible"});
  ASSERT_EQ(results.size(), expected.size());
  for (const ObjectResult& r : results) {
    const auto& words = env.keywords[r.object];
    EXPECT_NE(std::find(words.begin(), words.end(), "cafe"), words.end());
    EXPECT_NE(std::find(words.begin(), words.end(), "accessible"),
              words.end());
  }
}

TEST(KeywordQueryTest, UnknownKeywordReturnsEmpty) {
  LabelledEnv env;
  const ObjectIndex index(env.tree, env.objects);
  KeywordIndex keyword_index(env.tree, index, env.keywords);
  const KnnQuery knn(env.tree, index);
  Rng rng(604);
  const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
  EXPECT_TRUE(keyword_index.BooleanKnn(q, 3, {"helipad"}, knn).empty());
}

TEST(KeywordQueryTest, EmptyQueryIsPlainKnn) {
  LabelledEnv env;
  const ObjectIndex index(env.tree, env.objects);
  KeywordIndex keyword_index(env.tree, index, env.keywords);
  KnnQuery plain(env.tree, index);
  Rng rng(605);
  const IndoorPoint q = synth::RandomIndoorPoint(env.venue, rng);
  const auto with = keyword_index.BooleanKnn(q, 4, {}, plain);
  const auto without = plain.Knn(q, 4);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_DOUBLE_EQ(with[i].distance, without[i].distance);
  }
}

}  // namespace
}  // namespace viptree
