#include "core/keyword_query.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace viptree {

KeywordIndex::KeywordIndex(
    const IPTree& tree, const ObjectIndex& objects,
    const std::vector<std::vector<std::string>>& keywords) {
  VIPTREE_CHECK(keywords.size() == objects.NumObjects());

  object_keywords_.resize(keywords.size());
  for (ObjectId o = 0; o < static_cast<ObjectId>(keywords.size()); ++o) {
    for (const std::string& word : keywords[o]) {
      const auto [it, _] = keyword_ids_.emplace(
          word, static_cast<KeywordId>(keyword_ids_.size()));
      object_keywords_[o].push_back(it->second);
    }
    std::sort(object_keywords_[o].begin(), object_keywords_[o].end());
    object_keywords_[o].erase(
        std::unique(object_keywords_[o].begin(), object_keywords_[o].end()),
        object_keywords_[o].end());
  }

  // Per-node keyword summaries, leaves first then propagated upward
  // (children have smaller ids than parents in the bottom-up build, so one
  // ascending pass per leaf-object suffices via the parent chain).
  node_keywords_.resize(tree.nodes().size());
  for (const TreeNode& node : tree.nodes()) {
    if (!node.is_leaf()) continue;
    std::vector<KeywordId> merged;
    for (ObjectId o : objects.ObjectsInLeaf(node.id)) {
      merged.insert(merged.end(), object_keywords_[o].begin(),
                    object_keywords_[o].end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    node_keywords_[node.id] = std::move(merged);
  }
  // Propagate up level by level.
  std::vector<NodeId> order;
  for (const TreeNode& node : tree.nodes()) {
    if (!node.is_leaf()) order.push_back(node.id);
  }
  std::sort(order.begin(), order.end(), [&tree](NodeId a, NodeId b) {
    return tree.node(a).level < tree.node(b).level;
  });
  for (NodeId nid : order) {
    std::vector<KeywordId> merged;
    for (NodeId child : tree.node(nid).children) {
      merged.insert(merged.end(), node_keywords_[child].begin(),
                    node_keywords_[child].end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    node_keywords_[nid] = std::move(merged);
  }
}

KeywordIndex::KeywordIndex(FromPartsTag, Parts parts) {
  keyword_ids_.reserve(parts.keywords_by_id.size());
  for (size_t i = 0; i < parts.keywords_by_id.size(); ++i) {
    keyword_ids_.emplace(std::move(parts.keywords_by_id[i]),
                         static_cast<KeywordId>(i));
  }
  object_keywords_ = std::move(parts.object_keywords);
  node_keywords_ = std::move(parts.node_keywords);
}

std::optional<std::string> KeywordIndex::ValidateParts(
    const IPTree& tree, const ObjectIndex& objects, const Parts& parts) {
  // Duplicate dictionary strings would silently collapse in the string ->
  // id map, making the higher id unreachable (missed keyword matches).
  {
    std::vector<const std::string*> words;
    words.reserve(parts.keywords_by_id.size());
    for (const std::string& word : parts.keywords_by_id) {
      words.push_back(&word);
    }
    std::sort(words.begin(), words.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    for (size_t i = 1; i < words.size(); ++i) {
      if (*words[i - 1] == *words[i]) {
        return "keyword dictionary contains duplicate '" + *words[i] + "'";
      }
    }
  }
  if (parts.object_keywords.size() != objects.NumObjects()) {
    return "keyword index covers " +
           std::to_string(parts.object_keywords.size()) + " objects, not " +
           std::to_string(objects.NumObjects());
  }
  if (parts.node_keywords.size() != tree.nodes().size()) {
    return "keyword index covers " +
           std::to_string(parts.node_keywords.size()) + " nodes, not " +
           std::to_string(tree.nodes().size());
  }
  const KeywordId num_keywords =
      static_cast<KeywordId>(parts.keywords_by_id.size());
  auto check_lists =
      [num_keywords](const std::vector<std::vector<KeywordId>>& lists,
                     const char* what) -> std::optional<std::string> {
    for (const std::vector<KeywordId>& list : lists) {
      if (!std::is_sorted(list.begin(), list.end())) {
        return std::string(what) + " keyword list is not sorted";
      }
      for (KeywordId k : list) {
        if (k < 0 || k >= num_keywords) {
          return std::string(what) + " keyword id out of range";
        }
      }
    }
    return std::nullopt;
  };
  if (auto error = check_lists(parts.object_keywords, "object")) return error;
  if (auto error = check_lists(parts.node_keywords, "node")) return error;
  return std::nullopt;
}

KeywordIndex KeywordIndex::FromParts(const IPTree& tree,
                                     const ObjectIndex& objects,
                                     Parts parts) {
  const std::optional<std::string> error =
      ValidateParts(tree, objects, parts);
  VIPTREE_CHECK_MSG(!error.has_value(),
                    error.has_value() ? error->c_str() : "");
  return FromValidatedParts(std::move(parts));
}

KeywordIndex KeywordIndex::FromValidatedParts(Parts parts) {
  return KeywordIndex(FromPartsTag{}, std::move(parts));
}

KeywordIndex::Parts KeywordIndex::ToParts() const {
  Parts parts;
  parts.keywords_by_id.resize(keyword_ids_.size());
  for (const auto& [word, id] : keyword_ids_) {
    parts.keywords_by_id[id] = word;
  }
  parts.object_keywords = object_keywords_;
  parts.node_keywords = node_keywords_;
  return parts;
}

bool KeywordIndex::NodeHasAll(NodeId n,
                              const std::vector<KeywordId>& wanted) const {
  const std::vector<KeywordId>& have = node_keywords_[n];
  for (KeywordId w : wanted) {
    if (!std::binary_search(have.begin(), have.end(), w)) return false;
  }
  return true;
}

bool KeywordIndex::ObjectHasAll(ObjectId o,
                                const std::vector<KeywordId>& wanted) const {
  const std::vector<KeywordId>& have = object_keywords_[o];
  for (KeywordId w : wanted) {
    if (!std::binary_search(have.begin(), have.end(), w)) return false;
  }
  return true;
}

std::optional<std::vector<KeywordIndex::KeywordId>>
KeywordIndex::ResolveKeywords(const std::vector<std::string>& query) const {
  std::vector<KeywordId> wanted;
  for (const std::string& word : query) {
    const auto it = keyword_ids_.find(word);
    if (it == keyword_ids_.end()) return std::nullopt;
    wanted.push_back(it->second);
  }
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  return wanted;
}

std::vector<ObjectResult> KeywordIndex::BooleanKnn(
    const IndoorPoint& q, size_t k, const std::vector<std::string>& query,
    const KnnQuery& knn, SearchStats* stats) const {
  const std::optional<std::vector<KeywordId>> wanted =
      ResolveKeywords(query);
  if (!wanted.has_value()) return {};  // some keyword matches no object

  KnnQuery::Filters filters;
  filters.node = [this, &wanted](NodeId n) { return NodeHasAll(n, *wanted); };
  filters.object = [this, &wanted](ObjectId o) {
    return ObjectHasAll(o, *wanted);
  };
  return knn.KnnFiltered(q, k, filters, stats);
}

uint64_t KeywordIndex::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& v : object_keywords_) {
    bytes += v.size() * sizeof(KeywordId);
  }
  for (const auto& v : node_keywords_) {
    bytes += v.size() * sizeof(KeywordId);
  }
  for (const auto& [word, id] : keyword_ids_) {
    bytes += word.size() + sizeof(KeywordId);
  }
  return bytes;
}

}  // namespace viptree
