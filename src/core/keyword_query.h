// Spatial keyword queries — the adaptability claim of §1.3: "the proposed
// indexes can be used to answer spatial keyword queries in indoor space by
// integrating the inverted lists with the nodes of the tree, e.g., in a way
// similar to how R-tree is extended to IR-tree [10]".
//
// KeywordIndex attaches per-node keyword summaries (the union of the
// keywords of the objects in each subtree) to the IP-/VIP-Tree; a boolean
// keyword kNN query then runs the standard best-first search of
// Algorithm 5, pruning subtrees that cannot contain all query keywords.

#ifndef VIPTREE_CORE_KEYWORD_QUERY_H_
#define VIPTREE_CORE_KEYWORD_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/knn_query.h"

namespace viptree {

class KeywordIndex {
 public:
  using KeywordId = int32_t;

  // The complete serializable state: the dictionary in id order plus the
  // per-object and per-node keyword-id lists (each sorted).
  struct Parts {
    std::vector<std::string> keywords_by_id;
    std::vector<std::vector<KeywordId>> object_keywords;
    std::vector<std::vector<KeywordId>> node_keywords;
  };

  // keywords[o] is object o's keyword set; must align with `objects`.
  KeywordIndex(const IPTree& tree, const ObjectIndex& objects,
               const std::vector<std::vector<std::string>>& keywords);

  // Structural check of `parts` against the tree and object index.
  static std::optional<std::string> ValidateParts(const IPTree& tree,
                                                  const ObjectIndex& objects,
                                                  const Parts& parts);

  // Reconstructs the index from deserialized parts (the keyword tables are
  // adopted verbatim; only the string -> id map is rebuilt). Aborts on
  // malformed input (run ValidateParts first for untrusted files).
  static KeywordIndex FromParts(const IPTree& tree,
                                const ObjectIndex& objects, Parts parts);

  // Same, for callers that have *just* run ValidateParts themselves (the
  // snapshot loader): skips the redundant validation pass.
  static KeywordIndex FromValidatedParts(Parts parts);

  Parts ToParts() const;

  // The k nearest objects whose keyword sets contain *all* query keywords,
  // through a caller-supplied KnnQuery engine over the same tree and
  // objects (one per thread). Unknown keywords yield an empty result. The
  // keyword tables are immutable after construction, so a shared
  // KeywordIndex is safe as long as each thread brings its own engine.
  std::vector<ObjectResult> BooleanKnn(const IndoorPoint& q, size_t k,
                                       const std::vector<std::string>& query,
                                       const KnnQuery& knn,
                                       SearchStats* stats = nullptr) const;

  // Maps query strings to sorted, deduplicated keyword ids; nullopt when
  // any string is not in the dictionary (no indexed object can match).
  // Exposed so external readers (the live-object snapshot query) can
  // compose the same filters BooleanKnn uses.
  std::optional<std::vector<KeywordId>> ResolveKeywords(
      const std::vector<std::string>& query) const;

  // The containment predicates behind BooleanKnn's pruning, on resolved
  // ids: does node n's subtree summary / object o's keyword set contain
  // every wanted id?
  bool NodeHasAll(NodeId n, const std::vector<KeywordId>& wanted) const;
  bool ObjectHasAll(ObjectId o, const std::vector<KeywordId>& wanted) const;

  uint64_t MemoryBytes() const;

 private:
  struct FromPartsTag {};
  KeywordIndex(FromPartsTag, Parts parts);

  std::unordered_map<std::string, KeywordId> keyword_ids_;
  std::vector<std::vector<KeywordId>> object_keywords_;  // sorted per object
  std::vector<std::vector<KeywordId>> node_keywords_;    // sorted per node
};

}  // namespace viptree

#endif  // VIPTREE_CORE_KEYWORD_QUERY_H_
