// Engine-owned cache of full-column embeddings, keyed by
// (table, column, model) and tied to the relation snapshot they were
// computed from.
//
// Model invocation dominates context-enhanced join cost (paper Section V),
// and a registered table's key column embeds to the same matrix on every
// query — so the executor embeds a base-table column once, parks the
// matrix here, and every later query over the same (table, column, model)
// reuses it with zero model calls (filtered queries gather the surviving
// rows out of the cached full-table matrix). Each entry remembers (weakly)
// the relation it embeds; a lookup with any other relation — a plan made
// before or after Engine::ReplaceTable swapped the table's contents — is
// a miss, so one snapshot's vectors are never served to another. Entries
// are also dropped when a table is re-registered and evicted LRU-first
// under a byte budget.
//
// Thread-safe: queries running concurrently share the cache. Cached
// matrices are handed out as shared_ptr so an eviction or invalidation
// never pulls memory out from under a running query.

#ifndef CEJ_API_EMBEDDING_CACHE_H_
#define CEJ_API_EMBEDDING_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cej/la/matrix.h"

namespace cej::model {
class EmbeddingModel;
}

namespace cej::storage {
class Relation;
}

namespace cej {

/// LRU cache of per-(table, column, model) embedding matrices.
class EmbeddingCache {
 public:
  struct Options {
    /// Total budget for cached matrices, in bytes. Inserting past the
    /// budget evicts least-recently-used entries; an entry larger than the
    /// whole budget is not cached at all. 0 disables caching entirely.
    size_t max_bytes = size_t{256} << 20;
  };

  /// Point-in-time counters (monotonic except bytes/entries).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    size_t bytes = 0;
    size_t entries = 0;
  };

  EmbeddingCache() = default;
  explicit EmbeddingCache(Options options) : options_(options) {}

  EmbeddingCache(const EmbeddingCache&) = delete;
  EmbeddingCache& operator=(const EmbeddingCache&) = delete;

  /// The cached full-table embedding of `table`.`column` under `model`
  /// computed from `relation` (the caller's snapshot of `table`), or
  /// nullptr — also when the entry was computed from another snapshot. A
  /// hit refreshes the entry's recency.
  std::shared_ptr<const la::Matrix> Get(
      const std::string& table, const std::string& column,
      const model::EmbeddingModel* model,
      const std::shared_ptr<const storage::Relation>& relation);

  /// Like Get, but side-effect-free: neither the LRU order nor the
  /// hit/miss counters move. The planner peeks at expected cache state to
  /// price warm-column joins (cache-aware costing) without perturbing the
  /// statistics queries observe.
  std::shared_ptr<const la::Matrix> Peek(
      const std::string& table, const std::string& column,
      const model::EmbeddingModel* model,
      const std::shared_ptr<const storage::Relation>& relation) const;

  /// Parks a full-table embedding computed from `relation`, evicting LRU
  /// entries until the budget holds. Replaces any existing entry for the
  /// key. Copy-free: the caller keeps using the same matrix it handed over
  /// (e.g. inside a result column).
  void Put(const std::string& table, const std::string& column,
           const model::EmbeddingModel* model,
           const std::shared_ptr<const storage::Relation>& relation,
           std::shared_ptr<const la::Matrix> embedding);

  /// Drops every entry belonging to `table` (any column, any model) —
  /// the re-registration hook.
  void InvalidateTable(const std::string& table);

  void Clear();

  Stats stats() const;

 private:
  struct Entry {
    std::string table;
    // The snapshot the matrix embeds. Held weakly: the cache must not keep
    // a replaced table alive, and the control block outlives the relation,
    // so a later relation can never compare equal to it.
    std::weak_ptr<const storage::Relation> source;
    std::shared_ptr<const la::Matrix> matrix;
    std::list<std::string>::iterator lru_it;
  };

  static std::string Key(const std::string& table, const std::string& column,
                         const model::EmbeddingModel* model);
  // The entry under `key` computed from `relation`, or nullptr.
  const Entry* FindLocked(
      const std::string& key,
      const std::shared_ptr<const storage::Relation>& relation) const;
  void EvictToBudgetLocked();
  void RemoveLocked(const std::string& key);

  Options options_;
  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<std::string> lru_;
  std::unordered_map<std::string, Entry> entries_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace cej

#endif  // CEJ_API_EMBEDDING_CACHE_H_
