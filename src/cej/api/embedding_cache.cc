#include "cej/api/embedding_cache.h"

#include <cstdio>
#include <utility>

namespace cej {

std::string EmbeddingCache::Key(const std::string& table,
                                const std::string& column,
                                const model::EmbeddingModel* model) {
  char model_tag[32];
  std::snprintf(model_tag, sizeof(model_tag), "%p",
                static_cast<const void*>(model));
  // '\0' cannot occur inside a column name, so it is an unambiguous
  // separator between the three key parts.
  std::string key;
  key.reserve(table.size() + column.size() + sizeof(model_tag) + 2);
  key.append(table);
  key.push_back('\0');
  key.append(column);
  key.push_back('\0');
  key.append(model_tag);
  return key;
}

const EmbeddingCache::Entry* EmbeddingCache::FindLocked(
    const std::string& key,
    const std::shared_ptr<const storage::Relation>& relation) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  const std::weak_ptr<const storage::Relation>& source = it->second.source;
  const bool same_owner =
      !source.owner_before(relation) && !relation.owner_before(source);
  return same_owner ? &it->second : nullptr;
}

std::shared_ptr<const la::Matrix> EmbeddingCache::Get(
    const std::string& table, const std::string& column,
    const model::EmbeddingModel* model,
    const std::shared_ptr<const storage::Relation>& relation) {
  if (options_.max_bytes == 0) return nullptr;
  const std::string key = Key(table, column, model);
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindLocked(key, relation);
  if (entry == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, entry->lru_it);
  return entry->matrix;
}

std::shared_ptr<const la::Matrix> EmbeddingCache::Peek(
    const std::string& table, const std::string& column,
    const model::EmbeddingModel* model,
    const std::shared_ptr<const storage::Relation>& relation) const {
  if (options_.max_bytes == 0) return nullptr;
  const std::string key = Key(table, column, model);
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindLocked(key, relation);
  return entry == nullptr ? nullptr : entry->matrix;
}

void EmbeddingCache::Put(
    const std::string& table, const std::string& column,
    const model::EmbeddingModel* model,
    const std::shared_ptr<const storage::Relation>& relation,
    std::shared_ptr<const la::Matrix> embedding) {
  if (embedding == nullptr) return;
  const size_t entry_bytes = embedding->MemoryBytes();
  if (options_.max_bytes == 0 || entry_bytes > options_.max_bytes) return;
  const std::string key = Key(table, column, model);
  std::lock_guard<std::mutex> lock(mu_);
  RemoveLocked(key);
  lru_.push_front(key);
  Entry entry;
  entry.table = table;
  entry.source = relation;
  entry.matrix = std::move(embedding);
  entry.lru_it = lru_.begin();
  entries_.emplace(key, std::move(entry));
  bytes_ += entry_bytes;
  EvictToBudgetLocked();
}

void EmbeddingCache::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.table == table) {
      bytes_ -= it->second.matrix->MemoryBytes();
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
      ++invalidations_;
    } else {
      ++it;
    }
  }
}

void EmbeddingCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_ += entries_.size();
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

EmbeddingCache::Stats EmbeddingCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.bytes = bytes_;
  s.entries = entries_.size();
  return s;
}

void EmbeddingCache::EvictToBudgetLocked() {
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.matrix->MemoryBytes();
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

void EmbeddingCache::RemoveLocked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_ -= it->second.matrix->MemoryBytes();
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace cej
