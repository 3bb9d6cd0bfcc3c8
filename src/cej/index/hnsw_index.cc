#include "cej/index/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <queue>

#include "cej/common/macros.h"
#include "cej/common/serde.h"
#include "cej/la/matrix_io.h"
#include "cej/la/simd.h"

namespace cej::index {
namespace {

// Thread-local visited-set scratch shared by all searches on this thread.
// visited[id] == epoch marks `id` as seen in the current search.
struct VisitedScratch {
  std::vector<uint32_t> visited;
  uint32_t epoch = 0;
};

VisitedScratch& GetScratch(size_t n) {
  thread_local VisitedScratch scratch;
  if (scratch.visited.size() < n) scratch.visited.resize(n, 0);
  ++scratch.epoch;
  if (scratch.epoch == 0) {  // Wrapped: clear and restart.
    std::fill(scratch.visited.begin(), scratch.visited.end(), 0);
    scratch.epoch = 1;
  }
  return scratch;
}

}  // namespace

/// Per-node neighbour-list locks plus the global entry-point lock. Exists
/// only for the duration of a parallel Build; query-time searches never
/// lock (the graph is immutable once built).
struct HnswIndex::BuildSync {
  explicit BuildSync(size_t n) : node_locks(new std::mutex[n]) {}
  std::unique_ptr<std::mutex[]> node_locks;
  std::mutex entry_mu;
};

Result<std::unique_ptr<HnswIndex>> HnswIndex::Build(la::Matrix vectors,
                                                    HnswBuildOptions options,
                                                    ThreadPool* pool) {
  if (vectors.rows() == 0) {
    return Status::InvalidArgument("hnsw: cannot index an empty matrix");
  }
  if (options.m < 2) {
    return Status::InvalidArgument("hnsw: m must be >= 2");
  }
  if (options.ef_construction < options.m) {
    return Status::InvalidArgument("hnsw: ef_construction must be >= m");
  }
  std::unique_ptr<HnswIndex> index(new HnswIndex(std::move(vectors), options));
  const uint32_t n = static_cast<uint32_t>(index->vectors_.rows());
  // Levels are always drawn sequentially from the seeded stream (one draw
  // per node, insertion order) so the level structure — and the whole
  // graph on the pool-less path — is seed-reproducible.
  Rng level_rng(options.seed);
  std::vector<size_t> levels(n);
  for (uint32_t node = 0; node < n; ++node) {
    const double u = std::max(level_rng.NextDouble(), 1e-12);
    levels[node] = static_cast<size_t>(-std::log(u) * index->level_lambda_);
  }
  if (pool == nullptr || n < 2) {
    for (uint32_t node = 0; node < n; ++node) {
      index->Insert(node, levels[node], nullptr);
    }
  } else {
    // Pre-size every node's level lists up front: concurrent inserts then
    // only mutate inner neighbour vectors, each behind its node's lock.
    for (uint32_t node = 0; node < n; ++node) {
      index->links_[node].resize(levels[node] + 1);
    }
    index->Insert(0, levels[0], nullptr);  // Entry-point seed.
    BuildSync sync(n);
    pool->ParallelForRange(
        1, n,
        [&](size_t begin, size_t end) {
          for (size_t node = begin; node < end; ++node) {
            index->Insert(static_cast<uint32_t>(node), levels[node], &sync);
          }
        },
        /*min_chunk=*/8);
  }
  index->ResetStats();  // Construction distance counts are not probe costs.
  return index;
}

HnswIndex::HnswIndex(la::Matrix vectors, HnswBuildOptions options)
    : vectors_(std::move(vectors)),
      options_(options),
      level_lambda_(1.0 / std::log(static_cast<double>(options.m))) {
  links_.resize(vectors_.rows());
}

float HnswIndex::Similarity(const float* query, uint32_t id) const {
  distance_computations_.fetch_add(1, std::memory_order_relaxed);
  return la::Dot(query, vectors_.Row(id), vectors_.cols());
}

uint32_t HnswIndex::GreedyStep(const float* query, uint32_t entry,
                               size_t level, BuildSync* sync) const {
  uint32_t current = entry;
  float current_sim = Similarity(query, current);
  std::vector<uint32_t> copied;  // Scratch for the locked read.
  bool improved = true;
  while (improved) {
    improved = false;
    const std::vector<uint32_t>* neighbors;
    if (sync != nullptr) {
      // Parallel construction: the list may be mutated concurrently —
      // copy it under the owning node's lock and walk the copy.
      std::lock_guard<std::mutex> lock(sync->node_locks[current]);
      copied = links_[current][level];
      neighbors = &copied;
    } else {
      neighbors = &links_[current][level];
    }
    for (uint32_t neighbor : *neighbors) {
      const float sim = Similarity(query, neighbor);
      if (sim > current_sim) {
        current_sim = sim;
        current = neighbor;
        improved = true;
      }
    }
  }
  return current;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(
    const float* query, uint32_t entry, size_t ef, size_t level,
    std::vector<uint32_t>* visited_epoch, uint32_t epoch,
    BuildSync* sync) const {
  auto& visited = *visited_epoch;

  // Frontier ordered best-first; results ordered worst-first so the top is
  // the eviction candidate.
  auto frontier_less = [](const Candidate& a, const Candidate& b) {
    return a.sim < b.sim;  // max-heap on sim
  };
  auto results_less = [](const Candidate& a, const Candidate& b) {
    return a.sim > b.sim;  // min-heap on sim
  };
  std::priority_queue<Candidate, std::vector<Candidate>,
                      decltype(frontier_less)>
      frontier(frontier_less);
  std::priority_queue<Candidate, std::vector<Candidate>,
                      decltype(results_less)>
      results(results_less);

  const float entry_sim = Similarity(query, entry);
  visited[entry] = epoch;
  frontier.push({entry_sim, entry});
  results.push({entry_sim, entry});

  std::vector<uint32_t> copied;  // Scratch for locked reads (build only).
  while (!frontier.empty()) {
    const Candidate best = frontier.top();
    frontier.pop();
    if (results.size() >= ef && best.sim < results.top().sim) break;
    const std::vector<uint32_t>* neighbors;
    if (sync != nullptr) {
      std::lock_guard<std::mutex> lock(sync->node_locks[best.id]);
      copied = links_[best.id][level];
      neighbors = &copied;
    } else {
      neighbors = &links_[best.id][level];
    }
    for (uint32_t neighbor : *neighbors) {
      if (visited[neighbor] == epoch) continue;
      visited[neighbor] = epoch;
      const float sim = Similarity(query, neighbor);
      if (results.size() < ef || sim > results.top().sim) {
        frontier.push({sim, neighbor});
        results.push({sim, neighbor});
        if (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<Candidate> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  return out;
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    uint32_t node, std::vector<Candidate> candidates, size_t m) const {
  // Best-first order.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.sim > b.sim;
            });
  std::vector<uint32_t> selected;
  selected.reserve(m);
  if (!options_.select_heuristic) {
    for (const auto& c : candidates) {
      if (selected.size() >= m) break;
      if (c.id != node) selected.push_back(c.id);
    }
    return selected;
  }
  // Heuristic (Algorithm 4): admit a candidate only if it is closer to the
  // query node than to every already-selected neighbour — keeps edges
  // diverse, which preserves graph navigability in clustered data.
  for (const auto& c : candidates) {
    if (selected.size() >= m) break;
    if (c.id == node) continue;
    bool diverse = true;
    for (uint32_t s : selected) {
      const float sim_to_selected =
          la::Dot(vectors_.Row(c.id), vectors_.Row(s), vectors_.cols());
      if (sim_to_selected > c.sim) {
        diverse = false;
        break;
      }
    }
    if (diverse) selected.push_back(c.id);
  }
  // Backfill with skipped candidates if the heuristic was too strict.
  for (const auto& c : candidates) {
    if (selected.size() >= m) break;
    if (c.id == node) continue;
    if (std::find(selected.begin(), selected.end(), c.id) ==
        selected.end()) {
      selected.push_back(c.id);
    }
  }
  return selected;
}

void HnswIndex::Insert(uint32_t node, size_t level, BuildSync* sync) {
  // Parallel builds pre-size every node's level lists before fanning out;
  // only the sequential path grows them here.
  if (sync == nullptr) links_[node].resize(level + 1);

  if (node == 0) {
    entry_point_ = 0;
    max_level_ = level;
    return;
  }

  // Snapshot the entry point. Nodes that RAISE the top level hold the
  // entry lock across their whole insert (geometrically rare), so the
  // final entry_point_/max_level_ publication is atomic with the linking;
  // everyone else releases it immediately.
  uint32_t entry;
  size_t top;
  std::unique_lock<std::mutex> entry_lock;
  if (sync != nullptr) {
    entry_lock = std::unique_lock<std::mutex>(sync->entry_mu);
    entry = entry_point_;
    top = max_level_;
    if (level <= top) entry_lock.unlock();
  } else {
    entry = entry_point_;
    top = max_level_;
  }

  const float* query = vectors_.Row(node);

  // Phase 1: greedy descent through levels above the node's level.
  for (size_t l = top; l > level && l > 0; --l) {
    entry = GreedyStep(query, entry, l, sync);
  }

  // Phase 2: beam search and connect at each level from min(top, level)
  // down to 0.
  auto& scratch = GetScratch(vectors_.rows());
  for (size_t l = std::min(top, level);; --l) {
    auto candidates = SearchLayer(query, entry, options_.ef_construction, l,
                                  &scratch.visited, scratch.epoch, sync);
    // New epoch for the next layer's search.
    ++scratch.epoch;
    if (scratch.epoch == 0) {
      std::fill(scratch.visited.begin(), scratch.visited.end(), 0);
      scratch.epoch = 1;
    }
    // Entry for the next layer down: best candidate found here.
    float best_sim = -2.0f;
    for (const auto& c : candidates) {
      if (c.sim > best_sim) {
        best_sim = c.sim;
        entry = c.id;
      }
    }
    auto selected = SelectNeighbors(node, candidates, options_.m);
    const size_t max_degree = MaxDegree(l);
    {
      std::unique_lock<std::mutex> self_lock;
      if (sync != nullptr) {
        self_lock = std::unique_lock<std::mutex>(sync->node_locks[node]);
      }
      // MERGE rather than overwrite: once this node is linked at an upper
      // layer it can serve as another insert's entry into THIS layer, so
      // a concurrent backlink may already sit in the list — overwriting
      // would orphan the other node's reverse edge (parallel builds only;
      // the sequential list is always empty here). The backlink loop
      // below walks only the fresh selection: merged entries already hold
      // their reverse edge by construction.
      auto& own = links_[node][l];
      std::vector<uint32_t> merged = selected;
      for (uint32_t existing : own) {
        if (std::find(merged.begin(), merged.end(), existing) ==
            merged.end()) {
          merged.push_back(existing);
        }
      }
      if (merged.size() > max_degree) {
        // The merge can push past the degree bound (selection + up to
        // max_degree concurrent backlinks); re-shrink with the same rule
        // the backlink overflow path uses, so the invariant holds for
        // every node the moment its insert completes.
        std::vector<Candidate> mcand;
        mcand.reserve(merged.size());
        for (uint32_t mm : merged) {
          mcand.push_back(
              {la::Dot(vectors_.Row(node), vectors_.Row(mm), vectors_.cols()),
               mm});
        }
        merged = SelectNeighbors(node, std::move(mcand), max_degree);
      }
      own = std::move(merged);
    }
    // Bidirectional links, shrinking overflowing neighbours with the same
    // selection rule. At most one node lock is held at a time, so the
    // per-node discipline cannot deadlock.
    for (uint32_t neighbor : selected) {
      std::unique_lock<std::mutex> neighbor_lock;
      if (sync != nullptr) {
        neighbor_lock =
            std::unique_lock<std::mutex>(sync->node_locks[neighbor]);
      }
      auto& nlinks = links_[neighbor][l];
      nlinks.push_back(node);
      if (nlinks.size() > max_degree) {
        std::vector<Candidate> ncand;
        ncand.reserve(nlinks.size());
        for (uint32_t nn : nlinks) {
          ncand.push_back({la::Dot(vectors_.Row(neighbor), vectors_.Row(nn),
                                   vectors_.cols()),
                           nn});
        }
        nlinks = SelectNeighbors(neighbor, std::move(ncand), max_degree);
      }
    }
    if (l == 0) break;
  }

  if (level > top) {
    // Still holding the entry lock on the parallel path (see above), so
    // the read-check-update is race-free.
    max_level_ = level;
    entry_point_ = node;
  }
}

std::vector<la::ScoredId> HnswIndex::SearchTopK(
    const float* query, size_t k, const FilterBitmap* filter) const {
  if (k == 0) return {};
  CEJ_DCHECK(filter == nullptr || filter->size() == size());

  uint32_t entry = entry_point_;
  for (size_t l = max_level_; l > 0; --l) {
    entry = GreedyStep(query, entry, l);
  }
  auto& scratch = GetScratch(vectors_.rows());
  const size_t ef = std::max(ef_search_, k);
  auto candidates =
      SearchLayer(query, entry, ef, 0, &scratch.visited, scratch.epoch);

  // Pre-filter semantics: inadmissible tuples are dropped from the result
  // set after the (fully paid) traversal.
  la::TopKCollector collector(k);
  for (const auto& c : candidates) {
    if (filter != nullptr && !(*filter)[c.id]) continue;
    collector.Push(c.sim, c.id);
  }
  return collector.TakeSorted();
}

std::vector<la::ScoredId> HnswIndex::SearchRange(
    const float* query, float threshold, const FilterBitmap* filter) const {
  // Top-k mechanism with post-filtering on the threshold (see header).
  auto top = SearchTopK(query, std::max(range_probe_k_, size_t{1}), filter);
  std::vector<la::ScoredId> out;
  for (const auto& c : top) {
    if (c.score >= threshold) out.push_back(c);
  }
  return out;
}

namespace {
constexpr uint32_t kHnswMagic = 0x484a4543;  // "CEJH"
constexpr uint32_t kHnswVersion = 1;
}  // namespace

Status HnswIndex::Save(const std::string& path) const {
  CEJ_ASSIGN_OR_RETURN(serde::Writer writer, serde::Writer::Open(path));
  return SaveTo(writer);
}

Status HnswIndex::SaveTo(serde::Writer& writer) const {
  CEJ_RETURN_IF_ERROR(writer.WritePod(kHnswMagic));
  CEJ_RETURN_IF_ERROR(writer.WritePod(kHnswVersion));
  CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(options_.m));
  CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(options_.ef_construction));
  CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(options_.seed));
  CEJ_RETURN_IF_ERROR(
      writer.WritePod<uint8_t>(options_.select_heuristic ? 1 : 0));
  CEJ_RETURN_IF_ERROR(writer.WritePod<uint32_t>(entry_point_));
  CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(max_level_));
  CEJ_RETURN_IF_ERROR(la::WriteMatrixTo(writer, vectors_));
  for (const auto& node_links : links_) {
    CEJ_RETURN_IF_ERROR(
        writer.WritePod<uint64_t>(node_links.size()));
    for (const auto& level_links : node_links) {
      CEJ_RETURN_IF_ERROR(
          writer.WriteArray(level_links.data(), level_links.size()));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Load(const std::string& path) {
  CEJ_ASSIGN_OR_RETURN(serde::Reader reader, serde::Reader::Open(path));
  return LoadFrom(reader);
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::LoadFrom(serde::Reader& reader) {
  uint32_t magic = 0, version = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&magic));
  if (magic != kHnswMagic) {
    return Status::InvalidArgument("hnsw load: bad magic");
  }
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&version));
  if (version != kHnswVersion) {
    return Status::InvalidArgument("hnsw load: unsupported version");
  }
  HnswBuildOptions options;
  uint64_t m = 0, efc = 0, seed = 0;
  uint8_t heuristic = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&m));
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&efc));
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&seed));
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&heuristic));
  options.m = m;
  options.ef_construction = efc;
  options.seed = seed;
  options.select_heuristic = heuristic != 0;

  uint32_t entry_point = 0;
  uint64_t max_level = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&entry_point));
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&max_level));
  CEJ_ASSIGN_OR_RETURN(la::Matrix vectors, la::ReadMatrixFrom(reader));
  if (vectors.empty()) {
    return Status::InvalidArgument("hnsw load: empty matrix");
  }
  const uint64_t rows = vectors.rows();

  std::unique_ptr<HnswIndex> index(new HnswIndex(std::move(vectors), options));
  index->entry_point_ = entry_point;
  index->max_level_ = max_level;
  for (auto& node_links : index->links_) {
    uint64_t levels = 0;
    CEJ_RETURN_IF_ERROR(reader.ReadPod(&levels));
    if (levels > 64) {
      return Status::OutOfRange("hnsw load: implausible level count");
    }
    node_links.resize(levels);
    for (auto& level_links : node_links) {
      CEJ_RETURN_IF_ERROR(reader.ReadArray(&level_links, rows));
      for (uint32_t neighbor : level_links) {
        if (neighbor >= rows) {
          return Status::OutOfRange("hnsw load: neighbour id out of range");
        }
      }
    }
  }
  return index;
}

const std::vector<uint32_t>& HnswIndex::NeighborsAt(uint32_t node,
                                                    size_t level) const {
  CEJ_CHECK(node < links_.size());
  CEJ_CHECK(level < links_[node].size());
  return links_[node][level];
}

}  // namespace cej::index
