#include "cej/index/index_manager.h"

#include <algorithm>
#include <utility>

#include "cej/api/embedding_cache.h"
#include "cej/common/timer.h"
#include "cej/index/flat_index.h"
#include "cej/storage/column.h"

namespace cej::index {
namespace {

constexpr uint32_t kEnvelopeMagic = 0x584a4543;  // "CEJX"
constexpr uint32_t kEnvelopeVersion = 1;

// Keys join the parts with NUL — unlike '.', it cannot occur in a
// practical table/column name, so "a.b"."c" and "a"."b.c" never collide
// in lookup or in the prefix scans below.
std::string CatalogKey(const std::string& table, const std::string& column) {
  std::string key = table;
  key.push_back('\0');
  key += column;
  return key;
}

std::string LossKeyPrefix(const std::string& table) {
  std::string prefix = table;
  prefix.push_back('\0');
  return prefix;
}

std::string LossKey(const std::string& table, const std::string& column,
                    const model::EmbeddingModel* model) {
  std::string key = CatalogKey(table, column);
  key.push_back('\0');
  key += std::to_string(reinterpret_cast<uintptr_t>(model));
  return key;
}

}  // namespace

IndexFamily ChooseIndexFamily(double avg_left_rows, size_t table_rows,
                              bool topk_dominated, double recall_target) {
  // The exact family is the only one that can GUARANTEE recall; it is
  // also strictly best on small tables, where brute-force probes beat any
  // structure's traversal overhead and the build is a no-op.
  constexpr size_t kSmallTableRows = 20'000;
  constexpr double kGraphWorthyBatch = 32.0;
  if (recall_target >= 0.999) return IndexFamily::kFlat;
  if (table_rows < kSmallTableRows) return IndexFamily::kFlat;
  // Large approximate-tolerant tables: graph beam search is the small-k
  // sweet spot, but its build is the most expensive of the three — only
  // worth it when the observed probe batches are big enough to amortize.
  // Range/threshold-dominated workloads (and trickles of tiny batches)
  // take IVF: cluster scans cover ranges without per-probe beam tuning
  // and build an order of magnitude cheaper.
  if (topk_dominated && avg_left_rows >= kGraphWorthyBatch) {
    return IndexFamily::kHnsw;
  }
  return IndexFamily::kIvf;
}

const char* IndexFamilyName(IndexFamily family) {
  switch (family) {
    case IndexFamily::kFlat:
      return "flat";
    case IndexFamily::kIvf:
      return "ivf";
    case IndexFamily::kHnsw:
      return "hnsw";
    case IndexFamily::kUnknown:
      break;
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// IndexCatalogSnapshot
// ---------------------------------------------------------------------------

const IndexCatalogEntry* IndexCatalogSnapshot::FindExact(
    const std::string& key, const model::EmbeddingModel* model) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return nullptr;
  // Most recent publication wins; external entries match any model (the
  // caller vouched for alignment when registering them).
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (rit->external || rit->model == model) return &*rit;
  }
  return nullptr;
}

uint64_t IndexCatalogSnapshot::TableGeneration(
    const std::string& table) const {
  auto it = generations_.find(table);
  return it == generations_.end() ? 0 : it->second;
}

const IndexCatalogEntry* IndexCatalogSnapshot::Find(
    const std::string& table, const std::string& column,
    const model::EmbeddingModel* model) const {
  if (const IndexCatalogEntry* entry =
          FindExact(CatalogKey(table, column), model)) {
    return entry;
  }
  // The optimizer hoists string keys into "<key>_emb" embedding columns;
  // an index registered (or built) for the key column covers them. An
  // explicit "<key>_emb" registration was already preferred above.
  constexpr const char kEmbSuffix[] = "_emb";
  constexpr size_t kSuffixLen = sizeof(kEmbSuffix) - 1;
  if (column.size() > kSuffixLen &&
      column.compare(column.size() - kSuffixLen, kSuffixLen, kEmbSuffix) ==
          0) {
    return FindExact(
        CatalogKey(table, column.substr(0, column.size() - kSuffixLen)),
        model);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// IndexManager
// ---------------------------------------------------------------------------

IndexManager::IndexManager(Options options, ThreadPool* pool,
                           EmbeddingCache* cache)
    : options_(std::move(options)),
      pool_(pool),
      cache_(cache),
      snapshot_(std::make_shared<const IndexCatalogSnapshot>()) {}

IndexManager::~IndexManager() { WaitForBackgroundBuilds(); }

Result<std::shared_ptr<const la::Matrix>> IndexManager::SourceVectors(
    const std::string& table,
    const std::shared_ptr<const storage::Relation>& relation,
    const std::string& column, const model::EmbeddingModel* model,
    uint64_t generation, IndexBuildStats* stats) {
  CEJ_ASSIGN_OR_RETURN(const storage::Column* col,
                       relation->ColumnByName(column));
  stats->rows = relation->num_rows();
  if (relation->num_rows() == 0) {
    return Status::InvalidArgument("BuildIndex: table '" + table +
                                   "' is empty");
  }
  if (col->type() == storage::DataType::kVector) {
    // Stored vector column: shared straight from the column (the index
    // may outlive the table registration — snapshot pinning handles it).
    return col->shared_vector_values();
  }
  if (col->type() != storage::DataType::kString) {
    return Status::InvalidArgument(
        "BuildIndex: column '" + column +
        "' is neither a vector nor a string column");
  }
  if (model == nullptr || model->dim() == 0) {
    return Status::InvalidArgument(
        "BuildIndex: string column '" + column +
        "' needs an embedding model");
  }
  // Serve from the engine's embedding cache when warm; embed pool-parallel
  // (and warm the cache) otherwise — the same sourcing discipline the
  // executor's Embed nodes use.
  if (cache_ != nullptr) {
    std::shared_ptr<const la::Matrix> hit =
        cache_->Get(table, column, model, relation);
    if (hit != nullptr && hit->rows() == relation->num_rows() &&
        hit->cols() == model->dim()) {
      stats->embedding_cache_hit = true;
      return hit;
    }
  }
  WallTimer timer;
  auto fresh = std::make_shared<const la::Matrix>(
      model->EmbedBatch(col->string_values(), pool_));
  stats->embed_seconds = timer.ElapsedSeconds();
  stats->model_calls += fresh->rows();
  if (cache_ != nullptr) {
    // Warm the cache only if the table wasn't replaced while we embedded:
    // a stale Put would park OLD-contents embeddings under the live key
    // (the same guard PublishIfCurrent applies to the index itself).
    bool current;
    {
      std::lock_guard<std::mutex> lock(mu_);
      current = table_generations_[table] == generation;
    }
    if (current) cache_->Put(table, column, model, relation, fresh);
  }
  return fresh;
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::Construct(
    std::shared_ptr<const la::Matrix> vectors,
    const IndexBuildOptions& options, IndexBuildStats* stats) {
  stats->family = options.family;
  WallTimer timer;
  std::shared_ptr<const VectorIndex> built;
  switch (options.family) {
    case IndexFamily::kFlat: {
      // Zero-copy: the flat family only reads, so it shares the sourced
      // matrix (a cache hit costs no index-side memory at all).
      built = std::make_shared<const FlatIndex>(std::move(vectors));
      break;
    }
    case IndexFamily::kIvf: {
      CEJ_ASSIGN_OR_RETURN(
          std::unique_ptr<IvfFlatIndex> ivf,
          IvfFlatIndex::Build(vectors->Clone(), options.ivf, pool_));
      if (options.ivf_nprobe > 0) ivf->set_nprobe(options.ivf_nprobe);
      built = std::move(ivf);
      break;
    }
    case IndexFamily::kHnsw: {
      CEJ_ASSIGN_OR_RETURN(
          std::unique_ptr<HnswIndex> hnsw,
          HnswIndex::Build(vectors->Clone(), options.hnsw, pool_));
      if (options.hnsw_ef_search > 0) {
        hnsw->set_ef_search(options.hnsw_ef_search);
      }
      if (options.hnsw_range_probe_k > 0) {
        hnsw->set_range_probe_k(options.hnsw_range_probe_k);
      }
      built = std::move(hnsw);
      break;
    }
    case IndexFamily::kUnknown:
      return Status::InvalidArgument(
          "BuildIndex: family must be flat, ivf or hnsw");
  }
  stats->build_seconds = timer.ElapsedSeconds();
  return built;
}

void IndexManager::PublishLocked(IndexCatalogEntry entry) {
  auto& publications = catalog_[CatalogKey(entry.table, entry.column)];
  if (!entry.external) {
    // A rebuild replaces its predecessor for the same (model, family);
    // snapshots taken earlier keep the old shared_ptr alive.
    publications.erase(
        std::remove_if(publications.begin(), publications.end(),
                       [&](const IndexCatalogEntry& existing) {
                         return !existing.external &&
                                existing.model == entry.model &&
                                existing.family == entry.family;
                       }),
        publications.end());
  }
  publications.push_back(std::move(entry));
  RebuildSnapshotLocked();
}

void IndexManager::RebuildSnapshotLocked() {
  auto fresh = std::make_shared<IndexCatalogSnapshot>();
  fresh->by_key_ = catalog_;
  fresh->generations_ = table_generations_;
  fresh->entries_ = 0;
  for (const auto& [key, publications] : catalog_) {
    fresh->entries_ += publications.size();
  }
  snapshot_ = std::move(fresh);
}

uint64_t IndexManager::TableGeneration(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_generations_.find(table);
  return it == table_generations_.end() ? 0 : it->second;
}

Result<IndexBuildStats> IndexManager::Build(
    const std::string& table,
    std::shared_ptr<const storage::Relation> relation,
    const std::string& column, const model::EmbeddingModel* model,
    const IndexBuildOptions& options, uint64_t generation) {
  if (relation == nullptr) {
    return Status::InvalidArgument("BuildIndex: null table");
  }
  CEJ_ASSIGN_OR_RETURN(const storage::Column* col,
                       relation->ColumnByName(column));
  const bool string_column = col->type() == storage::DataType::kString;
  IndexBuildStats stats;
  CEJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const la::Matrix> vectors,
      SourceVectors(table, relation, column, model, generation, &stats));
  CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const VectorIndex> built,
                       Construct(std::move(vectors), options, &stats));

  IndexCatalogEntry entry;
  entry.index = std::move(built);
  entry.family = options.family;
  entry.model = string_column ? model : nullptr;
  entry.external = false;
  entry.build_seconds = stats.build_seconds;
  entry.table = table;
  entry.column = column;
  CEJ_RETURN_IF_ERROR(PublishIfCurrent(std::move(entry), generation));
  return stats;
}

Status IndexManager::PublishIfCurrent(IndexCatalogEntry entry,
                                      uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (table_generations_[entry.table] != generation) {
    ++stats_.stale_builds_discarded;
    return Status::NotFound("BuildIndex: table '" + entry.table +
                            "' was replaced while the index was building — "
                            "rebuild against the new contents");
  }
  const double build_seconds = entry.build_seconds;
  PublishLocked(std::move(entry));
  ++stats_.builds;
  stats_.build_seconds += build_seconds;
  return Status::OK();
}

Status IndexManager::RegisterExternal(const std::string& table,
                                      const std::string& column,
                                      const VectorIndex* index) {
  if (index == nullptr) {
    return Status::InvalidArgument("RegisterIndex: null index");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = CatalogKey(table, column);
  auto it = catalog_.find(key);
  if (it != catalog_.end()) {
    for (const IndexCatalogEntry& existing : it->second) {
      if (existing.external) {
        return Status::AlreadyExists("index for '" + table + "." + column +
                                     "' already registered");
      }
    }
  }
  IndexCatalogEntry entry;
  // Borrowed: lifetime stays the caller's responsibility (the legacy
  // RegisterIndex contract). The no-op deleter lets external and
  // manager-owned entries share one snapshot representation.
  entry.index = std::shared_ptr<const VectorIndex>(
      index, [](const VectorIndex*) {});
  entry.family = IndexFamily::kUnknown;
  entry.model = nullptr;
  entry.external = true;
  entry.table = table;
  entry.column = column;
  PublishLocked(std::move(entry));
  return Status::OK();
}

void IndexManager::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  // Bump BEFORE dropping entries: in-flight builds that captured the old
  // generation discard their result at publish time (PublishIfCurrent).
  ++table_generations_[table];
  for (auto it = catalog_.begin(); it != catalog_.end();) {
    if (it->second.empty() || it->second.front().table != table) {
      ++it;
      continue;
    }
    stats_.invalidations += it->second.size();
    it = catalog_.erase(it);
  }
  // Reset the loss ledger for the table: counts (and any build-started
  // latch) refer to the replaced contents.
  const std::string prefix = LossKeyPrefix(table);
  for (auto it = losses_.begin(); it != losses_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = losses_.erase(it);
    } else {
      ++it;
    }
  }
  // Unconditional: even with no entries dropped, new snapshots must see
  // the bumped generation (RecordIndexLoss hands it to auto-builds).
  RebuildSnapshotLocked();
}

std::shared_ptr<const IndexCatalogSnapshot> IndexManager::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

void IndexManager::RecordIndexLoss(
    const std::string& table,
    std::shared_ptr<const storage::Relation> relation,
    const std::string& column, const model::EmbeddingModel* model,
    uint64_t generation, const IndexLossContext& context) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.losses_recorded;
  if (options_.auto_build_after_losses == 0) return;
  LossEntry& entry = losses_[LossKey(table, column, model)];
  if (entry.build_started) return;
  ++entry.count;
  entry.sum_left_rows += static_cast<double>(context.left_rows);
  if (context.topk) ++entry.topk_losses;
  if (context.table_rows > 0) entry.table_rows = context.table_rows;
  if (entry.count < options_.auto_build_after_losses) return;
  entry.build_started = true;
  ++stats_.auto_builds;
  // Family-aware policy: pick the family from what the LOSING QUERIES
  // looked like — average probe batch, dominant condition kind, table
  // size — rather than one configured family for every workload.
  IndexBuildOptions build_options = options_.auto_build;
  if (options_.family_aware) {
    const size_t table_rows =
        entry.table_rows > 0 ? entry.table_rows : relation->num_rows();
    build_options.family = ChooseIndexFamily(
        entry.sum_left_rows / static_cast<double>(entry.count), table_rows,
        entry.topk_losses * 2 >= entry.count,
        options_.auto_build_recall_target);
  }
  // Reap finished builders first so long-lived engines don't accumulate
  // joinable zombie threads between WaitForBackgroundBuilds calls.
  ReapFinishedBuildsLocked();
  // Everything the builder needs was captured at PLAN time — relation
  // and generation belong together, so a table replaced since the plan
  // (or while the build runs) discards the result at publish instead of
  // publishing an index over the old contents.
  BackgroundBuild build;
  build.done = std::make_shared<std::atomic<bool>>(false);
  build.thread = std::thread(
      [this, table, relation = std::move(relation), column, model,
       generation, build_options, done = build.done] {
        auto built = Build(table, relation, column, model, build_options,
                           generation);
        if (!built.ok()) {
          // Failed (e.g. the policy family cannot serve this column, or
          // the table was replaced mid-build): reset the latch so later
          // losses may retry after the threshold accumulates again.
          std::lock_guard<std::mutex> relock(mu_);
          losses_[LossKey(table, column, model)] = LossEntry{};
        }
        done->store(true, std::memory_order_release);
      });
  background_builds_.push_back(std::move(build));
}

void IndexManager::ReapFinishedBuildsLocked() {
  for (auto it = background_builds_.begin();
       it != background_builds_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();  // Already past its last statement: returns fast.
      it = background_builds_.erase(it);
    } else {
      ++it;
    }
  }
}

Status IndexManager::Save(const std::string& table, const std::string& column,
                          const std::string& path) const {
  IndexCatalogEntry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(CatalogKey(table, column));
    if (it == catalog_.end()) {
      return Status::NotFound("SaveIndex: no index for '" + table + "." +
                              column + "'");
    }
    // Most recent manager-built publication; external entries are opaque
    // (unknown family) and cannot be serialized.
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (!rit->external) {
        entry = *rit;
        break;
      }
    }
  }
  if (entry.index == nullptr) {
    return Status::InvalidArgument(
        "SaveIndex: only manager-built indexes can be saved (external "
        "registrations are opaque)");
  }
  CEJ_ASSIGN_OR_RETURN(serde::Writer writer, serde::Writer::Open(path));
  CEJ_RETURN_IF_ERROR(writer.WritePod(kEnvelopeMagic));
  CEJ_RETURN_IF_ERROR(writer.WritePod(kEnvelopeVersion));
  CEJ_RETURN_IF_ERROR(
      writer.WritePod<uint8_t>(static_cast<uint8_t>(entry.family)));
  switch (entry.family) {
    case IndexFamily::kFlat:
      return static_cast<const FlatIndex&>(*entry.index).SaveTo(writer);
    case IndexFamily::kIvf:
      return static_cast<const IvfFlatIndex&>(*entry.index).SaveTo(writer);
    case IndexFamily::kHnsw: {
      const auto& hnsw = static_cast<const HnswIndex&>(*entry.index);
      // The graph format predates the probe knobs; the envelope carries
      // them so a loaded index probes exactly like the saved one.
      CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(hnsw.ef_search()));
      CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(hnsw.range_probe_k()));
      return hnsw.SaveTo(writer);
    }
    case IndexFamily::kUnknown:
      break;
  }
  return Status::Internal("SaveIndex: unserializable family");
}

Result<IndexBuildStats> IndexManager::Load(
    const std::string& table,
    std::shared_ptr<const storage::Relation> relation,
    const std::string& column, const model::EmbeddingModel* model,
    const std::string& path, uint64_t generation) {
  if (relation == nullptr) {
    return Status::InvalidArgument("LoadIndex: null table");
  }
  WallTimer timer;
  CEJ_ASSIGN_OR_RETURN(serde::Reader reader, serde::Reader::Open(path));
  uint32_t magic = 0, version = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&magic));
  if (magic != kEnvelopeMagic) {
    return Status::InvalidArgument("LoadIndex: '" + path +
                                   "' is not an index envelope");
  }
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&version));
  if (version != kEnvelopeVersion) {
    return Status::InvalidArgument("LoadIndex: unsupported envelope version");
  }
  uint8_t family_tag = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&family_tag));
  const IndexFamily family = static_cast<IndexFamily>(family_tag);
  std::shared_ptr<const VectorIndex> loaded;
  switch (family) {
    case IndexFamily::kFlat: {
      CEJ_ASSIGN_OR_RETURN(std::unique_ptr<FlatIndex> flat,
                           FlatIndex::LoadFrom(reader));
      loaded = std::move(flat);
      break;
    }
    case IndexFamily::kIvf: {
      CEJ_ASSIGN_OR_RETURN(std::unique_ptr<IvfFlatIndex> ivf,
                           IvfFlatIndex::LoadFrom(reader));
      loaded = std::move(ivf);
      break;
    }
    case IndexFamily::kHnsw: {
      uint64_t ef_search = 0, range_probe_k = 0;
      CEJ_RETURN_IF_ERROR(reader.ReadPod(&ef_search));
      CEJ_RETURN_IF_ERROR(reader.ReadPod(&range_probe_k));
      CEJ_ASSIGN_OR_RETURN(std::unique_ptr<HnswIndex> hnsw,
                           HnswIndex::LoadFrom(reader));
      if (ef_search > 0) hnsw->set_ef_search(ef_search);
      if (range_probe_k > 0) hnsw->set_range_probe_k(range_probe_k);
      loaded = std::move(hnsw);
      break;
    }
    default:
      return Status::InvalidArgument("LoadIndex: unknown index family tag");
  }

  // The envelope carries no provenance; alignment is validated
  // structurally against the CURRENT table contents.
  if (loaded->size() != relation->num_rows()) {
    return Status::InvalidArgument(
        "LoadIndex: index covers " + std::to_string(loaded->size()) +
        " rows but table '" + table + "' has " +
        std::to_string(relation->num_rows()));
  }
  CEJ_ASSIGN_OR_RETURN(const storage::Column* col,
                       relation->ColumnByName(column));
  const bool string_column = col->type() == storage::DataType::kString;
  const size_t expected_dim =
      string_column ? (model != nullptr ? model->dim() : 0)
                    : col->vector_dim();
  if (string_column && (model == nullptr || model->dim() == 0)) {
    return Status::InvalidArgument(
        "LoadIndex: string column '" + column +
        "' needs an embedding model");
  }
  if (loaded->dim() != expected_dim) {
    return Status::InvalidArgument(
        "LoadIndex: index dimensionality " + std::to_string(loaded->dim()) +
        " does not match column '" + column + "' (" +
        std::to_string(expected_dim) + ")");
  }

  IndexBuildStats stats;
  stats.family = family;
  stats.rows = loaded->size();
  stats.build_seconds = timer.ElapsedSeconds();

  IndexCatalogEntry entry;
  entry.index = std::move(loaded);
  entry.family = family;
  entry.model = string_column ? model : nullptr;
  entry.external = false;
  entry.build_seconds = stats.build_seconds;
  entry.table = table;
  entry.column = column;
  CEJ_RETURN_IF_ERROR(PublishIfCurrent(std::move(entry), generation));
  return stats;
}

void IndexManager::WaitForBackgroundBuilds() {
  while (true) {
    std::vector<BackgroundBuild> joinable;
    {
      std::lock_guard<std::mutex> lock(mu_);
      joinable.swap(background_builds_);
    }
    if (joinable.empty()) return;
    for (BackgroundBuild& build : joinable) build.thread.join();
  }
}

IndexManager::Stats IndexManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cej::index
