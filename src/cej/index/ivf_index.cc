#include "cej/index/ivf_index.h"

#include <algorithm>

#include "cej/common/macros.h"
#include "cej/la/matrix_io.h"
#include "cej/la/simd.h"
#include "cej/la/topk.h"

namespace cej::index {

Result<std::unique_ptr<IvfFlatIndex>> IvfFlatIndex::Build(
    la::Matrix vectors, IvfBuildOptions options, ThreadPool* pool) {
  if (vectors.rows() == 0) {
    return Status::InvalidArgument("ivf: cannot index an empty matrix");
  }
  if (options.nlist == 0) {
    return Status::InvalidArgument("ivf: nlist must be > 0");
  }
  KMeansOptions kopts;
  kopts.clusters = options.nlist;
  kopts.max_iters = options.train_iters;
  kopts.seed = options.seed;
  kopts.pool = pool;
  CEJ_ASSIGN_OR_RETURN(KMeansResult trained,
                       SphericalKMeans(vectors, kopts));
  std::vector<std::vector<uint32_t>> lists(trained.centroids.rows());
  for (uint32_t r = 0; r < vectors.rows(); ++r) {
    lists[trained.assignment[r]].push_back(r);
  }
  return std::unique_ptr<IvfFlatIndex>(
      new IvfFlatIndex(std::move(vectors), std::move(trained.centroids),
                       std::move(lists)));
}

IvfFlatIndex::IvfFlatIndex(la::Matrix vectors, la::Matrix centroids,
                           std::vector<std::vector<uint32_t>> lists)
    : vectors_(std::move(vectors)),
      centroids_(std::move(centroids)),
      lists_(std::move(lists)) {}

std::vector<uint32_t> IvfFlatIndex::ClosestLists(const float* query) const {
  const size_t nprobe = std::min(std::max<size_t>(nprobe_, 1),
                                 centroids_.rows());
  la::TopKCollector collector(nprobe);
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    collector.Push(la::Dot(query, centroids_.Row(c), centroids_.cols()), c);
  }
  distance_computations_.fetch_add(centroids_.rows(),
                                   std::memory_order_relaxed);
  std::vector<uint32_t> out;
  for (const auto& scored : collector.TakeSorted()) {
    out.push_back(static_cast<uint32_t>(scored.id));
  }
  return out;
}

std::vector<la::ScoredId> IvfFlatIndex::SearchTopK(
    const float* query, size_t k, const FilterBitmap* filter) const {
  if (k == 0) return {};
  CEJ_DCHECK(filter == nullptr || filter->size() == size());
  la::TopKCollector collector(k);
  uint64_t computations = 0;
  for (uint32_t c : ClosestLists(query)) {
    for (uint32_t id : lists_[c]) {
      // Pre-filter semantics: the list entry's distance is still computed
      // and paid before the admissibility check drops it.
      const float sim = la::Dot(query, vectors_.Row(id), vectors_.cols());
      ++computations;
      if (filter != nullptr && !(*filter)[id]) continue;
      collector.Push(sim, id);
    }
  }
  distance_computations_.fetch_add(computations,
                                   std::memory_order_relaxed);
  return collector.TakeSorted();
}

namespace {
constexpr uint32_t kIvfMagic = 0x494a4543;  // "CEJI"
constexpr uint32_t kIvfVersion = 1;
}  // namespace

Status IvfFlatIndex::SaveTo(serde::Writer& writer) const {
  CEJ_RETURN_IF_ERROR(writer.WritePod(kIvfMagic));
  CEJ_RETURN_IF_ERROR(writer.WritePod(kIvfVersion));
  CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(nprobe_));
  CEJ_RETURN_IF_ERROR(la::WriteMatrixTo(writer, vectors_));
  CEJ_RETURN_IF_ERROR(la::WriteMatrixTo(writer, centroids_));
  CEJ_RETURN_IF_ERROR(writer.WritePod<uint64_t>(lists_.size()));
  for (const auto& list : lists_) {
    CEJ_RETURN_IF_ERROR(writer.WriteArray(list.data(), list.size()));
  }
  return Status::OK();
}

Status IvfFlatIndex::Save(const std::string& path) const {
  CEJ_ASSIGN_OR_RETURN(serde::Writer writer, serde::Writer::Open(path));
  return SaveTo(writer);
}

Result<std::unique_ptr<IvfFlatIndex>> IvfFlatIndex::LoadFrom(
    serde::Reader& reader) {
  uint32_t magic = 0, version = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&magic));
  if (magic != kIvfMagic) {
    return Status::InvalidArgument("ivf load: bad magic");
  }
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&version));
  if (version != kIvfVersion) {
    return Status::InvalidArgument("ivf load: unsupported version");
  }
  uint64_t nprobe = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&nprobe));
  CEJ_ASSIGN_OR_RETURN(la::Matrix vectors, la::ReadMatrixFrom(reader));
  CEJ_ASSIGN_OR_RETURN(la::Matrix centroids, la::ReadMatrixFrom(reader));
  if (vectors.empty() || centroids.empty()) {
    return Status::InvalidArgument("ivf load: empty matrix");
  }
  uint64_t nlist = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&nlist));
  if (nlist != centroids.rows()) {
    return Status::InvalidArgument("ivf load: list/centroid count mismatch");
  }
  std::vector<std::vector<uint32_t>> lists(nlist);
  size_t members = 0;
  for (auto& list : lists) {
    CEJ_RETURN_IF_ERROR(reader.ReadArray(&list, vectors.rows()));
    for (uint32_t id : list) {
      if (id >= vectors.rows()) {
        return Status::OutOfRange("ivf load: list member out of range");
      }
    }
    members += list.size();
  }
  if (members != vectors.rows()) {
    return Status::InvalidArgument(
        "ivf load: lists do not partition the vectors");
  }
  std::unique_ptr<IvfFlatIndex> index(new IvfFlatIndex(
      std::move(vectors), std::move(centroids), std::move(lists)));
  index->set_nprobe(std::max<uint64_t>(nprobe, 1));
  return index;
}

Result<std::unique_ptr<IvfFlatIndex>> IvfFlatIndex::Load(
    const std::string& path) {
  CEJ_ASSIGN_OR_RETURN(serde::Reader reader, serde::Reader::Open(path));
  return LoadFrom(reader);
}

std::vector<la::ScoredId> IvfFlatIndex::SearchRange(
    const float* query, float threshold, const FilterBitmap* filter) const {
  CEJ_DCHECK(filter == nullptr || filter->size() == size());
  std::vector<la::ScoredId> out;
  uint64_t computations = 0;
  for (uint32_t c : ClosestLists(query)) {
    for (uint32_t id : lists_[c]) {
      const float sim = la::Dot(query, vectors_.Row(id), vectors_.cols());
      ++computations;
      if (filter != nullptr && !(*filter)[id]) continue;
      if (sim >= threshold) out.push_back({sim, id});
    }
  }
  distance_computations_.fetch_add(computations,
                                   std::memory_order_relaxed);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cej::index
