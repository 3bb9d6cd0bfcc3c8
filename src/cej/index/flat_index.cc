#include "cej/index/flat_index.h"

#include <algorithm>
#include <utility>

#include "cej/la/matrix_io.h"
#include "cej/la/simd.h"

namespace cej::index {

FlatIndex::FlatIndex(la::Matrix vectors)
    : FlatIndex(std::make_shared<const la::Matrix>(std::move(vectors))) {}

FlatIndex::FlatIndex(std::shared_ptr<const la::Matrix> vectors)
    : vectors_(std::move(vectors)) {
  CEJ_CHECK(vectors_ != nullptr);
}

namespace {

// Rows scored per DotOneToMany call: a 1 KB score buffer.
constexpr size_t kScoreBlockRows = 256;

// Scores every row of `vectors` that `filter` admits, one contiguous run of
// admitted rows at a time, and hands each (score, row) to `emit` in row
// order. DotOneToMany returns Dot's bits, so the scores are those of a
// per-row loop; rejected rows are never scored. Returns the rows scored.
template <typename Emit>
uint64_t ScoreAdmittedRows(const la::Matrix& vectors, const float* query,
                           const FilterBitmap* filter, Emit&& emit) {
  const size_t n = vectors.rows();
  float scores[kScoreBlockRows];
  uint64_t scored = 0;
  size_t r = 0;
  while (r < n) {
    if (filter != nullptr && !(*filter)[r]) {
      ++r;
      continue;
    }
    const size_t limit = std::min(n, r + kScoreBlockRows);
    size_t end = r + 1;
    while (end < limit && (filter == nullptr || (*filter)[end])) ++end;
    la::DotOneToMany(query, vectors.Row(r), end - r, vectors.cols(), scores);
    for (size_t i = r; i < end; ++i) emit(scores[i - r], i);
    scored += end - r;
    r = end;
  }
  return scored;
}

}  // namespace

std::vector<la::ScoredId> FlatIndex::SearchTopK(
    const float* query, size_t k, const FilterBitmap* filter) const {
  if (k == 0 || vectors_->rows() == 0) return {};
  la::TopKCollector collector(k);
  const uint64_t computations = ScoreAdmittedRows(
      *vectors_, query, filter,
      [&](float sim, size_t r) { collector.Push(sim, r); });
  distance_computations_.fetch_add(computations, std::memory_order_relaxed);
  return collector.TakeSorted();
}

std::vector<la::ScoredId> FlatIndex::SearchRange(
    const float* query, float threshold, const FilterBitmap* filter) const {
  std::vector<la::ScoredId> out;
  const uint64_t computations = ScoreAdmittedRows(
      *vectors_, query, filter, [&](float sim, size_t r) {
        if (sim >= threshold) out.push_back({sim, r});
      });
  distance_computations_.fetch_add(computations, std::memory_order_relaxed);
  std::sort(out.begin(), out.end());
  return out;
}

namespace {
constexpr uint32_t kFlatMagic = 0x464a4543;  // "CEJF"
constexpr uint32_t kFlatVersion = 1;
}  // namespace

Status FlatIndex::SaveTo(serde::Writer& writer) const {
  CEJ_RETURN_IF_ERROR(writer.WritePod(kFlatMagic));
  CEJ_RETURN_IF_ERROR(writer.WritePod(kFlatVersion));
  return la::WriteMatrixTo(writer, *vectors_);
}

Status FlatIndex::Save(const std::string& path) const {
  CEJ_ASSIGN_OR_RETURN(serde::Writer writer, serde::Writer::Open(path));
  return SaveTo(writer);
}

Result<std::unique_ptr<FlatIndex>> FlatIndex::LoadFrom(serde::Reader& reader) {
  uint32_t magic = 0, version = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&magic));
  if (magic != kFlatMagic) {
    return Status::InvalidArgument("flat load: bad magic");
  }
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&version));
  if (version != kFlatVersion) {
    return Status::InvalidArgument("flat load: unsupported version");
  }
  CEJ_ASSIGN_OR_RETURN(la::Matrix vectors, la::ReadMatrixFrom(reader));
  if (vectors.empty()) {
    return Status::InvalidArgument("flat load: empty matrix");
  }
  return std::make_unique<FlatIndex>(std::move(vectors));
}

Result<std::unique_ptr<FlatIndex>> FlatIndex::Load(const std::string& path) {
  CEJ_ASSIGN_OR_RETURN(serde::Reader reader, serde::Reader::Open(path));
  return LoadFrom(reader);
}

}  // namespace cej::index
