#include "cej/plan/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "cej/api/embedding_cache.h"
#include "cej/common/macros.h"
#include "cej/common/timer.h"
#include "cej/plan/join_order.h"
#include "cej/stats/cost_calibrator.h"

namespace cej::plan {
namespace {

using join::JoinInputs;
using join::JoinOperator;
using join::JoinOperatorRegistry;
using join::JoinStats;
using storage::Column;
using storage::DataType;
using storage::Field;
using storage::Relation;
using storage::Schema;

// The scan pipeline [Embed ->]* [Select ->] Scan over one base table: the
// shape the prefetch rewrite (Embed hoisted out of the join) and Select
// pushdown (Select below Embed) leave for a join input. Stacked Embeds come
// from graph inputs with several string join keys; each level only appends
// a column, so every level keys the embedding cache by the Scan below it.
struct ScanPipeline {
  const LogicalNode* scan = nullptr;       // Null: not a pipeline.
  const LogicalNode* select = nullptr;     // May be null.
  std::vector<const LogicalNode*> embeds;  // Bottom-up; may be empty.
  // The Select's surviving base-table rows, evaluated at most once.
  std::optional<std::vector<uint32_t>> rows;
};

ScanPipeline MatchScanPipeline(const NodePtr& node) {
  ScanPipeline p;
  const LogicalNode* below = node.get();
  while (below->kind == NodeKind::kEmbed) {
    p.embeds.insert(p.embeds.begin(), below);
    below = below->child.get();
  }
  if (below->kind == NodeKind::kSelect) {
    p.select = below;
    below = below->child.get();
  }
  if (below->kind != NodeKind::kScan) return ScanPipeline{};
  p.scan = below;
  return p;
}

// A probe-eligible join input: a pipeline with one Embed, or none over a
// stored vector join key. An index over the base table can serve it.
bool ProbeShaped(const ScanPipeline& p, const std::string& right_key) {
  if (p.scan == nullptr || p.embeds.size() > 1) return false;
  if (!p.embeds.empty()) return true;
  const Schema& schema = p.scan->relation->schema();
  auto field = schema.FieldIndex(right_key);
  return field.ok() && schema.field(*field).type == DataType::kVector;
}

// The string column `embed` reads from `input`.
Result<const Column*> EmbedInput(const Relation& input,
                                 const LogicalNode& embed) {
  CEJ_ASSIGN_OR_RETURN(const Column* col,
                       input.ColumnByName(embed.input_column));
  if (col->type() != DataType::kString) {
    return Status::InvalidArgument("Embed: column '" + embed.input_column +
                                   "' is not a string column");
  }
  return col;
}

// Assembles the EJoin output relation from matched pairs.
Result<Relation> MaterializeJoinOutput(const Schema& output_schema,
                                       const Relation& left,
                                       const Relation& right,
                                       const std::vector<join::JoinPair>& pairs) {
  std::vector<uint32_t> left_rows, right_rows;
  std::vector<double> sims;
  left_rows.reserve(pairs.size());
  right_rows.reserve(pairs.size());
  sims.reserve(pairs.size());
  for (const auto& p : pairs) {
    left_rows.push_back(p.left);
    right_rows.push_back(p.right);
    sims.push_back(static_cast<double>(p.similarity));
  }
  // One row-id list per side, shared by every column of that side.
  auto gather_side = [](const Relation& side, std::vector<uint32_t> rows) {
    std::vector<const Column*> columns;
    columns.reserve(side.num_columns());
    for (size_t i = 0; i < side.num_columns(); ++i) {
      columns.push_back(&side.column(i));
    }
    return Column::GatherAll(columns, std::move(rows));
  };
  std::vector<Column> columns = gather_side(left, std::move(left_rows));
  std::vector<Column> right_columns =
      gather_side(right, std::move(right_rows));
  columns.reserve(output_schema.num_fields());
  for (Column& c : right_columns) columns.push_back(std::move(c));
  columns.push_back(Column::Double(std::move(sims)));
  return Relation::Create(output_schema, std::move(columns));
}

// Routes a fused batch's pair stream back to its member queries: each
// pair's left row is looked up in the sorted slice ranges (binary search),
// re-based to the slice, and forwarded to the slice's sink in contiguous
// runs. Thread-safe to the JoinSink contract — routing is lock-free (the
// slice table is immutable; per-slice stop flags are atomic) and the
// member sinks are themselves required to be thread-safe.
class DemuxSink : public join::JoinSink {
 public:
  explicit DemuxSink(const std::vector<ProbeSlice>& slices)
      : slices_(slices),
        stopped_(std::make_unique<std::atomic<bool>[]>(slices.size())),
        live_(slices.size()) {
    for (size_t i = 0; i < slices_.size(); ++i) stopped_[i] = false;
  }

  bool Consume(const join::JoinPair* pairs, size_t count) override {
    std::vector<join::JoinPair> run;  // Re-based pairs for one slice.
    size_t i = 0;
    while (i < count) {
      const size_t slice = SliceFor(pairs[i].left);
      size_t j = i;
      while (j < count && SliceFor(pairs[j].left) == slice) ++j;
      if (!stopped_[slice].load(std::memory_order_relaxed)) {
        run.assign(pairs + i, pairs + j);
        const uint32_t base = static_cast<uint32_t>(slices_[slice].begin);
        for (auto& p : run) p.left -= base;
        if (!slices_[slice].sink->Consume(run.data(), run.size())) {
          // Latch once; the last slice to stop stops the operator.
          if (!stopped_[slice].exchange(true, std::memory_order_relaxed)) {
            live_.fetch_sub(1, std::memory_order_acq_rel);
          }
        }
      }
      i = j;
    }
    return live_.load(std::memory_order_relaxed) > 0;
  }

  void Finish() override {
    for (const ProbeSlice& slice : slices_) slice.sink->Finish();
  }

 private:
  size_t SliceFor(uint32_t left) const {
    // Last slice whose begin <= left. Slices are contiguous from 0, so
    // every valid left row maps to exactly one.
    size_t lo = 0, hi = slices_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi + 1) / 2;
      if (slices_[mid].begin <= left) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }

  const std::vector<ProbeSlice>& slices_;
  std::unique_ptr<std::atomic<bool>[]> stopped_;
  std::atomic<size_t> live_;
};

// Pass-through sink counting the pairs a graph-lowered join emits — the
// per-edge OBSERVED cardinality. Atomic because sharded operators feed one
// sink from several workers.
class EdgeCountingSink : public join::JoinSink {
 public:
  explicit EdgeCountingSink(join::JoinSink* inner) : inner_(inner) {}

  bool Consume(const join::JoinPair* pairs, size_t count) override {
    count_.fetch_add(count, std::memory_order_relaxed);
    return inner_->Consume(pairs, count);
  }

  void Finish() override { inner_->Finish(); }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  join::JoinSink* inner_;
  std::atomic<uint64_t> count_{0};
};

// Worker threads the operators get: a caller-runs pool of T workers
// supplies T + 1 (the calling thread works alongside them).
size_t PoolThreads(const ExecContext& context) {
  return context.pool != nullptr
             ? static_cast<size_t>(context.pool->num_threads()) + 1
             : 1;
}

class PlanExecutor {
 public:
  PlanExecutor(const ExecContext& context, ExecStats* stats,
               size_t fused_queries = 1)
      : context_(context),
        stats_(stats),
        fused_queries_(fused_queries < 1 ? 1 : fused_queries) {}

  Result<Relation> Run(const NodePtr& node) {
    ScanPipeline pipeline = MatchScanPipeline(node);
    if (pipeline.scan != nullptr) {
      return MaterializePipeline(&pipeline, /*filtered=*/true);
    }
    switch (node->kind) {
      case NodeKind::kSelect: {
        CEJ_ASSIGN_OR_RETURN(Relation input, Run(node->child));
        CEJ_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                             expr::Filter(input, node->predicate));
        return input.Take(rows);
      }
      case NodeKind::kEmbed: {
        // Not over a base table: embed whatever the subtree produced,
        // uncached.
        CEJ_ASSIGN_OR_RETURN(Relation input, Run(node->child));
        return ApplyEmbed(input, *node, nullptr, nullptr);
      }
      case NodeKind::kEJoin:
        return RunEJoin(node);
      case NodeKind::kJoinGraph:
        return RunJoinGraph(node);
      case NodeKind::kScan:  // Always a pipeline.
        break;
    }
    return Status::Internal("unreachable");
  }

  // Streaming entry point: the final join feeds `sink` directly. A
  // JoinGraph root lowers to its chosen order first; the stream carries
  // the LAST executed edge's pairs.
  Result<JoinStats> RunToSink(const NodePtr& node, join::JoinSink* sink) {
    if (node->kind == NodeKind::kJoinGraph) {
      CEJ_ASSIGN_OR_RETURN(JoinOrderPlan plan, EnumerateGraph(node));
      return RunEJoinIntoSink(plan.root, sink, /*sides=*/nullptr);
    }
    if (node->kind != NodeKind::kEJoin) {
      return Status::InvalidArgument(
          "ExecuteToSink: plan root must be an EJoin or a JoinGraph");
    }
    return RunEJoinIntoSink(node, sink, /*sides=*/nullptr);
  }

 private:
  // The join's two input relations, for output materialization. Pair ids
  // emitted by the operator address these relations' rows.
  struct JoinedSides {
    Relation left;
    Relation right;
  };

  // The cost scan's verdict: the operator to run, its quote, the rejected
  // runner-up, and whether calibration exploration (not price) chose it.
  struct Selection {
    const JoinOperator* op = nullptr;
    double cost = std::numeric_limits<double>::infinity();
    const JoinOperator* runner_up = nullptr;
    double runner_up_cost = std::numeric_limits<double>::infinity();
    bool explored = false;

    // The cheapest quote the scan saw — what the auto-build loss check
    // compares a hypothetical index plan against (the chosen quote unless
    // exploration overrode the price ranking).
    double best_quote() const { return explored ? runner_up_cost : cost; }
  };

  // Embeds `input`'s embed-input column per `embed`, serving from — and
  // populating — the engine embedding cache when `scan` is the base-table
  // Scan the rows came from (nullptr = uncached). Cache entries are tied
  // to the Scan's relation snapshot, so a plan made before or after a
  // ReplaceTable never sees the other snapshot's vectors. `base_rows` are
  // the base-table row ids behind `input`'s rows (nullptr = `input` IS the
  // full base table; only full-table embeddings are cached, but filtered
  // pipelines gather their survivors out of a cached full-table matrix on
  // a hit).
  Result<Relation> ApplyEmbed(const Relation& input, const LogicalNode& embed,
                              const LogicalNode* scan,
                              const std::vector<uint32_t>* base_rows) {
    CEJ_ASSIGN_OR_RETURN(const Column* col, EmbedInput(input, embed));
    // Shared straight into the result column: a full-table cache hit is
    // zero-copy, a filtered hit is a view of the cached matrix, and a miss
    // shares the freshly embedded matrix between the cache and the column
    // without cloning either way.
    std::optional<Column> embedded;
    EmbeddingCache* cache = context_.embedding_cache;
    const bool cacheable = cache != nullptr && scan != nullptr;
    if (cacheable) {
      std::shared_ptr<const la::Matrix> hit = cache->Get(
          scan->table_name, embed.input_column, embed.model, scan->relation);
      if (hit != nullptr && hit->cols() == embed.model->dim()) {
        if (base_rows == nullptr) {
          if (hit->rows() == input.num_rows()) {
            embedded = Column::Vector(std::move(hit));
          }
        } else if (std::all_of(base_rows->begin(), base_rows->end(),
                               [&](uint32_t r) { return r < hit->rows(); })) {
          embedded = Column::Vector(std::move(hit)).Gather(*base_rows);
        }
      }
      if (stats_ != nullptr) {
        if (embedded.has_value()) {
          ++stats_->embedding_cache_hits;
        } else {
          ++stats_->embedding_cache_misses;
        }
      }
    }
    if (!embedded.has_value()) {
      WallTimer embed_timer;
      la::Matrix fresh =
          embed.model->EmbedBatch(col->string_values(), context_.pool);
      if (stats_ != nullptr) {
        stats_->model_calls += fresh.rows();
        stats_->join_stats.embed_seconds += embed_timer.ElapsedSeconds();
      }
      auto shared = std::make_shared<const la::Matrix>(std::move(fresh));
      if (cacheable && base_rows == nullptr) {
        cache->Put(scan->table_name, embed.input_column, embed.model,
                   scan->relation, shared);
      }
      embedded = Column::Vector(std::move(shared));
    }
    return input.WithColumn(
        Field{embed.output_column, DataType::kVector, embed.model->dim()},
        std::move(*embedded));
  }

  // Evaluates `p`'s Select over its base table once; a no-op without a
  // Select or once evaluated.
  Status EvaluateSelect(ScanPipeline* p) const {
    if (p->select == nullptr || p->rows.has_value()) return Status::OK();
    CEJ_ASSIGN_OR_RETURN(
        p->rows, expr::Filter(*p->scan->relation, p->select->predicate));
    return Status::OK();
  }

  // Materializes `p`: its base table — restricted to the Select's
  // survivors when `filtered` — then each Embed level on the way up, each
  // with its own cache lookup. Probe ids address base-table rows, so the
  // probe path materializes unfiltered.
  Result<Relation> MaterializePipeline(ScanPipeline* p, bool filtered) {
    const Relation& base = *p->scan->relation;
    const std::vector<uint32_t>* rows = nullptr;
    if (filtered && p->select != nullptr) {
      CEJ_RETURN_IF_ERROR(EvaluateSelect(p));
      rows = &*p->rows;
    }
    Relation out = rows == nullptr ? base : base.Take(*rows);
    for (const LogicalNode* embed : p->embeds) {
      CEJ_ASSIGN_OR_RETURN(out, ApplyEmbed(out, *embed, p->scan, rows));
    }
    return out;
  }

  Result<Relation> RunEJoin(const NodePtr& node) {
    CEJ_ASSIGN_OR_RETURN(Schema output_schema, OutputSchema(node));
    join::MaterializingSink sink;
    JoinedSides sides;
    CEJ_RETURN_IF_ERROR(RunEJoinIntoSink(node, &sink, &sides).status());
    return MaterializeJoinOutput(output_schema, sides.left, sides.right,
                                 sink.pairs());
  }

  // Orders the graph's edges (DP unless forced/pinned), publishes the
  // decision into ExecStats, and returns the lowered binary tree.
  Result<JoinOrderPlan> EnumerateGraph(const NodePtr& node) {
    CEJ_ASSIGN_OR_RETURN(JoinOrderPlan plan, PlanJoinOrder(node, context_));
    if (stats_ != nullptr) {
      stats_->join_edge_order = plan.edge_order;
      switch (plan.source) {
        case JoinOrderSource::kDp:
          stats_->join_order_source = "dp";
          break;
        case JoinOrderSource::kForced:
          stats_->join_order_source = "forced";
          break;
        case JoinOrderSource::kSubmission:
          stats_->join_order_source = "submission";
          break;
      }
    }
    return plan;
  }

  // Chained execution: run the lowered tree, then project its output back
  // onto the graph's canonical schema (zero-copy — the intermediate
  // relations already share their columns, embedding columns included).
  Result<Relation> RunJoinGraph(const NodePtr& node) {
    CEJ_ASSIGN_OR_RETURN(Schema canonical, OutputSchema(node));
    CEJ_ASSIGN_OR_RETURN(JoinOrderPlan plan, EnumerateGraph(node));
    CEJ_ASSIGN_OR_RETURN(Relation executed, Run(plan.root));
    return executed.Project(std::move(canonical),
                            plan.canonical_projection);
  }

  // Selects the physical operator via the registry, runs the join into
  // `sink`, and (when `sides` is set) materializes both input-side
  // relations for output assembly.
  Result<JoinStats> RunEJoinIntoSink(const NodePtr& node,
                                     join::JoinSink* sink,
                                     JoinedSides* sides) {
    CEJ_ASSIGN_OR_RETURN(Relation left, Run(node->left));
    CEJ_ASSIGN_OR_RETURN(const Column* left_key,
                         left.ColumnByName(node->left_key));

    // Graph-lowered joins count their emitted pairs: the edge's observed
    // cardinality, recorded against the enumerator's estimate.
    EdgeCountingSink counting(sink);
    EdgeCountingSink* edge_counter =
        node->graph_edge >= 0 ? &counting : nullptr;
    join::JoinSink* effective_sink =
        edge_counter != nullptr ? &counting : sink;

    Result<JoinStats> run =
        left_key->type() == DataType::kString
            ? RunStringKeyJoin(node, *left_key, effective_sink, sides)
            : RunVectorKeyJoin(node, *left_key, effective_sink, sides,
                               edge_counter);
    if (run.ok()) {
      if (sides != nullptr) sides->left = std::move(left);
      if (stats_ != nullptr) {
        stats_->model_calls += run->model_calls;
        stats_->join_stats += *run;
        if (edge_counter != nullptr) {
          const size_t edge = static_cast<size_t>(node->graph_edge);
          if (stats_->edge_card_est.size() <= edge) {
            stats_->edge_card_est.resize(edge + 1, 0.0);
            stats_->edge_card_obs.resize(edge + 1, 0);
          }
          stats_->edge_card_est[edge] = node->estimated_rows;
          stats_->edge_card_obs[edge] = edge_counter->count();
        }
      }
    }
    return run;
  }

  // String-key join: a plan the optimizer did not rewrite, so the keys
  // reach the join unembedded. It runs Figure 8's baseline, naive_nlj,
  // which embeds inside its pair loop — or the forced operator, which
  // fails validation before any model call unless it takes strings. The
  // run is neither priced nor recorded: the cost scan and the calibrator
  // see embedded keys only.
  Result<JoinStats> RunStringKeyJoin(const NodePtr& node,
                                     const Column& left_key,
                                     join::JoinSink* sink,
                                     JoinedSides* sides) {
    CEJ_ASSIGN_OR_RETURN(Relation right, Run(node->right));
    CEJ_ASSIGN_OR_RETURN(const Column* right_key,
                         right.ColumnByName(node->right_key));
    if (right_key->type() != DataType::kString) {
      return Status::InvalidArgument("EJoin: right key is not a string");
    }
    JoinInputs inputs;
    inputs.left_strings = &left_key.string_values();
    inputs.right_strings = &right_key->string_values();
    inputs.model = node->model;
    Selection selection;
    CEJ_ASSIGN_OR_RETURN(selection.op,
                         JoinOperatorRegistry::Global().Find(
                             context_.force_operator.empty()
                                 ? "naive_nlj"
                                 : context_.force_operator));
    return RunAndRecord(*node, selection, inputs, /*observed=*/nullptr,
                        /*prep_seconds=*/0.0, std::move(right), sink, sides,
                        /*edge_counter=*/nullptr);
  }

  // A vector-key join's right input, decided once before pricing: its scan
  // pipeline when probe-shaped (one an index can serve), the catalog entry
  // serving it, what every quote must assume about it, and — for any other
  // input — the relation materialized up front.
  struct RightInput {
    ScanPipeline pipeline;
    bool probe_shaped = false;
    const LogicalNode* embed = nullptr;  // The probe-shaped pipeline's.
    const index::IndexCatalogEntry* catalog_entry = nullptr;
    bool embed_cached = false;  // No right model term in the quotes.
    index::FilterBitmap bitmap;  // Probe pre-filter over base-table rows.
    size_t rows = 0;
    double selectivity = 1.0;
    Relation materialized;  // Inputs that are not probe-shaped.

    const index::VectorIndex* index() const {
      return catalog_entry != nullptr ? catalog_entry->index.get() : nullptr;
    }
  };

  Result<RightInput> PlanRightInput(const LogicalNode& node) {
    RightInput in;
    in.pipeline = MatchScanPipeline(node.right);
    in.probe_shaped = ProbeShaped(in.pipeline, node.right_key);
    if (!in.probe_shaped) {
      // No index can serve this input, so a forced index operator is
      // rejected now, before the input is materialized and embedded.
      if (!context_.force_operator.empty()) {
        CEJ_ASSIGN_OR_RETURN(
            const JoinOperator* forced,
            JoinOperatorRegistry::Global().Find(context_.force_operator));
        if (forced->Traits().needs_index) {
          return Status::InvalidArgument(
              std::string(forced->Name()) +
              ": requires a right-side vector index");
        }
      }
      // Materialized, and so embedded, before pricing: no quote carries
      // its model term.
      CEJ_ASSIGN_OR_RETURN(in.materialized, Run(node.right));
      in.rows = in.materialized.num_rows();
      in.embed_cached = true;
      return in;
    }
    ScanPipeline& pipeline = in.pipeline;
    if (!pipeline.embeds.empty()) in.embed = pipeline.embeds[0];
    // Index discovery in the catalog snapshot (shared_ptr-pinned for the
    // whole query — a concurrent ReplaceTable cannot free a probed index).
    if (context_.index_catalog != nullptr) {
      in.catalog_entry = context_.index_catalog->Find(
          pipeline.scan->table_name,
          in.embed != nullptr ? in.embed->output_column : node.right_key,
          in.embed != nullptr ? in.embed->model : nullptr);
      if (stats_ != nullptr) {
        if (in.catalog_entry != nullptr) {
          ++stats_->index_catalog_hits;
        } else {
          ++stats_->index_catalog_misses;
        }
      }
    }
    in.rows = pipeline.scan->relation->num_rows();
    // Cache-aware costing: a stored vector key has no model term, and a
    // FULL column already in the embedding cache is served with zero model
    // calls (Peek moves neither the LRU order nor the hit/miss counters).
    in.embed_cached = in.embed == nullptr;
    if (!in.embed_cached && in.embed->model != nullptr &&
        context_.embedding_cache != nullptr) {
      const std::shared_ptr<const la::Matrix> warm =
          context_.embedding_cache->Peek(
              pipeline.scan->table_name, in.embed->input_column,
              in.embed->model, pipeline.scan->relation);
      in.embed_cached = warm != nullptr && warm->rows() == in.rows &&
                        warm->cols() == in.embed->model->dim();
    }
    const index::VectorIndex* idx = in.index();
    if (idx != nullptr && idx->size() != in.rows) {
      return Status::InvalidArgument(
          "EJoin: registered index size does not match base table '" +
          pipeline.scan->table_name + "'");
    }
    // Every quote prices the rows the Select leaves: a scan sweeps them,
    // and a probe pre-filters with them.
    CEJ_RETURN_IF_ERROR(EvaluateSelect(&pipeline));
    if (pipeline.rows.has_value()) {
      in.selectivity = in.rows == 0
                           ? 0.0
                           : static_cast<double>(pipeline.rows->size()) /
                                 static_cast<double>(in.rows);
    }
    if (idx != nullptr) {
      in.bitmap.assign(in.rows, pipeline.rows.has_value() ? 0 : 1);
      if (pipeline.rows.has_value()) {
        for (uint32_t r : *pipeline.rows) in.bitmap[r] = 1;
      }
    }
    return in;
  }

  // Vector-key join: registry-wide access-path selection over the planned
  // right input. A probe-shaped input is probed or materialized for a
  // scan, as the chosen operator needs.
  Result<JoinStats> RunVectorKeyJoin(const NodePtr& node,
                                     const Column& left_key,
                                     join::JoinSink* sink, JoinedSides* sides,
                                     const EdgeCountingSink* edge_counter) {
    if (left_key.type() != DataType::kVector) {
      return Status::InvalidArgument("EJoin: left key is not a vector");
    }
    CEJ_ASSIGN_OR_RETURN(RightInput right, PlanRightInput(*node));

    join::JoinWorkload workload =
        Workload(*node, left_key.size(), right.rows, left_key.vector_dim());
    workload.right_selectivity = right.selectivity;
    workload.index_available = right.index() != nullptr;
    // Exactness-aware probe traits: a served FLAT catalog entry is exact
    // despite the index operator's conservative trait — RequireExact()
    // scans may admit it. External registrations stay opaque (unknown
    // family), hence conservatively approximate.
    workload.index_exact =
        right.catalog_entry != nullptr &&
        right.catalog_entry->family == index::IndexFamily::kFlat;
    // Chained (graph-lowered) joins: an intermediate side carries its
    // embedding column zero-copy from the join that built it — no model
    // term — but its materialization gather was not free.
    workload.left_intermediate = node->left->kind == NodeKind::kEJoin;
    workload.right_intermediate = node->right->kind == NodeKind::kEJoin;
    workload.right_embed_cached = right.embed_cached;

    CEJ_ASSIGN_OR_RETURN(Selection selection, SelectOperator(workload));
    if (right.probe_shaped && right.index() == nullptr) {
      ReportIndexLoss(right, *node, workload, selection);
    }

    // Each physical form fills in the operator's right-side inputs. The
    // recorded observation's cost scope is the priced workload, less the
    // right model term on the probe path (probes never embed the right
    // side).
    join::JoinWorkload observed = workload;
    JoinInputs inputs;
    inputs.left_vectors = &left_key.vector_values();
    Relation right_side = std::move(right.materialized);
    double right_prep_seconds = 0.0;
    if (selection.op->Traits().needs_index) {
      if (stats_ != nullptr && right.catalog_entry != nullptr) {
        stats_->index_build_seconds += right.catalog_entry->build_seconds;
      }
      inputs.right_index = right.index();
      inputs.right_filter = &right.bitmap;
      observed.right_embed_cached = true;
      if (sides != nullptr && right.probe_shaped) {
        CEJ_ASSIGN_OR_RETURN(right_side, MaterializePipeline(
                                             &right.pipeline,
                                             /*filtered=*/false));
      }
    } else {
      // Scan path: the right-side preparation (predicate Take, cache
      // gather, or a full embedding on a cold cache) is part of the cost
      // the quote priced, so it belongs to the measured window.
      WallTimer right_prep_timer;
      if (right.probe_shaped) {
        CEJ_ASSIGN_OR_RETURN(right_side,
                             MaterializePipeline(&right.pipeline,
                                                 /*filtered=*/true));
      }
      right_prep_seconds = right_prep_timer.ElapsedSeconds();
      CEJ_ASSIGN_OR_RETURN(const Column* right_key,
                           right_side.ColumnByName(node->right_key));
      if (right_key->type() != DataType::kVector) {
        return Status::InvalidArgument("EJoin: right key is not a vector");
      }
      inputs.right_vectors = &right_key->vector_values();
    }
    return RunAndRecord(*node, selection, inputs, &observed,
                        right_prep_seconds, std::move(right_side), sink,
                        sides, edge_counter);
  }

  // Auto-build feedback: an unforced cost scan ran index-less on a
  // probe-shaped input — if an index WOULD have priced cheaper than the
  // winner, record the loss so the manager can build one in the
  // background (require_exact scans are skipped: the approximate index
  // operator could never have won them).
  void ReportIndexLoss(const RightInput& right, const LogicalNode& node,
                       const join::JoinWorkload& workload,
                       const Selection& selection) {
    if (context_.index_manager == nullptr ||
        context_.index_catalog == nullptr ||
        !context_.force_operator.empty() || context_.require_exact) {
      return;
    }
    auto index_op = JoinOperatorRegistry::Global().Find("index");
    if (!index_op.ok()) return;
    join::JoinWorkload hypothetical = workload;
    hypothetical.index_available = true;
    const double index_cost =
        (*index_op)->EstimateCost(hypothetical, context_.cost_params);
    if (!(index_cost < selection.best_quote())) return;
    // The snapshot's generation pairs with the plan's relation snapshot: if
    // the table is replaced before (or while) the auto-build runs, the
    // build is discarded at publish instead of covering the old contents.
    // The workload shape rides along so the family-aware policy can pick
    // flat/IVF/HNSW from what the losing queries actually looked like.
    const LogicalNode& scan = *right.pipeline.scan;
    index::IndexLossContext loss_context;
    loss_context.left_rows = workload.left_rows;
    loss_context.table_rows = workload.right_rows;
    loss_context.topk =
        workload.condition.kind == join::JoinCondition::Kind::kTopK;
    context_.index_manager->RecordIndexLoss(
        scan.table_name, scan.relation,
        right.embed != nullptr ? right.embed->input_column : node.right_key,
        right.embed != nullptr ? right.embed->model : nullptr,
        context_.index_catalog->TableGeneration(scan.table_name),
        loss_context);
  }

  // The one tail of every join: runs the selected operator into `sink`,
  // records the run against `observed` (nullptr = not recorded), and hands
  // `right` back as the output's right side.
  Result<JoinStats> RunAndRecord(const LogicalNode& node,
                                 const Selection& selection,
                                 const JoinInputs& inputs,
                                 const join::JoinWorkload* observed,
                                 double prep_seconds, Relation right,
                                 join::JoinSink* sink, JoinedSides* sides,
                                 const EdgeCountingSink* edge_counter) {
    if (stats_ != nullptr) {
      stats_->join_operator = std::string(selection.op->Name());
    }
    CEJ_ASSIGN_OR_RETURN(
        JoinStats run_stats,
        selection.op->Run(inputs, node.condition, BaseOptions(), sink));
    if (observed != nullptr) {
      RecordJoinObservation(*observed, selection,
                            prep_seconds + run_stats.embed_seconds +
                                run_stats.join_seconds,
                            run_stats, node, edge_counter);
    }
    if (sides != nullptr) sides->right = std::move(right);
    return run_stats;
  }

  // The workload fields every join prices with; each path adds its own.
  join::JoinWorkload Workload(const LogicalNode& node, size_t left_rows,
                              size_t right_rows, size_t dim) const {
    join::JoinWorkload workload;
    workload.left_rows = left_rows;
    workload.right_rows = right_rows;
    workload.dim = dim;
    workload.condition = node.condition;
    workload.pool_threads = PoolThreads(context_);
    workload.fused_queries = fused_queries_;
    return workload;
  }

  // Access-path selection over the registry cost scan
  // (JoinOperatorRegistry::EligibleQuotes): the cheapest eligible operator
  // runs. force_operator bypasses pricing but not eligibility checks at
  // Run() time; the returned quote stays +infinity then.
  //
  // Exploration (calibrated scans only): an eligible EXACT operator that
  // has never produced an observation is chosen once — earliest
  // registration first — when its quote lands within the calibrator's
  // explore ratio of the best quote. Without this, an operator whose seed
  // coefficients OVER-price it would never run, never be observed, and
  // never be repriced: the chosen operator's own observations cannot
  // correct a rival's distinct coefficients.
  Result<Selection> SelectOperator(const join::JoinWorkload& workload) {
    const JoinOperatorRegistry& registry = JoinOperatorRegistry::Global();
    Selection selection;
    if (!context_.force_operator.empty()) {
      CEJ_ASSIGN_OR_RETURN(selection.op,
                           registry.Find(context_.force_operator));
      return selection;
    }

    const std::vector<join::OperatorQuote> eligible = registry.EligibleQuotes(
        workload, context_.cost_params, context_.require_exact);
    const join::OperatorQuote* best = nullptr;
    const join::OperatorQuote* second = nullptr;
    for (const join::OperatorQuote& quote : eligible) {
      if (best == nullptr || quote.cost < best->cost) {
        second = best;
        best = &quote;
      } else if (second == nullptr || quote.cost < second->cost) {
        second = &quote;
      }
    }
    if (best == nullptr) {
      return Status::Internal(
          "EJoin: no eligible physical operator registered for this "
          "workload");
    }

    selection.op = best->op;
    selection.cost = best->cost;
    if (second != nullptr) {
      selection.runner_up = second->op;
      selection.runner_up_cost = second->cost;
    }

    // Exploration respects the engine's overhead budget: once cumulative
    // exploration overrun exhausts it, the scan prices only.
    const double ratio = context_.calibrator != nullptr &&
                                 context_.calibrator->ExplorationAllowed()
                             ? context_.calibrator->explore_cost_ratio()
                             : 0.0;
    if (ratio > 0.0) {
      for (const join::OperatorQuote& quote : eligible) {
        if (!quote.exact) continue;
        if (quote.cost > ratio * best->cost) continue;
        if (context_.calibrator->ObservationCount(quote.op->Name()) > 0) {
          continue;
        }
        if (quote.op != best->op) {
          selection.op = quote.op;
          selection.cost = quote.cost;
          selection.runner_up = best->op;
          selection.runner_up_cost = best->cost;
          selection.explored = true;
        }
        break;  // First unobserved in registration order wins.
      }
    }
    return selection;
  }

  // Feeds the adaptive calibrator — and the estimated-vs-actual ExecStats
  // fields — after `selection.op` ran. `workload` must describe the cost
  // scope `measured_seconds` covers: the left key arrives embedded (its
  // model term was paid before pricing), and the right side's model term
  // only when its embedding ran inside the window.
  void RecordJoinObservation(const join::JoinWorkload& workload,
                             const Selection& selection,
                             double measured_seconds,
                             const JoinStats& run_stats,
                             const LogicalNode& node,
                             const EdgeCountingSink* edge_counter) {
    const JoinOperator* op = selection.op;
    const double measured_ns = measured_seconds * 1e9;
    const double estimated_ns =
        op->EstimateCost(workload, context_.cost_params);
    // Re-quote the runner-up under the SAME cost scope as the chosen
    // estimate, so the two ExecStats numbers (and the observation pair)
    // are comparable — the scan-time quotes may carry terms the measured
    // window never covers (e.g. a right side embedded before it opened).
    std::string runner_up;
    double runner_up_ns = 0.0;
    if (selection.runner_up != nullptr) {
      runner_up = std::string(selection.runner_up->Name());
      const double quote =
          selection.runner_up->EstimateCost(workload, context_.cost_params);
      if (std::isfinite(quote)) runner_up_ns = quote;
    }
    const bool comparable = std::isfinite(estimated_ns) &&
                            estimated_ns > 0.0 && measured_ns > 0.0;
    if (stats_ != nullptr) {
      stats_->estimated_cost_ns =
          std::isfinite(estimated_ns) ? estimated_ns : 0.0;
      stats_->measured_cost_ns = measured_ns;
      stats_->cost_abs_log_error =
          comparable ? std::fabs(std::log(estimated_ns / measured_ns)) : 0.0;
      stats_->runner_up_operator = runner_up;
      stats_->runner_up_cost_ns = runner_up_ns;
      stats_->explored_operator = selection.explored;
      // The same overrun the calibrator charges against the exploration
      // budget: what this explored run cost over the displaced best quote.
      stats_->exploration_overhead_ns =
          selection.explored && runner_up_ns > 0.0
              ? std::max(0.0, measured_ns - runner_up_ns)
              : 0.0;
    }
    if (context_.calibrator == nullptr || !comparable) return;
    stats::Observation obs;
    obs.op = std::string(op->Name());
    obs.estimated_ns = estimated_ns;
    obs.runner_up_ns = runner_up_ns;
    obs.measured_ns = measured_ns;
    obs.features =
        join::FeaturesForOperator(op->Name(), workload, context_.cost_params);
    const size_t shards = std::max<size_t>(run_stats.shards_used, 1);
    obs.parallel_workers = std::min(shards, workload.pool_threads);
    obs.speedup_estimated =
        join::ParallelSpeedup(shards, workload.pool_threads,
                              context_.cost_params);
    obs.explored = selection.explored;
    // Graph-lowered joins: one observation per EDGE, carrying the
    // estimated-vs-observed cardinality pair for the learned-cardinality
    // feed. The counter reads complete here — the operator's Run has
    // already returned when observations are recorded.
    obs.graph_edge = node.graph_edge;
    if (node.graph_edge >= 0) {
      obs.edge_card_est = node.estimated_rows;
      obs.edge_card_obs =
          edge_counter != nullptr ? edge_counter->count() : 0;
    }
    context_.calibrator->Record(std::move(obs));
  }

  join::JoinOptions BaseOptions() const {
    join::JoinOptions options;
    options.pool = context_.pool;
    return options;
  }

  const ExecContext& context_;
  ExecStats* stats_;
  // Client queries stacked into the probe batch (ExecuteToDemuxSinks);
  // priced into every workload so the cost scan sees the fused shape.
  const size_t fused_queries_;
};

}  // namespace

Result<JoinOrderPlan> PlanJoinOrder(const NodePtr& graph,
                                    const ExecContext& context) {
  JoinOrderOptions options;
  options.cost_params = context.cost_params;
  options.pool_threads = PoolThreads(context);
  options.force_edge_order = context.force_join_order;
  return EnumerateJoinOrder(graph, std::move(options));
}

Result<Relation> Execute(const NodePtr& plan, const ExecContext& context,
                         ExecStats* stats) {
  CEJ_CHECK(plan != nullptr);
  PlanExecutor executor(context, stats);
  return executor.Run(plan);
}

Result<join::JoinStats> ExecuteToSink(const NodePtr& plan,
                                      const ExecContext& context,
                                      join::JoinSink* sink,
                                      ExecStats* stats) {
  CEJ_CHECK(plan != nullptr);
  if (sink == nullptr) {
    return Status::InvalidArgument("ExecuteToSink: null sink");
  }
  PlanExecutor executor(context, stats);
  return executor.RunToSink(plan, sink);
}

Result<join::JoinStats> ExecuteToDemuxSinks(
    const NodePtr& plan, const ExecContext& context,
    const std::vector<ProbeSlice>& slices, ExecStats* stats) {
  CEJ_CHECK(plan != nullptr);
  if (slices.empty()) {
    return Status::InvalidArgument("ExecuteToDemuxSinks: no slices");
  }
  size_t expected_begin = 0;
  for (const ProbeSlice& slice : slices) {
    if (slice.sink == nullptr) {
      return Status::InvalidArgument("ExecuteToDemuxSinks: null slice sink");
    }
    if (slice.begin != expected_begin || slice.end <= slice.begin) {
      return Status::InvalidArgument(
          "ExecuteToDemuxSinks: slices must be non-empty, contiguous from "
          "0, and ascending");
    }
    expected_begin = slice.end;
  }
  if (stats != nullptr) stats->fused_queries = slices.size();
  DemuxSink demux(slices);
  PlanExecutor executor(context, stats, slices.size());
  return executor.RunToSink(plan, &demux);
}

}  // namespace cej::plan
