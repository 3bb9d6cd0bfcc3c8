#include "cej/api/engine.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "cej/plan/cost_model.h"
#include "cej/plan/join_order.h"
#include "cej/plan/rewrite.h"
#include "cej/storage/column.h"

namespace cej {

namespace {

// Splits a JoinGraphSpec "table.column" endpoint.
Result<std::pair<std::string, std::string>> SplitEndpoint(
    const std::string& endpoint) {
  const auto dot = endpoint.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == endpoint.size()) {
    return Status::InvalidArgument("QueryGraph: edge endpoint '" + endpoint +
                                   "' must be \"table.column\"");
  }
  return std::make_pair(endpoint.substr(0, dot), endpoint.substr(dot + 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() : Engine(Options{}) {}

Engine::Engine(const Options& options) : options_(options) {
  if (options_.num_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (options_.embedding_cache_bytes > 0) {
    EmbeddingCache::Options cache_options;
    cache_options.max_bytes = options_.embedding_cache_bytes;
    embedding_cache_ = std::make_unique<EmbeddingCache>(cache_options);
  }
  if (options_.adaptive_stats) {
    stats::CostCalibrator::Options calibrator_options;
    calibrator_options.seed = cost_params_;
    calibrator_options.refit_interval = options_.stats_refit_interval;
    calibrator_options.explore_cost_ratio = options_.stats_explore_cost_ratio;
    calibrator_options.explore_budget_ns = options_.stats_explore_budget_ns;
    calibrator_ =
        std::make_unique<stats::CostCalibrator>(calibrator_options);
  }
  index::IndexManager::Options manager_options;
  manager_options.auto_build_after_losses = options_.index_auto_build_losses;
  manager_options.auto_build = options_.index_auto_build_options;
  manager_options.family_aware = options_.index_auto_build_family_aware;
  manager_options.auto_build_recall_target = options_.index_auto_build_recall;
  index_manager_ = std::make_unique<index::IndexManager>(
      std::move(manager_options), pool_.get(), embedding_cache_.get());
}

Engine::~Engine() = default;

serve::Server* Engine::serve() {
  std::lock_guard<std::mutex> lock(serve_mu_);
  if (server_ == nullptr) {
    server_ = std::make_unique<serve::Server>(this, options_.serve);
  }
  return server_.get();
}

Status Engine::RegisterTable(std::string name, storage::Relation table) {
  return RegisterTable(
      std::move(name),
      std::make_shared<const storage::Relation>(std::move(table)));
}

Status Engine::RegisterTable(
    std::string name, std::shared_ptr<const storage::Relation> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("RegisterTable: null table");
  }
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto [it, inserted] = tables_.emplace(std::move(name), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first +
                                 "' already registered");
  }
  return Status::OK();
}

Status Engine::ReplaceTable(std::string name, storage::Relation table) {
  return ReplaceTable(
      std::move(name),
      std::make_shared<const storage::Relation>(std::move(table)));
}

Status Engine::ReplaceTable(
    std::string name, std::shared_ptr<const storage::Relation> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("ReplaceTable: null table");
  }
  // Drop everything derived from the old contents: cached column
  // embeddings AND catalog indexes (a stale index would silently probe
  // the old table's vectors — rebuild via BuildIndex, or re-register,
  // for the new data). Queries already running keep the snapshots they
  // planned against; only NEW plans see the replacement.
  //
  // The swap and the invalidations happen under ONE critical section
  // (lock order: catalog_mu_ outermost, then the manager's and cache's
  // internal mutexes — nothing acquires them in the reverse order). That
  // atomicity is what makes the two races impossible: a planner cannot
  // pair the NEW table with a pre-invalidation index snapshot, and a
  // BuildIndex cannot pair a post-bump generation with the OLD relation
  // — in both cases observing one side of the replacement implies the
  // whole replacement, so the stale combination never exists.
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (embedding_cache_ != nullptr) embedding_cache_->InvalidateTable(name);
  index_manager_->InvalidateTable(name);
  tables_[std::move(name)] = std::move(table);
  return Status::OK();
}

Status Engine::RegisterModel(std::string name,
                             const model::EmbeddingModel* model) {
  if (model == nullptr || model->dim() == 0) {
    return Status::InvalidArgument(
        "RegisterModel: null model or zero dimensionality");
  }
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto [it, inserted] = models_.emplace(std::move(name), model);
  if (!inserted) {
    return Status::AlreadyExists("model '" + it->first +
                                 "' already registered");
  }
  if (default_model_.empty()) default_model_ = it->first;
  return Status::OK();
}

Status Engine::RegisterModel(
    std::string name, std::unique_ptr<const model::EmbeddingModel> model) {
  CEJ_RETURN_IF_ERROR(RegisterModel(std::move(name), model.get()));
  std::lock_guard<std::mutex> lock(catalog_mu_);
  owned_models_.push_back(std::move(model));
  return Status::OK();
}

Status Engine::SetDefaultModel(const std::string& name) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (models_.find(name) == models_.end()) {
    return Status::NotFound("model '" + name + "' not registered");
  }
  default_model_ = name;
  return Status::OK();
}

Status Engine::RegisterIndex(const std::string& table,
                             const std::string& column,
                             const index::VectorIndex* index) {
  if (index == nullptr) {
    return Status::InvalidArgument("RegisterIndex: null index");
  }
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (tables_.find(table) == tables_.end()) {
      return Status::NotFound("table '" + table + "' not registered");
    }
  }
  return index_manager_->RegisterExternal(table, column, index);
}

Result<index::IndexBuildStats> Engine::BuildIndex(
    const std::string& table, const std::string& column,
    const index::IndexBuildOptions& options) {
  // Generation BEFORE the relation snapshot: a ReplaceTable interleaving
  // anywhere after this line makes the publish a no-op instead of
  // publishing an index over replaced contents.
  const uint64_t generation = index_manager_->TableGeneration(table);
  CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> relation,
                       Table(table));
  CEJ_ASSIGN_OR_RETURN(const model::EmbeddingModel* model,
                       ResolveColumnModel(*relation, column, options.model));
  return index_manager_->Build(table, std::move(relation), column, model,
                               options, generation);
}

Status Engine::SaveIndex(const std::string& table, const std::string& column,
                         const std::string& path) const {
  return index_manager_->Save(table, column, path);
}

Result<index::IndexBuildStats> Engine::LoadIndex(
    const std::string& table, const std::string& column,
    const std::string& path, const std::string& model_name) {
  const uint64_t generation = index_manager_->TableGeneration(table);
  CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> relation,
                       Table(table));
  CEJ_ASSIGN_OR_RETURN(const model::EmbeddingModel* model,
                       ResolveColumnModel(*relation, column, model_name));
  return index_manager_->Load(table, std::move(relation), column, model,
                              path, generation);
}

Result<const model::EmbeddingModel*> Engine::ResolveColumnModel(
    const storage::Relation& relation, const std::string& column,
    const std::string& model_name) const {
  CEJ_ASSIGN_OR_RETURN(const storage::Column* col,
                       relation.ColumnByName(column));
  if (col->type() != storage::DataType::kString) {
    return static_cast<const model::EmbeddingModel*>(nullptr);
  }
  return ResolveModel(model_name);
}

Result<std::shared_ptr<const storage::Relation>> Engine::Table(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not registered");
  }
  return it->second;
}

Result<const model::EmbeddingModel*> Engine::Model(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' not registered");
  }
  return it->second;
}

Result<const model::EmbeddingModel*> Engine::DefaultModel() const {
  std::string name;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (default_model_.empty()) {
      return Status::NotFound("no embedding model registered");
    }
    name = default_model_;
  }
  return Model(name);
}

Result<const model::EmbeddingModel*> Engine::ResolveModel(
    const std::string& name) const {
  return name.empty() ? DefaultModel() : Model(name);
}

QueryBuilder Engine::Query(std::string table) const {
  return QueryBuilder(this, std::move(table));
}

QueryBuilder Engine::QueryGraph(JoinGraphSpec spec) const {
  return QueryBuilder(this, std::move(spec));
}

void Engine::CalibrateCosts(const model::EmbeddingModel& model) {
  set_cost_params(plan::Calibrate(model));
}

void Engine::set_cost_params(const join::CostParams& params) {
  cost_params_ = params;
  // The seed changed under the calibrator: restart learning from it (the
  // observation history ring is kept for diagnostics).
  if (calibrator_ != nullptr) calibrator_->ResetSeed(params);
}

Status Engine::Recalibrate() {
  if (calibrator_ == nullptr) {
    return Status::InvalidArgument(
        "Recalibrate: adaptive stats are disabled "
        "(Engine::Options::adaptive_stats)");
  }
  calibrator_->Refit();
  return Status::OK();
}

Status Engine::SaveCalibration(const std::string& path) const {
  if (calibrator_ == nullptr) {
    return Status::InvalidArgument(
        "SaveCalibration: adaptive stats are disabled "
        "(Engine::Options::adaptive_stats)");
  }
  return calibrator_->Save(path);
}

Status Engine::LoadCalibration(const std::string& path) {
  if (calibrator_ == nullptr) {
    return Status::InvalidArgument(
        "LoadCalibration: adaptive stats are disabled "
        "(Engine::Options::adaptive_stats)");
  }
  CEJ_RETURN_IF_ERROR(calibrator_->Load(path));
  // cost_params() is documented as THE seed: keep it agreeing with the
  // seed the envelope restored into the calibrator.
  cost_params_ = calibrator_->seed();
  return Status::OK();
}

plan::ExecContext Engine::MakeExecContext() const {
  plan::ExecContext context;
  context.pool = pool_.get();
  // Adaptive engines price with the calibrated snapshot. COPIED here, so
  // a refit landing mid-query never changes this plan's prices.
  context.cost_params = calibrator_ != nullptr ? *calibrator_->Current()
                                               : cost_params_;
  context.calibrator = calibrator_.get();
  context.embedding_cache = embedding_cache_.get();
  // Plan-time snapshot: every index this query might probe is pinned via
  // shared_ptr for the query's whole lifetime — ReplaceTable racing the
  // execution invalidates the catalog, not this snapshot.
  context.index_catalog = index_manager_->Snapshot();
  context.index_manager = index_manager_.get();
  return context;
}

// ---------------------------------------------------------------------------
// QueryBuilder
// ---------------------------------------------------------------------------

QueryBuilder& QueryBuilder::Select(expr::PredicatePtr predicate) {
  Step step;
  step.kind = Step::Kind::kSelect;
  step.predicate = std::move(predicate);
  steps_.push_back(std::move(step));
  return *this;
}

QueryBuilder& QueryBuilder::EJoin(std::string right_table, std::string key,
                                  join::JoinCondition condition) {
  std::string right_key = key;
  return EJoin(std::move(right_table), std::move(key), std::move(right_key),
               condition);
}

QueryBuilder& QueryBuilder::EJoin(std::string right_table,
                                  std::string left_key,
                                  std::string right_key,
                                  join::JoinCondition condition) {
  Step step;
  step.kind = Step::Kind::kEJoin;
  step.right_table = std::move(right_table);
  step.left_key = std::move(left_key);
  step.right_key = std::move(right_key);
  step.condition = condition;
  step.model = pending_model_;
  steps_.push_back(std::move(step));
  return *this;
}

QueryBuilder& QueryBuilder::UsingModel(std::string model_name) {
  pending_model_ = std::move(model_name);
  return *this;
}

QueryBuilder& QueryBuilder::Via(std::string operator_name) {
  force_operator_ = std::move(operator_name);
  return *this;
}

QueryBuilder& QueryBuilder::RequireExact() {
  require_exact_ = true;
  return *this;
}

QueryBuilder& QueryBuilder::WithoutOptimizer() {
  optimize_ = false;
  return *this;
}

QueryBuilder& QueryBuilder::ForceJoinOrder(std::vector<size_t> order) {
  force_join_order_ = std::move(order);
  return *this;
}

Result<plan::NodePtr> QueryBuilder::BuildFromGraphSpec() const {
  const JoinGraphSpec& spec = graph_spec_;
  if (spec.tables.size() < 2) {
    return Status::InvalidArgument(
        "QueryGraph: the spec must list at least two tables");
  }
  std::unordered_map<std::string, size_t> table_index;
  std::vector<plan::NodePtr> inputs;
  inputs.reserve(spec.tables.size());
  for (size_t i = 0; i < spec.tables.size(); ++i) {
    const std::string& name = spec.tables[i];
    if (!table_index.emplace(name, i).second) {
      return Status::InvalidArgument("QueryGraph: table '" + name +
                                     "' listed twice");
    }
    CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> relation,
                         engine_->Table(name));
    inputs.push_back(plan::Scan(name, std::move(relation)));
  }
  std::vector<plan::JoinGraphEdge> edges;
  edges.reserve(spec.edges.size());
  for (const JoinGraphSpec::Edge& e : spec.edges) {
    CEJ_ASSIGN_OR_RETURN(auto left, SplitEndpoint(e.left));
    CEJ_ASSIGN_OR_RETURN(auto right, SplitEndpoint(e.right));
    const auto resolve = [&](const std::string& table) -> Result<size_t> {
      auto it = table_index.find(table);
      if (it == table_index.end()) {
        return Status::InvalidArgument("QueryGraph: endpoint table '" + table +
                                       "' is not in the spec's table list");
      }
      return it->second;
    };
    plan::JoinGraphEdge edge;
    CEJ_ASSIGN_OR_RETURN(edge.left_input, resolve(left.first));
    CEJ_ASSIGN_OR_RETURN(edge.right_input, resolve(right.first));
    edge.left_key = std::move(left.second);
    edge.right_key = std::move(right.second);
    edge.condition = e.condition;
    // String-string edges need a model; a missing/mismatched key column is
    // reported by the schema check in Build(), not as a missing model.
    const auto string_key = [&](size_t input, const std::string& key) {
      const storage::Schema& schema = inputs[input]->relation->schema();
      auto field = schema.FieldIndex(key);
      return field.ok() &&
             schema.field(*field).type == storage::DataType::kString;
    };
    if (string_key(edge.left_input, edge.left_key) &&
        string_key(edge.right_input, edge.right_key)) {
      CEJ_ASSIGN_OR_RETURN(edge.model, engine_->ResolveModel(e.model));
    }
    edges.push_back(std::move(edge));
  }
  plan::NodePtr node = plan::JoinGraph(std::move(inputs), std::move(edges));
  for (const Step& step : steps_) {
    if (step.kind != Step::Kind::kSelect) {
      return Status::InvalidArgument(
          "QueryGraph: chained .EJoin() is not available on a join-graph "
          "query — declare every edge in the spec");
    }
    if (step.predicate == nullptr) {
      return Status::InvalidArgument("Select: null predicate");
    }
    node = plan::Select(std::move(node), step.predicate);
  }
  return node;
}

Result<plan::NodePtr> QueryBuilder::BuildChainedGraph() const {
  CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> base,
                       engine_->Table(table_));
  plan::NodePtr input0 = plan::Scan(table_, std::move(base));
  size_t i = 0;
  for (; i < steps_.size() && steps_[i].kind == Step::Kind::kSelect; ++i) {
    if (steps_[i].predicate == nullptr) {
      return Status::InvalidArgument("Select: null predicate");
    }
    input0 = plan::Select(std::move(input0), steps_[i].predicate);
  }
  CEJ_ASSIGN_OR_RETURN(storage::Schema schema0, plan::OutputSchema(input0));
  std::vector<plan::NodePtr> inputs;
  inputs.push_back(std::move(input0));
  std::vector<std::string> input_tables{table_};
  std::vector<storage::Schema> schemas;
  schemas.push_back(std::move(schema0));
  std::vector<plan::JoinGraphEdge> edges;
  std::vector<expr::PredicatePtr> trailing;
  for (; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    if (step.kind == Step::Kind::kSelect) {
      // Build() routes here only when every Select sits before the first
      // or after the last join; these wrap the graph's canonical output.
      if (step.predicate == nullptr) {
        return Status::InvalidArgument("Select: null predicate");
      }
      trailing.push_back(step.predicate);
      continue;
    }
    CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> right,
                         engine_->Table(step.right_table));
    plan::JoinGraphEdge edge;
    edge.right_input = inputs.size();
    edge.right_key = step.right_key;
    edge.condition = step.condition;
    // Resolve the left endpoint against the tables joined SO FAR:
    // "table.column" picks its table explicitly; a bare column name must
    // be unambiguous across them.
    const auto dot = step.left_key.find('.');
    if (dot != std::string::npos) {
      const std::string table = step.left_key.substr(0, dot);
      const std::string column = step.left_key.substr(dot + 1);
      size_t matches = 0;
      for (size_t j = 0; j < input_tables.size(); ++j) {
        if (input_tables[j] == table) {
          edge.left_input = j;
          ++matches;
        }
      }
      if (matches == 0) {
        return Status::InvalidArgument(
            "EJoin: left key '" + step.left_key + "' names table '" + table +
            "', which is not part of this chain");
      }
      if (matches > 1) {
        return Status::InvalidArgument(
            "EJoin: table '" + table +
            "' appears more than once in this chain; left key '" +
            step.left_key + "' is ambiguous");
      }
      CEJ_RETURN_IF_ERROR(
          schemas[edge.left_input].FieldIndex(column).status());
      edge.left_key = column;
    } else {
      std::vector<size_t> matches;
      for (size_t j = 0; j < schemas.size(); ++j) {
        if (schemas[j].FieldIndex(step.left_key).ok()) matches.push_back(j);
      }
      if (matches.empty()) {
        return Status::InvalidArgument(
            "EJoin: left key '" + step.left_key +
            "' not found in any table joined so far; chained joins "
            "reference base-table columns (qualify as \"table.column\")");
      }
      if (matches.size() > 1) {
        std::string candidates;
        for (size_t j : matches) {
          if (!candidates.empty()) candidates += ", ";
          candidates += input_tables[j] + "." + step.left_key;
        }
        return Status::InvalidArgument(
            "EJoin: left key '" + step.left_key +
            "' is ambiguous in this chain (" + candidates +
            "); qualify it as \"table.column\"");
      }
      edge.left_input = matches[0];
      edge.left_key = step.left_key;
    }
    // String-string edges need a model; a missing/mismatched key column
    // is reported by the schema check in Build(), not as a missing model.
    auto left_field = schemas[edge.left_input].FieldIndex(edge.left_key);
    auto right_field = right->schema().FieldIndex(edge.right_key);
    const bool left_string =
        left_field.ok() && schemas[edge.left_input].field(*left_field).type ==
                               storage::DataType::kString;
    const bool right_string =
        right_field.ok() && right->schema().field(*right_field).type ==
                                storage::DataType::kString;
    if (left_string && right_string) {
      CEJ_ASSIGN_OR_RETURN(edge.model, engine_->ResolveModel(step.model));
    }
    schemas.push_back(right->schema());
    input_tables.push_back(step.right_table);
    inputs.push_back(plan::Scan(step.right_table, std::move(right)));
    edges.push_back(std::move(edge));
  }
  plan::NodePtr node = plan::JoinGraph(std::move(inputs), std::move(edges));
  for (const expr::PredicatePtr& predicate : trailing) {
    node = plan::Select(std::move(node), predicate);
  }
  return node;
}

Result<plan::NodePtr> QueryBuilder::Build() const {
  if (has_graph_spec_) {
    CEJ_ASSIGN_OR_RETURN(plan::NodePtr node, BuildFromGraphSpec());
    // Surface malformed graphs (unknown columns, type mismatches, cyclic
    // or disconnected shapes) now.
    CEJ_RETURN_IF_ERROR(plan::OutputSchema(node).status());
    return node;
  }
  // Two or more EJoin steps build a join GRAPH (the enumerator owns the
  // order) — provided every Select sits before the first join (pushed into
  // input 0) or after the last (wrapping the canonical output). A Select
  // BETWEEN joins pins the intermediate it filters, so such chains keep
  // the legacy left-deep binary lowering below.
  size_t joins = 0;
  size_t first_join = steps_.size();
  size_t last_join = 0;
  for (size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].kind == Step::Kind::kEJoin) {
      ++joins;
      first_join = std::min(first_join, i);
      last_join = i;
    }
  }
  bool mid_select = false;
  if (joins >= 2) {
    for (size_t i = first_join + 1; i < last_join; ++i) {
      if (steps_[i].kind == Step::Kind::kSelect) mid_select = true;
    }
  }
  if (joins >= 2 && !mid_select) {
    CEJ_ASSIGN_OR_RETURN(plan::NodePtr node, BuildChainedGraph());
    CEJ_RETURN_IF_ERROR(plan::OutputSchema(node).status());
    return node;
  }
  CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> base,
                       engine_->Table(table_));
  plan::NodePtr node = plan::Scan(table_, std::move(base));
  for (const Step& step : steps_) {
    switch (step.kind) {
      case Step::Kind::kSelect:
        if (step.predicate == nullptr) {
          return Status::InvalidArgument("Select: null predicate");
        }
        node = plan::Select(std::move(node), step.predicate);
        break;
      case Step::Kind::kEJoin: {
        CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> right,
                             engine_->Table(step.right_table));
        // Resolve the model lazily: vector-key joins need none, and an
        // unknown key column should be reported as such by the schema
        // check below, not as a missing model.
        const model::EmbeddingModel* model = nullptr;
        auto right_field =
            right->schema().FieldIndex(step.right_key);
        const bool string_key =
            right_field.ok() &&
            right->schema().field(*right_field).type ==
                storage::DataType::kString;
        if (string_key) {
          CEJ_ASSIGN_OR_RETURN(model, engine_->ResolveModel(step.model));
        }
        node = plan::EJoin(std::move(node),
                           plan::Scan(step.right_table, std::move(right)),
                           step.left_key, step.right_key, model,
                           step.condition);
        break;
      }
    }
  }
  // Surface malformed chains (unknown columns, type mismatches) now.
  CEJ_RETURN_IF_ERROR(plan::OutputSchema(node).status());
  return node;
}

Result<plan::NodePtr> QueryBuilder::OptimizedPlan() const {
  CEJ_ASSIGN_OR_RETURN(plan::NodePtr naive, Build());
  return optimize_ ? plan::Optimize(naive) : naive;
}

Result<std::string> QueryBuilder::Explain() const {
  CEJ_ASSIGN_OR_RETURN(plan::NodePtr naive, Build());
  std::string out = "— logical plan —\n" + plan::PlanToString(naive);
  plan::NodePtr optimized = optimize_ ? plan::Optimize(naive) : naive;
  if (optimize_) {
    out += "— optimized plan —\n" + plan::PlanToString(optimized);
  }
  // Join-graph plans: run the same enumeration Execute() would (same
  // calibrated pricing snapshot, pool width, shard count, forced order)
  // and render the DP memo plus the chosen edge order.
  {
    plan::NodePtr graph = optimized;
    while (graph != nullptr && graph->kind == plan::NodeKind::kSelect) {
      graph = graph->child;
    }
    if (graph != nullptr && graph->kind == plan::NodeKind::kJoinGraph) {
      plan::ExecContext context = engine_->MakeExecContext();
      context.force_join_order = force_join_order_;
      auto order = plan::PlanJoinOrder(graph, context);
      if (order.ok()) out += plan::MemoToString(graph, *order);
    }
  }
  // Index-catalog availability per join key: the other half of the
  // scan-vs-probe story (ExecStats carries the counters after a run;
  // this shows the state BEFORE one).
  std::string catalog;
  auto snapshot = engine_->index_manager()->Snapshot();
  for (const Step& step : steps_) {
    if (step.kind != Step::Kind::kEJoin) continue;
    auto right = engine_->Table(step.right_table);
    if (!right.ok()) continue;
    auto right_field = (*right)->schema().FieldIndex(step.right_key);
    if (!right_field.ok()) continue;
    const bool string_key =
        (*right)->schema().field(*right_field).type ==
        storage::DataType::kString;
    const model::EmbeddingModel* model = nullptr;
    if (string_key) {
      auto resolved = engine_->ResolveModel(step.model);
      if (!resolved.ok()) continue;
      model = *resolved;
    }
    // The probe column the executed plan joins on: the hoisted embedding
    // column for string keys, the stored vector column otherwise.
    const std::string probe_column =
        string_key ? step.right_key + "_emb" : step.right_key;
    const index::IndexCatalogEntry* entry =
        snapshot->Find(step.right_table, probe_column, model);
    catalog += "  " + step.right_table + "." + step.right_key + ": ";
    if (entry == nullptr) {
      catalog += "no index (scan-family operators only)\n";
    } else if (entry->external) {
      catalog += "external index registered\n";
    } else {
      char line[96];
      std::snprintf(line, sizeof(line),
                    "%s index available (built in %.3fs)\n",
                    index::IndexFamilyName(entry->family),
                    entry->build_seconds);
      catalog += line;
    }
  }
  if (!catalog.empty()) out += "— index catalog —\n" + catalog;

  // Adaptive stats: the calibrated-vs-seed coefficients new plans price
  // with, and the recent per-join misprediction history feeding them.
  if (engine_->calibrator() != nullptr) {
    const stats::CostCalibrator& calibrator = *engine_->calibrator();
    const join::CostParams seed = calibrator.seed();
    const join::CostParams current = *calibrator.Current();
    const auto calibrator_stats = calibrator.stats();
    char line[160];
    out += "— adaptive stats —\n";
    std::snprintf(line, sizeof(line),
                  "  %llu observations, %llu refits, last refit error "
                  "%.3f |ln(est/meas)|\n",
                  static_cast<unsigned long long>(
                      calibrator_stats.observations),
                  static_cast<unsigned long long>(calibrator_stats.refits),
                  calibrator_stats.last_mean_abs_log_error);
    out += line;
    const auto coefficient = [&](const char* name, double seed_value,
                                 double calibrated_value) {
      std::snprintf(line, sizeof(line), "  %-20s %12.4g -> %-12.4g\n", name,
                    seed_value, calibrated_value);
      out += line;
    };
    coefficient("access", seed.access, current.access);
    coefficient("model", seed.model, current.model);
    coefficient("compute", seed.compute, current.compute);
    coefficient("tensor_efficiency", seed.tensor_efficiency,
                current.tensor_efficiency);
    coefficient("probe_per_candidate", seed.probe_per_candidate,
                current.probe_per_candidate);
    coefficient("parallel_efficiency", seed.parallel_efficiency,
                current.parallel_efficiency);
    std::snprintf(line, sizeof(line),
                  "  %llu explorations, %.3f ms exploration overhead%s\n",
                  static_cast<unsigned long long>(
                      calibrator_stats.explorations),
                  calibrator_stats.exploration_overhead_ns / 1e6,
                  calibrator.ExplorationAllowed() ? ""
                                                  : " (budget exhausted)");
    out += line;
    const auto history = calibrator.workload_stats().AllObservations();
    if (!history.empty()) {
      out += "  recent joins (operator, est ms, meas ms, |ln err|):\n";
      const size_t first = history.size() > 8 ? history.size() - 8 : 0;
      for (size_t i = first; i < history.size(); ++i) {
        const auto& obs = history[i];
        const double err =
            obs.estimated_ns > 0.0 && obs.measured_ns > 0.0
                ? std::fabs(std::log(obs.estimated_ns / obs.measured_ns))
                : 0.0;
        std::snprintf(line, sizeof(line),
                      "  #%-4llu %-16s%s est %10.3f meas %10.3f err %5.2f\n",
                      static_cast<unsigned long long>(obs.sequence),
                      obs.op.c_str(), obs.explored ? " (explored)" : "",
                      obs.estimated_ns / 1e6, obs.measured_ns / 1e6, err);
        out += line;
      }
    }
  }
  return out;
}

Result<QueryResult> QueryBuilder::Execute() const {
  CEJ_ASSIGN_OR_RETURN(plan::NodePtr plan, OptimizedPlan());
  plan::ExecContext context = engine_->MakeExecContext();
  context.force_operator = force_operator_;
  context.require_exact = require_exact_;
  context.force_join_order = force_join_order_;
  QueryResult result;
  CEJ_ASSIGN_OR_RETURN(result.relation,
                       plan::Execute(plan, context, &result.stats));
  return result;
}

Result<join::JoinStats> QueryBuilder::Stream(join::JoinSink* sink,
                                             plan::ExecStats* stats) const {
  CEJ_ASSIGN_OR_RETURN(plan::NodePtr plan, OptimizedPlan());
  plan::ExecContext context = engine_->MakeExecContext();
  context.force_operator = force_operator_;
  context.require_exact = require_exact_;
  context.force_join_order = force_join_order_;
  return plan::ExecuteToSink(plan, context, sink, stats);
}

}  // namespace cej
