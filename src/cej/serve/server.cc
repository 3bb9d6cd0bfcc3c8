#include "cej/serve/server.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "cej/api/engine.h"
#include "cej/join/join_sink.h"
#include "cej/plan/logical_plan.h"
#include "cej/storage/relation.h"

namespace cej::serve {

namespace {

constexpr char kProbeColumn[] = "probe";
constexpr char kProbeTable[] = "<serve:probes>";

// Canonical batch-compatibility key: two queued queries fuse iff every
// plan-shaping input matches — same right table/column/model, same operator
// override and exactness requirement, same condition (threshold compared
// by BIT pattern: fusion must never conflate 0.9f with the nearest float
// below it). Probe contents are deliberately NOT part of the key; they are
// what gets stacked.
std::string FusionKey(const ServeQuery& q) {
  std::string key;
  key.reserve(q.table.size() + q.column.size() + q.model.size() +
              q.force_operator.size() + 24);
  key.append(q.table).push_back('\0');
  key.append(q.column).push_back('\0');
  key.append(q.model).push_back('\0');
  key.append(q.force_operator).push_back('\0');
  key.push_back(q.require_exact ? '1' : '0');
  key.push_back(q.condition.kind == join::JoinCondition::Kind::kTopK ? 'k'
                                                                     : 't');
  uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(q.condition.threshold));
  std::memcpy(&bits, &q.condition.threshold, sizeof(bits));
  key.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  const uint64_t k = q.condition.k;
  key.append(reinterpret_cast<const char*>(&k), sizeof(k));
  return key;
}

size_t ProbeRows(const ServeQuery& q) {
  return q.probe_strings.empty() ? q.probe_vectors.rows()
                                 : q.probe_strings.size();
}

// Admission-time memory charge: the probe payload the queue holds alive.
size_t ProbeBytes(const ServeQuery& q) {
  if (!q.probe_strings.empty()) {
    size_t bytes = 0;
    for (const std::string& s : q.probe_strings) bytes += s.size();
    return bytes;
  }
  return q.probe_vectors.rows() * q.probe_vectors.cols() * sizeof(float);
}

double SecondsSince(std::chrono::steady_clock::time_point from,
                    std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(to - from)
      .count();
}

double RingPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(p * static_cast<double>(values.size() - 1) + 0.5));
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

}  // namespace

bool Ticket::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

bool Ticket::WaitFor(std::chrono::nanoseconds timeout) const {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [&] { return state_->done; });
}

const QueryResponse& Ticket::Get() const {
  CEJ_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->response;
}

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {
  CEJ_CHECK(engine_ != nullptr);
  latency_ring_.reserve(kLatencyRingCapacity);
  const size_t workers = std::max<size_t>(options_.worker_threads, 1);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Shutdown(); }

Result<Ticket> Server::Submit(ServeQuery query, SubmitOptions options) {
  const bool has_strings = !query.probe_strings.empty();
  const bool has_vectors = query.probe_vectors.rows() > 0;
  if (has_strings == has_vectors) {
    return Status::InvalidArgument(
        "serve: exactly one of probe_strings / probe_vectors must be "
        "non-empty");
  }
  if (query.table.empty() || query.column.empty()) {
    return Status::InvalidArgument("serve: query needs a table and a column");
  }
  CEJ_RETURN_IF_ERROR(join::ValidateJoinCondition(query.condition));

  auto pending = std::make_shared<Pending>();
  pending->tenant = options.tenant.empty() ? "default" : options.tenant;
  pending->probe_rows = ProbeRows(query);
  pending->charged_bytes = ProbeBytes(query);
  pending->fusion_key = FusionKey(query);
  pending->query = std::move(query);
  pending->ticket = std::make_shared<internal::TicketState>();
  pending->submitted_at = Clock::now();
  pending->deadline = options.timeout.count() > 0
                          ? pending->submitted_at + options.timeout
                          : Clock::time_point::max();

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = tenants_.try_emplace(pending->tenant);
    Tenant& tenant = it->second;
    if (inserted) rr_order_.push_back(pending->tenant);
    ++submitted_;
    ++tenant.stats.submitted;
    if (stop_) {
      ++shed_;
      ++tenant.stats.shed;
      return Status::ResourceExhausted("serve: server is shut down");
    }
    if (queue_depth_ >= options_.max_queue_depth) {
      ++shed_;
      ++tenant.stats.shed;
      return Status::ResourceExhausted("serve: admission queue is full");
    }
    if (options_.tenant_memory_budget_bytes > 0 &&
        tenant.in_flight_bytes + pending->charged_bytes >
            options_.tenant_memory_budget_bytes) {
      ++shed_;
      ++tenant.stats.shed;
      return Status::ResourceExhausted(
          "serve: tenant over its in-flight memory budget");
    }
    tenant.in_flight_bytes += pending->charged_bytes;
    tenant.stats.in_flight_bytes = tenant.in_flight_bytes;
    pending->sequence = next_sequence_++;
    tenant.queue.push_back(pending);
    ++queue_depth_;
  }
  cv_.notify_all();
  return Ticket(pending->ticket);
}

void Server::Shutdown() {
  std::vector<PendingPtr> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      stop_ = true;
      for (auto& [name, tenant] : tenants_) {
        for (PendingPtr& pending : tenant.queue) {
          orphaned.push_back(std::move(pending));
        }
        tenant.queue.clear();
      }
      queue_depth_ = 0;
    }
  }
  cv_.notify_all();
  for (const PendingPtr& pending : orphaned) {
    QueryResponse response;
    response.status =
        Status::ResourceExhausted("serve: server shut down before dispatch");
    Resolve(pending, std::move(response), Outcome::kShed);
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats out;
  out.queue_depth = queue_depth_;
  out.submitted = submitted_;
  out.completed = completed_;
  out.failed = failed_;
  out.shed_count = shed_;
  out.expired_count = expired_;
  out.batches_formed = batches_formed_;
  out.queries_fused = queries_fused_;
  out.fusion_ratio =
      completed_ > 0
          ? static_cast<double>(queries_fused_) / static_cast<double>(completed_)
          : 0.0;
  out.queue_wait_seconds = queue_wait_seconds_;
  std::vector<double> ring(latency_ring_.begin(),
                           latency_ring_.begin() + latency_count_);
  out.p50_latency_seconds = RingPercentile(ring, 0.50);
  out.p99_latency_seconds = RingPercentile(std::move(ring), 0.99);
  for (const auto& [name, tenant] : tenants_) {
    out.tenants[name] = tenant.stats;
  }
  return out;
}

void Server::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || queue_depth_ > 0; });
    if (stop_) return;
    Clock::time_point now = Clock::now();
    ExpireLocked(now);
    PendingPtr head = PopNextLocked();
    if (head == nullptr) continue;

    std::vector<PendingPtr> batch;
    batch.push_back(head);
    if (options_.fusion_enabled) {
      // Batch-forming hold: wait (deadline-aware) for enough fusable
      // peers. The head is already popped, so another dispatcher cannot
      // steal it; peers may still be taken by other dispatchers — that is
      // progress, not a bug, and the hold just re-checks.
      if (options_.min_fusion_queries > 1 &&
          options_.fusion_wait.count() > 0) {
        const Clock::time_point window_end = now + options_.fusion_wait;
        while (!stop_) {
          now = Clock::now();
          ExpireLocked(now);
          if (now >= window_end || now >= head->deadline) break;
          if (1 + CountMatchesLocked(head->fusion_key, now) >=
              options_.min_fusion_queries) {
            break;
          }
          Clock::time_point wake = std::min(window_end, head->deadline);
          const Clock::time_point queue_deadline = EarliestDeadlineLocked();
          wake = std::min(wake, queue_deadline);
          cv_.wait_until(lock, wake);
        }
        if (stop_) {
          lock.unlock();
          QueryResponse response;
          response.status = Status::ResourceExhausted(
              "serve: server shut down before dispatch");
          Resolve(head, std::move(response), Outcome::kShed);
          lock.lock();
          return;
        }
      }
      now = Clock::now();
      if (now < head->deadline) {
        CollectMatchesLocked(*head, &batch, now);
      }
    }
    if (now >= head->deadline) {
      QueryResponse response;
      response.status =
          Status::DeadlineExceeded("serve: deadline expired in queue");
      ResolveLocked(head, std::move(response), Outcome::kExpired);
      continue;
    }

    ++batches_formed_;
    if (batch.size() > 1) queries_fused_ += batch.size();
    const Clock::time_point dispatched = Clock::now();
    for (const PendingPtr& pending : batch) {
      pending->queue_wait_seconds =
          SecondsSince(pending->submitted_at, dispatched);
      queue_wait_seconds_ += pending->queue_wait_seconds;
    }
    lock.unlock();
    ExecuteBatch(batch);
    lock.lock();
  }
}

Server::PendingPtr Server::PopNextLocked() {
  const size_t tenants = rr_order_.size();
  // Round robin: one query per turn, starting after the last tenant served.
  for (size_t attempt = 0; attempt < tenants; ++attempt) {
    const size_t slot = rr_cursor_ % tenants;
    rr_cursor_ = slot + 1;
    Tenant& tenant = tenants_[rr_order_[slot]];
    if (tenant.queue.empty()) continue;
    PendingPtr pending = std::move(tenant.queue.front());
    tenant.queue.pop_front();
    --queue_depth_;
    return pending;
  }
  return nullptr;
}

void Server::ExpireLocked(Clock::time_point now) {
  std::vector<PendingPtr> expired;
  for (auto& [name, tenant] : tenants_) {
    auto it = tenant.queue.begin();
    while (it != tenant.queue.end()) {
      if ((*it)->deadline <= now) {
        expired.push_back(std::move(*it));
        it = tenant.queue.erase(it);
        --queue_depth_;
      } else {
        ++it;
      }
    }
  }
  for (const PendingPtr& pending : expired) {
    QueryResponse response;
    response.status =
        Status::DeadlineExceeded("serve: deadline expired in queue");
    ResolveLocked(pending, std::move(response), Outcome::kExpired);
  }
}

size_t Server::CountMatchesLocked(const std::string& key,
                                  Clock::time_point now) const {
  size_t matches = 0;
  for (const auto& [name, tenant] : tenants_) {
    for (const PendingPtr& pending : tenant.queue) {
      if (pending->fusion_key == key && pending->deadline > now) ++matches;
    }
  }
  return matches;
}

void Server::CollectMatchesLocked(const Pending& head,
                                  std::vector<PendingPtr>* batch,
                                  Clock::time_point now) {
  size_t rows = head.probe_rows;
  std::vector<PendingPtr> matches;
  for (const auto& [name, tenant] : tenants_) {
    for (const PendingPtr& pending : tenant.queue) {
      if (pending->fusion_key == head.fusion_key && pending->deadline > now) {
        matches.push_back(pending);
      }
    }
  }
  // Submission order keeps batch membership deterministic regardless of
  // tenant-map iteration order.
  std::sort(matches.begin(), matches.end(),
            [](const PendingPtr& a, const PendingPtr& b) {
              return a->sequence < b->sequence;
            });
  std::unordered_set<const Pending*> taken;
  for (const PendingPtr& pending : matches) {
    if (batch->size() >= std::max<size_t>(options_.max_batch_queries, 1)) {
      break;
    }
    if (rows + pending->probe_rows > kMaxBatchRows) break;
    rows += pending->probe_rows;
    taken.insert(pending.get());
    batch->push_back(pending);
  }
  if (taken.empty()) return;
  for (auto& [name, tenant] : tenants_) {
    auto it = tenant.queue.begin();
    while (it != tenant.queue.end()) {
      if (taken.count(it->get()) > 0) {
        it = tenant.queue.erase(it);
        --queue_depth_;
      } else {
        ++it;
      }
    }
  }
}

Server::Clock::time_point Server::EarliestDeadlineLocked() const {
  Clock::time_point earliest = Clock::time_point::max();
  for (const auto& [name, tenant] : tenants_) {
    for (const PendingPtr& pending : tenant.queue) {
      earliest = std::min(earliest, pending->deadline);
    }
  }
  return earliest;
}

void Server::ResolveLocked(const PendingPtr& pending, QueryResponse response,
                           Outcome outcome) {
  const Clock::time_point now = Clock::now();
  response.latency_seconds = SecondsSince(pending->submitted_at, now);
  if (outcome == Outcome::kExpired) {
    pending->queue_wait_seconds = response.latency_seconds;
  }
  response.queue_wait_seconds = pending->queue_wait_seconds;
  queue_wait_seconds_ += outcome == Outcome::kExpired
                             ? pending->queue_wait_seconds
                             : 0.0;
  Tenant& tenant = tenants_[pending->tenant];
  tenant.in_flight_bytes -=
      std::min(tenant.in_flight_bytes, pending->charged_bytes);
  tenant.stats.in_flight_bytes = tenant.in_flight_bytes;
  switch (outcome) {
    case Outcome::kCompleted:
      ++completed_;
      ++tenant.stats.completed;
      if (response.fused) {
        ++tenant.stats.fused;
      }
      if (latency_ring_.size() < kLatencyRingCapacity) {
        latency_ring_.push_back(response.latency_seconds);
      } else {
        latency_ring_[latency_cursor_] = response.latency_seconds;
      }
      latency_cursor_ = (latency_cursor_ + 1) % kLatencyRingCapacity;
      latency_count_ = latency_ring_.size();
      break;
    case Outcome::kFailed:
      ++failed_;
      ++tenant.stats.failed;
      break;
    case Outcome::kExpired:
      ++expired_;
      ++tenant.stats.expired;
      break;
    case Outcome::kShed:
      ++shed_;
      ++tenant.stats.shed;
      break;
  }
  {
    std::lock_guard<std::mutex> ticket_lock(pending->ticket->mu);
    pending->ticket->response = std::move(response);
    pending->ticket->done = true;
  }
  pending->ticket->cv.notify_all();
}

void Server::Resolve(const PendingPtr& pending, QueryResponse response,
                     Outcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  ResolveLocked(pending, std::move(response), outcome);
}

void Server::ExecuteBatch(const std::vector<PendingPtr>& batch) {
  const Status status = RunBatch(batch);
  if (!status.ok()) {
    // Setup failed before any ticket resolved: every member fails with
    // the same status (deep per-query errors cannot exist — the fusion
    // key guarantees members are plan-identical).
    for (const PendingPtr& pending : batch) {
      QueryResponse response;
      response.status = status;
      response.batch_queries = batch.size();
      Resolve(pending, std::move(response), Outcome::kFailed);
    }
  }
}

Status Server::RunBatch(const std::vector<PendingPtr>& batch) {
  CEJ_CHECK(!batch.empty());
  const ServeQuery& q0 = batch.front()->query;
  CEJ_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Relation> table,
                       engine_->Table(q0.table));
  CEJ_ASSIGN_OR_RETURN(const size_t field_index,
                       table->schema().FieldIndex(q0.column));
  const storage::Field& field = table->schema().field(field_index);

  // The join-key domain fixes the probe dimensionality and whether the
  // right side needs an Embed stage.
  const model::EmbeddingModel* right_model = nullptr;
  size_t dim = 0;
  if (field.type == storage::DataType::kString) {
    CEJ_ASSIGN_OR_RETURN(right_model, engine_->ResolveModel(q0.model));
    dim = right_model->dim();
  } else if (field.type == storage::DataType::kVector) {
    dim = field.vector_dim;
  } else {
    return Status::InvalidArgument(
        "serve: join key column must be a string or vector column");
  }

  // Stack every member's probes into ONE left matrix. String probes are
  // embedded in a single pool-parallel EmbedBatch across the whole batch —
  // the model-amortization half of the fusion win (the other half is the
  // single taller sweep).
  size_t total_rows = 0;
  bool any_strings = false;
  for (const PendingPtr& pending : batch) {
    const ServeQuery& q = pending->query;
    if (!q.probe_strings.empty()) {
      any_strings = true;
    } else if (q.probe_vectors.cols() != dim) {
      return Status::InvalidArgument(
          "serve: probe vector dimensionality does not match the join key "
          "column");
    }
    total_rows += pending->probe_rows;
  }
  const model::EmbeddingModel* probe_model = right_model;
  if (any_strings && probe_model == nullptr) {
    CEJ_ASSIGN_OR_RETURN(probe_model, engine_->ResolveModel(q0.model));
    if (probe_model->dim() != dim) {
      return Status::InvalidArgument(
          "serve: probe model dimensionality does not match the stored "
          "vector column");
    }
  }

  la::Matrix stacked(total_rows, dim);
  std::vector<std::string> strings;
  std::vector<size_t> string_rows;  // Destination row per strings[] entry.
  size_t row = 0;
  for (const PendingPtr& pending : batch) {
    const ServeQuery& q = pending->query;
    if (!q.probe_strings.empty()) {
      for (const std::string& s : q.probe_strings) {
        strings.push_back(s);
        string_rows.push_back(row++);
      }
    } else {
      std::memcpy(stacked.Row(row), q.probe_vectors.data(),
                  q.probe_vectors.rows() * dim * sizeof(float));
      row += q.probe_vectors.rows();
    }
  }
  if (!strings.empty()) {
    const la::Matrix embedded =
        probe_model->EmbedBatch(strings, engine_->pool());
    for (size_t i = 0; i < string_rows.size(); ++i) {
      std::memcpy(stacked.Row(string_rows[i]), embedded.Row(i),
                  dim * sizeof(float));
    }
  }

  CEJ_ASSIGN_OR_RETURN(
      storage::Schema probe_schema,
      storage::Schema::Create(
          {{kProbeColumn, storage::DataType::kVector, dim}}));
  std::vector<storage::Column> probe_columns;
  probe_columns.push_back(storage::Column::Vector(std::move(stacked)));
  CEJ_ASSIGN_OR_RETURN(storage::Relation probe_relation,
                       storage::Relation::Create(std::move(probe_schema),
                                                 std::move(probe_columns)));

  // Build the already-hoisted plan shape the optimizer would produce for a
  // solo query (Embed over the right scan when the key is a string), so
  // fused execution shares the embedding cache and index catalog keys with
  // solo runs.
  plan::NodePtr left = plan::Scan(
      kProbeTable, std::make_shared<const storage::Relation>(
                       std::move(probe_relation)));
  plan::NodePtr right = plan::Scan(q0.table, table);
  std::string right_key = q0.column;
  if (right_model != nullptr) {
    right_key = q0.column + "_emb";
    right = plan::Embed(right, q0.column, right_model, right_key);
  }
  plan::NodePtr join = plan::EJoin(std::move(left), std::move(right),
                                   kProbeColumn, right_key, right_model,
                                   q0.condition);

  plan::ExecContext context = engine_->MakeExecContext();
  context.force_operator = q0.force_operator;
  context.require_exact = q0.require_exact;

  std::vector<std::unique_ptr<join::MaterializingSink>> sinks;
  std::vector<plan::ProbeSlice> slices;
  sinks.reserve(batch.size());
  slices.reserve(batch.size());
  size_t begin = 0;
  for (const PendingPtr& pending : batch) {
    sinks.push_back(std::make_unique<join::MaterializingSink>());
    slices.push_back(
        {begin, begin + pending->probe_rows, sinks.back().get()});
    begin += pending->probe_rows;
  }

  plan::ExecStats exec_stats;
  CEJ_ASSIGN_OR_RETURN(
      const join::JoinStats join_stats,
      plan::ExecuteToDemuxSinks(join, context, slices, &exec_stats));
  (void)join_stats;  // Merged into exec_stats.join_stats by the executor.

  for (size_t i = 0; i < batch.size(); ++i) {
    QueryResponse response;
    response.status = Status::OK();
    response.pairs = sinks[i]->TakePairs();
    response.exec = exec_stats;
    response.fused = batch.size() > 1;
    response.batch_queries = batch.size();
    Resolve(batch[i], std::move(response), Outcome::kCompleted);
  }
  return Status::OK();
}

}  // namespace cej::serve
