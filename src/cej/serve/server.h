// The cej::serve serving layer: concurrent query admission with
// multi-query fusion (the serving-side consequence of the paper's central
// result). The tensor formulation turns semantic matching into batched
// GEMM whose throughput climbs with batch size (Figure 12), so concurrent
// small top-k queries against the same table are free rows to stack onto
// one sweep — yet a solo Engine::Execute plans and runs alone.
//
// serve::Server closes that gap:
//
//   * Admission queue — Submit(ServeQuery, SubmitOptions) returns a
//     Ticket immediately; bounded depth with reject-with-status shedding
//     (backpressure), round-robin fairness across tenants, FIFO within a
//     tenant, and deadline-based cancellation of queued work (a query past
//     its deadline resolves DEADLINE_EXCEEDED instead of running).
//   * Fusion planner — queued queries sharing (table, column, model,
//     condition, exactness, operator override) are coalesced into ONE
//     batched sweep: their probe vectors stack into a single taller left
//     matrix, one registry-selected operator runs over one catalog/cache
//     snapshot, and plan::ExecuteToDemuxSinks routes each result pair back
//     to its member query by row range — byte-identical to solo execution
//     (top-k and threshold conditions are per-left-row, so stacking
//     changes nothing but the batch height).
//   * Budgets & degradation — per-tenant in-flight memory budgets; over
//     budget or over queue depth, Submit sheds with RESOURCE_EXHAUSTED
//     rather than blocking forever.
//   * Observability — ServeStats carries queue depth, queue-wait and
//     shed/expiry counters, batches_formed / queries_fused / fusion_ratio,
//     per-tenant counters, and p50/p99 latency from a ring of completed
//     query timings.
//
// The server prices fused batches through the engine's calibrated
// CostParams snapshot like any other plan (the fused workload shape —
// JoinWorkload::fused_queries — is part of the quote), so the scheduler's
// decisions stay feedback-driven as the calibrator learns.

#ifndef CEJ_SERVE_SERVER_H_
#define CEJ_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cej/common/status.h"
#include "cej/join/join_common.h"
#include "cej/la/matrix.h"
#include "cej/plan/executor.h"

namespace cej {
class Engine;
}

namespace cej::serve {

/// One client query: a probe batch joined against a registered table's key
/// column. Exactly one of `probe_strings` / `probe_vectors` must be
/// non-empty; strings are embedded under the table column's model (batched
/// across a fused batch's members), vectors are used as-is and must be
/// L2-normalized rows of the column's embedding dimensionality.
struct ServeQuery {
  std::string table;   ///< Registered right table.
  std::string column;  ///< Join key column (string or stored vector).
  /// Model for string key columns ("" = the engine default). Part of the
  /// fusion key: only queries naming the same model fuse.
  std::string model;
  join::JoinCondition condition;
  std::vector<std::string> probe_strings;
  la::Matrix probe_vectors;
  /// Mirror of QueryBuilder::RequireExact() / Via().
  bool require_exact = false;
  std::string force_operator;
};

/// Per-submission scheduling parameters.
struct SubmitOptions {
  /// Fairness domain ("" = "default"). Tenants take turns, one query per
  /// turn; each tenant's queue is FIFO.
  std::string tenant;
  /// Relative deadline; 0 = none. Enforced when the query's turn arrives:
  /// a queued query past its deadline resolves DEADLINE_EXCEEDED.
  std::chrono::nanoseconds timeout{0};
};

/// Stacked probe rows per fused batch (a single over-tall query still
/// runs, alone).
inline constexpr size_t kMaxBatchRows = 8192;
/// Completed-query timings retained for the p50/p99 estimate.
inline constexpr size_t kLatencyRingCapacity = 1024;

/// Serving-layer configuration (Engine::Options::serve).
struct ServerOptions {
  /// Dispatcher threads executing batches (each batch itself runs on the
  /// engine's worker pool). >= 1.
  size_t worker_threads = 2;
  /// Queued-query cap across all tenants; Submit sheds past it.
  size_t max_queue_depth = 256;
  /// Multi-query fusion switch (off = every query runs solo; the
  /// admission queue, fairness, and budgets still apply).
  bool fusion_enabled = true;
  /// Member queries per fused batch (stacked rows are capped at
  /// kMaxBatchRows).
  size_t max_batch_queries = 64;
  /// Batch-forming window: a dispatcher holds a query up to `fusion_wait`
  /// for at least `min_fusion_queries` fusable peers to arrive (deadlines
  /// still fire during the hold). The defaults disable holding — fusion
  /// then captures only queries ALREADY queued together, trading fusion
  /// ratio for zero added latency.
  size_t min_fusion_queries = 1;
  std::chrono::nanoseconds fusion_wait{0};
  /// Per-tenant in-flight probe-byte budget (queued + executing);
  /// 0 = unbounded. Submissions over budget shed with RESOURCE_EXHAUSTED.
  size_t tenant_memory_budget_bytes = 0;
};

/// Per-tenant counters (ServeStats::tenants).
struct TenantStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;     ///< Rejected at Submit (queue/budget) or shutdown.
  uint64_t expired = 0;  ///< Resolved DEADLINE_EXCEEDED.
  uint64_t fused = 0;    ///< Completions that shared a batch.
  size_t in_flight_bytes = 0;
};

/// Server-wide observability snapshot.
struct ServeStats {
  size_t queue_depth = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed_count = 0;
  uint64_t expired_count = 0;
  /// Executed batches, and completions that shared one with at least one
  /// other query; fusion_ratio = queries_fused / completed.
  uint64_t batches_formed = 0;
  uint64_t queries_fused = 0;
  double fusion_ratio = 0.0;
  /// Total seconds completed/expired queries spent queued (mean =
  /// queue_wait_seconds / (completed + expired)).
  double queue_wait_seconds = 0.0;
  /// Submit-to-resolution latency percentiles over the completed-query
  /// timing ring (0 until something completes).
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  std::map<std::string, TenantStats> tenants;
};

/// A resolved query: status plus (on OK) the matched pairs. Pair left ids
/// address the query's OWN probe rows (demuxed out of a fused batch),
/// right ids address the base-table rows, pairs sorted (left, right) —
/// exactly the solo Stream() contract.
struct QueryResponse {
  Status status;
  std::vector<join::JoinPair> pairs;
  /// Executor diagnostics of the run that served this query. For a fused
  /// query these are BATCH-level (shared by all members; fused_queries
  /// carries the member count).
  plan::ExecStats exec;
  double queue_wait_seconds = 0.0;
  double latency_seconds = 0.0;  ///< Submit to resolution.
  bool fused = false;            ///< Shared a batch with other queries.
  size_t batch_queries = 1;      ///< Members of the batch that served it.
};

namespace internal {
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  QueryResponse response;
};
}  // namespace internal

/// Handle to a submitted query's future resolution. Cheap to copy; valid
/// tickets resolve exactly once (completion, error, deadline, or server
/// shutdown) — Get() never blocks forever on a live server.
class Ticket {
 public:
  Ticket() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the query resolved (non-blocking).
  bool done() const;

  /// Blocks until resolution, up to `timeout`; true when resolved.
  bool WaitFor(std::chrono::nanoseconds timeout) const;

  /// Blocks until resolution and returns the response (valid as long as
  /// the ticket — responses are owned by the shared ticket state).
  const QueryResponse& Get() const;

 private:
  friend class Server;
  explicit Ticket(std::shared_ptr<internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::TicketState> state_;
};

/// The serving layer. Owns dispatcher threads that drain the admission
/// queue, form fused batches, and execute them through the engine's plan
/// layer. Thread-safe; the engine must outlive the server (Engine::serve()
/// guarantees this by owning it).
class Server {
 public:
  Server(Engine* engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a query. Fails fast with RESOURCE_EXHAUSTED when the queue
  /// is full, the tenant is over its memory budget, or the server is shut
  /// down; with INVALID_ARGUMENT on a malformed query (deep errors —
  /// unknown table, dimensionality mismatch — resolve the ticket
  /// instead). On success the returned Ticket resolves exactly once.
  Result<Ticket> Submit(ServeQuery query, SubmitOptions options = {});

  /// Stops accepting work, resolves still-queued queries as shed, and
  /// joins the dispatchers (in-flight batches finish). Idempotent; the
  /// destructor calls it.
  void Shutdown();

  ServeStats stats() const;

  const ServerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ServeQuery query;
    std::string tenant;
    std::shared_ptr<internal::TicketState> ticket;
    Clock::time_point submitted_at;
    Clock::time_point deadline;  // time_point::max() = none.
    size_t probe_rows = 0;
    size_t charged_bytes = 0;
    std::string fusion_key;
    uint64_t sequence = 0;
    double queue_wait_seconds = 0.0;  // Set at dispatch.
  };
  using PendingPtr = std::shared_ptr<Pending>;

  struct Tenant {
    std::deque<PendingPtr> queue;  // FIFO.
    size_t in_flight_bytes = 0;
    TenantStats stats;
  };

  enum class Outcome { kCompleted, kFailed, kExpired, kShed };

  void WorkerLoop();
  // Queue surgery; all require mu_ held.
  PendingPtr PopNextLocked();
  void ExpireLocked(Clock::time_point now);
  size_t CountMatchesLocked(const std::string& key,
                            Clock::time_point now) const;
  void CollectMatchesLocked(const Pending& head,
                            std::vector<PendingPtr>* batch,
                            Clock::time_point now);
  Clock::time_point EarliestDeadlineLocked() const;
  void ResolveLocked(const PendingPtr& pending, QueryResponse response,
                     Outcome outcome);
  void Resolve(const PendingPtr& pending, QueryResponse response,
               Outcome outcome);
  // Executes one formed batch end-to-end (no lock held).
  void ExecuteBatch(const std::vector<PendingPtr>& batch);
  Status RunBatch(const std::vector<PendingPtr>& batch);

  Engine* const engine_;
  const ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::unordered_map<std::string, Tenant> tenants_;
  std::vector<std::string> rr_order_;  // Tenant round-robin ring.
  // The ring slot to try next, taken modulo the ring size when used (so a
  // tenant appended after the last slot gets the next turn).
  size_t rr_cursor_ = 0;
  size_t queue_depth_ = 0;
  uint64_t next_sequence_ = 0;
  // Aggregate counters (per-tenant ones live in Tenant::stats).
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t shed_ = 0;
  uint64_t expired_ = 0;
  uint64_t batches_formed_ = 0;
  uint64_t queries_fused_ = 0;
  double queue_wait_seconds_ = 0.0;
  // Completed-query latency ring for the percentile estimate.
  std::vector<double> latency_ring_;
  size_t latency_cursor_ = 0;
  size_t latency_count_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace cej::serve

#endif  // CEJ_SERVE_SERVER_H_
