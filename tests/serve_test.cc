// The serving layer (cej::serve): fused batches byte-identical to solo
// execution across top-k and threshold conditions, submit storms racing
// catalog churn (ReplaceTable / Recalibrate), deadline expiry and
// queue-full shedding statuses, per-tenant memory budgets, condition
// validation at Submit, round-robin fairness (a hog cannot starve a light
// tenant), and clean shutdown with queries still queued. Runs under TSan
// in CI.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cej/cej.h"
#include "cej/workload/generators.h"

namespace cej {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using storage::Column;
using storage::DataType;
using storage::Relation;
using storage::Schema;

std::shared_ptr<const Relation> WordsTable(
    const std::vector<std::string>& words) {
  auto schema = Schema::Create({{"word", DataType::kString, 0}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::String(words));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

std::shared_ptr<const Relation> VectorTable(la::Matrix embeddings) {
  auto schema =
      Schema::Create({{"emb", DataType::kVector, embeddings.cols()}});
  CEJ_CHECK(schema.ok());
  std::vector<Column> columns;
  columns.push_back(Column::Vector(std::move(embeddings)));
  auto rel = Relation::Create(std::move(schema).value(), std::move(columns));
  CEJ_CHECK(rel.ok());
  return std::make_shared<const Relation>(std::move(rel).value());
}

// ---------------------------------------------------------------------------
// Fusion correctness: byte identity with solo execution
// ---------------------------------------------------------------------------

TEST(ServeFusionTest, FusedTopKBatchIsByteIdenticalToSoloExecution) {
  // Eight same-shape top-k queries submitted together must coalesce into
  // at least one batched sweep whose demuxed per-query pairs are
  // byte-identical to each query executed solo through the QueryBuilder.
  Engine::Options options;
  // Solo and fused runs may legitimately pick different exact operators
  // (the fused left matrix is 8x taller); every kernel scores a pair the
  // same way, so their results are bit-identical and the comparison tests
  // the demux.
  options.num_threads = 2;
  options.serve.worker_threads = 1;
  options.serve.fusion_enabled = true;
  options.serve.min_fusion_queries = 8;
  options.serve.fusion_wait = seconds(5);
  Engine engine(options);
  model::SubwordHashModel model;
  const auto corpus_words = workload::RandomStrings(400, 3, 8, 901);
  ASSERT_TRUE(engine.RegisterTable("corpus", WordsTable(corpus_words)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());

  constexpr size_t kQueries = 8;
  constexpr size_t kProbesPerQuery = 4;
  std::vector<std::vector<std::string>> probes(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    probes[q] = workload::RandomStrings(kProbesPerQuery, 3, 8, 1000 + q);
  }

  serve::Server* server = engine.serve();
  ASSERT_NE(server, nullptr);
  const auto condition = join::JoinCondition::TopK(3);
  std::vector<serve::Ticket> tickets;
  for (size_t q = 0; q < kQueries; ++q) {
    serve::ServeQuery query;
    query.table = "corpus";
    query.column = "word";
    query.condition = condition;
    query.probe_strings = probes[q];
    auto ticket = server->Submit(std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }

  // Solo baselines: each probe set as its own registered table, executed
  // through the ordinary builder path (Stream = sorted base-row pairs).
  std::vector<std::vector<join::JoinPair>> solo(kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    const std::string name = "probe" + std::to_string(q);
    ASSERT_TRUE(engine.RegisterTable(name, WordsTable(probes[q])).ok());
    join::MaterializingSink sink;
    auto stats = engine.Query(name)
                     .EJoin("corpus", "word", "word", condition)
                     .Stream(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    solo[q] = sink.TakePairs();
    ASSERT_EQ(solo[q].size(), kProbesPerQuery * condition.k);
  }

  for (size_t q = 0; q < kQueries; ++q) {
    const serve::QueryResponse& response = tickets[q].Get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.fused) << "query " << q;
    EXPECT_GE(response.batch_queries, 2u);
    EXPECT_EQ(response.exec.fused_queries, response.batch_queries);
    EXPECT_EQ(response.pairs, solo[q]) << "query " << q;
  }

  const serve::ServeStats stats = server->stats();
  EXPECT_GE(stats.batches_formed, 1u);
  EXPECT_GT(stats.queries_fused, 0u);
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_GT(stats.fusion_ratio, 0.0);
  EXPECT_GT(stats.p50_latency_seconds, 0.0);
  EXPECT_GE(stats.p99_latency_seconds, stats.p50_latency_seconds);
}

TEST(ServeFusionTest, FusedThresholdBatchOverVectorColumnMatchesSolo) {
  // The stored-vector-column path: probe matrices fused over a vector key
  // column (no Embed stage at all), threshold condition.
  Engine::Options options;
  options.num_threads = 2;
  options.serve.worker_threads = 1;
  options.serve.min_fusion_queries = 4;
  options.serve.fusion_wait = seconds(5);
  Engine engine(options);
  constexpr size_t kDim = 32;
  la::Matrix corpus = workload::RandomUnitVectors(300, kDim, 77);
  ASSERT_TRUE(
      engine.RegisterTable("corpus", VectorTable(corpus.Clone())).ok());

  constexpr size_t kQueries = 4;
  constexpr size_t kProbesPerQuery = 6;
  const auto condition = join::JoinCondition::Threshold(0.2f);
  std::vector<la::Matrix> probes;
  for (size_t q = 0; q < kQueries; ++q) {
    probes.push_back(
        workload::RandomUnitVectors(kProbesPerQuery, kDim, 500 + q));
  }

  serve::Server* server = engine.serve();
  std::vector<serve::Ticket> tickets;
  for (size_t q = 0; q < kQueries; ++q) {
    serve::ServeQuery query;
    query.table = "corpus";
    query.column = "emb";
    query.condition = condition;
    query.probe_vectors = probes[q].Clone();
    auto ticket = server->Submit(std::move(query));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }

  for (size_t q = 0; q < kQueries; ++q) {
    const std::string name = "probe" + std::to_string(q);
    ASSERT_TRUE(
        engine.RegisterTable(name, VectorTable(probes[q].Clone())).ok());
    join::MaterializingSink sink;
    auto stats = engine.Query(name)
                     .EJoin("corpus", "emb", "emb", condition)
                     .Stream(&sink);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const std::vector<join::JoinPair> solo = sink.TakePairs();

    const serve::QueryResponse& response = tickets[q].Get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.pairs, solo) << "query " << q;
  }
  EXPECT_GT(server->stats().queries_fused, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: submit storm racing catalog churn
// ---------------------------------------------------------------------------

TEST(ServeConcurrencyTest, SubmitStormSurvivesReplaceTableAndRecalibrate) {
  Engine::Options options;
  options.num_threads = 2;
  options.adaptive_stats = true;
  options.stats_refit_interval = 2;
  options.serve.worker_threads = 2;
  Engine engine(options);
  model::SubwordHashModel model;
  const auto corpus_words = workload::RandomStrings(300, 3, 8, 21);
  ASSERT_TRUE(engine.RegisterTable("corpus", WordsTable(corpus_words)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  serve::Server* server = engine.serve();

  constexpr size_t kThreads = 4;
  constexpr size_t kQueriesPerThread = 8;
  constexpr size_t kProbesPerQuery = 4;
  constexpr size_t kTopK = 2;
  std::vector<std::vector<serve::Ticket>> tickets(kThreads);
  std::vector<std::thread> submitters;
  std::atomic<size_t> rejected{0};
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        serve::ServeQuery query;
        query.table = "corpus";
        query.column = "word";
        query.condition = join::JoinCondition::TopK(kTopK);
        query.probe_strings = workload::RandomStrings(
            kProbesPerQuery, 3, 8, 3000 + t * 100 + i);
        serve::SubmitOptions submit;
        submit.tenant = "tenant" + std::to_string(t);
        auto ticket = server->Submit(std::move(query), submit);
        if (ticket.ok()) {
          tickets[t].push_back(*ticket);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  // Catalog churn racing the storm: snapshot pinning must keep every
  // in-flight batch on the table and prices it planned against.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(
        engine.ReplaceTable("corpus", WordsTable(corpus_words)).ok());
    ASSERT_TRUE(engine.Recalibrate().ok());
    std::this_thread::sleep_for(milliseconds(2));
  }
  for (std::thread& submitter : submitters) submitter.join();

  EXPECT_EQ(rejected.load(), 0u) << "default queue depth fits the storm";
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < tickets[t].size(); ++i) {
      const serve::QueryResponse& response = tickets[t][i].Get();
      ASSERT_TRUE(response.status.ok())
          << "tenant " << t << " query " << i << ": "
          << response.status.ToString();
      // Exact top-k cardinality regardless of which table version served.
      EXPECT_EQ(response.pairs.size(), kProbesPerQuery * kTopK);
    }
  }
  const serve::ServeStats stats = server->stats();
  EXPECT_EQ(stats.completed, kThreads * kQueriesPerThread);
  EXPECT_EQ(stats.tenants.size(), kThreads);
}

// ---------------------------------------------------------------------------
// Degradation: deadlines, shedding, budgets
// ---------------------------------------------------------------------------

TEST(ServeDegradationTest, ExpiredDeadlineResolvesDeadlineExceeded) {
  Engine::Options options;
  options.serve.worker_threads = 1;
  options.serve.fusion_enabled = false;
  Engine engine(options);
  model::SubwordHashModel model;
  ASSERT_TRUE(
      engine.RegisterTable(
                "corpus", WordsTable(workload::RandomStrings(64, 3, 8, 5)))
          .ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  serve::Server* server = engine.serve();

  serve::ServeQuery query;
  query.table = "corpus";
  query.column = "word";
  query.condition = join::JoinCondition::TopK(1);
  query.probe_strings = {"alpha"};
  serve::SubmitOptions submit;
  // Already expired by the time any dispatcher can reach it.
  submit.timeout = std::chrono::nanoseconds(1);
  auto ticket = server->Submit(std::move(query), submit);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const serve::QueryResponse& response = ticket->Get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
      << response.status.ToString();
  EXPECT_TRUE(response.pairs.empty());
  EXPECT_EQ(server->stats().expired_count, 1u);
}

TEST(ServeDegradationTest, FullQueueShedsAndShutdownResolvesEveryTicket) {
  Engine::Options options;
  options.serve.worker_threads = 1;
  options.serve.max_queue_depth = 2;
  options.serve.fusion_enabled = true;
  // The lone dispatcher parks in the batch-forming hold (no peers will
  // arrive), leaving the queue bounded and testable.
  options.serve.min_fusion_queries = 100;
  options.serve.fusion_wait = seconds(30);
  Engine engine(options);
  model::SubwordHashModel model;
  ASSERT_TRUE(
      engine.RegisterTable(
                "corpus", WordsTable(workload::RandomStrings(64, 3, 8, 6)))
          .ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  serve::Server* server = engine.serve();

  auto make_query = [] {
    serve::ServeQuery query;
    query.table = "corpus";
    query.column = "word";
    query.condition = join::JoinCondition::TopK(1);
    query.probe_strings = {"word"};
    return query;
  };

  // Head: picked up by the dispatcher and held. Wait until it left the
  // queue so the depth bound below is exact.
  auto held = server->Submit(make_query());
  ASSERT_TRUE(held.ok());
  for (int spin = 0; spin < 2000 && server->stats().queue_depth > 0;
       ++spin) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(server->stats().queue_depth, 0u);

  auto queued1 = server->Submit(make_query());
  auto queued2 = server->Submit(make_query());
  ASSERT_TRUE(queued1.ok());
  ASSERT_TRUE(queued2.ok());
  auto shed = server->Submit(make_query());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted)
      << shed.status().ToString();
  EXPECT_EQ(server->stats().shed_count, 1u);
  EXPECT_EQ(server->stats().queue_depth, 2u);

  // Shutdown with a held head and two queued queries: every ticket still
  // resolves (as shed), and the dispatcher joins promptly despite the
  // 30-second hold window.
  server->Shutdown();
  for (const auto& ticket : {*held, *queued1, *queued2}) {
    const serve::QueryResponse& response = ticket.Get();
    EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
        << response.status.ToString();
  }
  const serve::ServeStats stats = server->stats();
  EXPECT_EQ(stats.shed_count, 4u);  // One admission shed + three shutdown.
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServeDegradationTest, TenantMemoryBudgetShedsOversizedSubmissions) {
  Engine::Options options;
  options.serve.worker_threads = 1;
  options.serve.min_fusion_queries = 100;  // Hold: keeps bytes in flight.
  options.serve.fusion_wait = seconds(30);
  options.serve.tenant_memory_budget_bytes = 64;
  Engine engine(options);
  model::SubwordHashModel model;
  ASSERT_TRUE(
      engine.RegisterTable(
                "corpus", WordsTable(workload::RandomStrings(64, 3, 8, 7)))
          .ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  serve::Server* server = engine.serve();

  auto make_query = [](size_t bytes) {
    serve::ServeQuery query;
    query.table = "corpus";
    query.column = "word";
    query.condition = join::JoinCondition::TopK(1);
    query.probe_strings = {std::string(bytes, 'x')};
    return query;
  };

  // 40 bytes in flight (held by the parked dispatcher) leaves no room for
  // another 40 under a 64-byte budget; a different tenant is unaffected.
  auto first = server->Submit(make_query(40));
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(milliseconds(20));
  auto over = server->Submit(make_query(40));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  serve::SubmitOptions other_tenant;
  other_tenant.tenant = "other";
  auto other = server->Submit(make_query(40), other_tenant);
  EXPECT_TRUE(other.ok()) << other.status().ToString();
  server->Shutdown();
}

TEST(ServeDegradationTest, MalformedConditionsFailAtSubmit) {
  // Submit validates the condition with the executor's own rule and error
  // text: a NaN threshold and top-k with k == 0 never reach the queue.
  Engine engine;
  ASSERT_TRUE(
      engine.RegisterTable("db", VectorTable(workload::RandomUnitVectors(
                                     64, 8, 41))).ok());
  serve::Server* server = engine.serve();
  const join::JoinCondition malformed[] = {
      join::JoinCondition::Threshold(std::numeric_limits<float>::quiet_NaN()),
      join::JoinCondition::TopK(0)};
  for (const join::JoinCondition& condition : malformed) {
    serve::ServeQuery query;
    query.table = "db";
    query.column = "emb";
    query.condition = condition;
    query.probe_vectors = workload::RandomUnitVectors(2, 8, 42);
    auto ticket = server->Submit(std::move(query));
    ASSERT_FALSE(ticket.ok());
    EXPECT_EQ(ticket.status(), join::ValidateJoinCondition(condition));
  }
  EXPECT_EQ(server->stats().submitted, 0u);
}

// ---------------------------------------------------------------------------
// Fairness: round-robin across tenants
// ---------------------------------------------------------------------------

TEST(ServeFairnessTest, HogTenantCannotStarveLightTenant) {
  Engine::Options options;
  options.num_threads = 2;
  options.serve.worker_threads = 1;
  options.serve.fusion_enabled = false;  // Round-robin visible per query.
  options.serve.max_queue_depth = 1024;
  Engine engine(options);
  model::SubwordHashModel model;
  const auto corpus_words = workload::RandomStrings(2000, 3, 8, 31);
  ASSERT_TRUE(engine.RegisterTable("corpus", WordsTable(corpus_words)).ok());
  ASSERT_TRUE(engine.RegisterModel("subword", &model).ok());
  serve::Server* server = engine.serve();

  auto make_query = [](uint64_t seed) {
    serve::ServeQuery query;
    query.table = "corpus";
    query.column = "word";
    query.condition = join::JoinCondition::TopK(2);
    query.probe_strings = workload::RandomStrings(8, 3, 8, seed);
    return query;
  };

  constexpr size_t kHogQueries = 40;
  constexpr size_t kLightQueries = 4;
  serve::SubmitOptions hog;
  hog.tenant = "hog";
  serve::SubmitOptions light;
  light.tenant = "light";
  std::vector<serve::Ticket> hog_tickets, light_tickets;
  for (size_t i = 0; i < kHogQueries; ++i) {
    auto ticket = server->Submit(make_query(7000 + i), hog);
    ASSERT_TRUE(ticket.ok());
    hog_tickets.push_back(*ticket);
  }
  for (size_t i = 0; i < kLightQueries; ++i) {
    auto ticket = server->Submit(make_query(8000 + i), light);
    ASSERT_TRUE(ticket.ok());
    light_tickets.push_back(*ticket);
  }

  // Round-robin interleaves the tenants one query each, so the light
  // tenant's last query completes after ~2 * kLightQueries dispatches —
  // NOT after the hog's entire backlog.
  for (const serve::Ticket& ticket : light_tickets) {
    ASSERT_TRUE(ticket.Get().status.ok());
  }
  const serve::ServeStats mid = server->stats();
  const auto hog_stats = mid.tenants.find("hog");
  ASSERT_NE(hog_stats, mid.tenants.end());
  EXPECT_LT(hog_stats->second.completed, kHogQueries - 5)
      << "light tenant waited for nearly the whole hog backlog";

  for (const serve::Ticket& ticket : hog_tickets) {
    ASSERT_TRUE(ticket.Get().status.ok());
  }
  const serve::ServeStats done = server->stats();
  EXPECT_EQ(done.completed, kHogQueries + kLightQueries);
  EXPECT_EQ(done.tenants.at("light").completed, kLightQueries);
}

}  // namespace
}  // namespace cej
