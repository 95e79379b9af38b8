// Serving-layer tests: warm/cold KB identity, doc-tier key separation, and a
// concurrent-query stress run (labeled tsan and asan; run the sanitizer trees
// via ctest -L tsan / -L asan). The cache machinery itself is tested in
// single_flight_cache_test.
#include "service/kb_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/document_result_cache.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

/// Full text rendering of a KB (same shape as parallel_build_test): any
/// warm-vs-cold divergence shows up here.
std::string Serialize(const OnTheFlyKb& kb) {
  std::string out;
  char buf[64];
  for (const Fact& f : kb.facts()) {
    std::snprintf(buf, sizeof(buf), " conf=%.12f pattern=", f.confidence);
    out += kb.FactToString(f);
    out += buf;
    out += kb.RelationName(f.relation);
    out += '\n';
  }
  for (const EmergingEntity& e : kb.emerging_entities()) {
    out += "emerging " + e.representative + ":";
    for (const std::string& m : e.mentions) out += " " + m;
    out += '\n';
  }
  return out;
}

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.wiki_eval_articles = 12;
    config.news_docs = 8;
    dataset_ = BuildDataset(config).release();
    wiki_ = new DocumentStore();
    news_ = new DocumentStore();
    for (const GoldDocument& gd : dataset_->wiki_eval) {
      ASSERT_TRUE(wiki_->Add(gd.doc).ok());
    }
    for (const GoldDocument& gd : dataset_->news) {
      ASSERT_TRUE(news_->Add(gd.doc).ok());
    }
    search_ = new SearchEngine(wiki_, news_);
    engine_ = new QkbflyEngine(dataset_->repository.get(), &dataset_->patterns,
                               &dataset_->stats, EngineConfig());
  }

  static std::vector<std::string> SomeQueries(size_t n) {
    std::vector<std::string> queries;
    for (const GoldDocument& gd : dataset_->wiki_eval) {
      if (queries.size() >= n) break;
      queries.push_back(gd.doc.title);
    }
    return queries;
  }

  static SynthDataset* dataset_;
  static DocumentStore* wiki_;
  static DocumentStore* news_;
  static SearchEngine* search_;
  static QkbflyEngine* engine_;
};

SynthDataset* ServiceTest::dataset_ = nullptr;
DocumentStore* ServiceTest::wiki_ = nullptr;
DocumentStore* ServiceTest::news_ = nullptr;
SearchEngine* ServiceTest::search_ = nullptr;
QkbflyEngine* ServiceTest::engine_ = nullptr;

DocumentResult FakeResult(const std::string& id) {
  DocumentResult r;
  r.annotated.id = id;
  r.annotated.title = "title of " + id;
  return r;
}

TEST_F(ServiceTest, WarmAnswerIsByteIdenticalToCold) {
  // Doc-tier test: disable the query tier so the second Answer() exercises
  // the per-document cache (store_test covers the query-warm path).
  KbServiceOptions options;
  options.enable_query_cache = false;
  KbService service(engine_, search_, options);
  std::string query = dataset_->wiki_eval.front().doc.title;

  KbService::QueryResult cold = service.Answer(query);
  ASSERT_GT(cold.kb.size(), 0u);
  ASSERT_GT(cold.stats.documents, 0u);
  EXPECT_EQ(cold.stats.cache.hits, 0u);
  EXPECT_EQ(cold.stats.cache.misses, cold.stats.documents);

  KbService::QueryResult warm = service.Answer(query);
  EXPECT_EQ(Serialize(warm.kb), Serialize(cold.kb));
  EXPECT_EQ(warm.answers, cold.answers);
  EXPECT_EQ(warm.stats.cache.misses, 0u);
  EXPECT_EQ(warm.stats.cache.hits, warm.stats.documents);
  EXPECT_DOUBLE_EQ(warm.stats.CacheHitRate(), 1.0);
}

TEST_F(ServiceTest, ServiceBuildMatchesUncachedEngineBuild) {
  KbService service(engine_, search_);
  std::vector<const Document*> docs;
  for (const GoldDocument& gd : dataset_->wiki_eval) docs.push_back(&gd.doc);

  std::string uncached = Serialize(engine_->BuildKb(docs));
  EXPECT_EQ(Serialize(service.BuildKb(docs)), uncached);  // cold
  EXPECT_EQ(Serialize(service.BuildKb(docs)), uncached);  // warm
}

TEST_F(ServiceTest, MetricsAccumulateAcrossQueries) {
  KbService service(engine_, search_);
  auto queries = SomeQueries(4);
  for (int round = 0; round < 2; ++round) {
    for (const std::string& q : queries) (void)service.Answer(q);
  }
  KbService::Metrics m = service.metrics();
  EXPECT_EQ(m.queries, queries.size() * 2);
  EXPECT_EQ(m.latency.count(), queries.size() * 2);
  EXPECT_GT(m.latency.PercentileSeconds(0.95), 0.0);
  EXPECT_GT(m.cache.hits, 0u);
  EXPECT_GT(m.cache.misses, 0u);
  EXPECT_GT(service.cache().entry_count(), 0u);
  EXPECT_LE(service.cache().ApproxBytesUsed(), service.cache().byte_budget());
}

TEST_F(ServiceTest, ConcurrentQueriesAreSafeAndDeterministic) {
  KbService service(engine_, search_);
  auto queries = SomeQueries(4);

  // Expected KBs from a serial pass.
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    expected.push_back(Serialize(service.Answer(q).kb));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        size_t qi = static_cast<size_t>(t + round) % queries.size();
        KbService::QueryResult r = service.Answer(queries[qi]);
        if (Serialize(r.kb) != expected[qi]) ++mismatches;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.metrics().queries,
            queries.size() + kThreads * kRounds);
}

TEST(DocumentResultCacheTest, DistinguishesConfigFingerprints) {
  DocumentResultCache cache;
  int computations = 0;
  auto compute = [&] {
    ++computations;
    return FakeResult("doc");
  };
  (void)cache.FetchOrCompute(DocumentCacheKey("doc", "fp-a"), compute);
  (void)cache.FetchOrCompute(DocumentCacheKey("doc", "fp-b"), compute);
  (void)cache.FetchOrCompute(DocumentCacheKey("doc", "fp-a"), compute);
  EXPECT_EQ(computations, 2);
}

TEST_F(ServiceTest, ApproxBytesGrowsWithContent) {
  DocumentResult empty;
  DocumentResult real = engine_->ProcessDocument(dataset_->wiki_eval.front().doc);
  EXPECT_GT(real.ApproxBytes(), empty.ApproxBytes());
}

TEST_F(ServiceTest, FingerprintSeparatesResultChangingConfigs) {
  EngineConfig base;

  // Scheduling- and epoch-only knobs must NOT perturb the fingerprint:
  // num_threads never changes results (the merge is order-preserving), and
  // the corpus epoch is a separate component of the cache keys.
  EngineConfig threads = base;
  threads.num_threads = 8;
  EXPECT_EQ(base.Fingerprint(), threads.Fingerprint());
  EngineConfig epoch = base;
  epoch.corpus_epoch = 99;
  EXPECT_EQ(base.Fingerprint(), epoch.Fingerprint());

  // Every result-changing field must perturb it. One mutation per field.
  std::vector<std::pair<const char*, EngineConfig>> mutants;
  auto add = [&](const char* name, void (*mutate)(EngineConfig*)) {
    EngineConfig c = base;
    mutate(&c);
    mutants.emplace_back(name, c);
  };
  add("mode", [](EngineConfig* c) { c->mode = InferenceMode::kPipeline; });
  add("alpha1", [](EngineConfig* c) { c->params.alpha1 += 0.01; });
  add("alpha2", [](EngineConfig* c) { c->params.alpha2 += 0.01; });
  add("alpha3", [](EngineConfig* c) { c->params.alpha3 += 0.01; });
  add("alpha4", [](EngineConfig* c) { c->params.alpha4 += 0.01; });
  add("confidence_threshold",
      [](EngineConfig* c) { c->canon.confidence_threshold += 0.01; });
  add("emerging_threshold",
      [](EngineConfig* c) { c->canon.emerging_threshold += 0.01; });
  add("triples_only", [](EngineConfig* c) { c->canon.triples_only = true; });
  add("pronoun_window", [](EngineConfig* c) { ++c->graph.pronoun_window; });
  add("possessive_relations",
      [](EngineConfig* c) { c->graph.possessive_relations = false; });
  add("pronoun_coreference",
      [](EngineConfig* c) { c->graph.pronoun_coreference = false; });
  add("loose_candidates",
      [](EngineConfig* c) { c->graph.loose_candidates = false; });
  add("max_candidates", [](EngineConfig* c) { ++c->graph.max_candidates; });
  add("parser_mode",
      [](EngineConfig* c) { c->parser_mode = ParserMode::kAdaptive; });
  add("parser_complexity_threshold",
      [](EngineConfig* c) { c->parser_complexity_threshold += 0.5; });

  // Each mutant differs from base AND from every other mutant (no two
  // fields may alias to the same fingerprint bytes).
  for (size_t i = 0; i < mutants.size(); ++i) {
    EXPECT_NE(base.Fingerprint(), mutants[i].second.Fingerprint())
        << mutants[i].first << " does not perturb the fingerprint";
    for (size_t j = i + 1; j < mutants.size(); ++j) {
      EXPECT_NE(mutants[i].second.Fingerprint(),
                mutants[j].second.Fingerprint())
          << mutants[i].first << " aliases " << mutants[j].first;
    }
  }
}

}  // namespace
}  // namespace qkbfly
