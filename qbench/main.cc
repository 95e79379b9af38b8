// qkbfly_bench: the repository benchmark. Drives one named workload through
// the public API as a user would, checks every output, and prints the
// metrics; the last line of stdout is one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
//   qkbfly_bench --workload <cold_query|zipf_serve|long_docs> --seed <n>
//                --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs a fixed number of operations twice — untraced, then with
// benchmark-side spans around each public layer call — and reports the
// per-layer metrics; the spans are written to --trace-out as one JSON file.
// The seed drives every generated input (question order, Zipf request
// sequence, long-page corpus); the world itself is fixed, so a seed only
// changes what is asked, never the system that answers.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "core/qkbfly.h"
#include "eval/fact_matching.h"
#include "parser/router.h"
#include "retrieval/search_engine.h"
#include "service/kb_service.h"
#include "store/fact_store.h"
#include "store/qa_pair_index.h"
#include "synth/dataset.h"
#include "synth/renderer.h"
#include "util/logging.h"

namespace qbench {
namespace {

using namespace qkbfly;

// ---- fixed benchmark parameters ---------------------------------------------

constexpr int kWorldScale = 8;      // x the default WorldConfig
constexpr int kSetupRepeats = 25;   // setup_s is the median of these
constexpr uint64_t kWorldSeed = 7;  // the system is fixed; --seed picks inputs

// cold_query
constexpr int kColdWarmup = 10;
constexpr int kColdTailPercent = 95;
constexpr int kColdQualityOps = 300;  // fact quality judged on these ops
constexpr int kColdVerifyOps = 20;    // decomposition checked on these ops
constexpr int kColdTracedOps = 150;

// zipf_serve
constexpr size_t kZipfUniverse = 800;  // distinct questions, by popularity
constexpr double kZipfExponent = 1.0;
constexpr int kZipfWarmup = 10;        // disjoint from the universe
constexpr int kZipfEpochEvery = 1000;  // a news refresh every N requests
constexpr int kZipfTailPercent = 99;
constexpr int kZipfQualityOps = 1500;
constexpr int kZipfTracedOps = 1500;
constexpr size_t kZipfDocBudget = size_t{4} << 20;
constexpr size_t kZipfQueryBudget = size_t{1} << 20;

// long_docs
constexpr int kLongFactsPerPage = 144;  // ~5.6 KB, the paper's Table 6 regime
constexpr int kLongPages = 96;          // the measured page pool
constexpr int kLongBatch = 2;           // pages per BuildKb call
constexpr int kLongThreads = 2;
constexpr int kLongTailPercent = 90;
constexpr int kLongQualityOps = kLongPages / kLongBatch;  // each page once
constexpr int kLongVerifyOps = 4;
constexpr int kLongTracedOps = 24;

// ---- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  Digest digest;  ///< Over every KB emitted by the run, in order.

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- set-up -------------------------------------------------------------------

DatasetConfig ScaledDatasetConfig() {
  DatasetConfig config;
  config.seed = kWorldSeed;
  WorldConfig& w = config.world;
  w.seed = kWorldSeed;
  for (int* count :
       {&w.actors, &w.musicians, &w.footballers, &w.coaches,
        &w.business_people, &w.directors, &w.plain_persons, &w.cities,
        &w.clubs, &w.films, &w.albums, &w.awards, &w.universities,
        &w.charities, &w.companies, &w.festivals, &w.characters}) {
    *count *= kWorldScale;
  }
  config.wiki_eval_articles = 50 * kWorldScale;
  config.news_docs = 20 * kWorldScale;
  config.wikia_pages = 0;  // long pages are generated per seed instead
  config.reverb_sentences = 0;
  return config;
}

/// Everything a workload runs against: world, corpora, background stats,
/// search index, engine and service.
struct Fixture {
  std::unique_ptr<SynthDataset> ds;
  DocumentStore wiki;
  DocumentStore news;
  std::unique_ptr<SearchEngine> search;
  std::unique_ptr<QkbflyEngine> engine;
  std::unique_ptr<KbService> service;
};

std::unique_ptr<Fixture> BuildFixture(const EngineConfig& engine_config,
                                      const KbServiceOptions& service_options) {
  auto fx = std::make_unique<Fixture>();
  fx->ds = BuildDataset(ScaledDatasetConfig());
  for (const GoldDocument& gd : fx->ds->wiki_eval) (void)fx->wiki.Add(gd.doc);
  for (const GoldDocument& gd : fx->ds->news) (void)fx->news.Add(gd.doc);
  fx->search = std::make_unique<SearchEngine>(&fx->wiki, &fx->news);
  fx->engine = std::make_unique<QkbflyEngine>(
      fx->ds->repository.get(), &fx->ds->patterns, &fx->ds->stats,
      engine_config);
  fx->service = std::make_unique<KbService>(fx->engine.get(), fx->search.get(),
                                            service_options);
  return fx;
}

/// Builds the fixture kSetupRepeats times (dropping the previous one first)
/// and keeps the last; returns the median build time in seconds.
double SetUp(const EngineConfig& engine_config,
             const KbServiceOptions& service_options,
             std::unique_ptr<Fixture>* out) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out->reset();
    int64_t start = NowNs();
    *out = BuildFixture(engine_config, service_options);
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return Quantile(seconds, 0.5);
}

// ---- inputs -------------------------------------------------------------------

/// Distinct questions about entities that are the subject of at least one
/// fact: every name and alias, each asked in a few phrasings. Each phrasing
/// is a new query-tier key, so every one is a cold question; there are
/// enough of them (about 3.5k) that a run does not run out.
std::vector<std::string> EntityQuestions(const SynthDataset& ds) {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const WorldEntity& e : ds.world->entities()) {
    if (ds.world->FactsOfSubject(e.id).empty()) continue;
    for (const std::string& alias : e.aliases) {
      if (seen.insert(alias).second) names.push_back(alias);
    }
  }
  std::vector<std::string> out;
  for (const char* prefix : {"", "who is ", "tell me about "}) {
    for (const std::string& name : names) out.push_back(prefix + name);
  }
  return out;
}

/// Entity questions by descending world popularity (ties by id): rank r of
/// the Zipf workload asks the r-th most popular entity.
std::vector<std::string> QuestionsByPopularity(const SynthDataset& ds) {
  std::vector<const WorldEntity*> entities;
  for (const WorldEntity& e : ds.world->entities()) {
    if (!ds.world->FactsOfSubject(e.id).empty()) entities.push_back(&e);
  }
  std::stable_sort(entities.begin(), entities.end(),
                   [](const WorldEntity* a, const WorldEntity* b) {
                     return a->popularity > b->popularity;
                   });
  std::vector<std::string> out;
  for (const WorldEntity* e : entities) out.push_back(e->name);
  return out;
}

/// Long Wikia-style recap pages over the character universe: `pages` pages
/// of kLongFactsPerPage facts drawn from a seeded shuffle of character facts.
std::vector<GoldDocument> LongPages(const SynthDataset& ds, uint64_t seed,
                                    const std::string& prefix, int pages) {
  std::vector<int> character_facts;
  if (auto character = ds.types.Find("CHARACTER")) {
    for (size_t f = 0; f < ds.world->facts().size(); ++f) {
      for (TypeId t : ds.world->entity(ds.world->facts()[f].subject).types) {
        if (ds.types.IsA(t, *character)) {
          character_facts.push_back(static_cast<int>(f));
          break;
        }
      }
    }
  }
  QKB_CHECK(!character_facts.empty());
  Rng rng(seed);
  rng.Shuffle(&character_facts);
  Renderer renderer(ds.world.get(), &ds.world_to_repo, seed ^ 0xD0C5);
  std::vector<GoldDocument> out;
  size_t pos = 0;
  for (int d = 0; d < pages; ++d) {
    std::vector<int> page;
    for (int k = 0; k < kLongFactsPerPage; ++k) {
      if (pos >= character_facts.size()) pos = 0;
      page.push_back(character_facts[pos++]);
    }
    out.push_back(renderer.RenderNews(prefix + std::to_string(d), page,
                                      Renderer::Style::kWikia));
  }
  return out;
}

// ---- output checks and quality ---------------------------------------------------

/// Judges facts against the gold of each fact's document.
class Quality {
 public:
  explicit Quality(const SynthDataset* ds) : judge_(ds) {}

  void AddGold(const std::vector<GoldDocument>& docs) {
    for (const GoldDocument& gd : docs) gold_[gd.doc.id] = &gd;
  }

  /// Judges every fact of `kb`; a fact whose document has no gold is wrong.
  void Judge(const OnTheFlyKb& kb) {
    for (const Fact& fact : kb.facts()) {
      ++total_;
      auto it = gold_.find(fact.doc_id);
      if (it != gold_.end() && judge_.IsCorrectFact(fact, *it->second, kb)) {
        ++correct_;
      }
    }
  }

  void Report(RunResult* out) const {
    out->Add("fact_precision",
             total_ == 0 ? 0.0 : static_cast<double>(correct_) / total_,
             "ratio");
    out->Add("correct_facts", static_cast<double>(correct_), "count");
  }

 private:
  FactJudge judge_;
  std::unordered_map<std::string, const GoldDocument*> gold_;
  int64_t correct_ = 0;
  int64_t total_ = 0;
};

/// Latency, throughput and memory from the measured ops. Throughput is ops
/// over the summed op wall time: the client's own output checks between
/// requests are not counted. `rss_mb` is the peak RSS read after a fixed op
/// count, so that a faster system, which fits more ops into the run, does
/// not read as using more memory.
void ReportTiming(const std::vector<double>& latency_s, int tail_percent,
                  double setup_s, double rss_mb, RunResult* out) {
  double busy_s = 0.0;
  for (double s : latency_s) busy_s += s;
  out->Add("setup_s", setup_s, "s");
  out->Add("latency_p50_ms", Quantile(latency_s, 0.5) * 1e3, "ms");
  out->Add("latency_tail_ms", NearestRank(latency_s, tail_percent) * 1e3, "ms");
  out->Add("throughput_ops_s",
           busy_s > 0.0 ? static_cast<double>(latency_s.size()) / busy_s : 0.0,
           "1/s");
  out->Add("peak_rss_mb", rss_mb > 0.0 ? rss_mb : PeakRssMb(), "MB");
  int64_t n = static_cast<int64_t>(latency_s.size());
  std::printf("ops %lld, tail = p%d (%lld samples beyond it; the ten-beyond "
              "rule allows up to p%d)\n",
              static_cast<long long>(n), tail_percent,
              static_cast<long long>(SamplesBeyond(n, tail_percent)),
              TailPercentFor(n));
}

/// True while a time-bound loop should keep going.
bool KeepGoing(int64_t start_ns, double seconds, int64_t ops, int64_t min_ops) {
  return ops < min_ops ||
         static_cast<double>(NowNs() - start_ns) * 1e-9 < seconds;
}

// ---- per-layer aggregation ---------------------------------------------------------

/// Spans that stand for a layer's work (as opposed to wrappers such as
/// "request", "build_kb" or "process_document").
bool IsLayerSpan(const std::string& name) {
  static const std::set<std::string> kLayers = {
      "retrieval", "nlp",          "parser",       "graph",  "densify",
      "canon",     "kb.serialize", "store.ingest", "service"};
  return kLayers.count(name) > 0;
}

/// Sums self time and counters of the spans by name. A counter key that
/// already holds a dot names its metric in full ("graph.edges"); any other
/// key is prefixed with its span's name.
struct LayerTotals {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> busy_ms;   ///< Span durations.
  std::map<std::string, double> counters;
  double request_ms = 0.0;  ///< Durations of the "request" spans.
  double covered_ms = 0.0;  ///< Part of them covered by layer spans.
};

LayerTotals Aggregate(const SpanLog& log) {
  LayerTotals totals;
  const std::vector<SpanRecord>& spans = log.spans();
  std::vector<int64_t> self = log.SelfTimes();
  // Parents are always logged before their children.
  std::vector<size_t> root_of(spans.size());
  std::map<size_t, std::vector<std::pair<int64_t, int64_t>>> layer_intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    root_of[i] = s.parent < 0 ? i : root_of[static_cast<size_t>(s.parent)];
    if (s.parent >= 0 && IsLayerSpan(s.name)) {
      layer_intervals[root_of[i]].emplace_back(s.start_ns, s.end_ns);
    }
    totals.self_ms[s.name] += static_cast<double>(self[i]) * 1e-6;
    totals.busy_ms[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    for (const auto& [key, value] : s.counters) {
      bool full = key.find('.') != std::string::npos;
      totals.counters[full ? key : s.name + "." + key] += value;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.parent >= 0 || s.name != "request") continue;
    totals.request_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    totals.covered_ms +=
        static_cast<double>(CoveredLength(layer_intervals[i], s.start_ns,
                                          s.end_ns)) * 1e-6;
  }
  return totals;
}

/// The core-layer numbers of BuildKb; zero on workloads that do not call it.
struct BuildNumbers {
  double parallel_efficiency = 0.0;  ///< Sum of doc busy / (threads x wall).
  double merge_ms = 0.0;             ///< Serial merge time per call.
};

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Emits every per-layer metric from the span totals. Times are means per
/// operation; counts are totals over the traced operations. `untraced_ms`
/// is the summed latency of the same operations measured without tracing.
void ReportLayers(const LayerTotals& t, int64_t ops, double untraced_ms,
                  const CacheStats& doc_cache, const CacheStats& query_cache,
                  const BuildNumbers& build, RunResult* out) {
  auto self = [&](const char* name) {
    auto it = t.self_ms.find(name);
    return it == t.self_ms.end() ? 0.0 : it->second;
  };
  auto count = [&](const char* key) {
    auto it = t.counters.find(key);
    return it == t.counters.end() ? 0.0 : it->second;
  };
  double n = static_cast<double>(ops);
  double layers_ms = 0.0;
  for (const char* layer :
       {"retrieval", "nlp", "parser", "graph", "densify", "canon"}) {
    layers_ms += self(layer);
  }
  double tokens = count("nlp.tokens");
  double parsed_tokens = count("parser.tokens");
  double edges = count("graph.edges");

  out->Add("retrieval.self_ms", self("retrieval") / n, "ms");
  out->Add("retrieval.docs", count("retrieval.docs"), "count");
  out->Add("nlp.self_ms", self("nlp") / n, "ms");
  out->Add("nlp.tokens", tokens, "count");
  out->Add("nlp.ns_per_token", Ratio(self("nlp") * 1e6, tokens), "ns");
  out->Add("parser.self_ms", self("parser") / n, "ms");
  out->Add("parser.sentences", count("graph.sentences"), "count");
  out->Add("parser.ns_per_token", Ratio(self("parser") * 1e6, parsed_tokens),
           "ns");
  out->Add("graph.self_ms", self("graph") / n, "ms");
  out->Add("graph.nodes", count("graph.nodes"), "count");
  out->Add("graph.edges", edges, "count");
  out->Add("graph.ns_per_edge", Ratio(self("graph") * 1e6, edges), "ns");
  out->Add("densify.self_ms", self("densify") / n, "ms");
  out->Add("densify.edges_removed", count("densify.edges_removed"), "count");
  out->Add("densify.us_per_edge", Ratio(self("densify") * 1e3, edges), "us");
  out->Add("densify.share", Ratio(self("densify"), layers_ms), "ratio");
  out->Add("canon.self_ms", self("canon") / n, "ms");
  out->Add("canon.facts", count("canon.facts"), "count");
  out->Add("build.parallel_efficiency", build.parallel_efficiency, "ratio");
  out->Add("build.merge_ms", build.merge_ms, "ms");
  out->Add("doc_cache.hits", static_cast<double>(doc_cache.hits), "count");
  out->Add("doc_cache.misses", static_cast<double>(doc_cache.misses), "count");
  out->Add("doc_cache.hit_rate", doc_cache.HitRate(), "ratio");
  out->Add("doc_cache.evictions", static_cast<double>(doc_cache.evictions),
           "count");
  out->Add("query_cache.hit_rate", query_cache.HitRate(), "ratio");
  out->Add("query_cache.evictions", static_cast<double>(query_cache.evictions),
           "count");
  out->Add("kb.serialize_ms", self("kb.serialize") / n, "ms");
  out->Add("kb.deserialize_ms", self("kb.deserialize") / n, "ms");
  out->Add("kb.bytes", count("kb.serialize.bytes"), "bytes");
  out->Add("store.ingest_ms", self("store.ingest") / n, "ms");
  out->Add("store.facts", count("store.ingest.facts"), "count");
  // Residual: the part of the untraced latency no layer span accounts for
  // (layer spans overlapping on parallel workers count once). Overhead: how
  // much longer the traced requests took than the same requests untraced.
  out->Add("trace.residual_share", Ratio(untraced_ms - t.covered_ms, untraced_ms),
           "ratio");
  out->Add("trace.overhead_share",
           Ratio(t.request_ms - untraced_ms, untraced_ms), "ratio");
}

/// Times the store-layer calls on one KB's bytes as their own root spans
/// (outside any request): serialize, deserialize (checked), and ingest into
/// a benchmark-owned fact store.
void TimeStoreCalls(const QkbflyEngine& engine, const OnTheFlyKb& kb,
                    const std::string& query, CorpusEpoch epoch,
                    FactStore* store, SpanLog* log, int64_t request,
                    RunResult* out) {
  std::string bytes;
  {
    ScopedSpan span(log, "kb.serialize", -1, request);
    bytes = kb.Serialize();
    span.Count("bytes", static_cast<double>(bytes.size()));
  }
  {
    ScopedSpan span(log, "kb.deserialize", -1, request);
    OnTheFlyKb copy = engine.MakeKb();
    if (!copy.Deserialize(bytes).ok()) out->Fail("KB bytes do not deserialize");
  }
  {
    ScopedSpan span(log, "store.ingest", -1, request);
    store->IngestKb(kb, query, epoch);
    span.Count("facts", static_cast<double>(kb.size()));
  }
}

// ---- cold_query: the layer decomposition of a cold KbService::Answer ----------------

/// A parser that records a span per Parse call under the current graph span.
class TracedParser : public DependencyParser {
 public:
  explicit TracedParser(std::unique_ptr<DependencyParser> inner)
      : inner_(std::move(inner)) {}

  void Attach(SpanLog* log, int parent, int64_t request) {
    log_ = log;
    parent_ = parent;
    request_ = request;
  }

  DependencyParse Parse(const std::vector<Token>& tokens) const override {
    ScopedSpan span(log_, "parser", parent_, request_);
    span.Count("tokens", static_cast<double>(tokens.size()));
    return inner_->Parse(tokens);
  }
  const char* Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<DependencyParser> inner_;
  SpanLog* log_ = nullptr;
  int parent_ = -1;
  int64_t request_ = -1;
};

/// Rebuilds a cold answer from the public layer calls, in the order
/// KbService::Answer makes them: retrieve, then per document annotate ->
/// graph build (parse inside) -> densify -> canonicalize, then serialize
/// and ingest into the store. Returns the KB bytes.
class ColdDecomposition {
 public:
  explicit ColdDecomposition(const Fixture* fx)
      : fx_(fx),
        parser_(new TracedParser(
            MakeParser(fx->engine->config().parser_mode,
                       fx->engine->config().parser_complexity_threshold))),
        builder_(fx->ds->repository.get(),
                 std::unique_ptr<DependencyParser>(parser_),
                 fx->engine->config().graph),
        densifier_(&fx->ds->stats, fx->ds->repository.get(),
                   fx->engine->config().params) {}

  std::string Run(const std::string& query, SpanLog* log, int64_t request) {
    const QkbflyEngine& engine = *fx_->engine;
    const KbServiceOptions& options = fx_->service->options();
    ScopedSpan root(log, "request", -1, request);
    std::vector<const Document*> docs;
    {
      ScopedSpan span(log, "retrieval", root.id(), request);
      docs = fx_->search->Retrieve(query, SearchEngine::Source::kWikipedia,
                                   options.wiki_k);
      for (const Document* d : fx_->search->Retrieve(
               query, SearchEngine::Source::kNews, options.news_k)) {
        if (std::find(docs.begin(), docs.end(), d) == docs.end()) {
          docs.push_back(d);
        }
      }
      span.Count("docs", static_cast<double>(docs.size()));
    }
    OnTheFlyKb kb = engine.MakeKb();
    for (const Document* doc : docs) {
      DocumentResult result;
      {
        ScopedSpan span(log, "nlp", root.id(), request);
        result.annotated = engine.nlp().Annotate(doc->id, doc->title, doc->text);
        size_t tokens = 0;
        for (const AnnotatedSentence& s : result.annotated.sentences) {
          tokens += s.tokens.size();
        }
        span.Count("tokens", static_cast<double>(tokens));
      }
      {
        ScopedSpan span(log, "graph", root.id(), request);
        parser_->Attach(log, span.id(), request);
        result.graph = builder_.Build(result.annotated);
        span.Count("sentences",
                   static_cast<double>(result.annotated.sentences.size()));
        span.Count("nodes", static_cast<double>(result.graph.node_count()));
        span.Count("edges", static_cast<double>(result.graph.edge_count()));
      }
      {
        ScopedSpan span(log, "densify", root.id(), request);
        result.densified = densifier_.Densify(&result.graph, result.annotated);
        span.Count("edges_removed",
                   static_cast<double>(result.densified.edges_removed));
      }
      {
        ScopedSpan span(log, "canon", root.id(), request);
        engine.PopulateKb(&kb, result);
      }
    }
    log->Count(root.id(), "canon.facts", static_cast<double>(kb.size()));
    std::string bytes;
    {
      ScopedSpan span(log, "kb.serialize", root.id(), request);
      bytes = kb.Serialize();
      span.Count("bytes", static_cast<double>(bytes.size()));
    }
    {
      ScopedSpan span(log, "store.ingest", root.id(), request);
      CorpusEpoch epoch = fx_->search->epoch();
      store_.IngestKb(kb, query, epoch);
      QaPair pair;
      pair.question = QaPairIndex::NormalizeQuestion(query);
      pair.fingerprint = engine.config().Fingerprint();
      pair.epoch = epoch;
      pair.documents = docs.size();
      pair.kb_bytes = bytes;
      store_.qa_pairs().Record(std::move(pair));
      span.Count("facts", static_cast<double>(kb.size()));
    }
    return bytes;
  }

 private:
  const Fixture* fx_;
  TracedParser* parser_;  ///< Owned by builder_.
  GraphBuilder builder_;
  GreedyDensifier densifier_;
  FactStore store_;
};

KbServiceOptions ColdServiceOptions() {
  KbServiceOptions options;
  options.cache.byte_budget = 1;  // below one result: every document computes
  return options;
}

RunResult RunColdQuery(const Fixture& fx, double setup_s, uint64_t seed,
                       double seconds, bool trace, const std::string& trace_out) {
  RunResult out;
  std::vector<std::string> questions = EntityQuestions(*fx.ds);
  Rng rng(seed ^ 0xC01D);
  rng.Shuffle(&questions);
  KbService& service = *fx.service;
  for (int i = 0; i < kColdWarmup; ++i) {
    (void)service.Answer(questions[static_cast<size_t>(i)]);
  }
  const size_t first = kColdWarmup;
  ColdDecomposition decomposition(&fx);

  if (!trace) {
    Quality quality(fx.ds.get());
    quality.AddGold(fx.ds->wiki_eval);
    quality.AddGold(fx.ds->news);
    std::vector<double> latency_s;
    std::vector<std::string> verify_bytes;
    double rss_mb = 0.0;
    const int64_t min_ops = std::max<int64_t>(
        kColdQualityOps, MinSamplesForTail(kColdTailPercent));
    // Stops early if the distinct questions run out (no repeats: a repeat
    // would be a query-tier hit).
    int64_t start = NowNs();
    for (size_t i = first; i < questions.size() &&
                           KeepGoing(start, seconds, out.attempted, min_ops);
         ++i) {
      ++out.attempted;
      try {
        int64_t t0 = NowNs();
        KbService::QueryResult result = service.Answer(questions[i]);
        latency_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
        std::string bytes = result.kb.Serialize();
        out.digest.Add(bytes);
        if (out.attempted <= kColdQualityOps) quality.Judge(result.kb);
        if (out.attempted <= kColdVerifyOps) verify_bytes.push_back(bytes);
      } catch (const std::exception& e) {
        out.Fail(std::string("Answer threw: ") + e.what());
      }
      if (out.attempted == min_ops) rss_mb = PeakRssMb();
    }
    // Output check outside the timed loop: the decomposition into public
    // layer calls rebuilds the same KB as Answer.
    SpanLog scratch;
    for (size_t i = 0; i < verify_bytes.size(); ++i) {
      if (decomposition.Run(questions[first + i], &scratch,
                            static_cast<int64_t>(i)) != verify_bytes[i]) {
        out.Fail("decomposed KB differs from Answer for '" +
                 questions[first + i] + "'");
      }
    }
    ReportTiming(latency_s, kColdTailPercent, setup_s, rss_mb, &out);
    quality.Report(&out);
    return out;
  }

  // Traced run: a fixed op count; each question is answered untraced and
  // rebuilt from the layer calls inside spans, interleaved so that drift
  // over the run affects both sides alike.
  size_t ops = std::min<size_t>(kColdTracedOps, questions.size() - first);
  CacheStats doc_before = service.cache().stats();
  CacheStats query_before = service.query_cache().stats();
  double untraced_ms = 0.0;
  SpanLog log;
  for (size_t i = 0; i < ops; ++i) {
    const std::string& question = questions[first + i];
    int64_t request = static_cast<int64_t>(i);
    out.attempted += 2;
    try {
      // Alternate which side goes first: the second call of a pair runs on
      // caches the first one warmed.
      std::string bytes;
      if (i % 2 == 1) bytes = decomposition.Run(question, &log, request);
      int64_t t0 = NowNs();
      KbService::QueryResult result = service.Answer(question);
      untraced_ms += static_cast<double>(NowNs() - t0) * 1e-6;
      std::string answer_bytes = result.kb.Serialize();
      out.digest.Add(answer_bytes);
      if (i % 2 == 0) bytes = decomposition.Run(question, &log, request);
      if (bytes != answer_bytes) {
        out.Fail("decomposed KB differs from Answer for '" + question + "'");
      }
      ScopedSpan span(&log, "kb.deserialize", -1, request);
      OnTheFlyKb copy = fx.engine->MakeKb();
      if (!copy.Deserialize(bytes).ok()) out.Fail("KB bytes do not deserialize");
    } catch (const std::exception& e) {
      out.Fail(std::string("cold answer threw: ") + e.what());
    }
  }
  CacheStats doc_cache = service.cache().stats() - doc_before;
  CacheStats query_cache = service.query_cache().stats() - query_before;
  ReportLayers(Aggregate(log), static_cast<int64_t>(ops), untraced_ms, doc_cache,
               query_cache, BuildNumbers(), &out);
  if (!trace_out.empty()) {
    std::ofstream(trace_out) << log.ToJson("cold_query");
  }
  return out;
}

// ---- zipf_serve ----------------------------------------------------------------------

KbServiceOptions ZipfServiceOptions() {
  KbServiceOptions options;
  options.cache.byte_budget = kZipfDocBudget;
  options.query_cache.byte_budget = kZipfQueryBudget;
  return options;
}

/// The Zipf request stream: a seeded sample over the popularity-ranked
/// universe, with a news refresh (SearchEngine::BumpEpoch) every
/// kZipfEpochEvery requests. Starts from a fresh epoch so warm-up entries
/// never serve a measured request.
class ZipfStream {
 public:
  ZipfStream(const Fixture& fx, const std::vector<std::string>* universe,
             uint64_t seed)
      : search_(fx.search.get()), universe_(universe),
        sampler_(universe->size(), kZipfExponent, seed ^ 0x21BF) {
    search_->BumpEpoch();
  }

  const std::string& Next() {
    if (served_ > 0 && served_ % kZipfEpochEvery == 0) search_->BumpEpoch();
    ++served_;
    return (*universe_)[sampler_.Next()];
  }

  int64_t served() const { return served_; }

 private:
  SearchEngine* search_;
  const std::vector<std::string>* universe_;
  ZipfSampler sampler_;
  int64_t served_ = 0;
};

/// Every answer's KB must equal the first answer to the same (question,
/// epoch), whether it came from a cache tier or was computed again.
class FirstAnswerCheck {
 public:
  /// Returns true when this is the first answer to (question, epoch).
  bool Check(const std::string& question, CorpusEpoch epoch,
             const std::string& kb_bytes, RunResult* out) {
    uint64_t digest = Digest::Of(kb_bytes);
    auto [it, inserted] = first_.emplace(std::make_pair(question, epoch), digest);
    if (!inserted && it->second != digest) {
      out->Fail("answer to '" + question + "' changed within an epoch");
    }
    return inserted;
  }

 private:
  std::map<std::pair<std::string, CorpusEpoch>, uint64_t> first_;
};

RunResult RunZipfServe(const Fixture& fx, double setup_s, uint64_t seed,
                       double seconds, bool trace, const std::string& trace_out) {
  RunResult out;
  std::vector<std::string> ranked = QuestionsByPopularity(*fx.ds);
  QKB_CHECK_GT(ranked.size(), kZipfUniverse + kZipfWarmup);
  std::vector<std::string> universe(ranked.begin(),
                                    ranked.begin() + kZipfUniverse);
  for (int i = 0; i < kZipfWarmup; ++i) {
    (void)fx.service->Answer(ranked[kZipfUniverse + static_cast<size_t>(i)]);
  }
  FirstAnswerCheck check;

  if (!trace) {
    Quality quality(fx.ds.get());
    quality.AddGold(fx.ds->wiki_eval);
    quality.AddGold(fx.ds->news);
    std::vector<double> latency_s;
    double rss_mb = 0.0;
    int64_t min_ops = std::max<int64_t>(kZipfQualityOps,
                                        MinSamplesForTail(kZipfTailPercent));
    ZipfStream stream(fx, &universe, seed);
    int64_t start = NowNs();
    while (KeepGoing(start, seconds, stream.served(), min_ops)) {
      const std::string& question = stream.Next();
      ++out.attempted;
      try {
        int64_t t0 = NowNs();
        KbService::QueryResult result = fx.service->Answer(question);
        latency_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
        std::string bytes = result.kb.Serialize();
        out.digest.Add(bytes);
        if (check.Check(question, fx.search->epoch(), bytes, &out) &&
            stream.served() <= kZipfQualityOps) {
          quality.Judge(result.kb);
        }
      } catch (const std::exception& e) {
        out.Fail(std::string("Answer threw: ") + e.what());
      }
      if (out.attempted == min_ops) rss_mb = PeakRssMb();
    }
    ReportTiming(latency_s, kZipfTailPercent, setup_s, rss_mb, &out);
    quality.Report(&out);
    return out;
  }

  // Traced run: the same fixed request stream served twice, each time by a
  // fresh service (its cache counters then cover that pass alone): first
  // untraced, then inside spans. The "service" span carries the tier
  // counters; the store calls are timed on the same KB.
  double untraced_ms = 0.0;
  {
    KbService untraced(fx.engine.get(), fx.search.get(), ZipfServiceOptions());
    ZipfStream stream(fx, &universe, seed);
    while (stream.served() < kZipfTracedOps) {
      const std::string& question = stream.Next();
      ++out.attempted;
      try {
        int64_t t0 = NowNs();
        KbService::QueryResult result = untraced.Answer(question);
        untraced_ms += static_cast<double>(NowNs() - t0) * 1e-6;
        check.Check(question, fx.search->epoch(), result.kb.Serialize(), &out);
      } catch (const std::exception& e) {
        out.Fail(std::string("Answer threw: ") + e.what());
      }
    }
  }
  KbService traced(fx.engine.get(), fx.search.get(), ZipfServiceOptions());
  SpanLog log;
  FactStore store;
  ZipfStream stream(fx, &universe, seed);
  while (stream.served() < kZipfTracedOps) {
    const std::string& question = stream.Next();
    CorpusEpoch epoch = fx.search->epoch();
    int64_t request = stream.served() - 1;
    ++out.attempted;
    try {
      int root = log.Open("request", -1, request);
      int call = log.Open("service", root, request);
      KbService::QueryResult result = traced.Answer(question);
      log.Close(call);
      log.Close(root);
      log.Count(call, "query_hits", result.stats.query_cache_hit ? 1 : 0);
      log.Count(call, "doc_hits", static_cast<double>(result.stats.cache.hits));
      log.Count(call, "doc_misses",
                static_cast<double>(result.stats.cache.misses));
      TimeStoreCalls(*fx.engine, result.kb, question, epoch, &store, &log,
                     request, &out);
      std::string bytes = result.kb.Serialize();
      out.digest.Add(bytes);
      check.Check(question, epoch, bytes, &out);
    } catch (const std::exception& e) {
      out.Fail(std::string("Answer threw: ") + e.what());
    }
  }
  ReportLayers(Aggregate(log), kZipfTracedOps, untraced_ms,
               traced.cache().stats(), traced.query_cache().stats(),
               BuildNumbers(), &out);
  if (!trace_out.empty()) std::ofstream(trace_out) << log.ToJson("zipf_serve");
  return out;
}

// ---- long_docs ------------------------------------------------------------------------

/// The documents of measured op `i`: kLongBatch consecutive pool pages.
std::vector<const Document*> LongBatch(const std::vector<GoldDocument>& pool,
                                       int64_t i) {
  std::vector<const Document*> docs;
  for (int k = 0; k < kLongBatch; ++k) {
    size_t page = static_cast<size_t>((i * kLongBatch + k) % kLongPages);
    docs.push_back(&pool[page].doc);
  }
  return docs;
}

/// Converts the engine's own span tree for one BuildKb call (enabled through
/// the public TraceContext argument) to benchmark spans under `parent`.
void ImportEngineSpans(const obs::Trace& trace, int64_t epoch_ns, int parent,
                       int64_t request, SpanLog* log) {
  static const std::map<std::string, std::string> kLayerOf = {
      {"build_kb", "build_kb"},       {"process_document", "process_document"},
      {"annotate", "nlp"},            {"graph_build", "graph"},
      {"densify", "densify"},         {"canonicalize", "canon"}};
  std::vector<obs::Span> spans = trace.Snapshot();
  std::vector<int> mapped(spans.size(), parent);
  for (const obs::Span& s : spans) {
    auto it = kLayerOf.find(s.name);
    if (s.id == trace.root() || it == kLayerOf.end()) continue;
    SpanRecord record;
    record.name = it->second;
    record.start_ns = epoch_ns + static_cast<int64_t>(s.start_s * 1e9);
    record.end_ns = epoch_ns + static_cast<int64_t>(s.end_s * 1e9);
    record.parent = s.parent >= 0 ? mapped[static_cast<size_t>(s.parent)] : parent;
    record.request = request;
    mapped[static_cast<size_t>(s.id)] = log->Add(std::move(record));
  }
}

/// Work counters of one BuildKb call, attached to its request span.
void CountDocResults(const std::vector<DocumentResult>& results, int span,
                     SpanLog* log) {
  for (const DocumentResult& r : results) {
    double tokens = 0.0;
    for (const AnnotatedSentence& s : r.annotated.sentences) {
      tokens += static_cast<double>(s.tokens.size());
    }
    log->Count(span, "nlp.tokens", tokens);
    log->Count(span, "graph.sentences",
               static_cast<double>(r.annotated.sentences.size()));
    log->Count(span, "graph.nodes", static_cast<double>(r.graph.node_count()));
    log->Count(span, "graph.edges", static_cast<double>(r.graph.edge_count()));
    log->Count(span, "densify.edges_removed",
               static_cast<double>(r.densified.edges_removed));
  }
}

RunResult RunLongDocs(const Fixture& fx, double setup_s, uint64_t seed,
                      double seconds, bool trace, const std::string& trace_out) {
  RunResult out;
  const QkbflyEngine& engine = *fx.engine;
  std::vector<GoldDocument> pool =
      LongPages(*fx.ds, seed ^ 0x10C5, "long:", kLongPages);
  std::vector<GoldDocument> warmup =
      LongPages(*fx.ds, seed ^ 0x3A3A, "warm:", kLongBatch);
  {
    std::vector<const Document*> docs;
    for (const GoldDocument& gd : warmup) docs.push_back(&gd.doc);
    (void)engine.BuildKb(docs);
  }

  if (!trace) {
    Quality quality(fx.ds.get());
    quality.AddGold(pool);
    std::vector<double> latency_s;
    std::vector<std::string> verify_bytes;
    double rss_mb = 0.0;
    int64_t min_ops = std::max<int64_t>(kLongQualityOps,
                                        MinSamplesForTail(kLongTailPercent));
    int64_t start = NowNs();
    while (KeepGoing(start, seconds, out.attempted, min_ops)) {
      std::vector<const Document*> docs = LongBatch(pool, out.attempted);
      ++out.attempted;
      try {
        int64_t t0 = NowNs();
        OnTheFlyKb kb = engine.BuildKb(docs);
        latency_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
        std::string bytes = kb.Serialize();
        out.digest.Add(bytes);
        if (out.attempted <= kLongQualityOps) quality.Judge(kb);
        if (out.attempted <= kLongVerifyOps) verify_bytes.push_back(bytes);
      } catch (const std::exception& e) {
        out.Fail(std::string("BuildKb threw: ") + e.what());
      }
      if (out.attempted == min_ops) rss_mb = PeakRssMb();
    }
    // Output check outside the timed loop: the parallel build equals the
    // serial one.
    EngineConfig serial_config = engine.config();
    serial_config.num_threads = 1;
    QkbflyEngine serial(&engine.repository(), &engine.patterns(),
                        &engine.stats(), serial_config);
    for (size_t i = 0; i < verify_bytes.size(); ++i) {
      if (serial.BuildKb(LongBatch(pool, static_cast<int64_t>(i))).Serialize() !=
          verify_bytes[i]) {
        out.Fail("parallel BuildKb differs from serial on batch " +
                 std::to_string(i));
      }
    }
    ReportTiming(latency_s, kLongTailPercent, setup_s, rss_mb, &out);
    quality.Report(&out);
    return out;
  }

  // Traced run: a fixed op count; each batch is built untraced and with the
  // engine's span tree enabled, interleaved so that drift over the run
  // affects both sides alike.
  double untraced_ms = 0.0;
  SpanLog log;
  FactStore store;
  for (int64_t i = 0; i < kLongTracedOps; ++i) {
    std::vector<const Document*> docs = LongBatch(pool, i);
    out.attempted += 2;
    try {
      // Alternate which side goes first: the second build of a pair runs on
      // caches the first one warmed.
      OnTheFlyKb plain = engine.MakeKb();
      auto build_untraced = [&] {
        int64_t t0 = NowNs();
        plain = engine.BuildKb(docs);
        untraced_ms += static_cast<double>(NowNs() - t0) * 1e-6;
      };
      if (i % 2 == 0) build_untraced();
      std::vector<DocumentResult> results;
      int root = log.Open("request", -1, i);
      int64_t epoch_ns = NowNs();
      obs::Trace engine_trace("qbench");
      OnTheFlyKb kb = engine.BuildKb(docs, &results,
                                     {&engine_trace, engine_trace.root()});
      log.Close(root);
      engine_trace.Finish();
      if (i % 2 == 1) build_untraced();
      ImportEngineSpans(engine_trace, epoch_ns, root, i, &log);
      CountDocResults(results, root, &log);
      log.Count(root, "canon.facts", static_cast<double>(kb.size()));
      std::string bytes = kb.Serialize();
      out.digest.Add(bytes);
      if (bytes != plain.Serialize()) {
        out.Fail("traced BuildKb differs from untraced on batch " +
                 std::to_string(i));
      }
      TimeStoreCalls(engine, kb, "long_docs", fx.search->epoch(), &store, &log,
                     i, &out);
    } catch (const std::exception& e) {
      out.Fail(std::string("BuildKb threw: ") + e.what());
    }
  }
  LayerTotals totals = Aggregate(log);
  BuildNumbers build;
  build.parallel_efficiency =
      Ratio(totals.busy_ms["process_document"],
            kLongThreads * totals.busy_ms["build_kb"]);
  build.merge_ms = totals.busy_ms["canon"] / kLongTracedOps;
  ReportLayers(totals, kLongTracedOps, untraced_ms, CacheStats(), CacheStats(),
               build, &out);
  if (!trace_out.empty()) std::ofstream(trace_out) << log.ToJson("long_docs");
  return out;
}

// ---- command line ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qkbfly_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);

  using Runner = RunResult (*)(const Fixture&, double, uint64_t, double, bool,
                               const std::string&);
  EngineConfig engine_config;
  KbServiceOptions service_options;
  Runner runner = nullptr;
  if (args.workload == "cold_query") {
    service_options = ColdServiceOptions();
    runner = RunColdQuery;
  } else if (args.workload == "zipf_serve") {
    service_options = ZipfServiceOptions();
    runner = RunZipfServe;
  } else if (args.workload == "long_docs") {
    engine_config.num_threads = kLongThreads;
    runner = RunLongDocs;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::unique_ptr<Fixture> fixture;
  double setup_s = SetUp(engine_config, service_options, &fixture);
  RunResult result = runner(*fixture, setup_s, args.seed, args.seconds,
                            args.trace, args.trace_out);
  std::printf("workload %s, seed %llu, trace %d: %lld ops, %lld failed, "
              "KB digest %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.digest.Hex().c_str());
  for (const Metric& m : result.metrics) {
    std::printf("  %-26s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  std::fflush(stdout);
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) { return qbench::Main(argc, argv); }
