// Reproduces Table 9 of the paper: ad-hoc QA on GoogleTrendsQuestions-style
// questions about post-snapshot events. Compares QKBfly, QKBfly-triples,
// Sentence-Answers and QA-Freebase (macro P/R/F1), plus the AQQU-style
// end-to-end baseline.
#include <cstdio>

#include <set>

#include "eval/metrics.h"
#include "qa/qa_system.h"
#include "synth/dataset.h"
#include "util/bench_report.h"
#include "util/timer.h"

namespace qkbfly {
namespace {

std::vector<QaSystem::StaticFact> SnapshotFacts(const SynthDataset& ds) {
  std::vector<QaSystem::StaticFact> out;
  for (const WorldFact& f : ds.world->facts()) {
    if (f.emerging) continue;  // the static KB knows only pre-snapshot facts
    QaSystem::StaticFact sf;
    sf.subject = ds.world->entity(f.subject).name;
    sf.relation = RelationCatalog()[static_cast<size_t>(f.relation)].canonical;
    for (const WorldArg& a : f.args) {
      sf.args.push_back(a.is_entity ? ds.world->entity(a.entity).name
                                    : a.normalized);
    }
    out.push_back(std::move(sf));
  }
  return out;
}

void Run() {
  DatasetConfig config;
  config.wiki_eval_articles = 60;
  config.news_docs = 40;
  auto ds = BuildDataset(config);

  // The QA document stores: up-to-date articles and news.
  DocumentStore wiki_store;
  DocumentStore news_store;
  std::vector<const GoldDocument*> corpus;
  for (const GoldDocument& gd : ds->wiki_eval) {
    (void)wiki_store.Add(gd.doc);
    corpus.push_back(&gd);
  }
  for (const GoldDocument& gd : ds->news) {
    (void)news_store.Add(gd.doc);
    corpus.push_back(&gd);
  }

  // Questions: training on any facts (the WebQuestions analogue), testing on
  // post-snapshot facts only (the Google Trends regime).
  auto training = GenerateQuestions(*ds, corpus, 120, /*seed=*/11,
                                    /*emerging_only=*/false);
  auto test = GenerateQuestions(*ds, corpus, 100, /*seed=*/77,
                                /*emerging_only=*/true);
  // Keep the sets disjoint.
  std::set<std::string> test_texts;
  for (const QaQuestion& q : test) test_texts.insert(q.text);
  std::vector<QaQuestion> train_clean;
  for (QaQuestion& q : training) {
    if (test_texts.count(q.text) == 0) train_clean.push_back(std::move(q));
  }

  auto snapshot = SnapshotFacts(*ds);
  // The serving layer inside the QA system fans retrieved documents across
  // this many worker threads; answers are identical for any value.
  const int kQaThreads = 4;
  std::printf("Table 9: GoogleTrendsQuestions-style benchmark "
              "(%zu test questions, %zu training questions, %d threads)\n\n",
              test.size(), train_clean.size(), kQaThreads);
  std::printf("%-18s %10s %10s %10s %12s\n", "Method", "Precision", "Recall",
              "F1", "Answer s");

  BenchReport report;
  for (QaMode mode : {QaMode::kFull, QaMode::kTriples, QaMode::kSentences,
                      QaMode::kStaticKb}) {
    QaSystem system(ds.get(), &wiki_store, &news_store, snapshot, mode,
                    kQaThreads);
    Status trained = system.Train(train_clean);
    if (!trained.ok()) {
      std::printf("%-18s training failed: %s\n", QaModeName(mode),
                  trained.ToString().c_str());
      continue;
    }
    std::vector<QaScore> scores;
    uint64_t answers = 0;
    WallTimer timer;
    for (const QaQuestion& q : test) {
      auto got = system.Answer(q);
      answers += got.size();
      scores.push_back(ScoreAnswers(q.gold_answers, got));
    }
    double wall = timer.ElapsedSeconds();
    QaScore avg = MacroAverage(scores);
    std::printf("%-18s %10.3f %10.3f %10.3f %12.2f\n", QaModeName(mode),
                avg.precision, avg.recall, avg.f1, wall);
    report.Add(std::string("table9_qa/") + QaModeName(mode),
               static_cast<int>(test.size()), kQaThreads, wall, answers);
  }
  if (report.WriteJson("BENCH_table9.json")) {
    std::printf("Wrote BENCH_table9.json\n");
  }

  // AQQU end-to-end baseline over the static KB.
  {
    std::vector<QaScore> scores;
    for (const QaQuestion& q : test) {
      scores.push_back(ScoreAnswers(q.gold_answers, AqquAnswer(q, snapshot)));
    }
    QaScore avg = MacroAverage(scores);
    std::printf("%-18s %10.3f %10.3f %10.3f\n", "AQQU", avg.precision,
                avg.recall, avg.f1);
  }
}

}  // namespace
}  // namespace qkbfly

int main() {
  qkbfly::Run();
  return 0;
}
