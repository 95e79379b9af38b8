#include "qa/qa_system.h"

#include <gtest/gtest.h>

#include <set>

#include "eval/metrics.h"

namespace qkbfly {
namespace {

struct QaFixture {
  std::unique_ptr<SynthDataset> ds;
  DocumentStore wiki;
  DocumentStore news;
  std::vector<const GoldDocument*> corpus;
  std::vector<QaQuestion> train;
  std::vector<QaQuestion> test;
  std::vector<QaSystem::StaticFact> snapshot;

  QaFixture() {
    DatasetConfig config;
    config.wiki_eval_articles = 40;
    config.news_docs = 25;
    ds = BuildDataset(config);
    for (const GoldDocument& gd : ds->wiki_eval) {
      (void)wiki.Add(gd.doc);
      corpus.push_back(&gd);
    }
    for (const GoldDocument& gd : ds->news) {
      (void)news.Add(gd.doc);
      corpus.push_back(&gd);
    }
    train = GenerateQuestions(*ds, corpus, 60, 5, /*emerging_only=*/false);
    test = GenerateQuestions(*ds, corpus, 30, 91, /*emerging_only=*/true);
    std::set<std::string> texts;
    for (const auto& q : test) texts.insert(q.text);
    std::vector<QaQuestion> clean;
    for (auto& q : train) {
      if (texts.count(q.text) == 0) clean.push_back(std::move(q));
    }
    train = std::move(clean);
    for (const WorldFact& f : ds->world->facts()) {
      if (f.emerging) continue;
      QaSystem::StaticFact sf;
      sf.subject = ds->world->entity(f.subject).name;
      sf.relation = RelationCatalog()[static_cast<size_t>(f.relation)].canonical;
      for (const WorldArg& a : f.args) {
        sf.args.push_back(a.is_entity ? ds->world->entity(a.entity).name
                                      : a.normalized);
      }
      snapshot.push_back(std::move(sf));
    }
  }
};

const QaFixture& Fixture() {
  static const QaFixture* f = new QaFixture();
  return *f;
}

TEST(QuestionGenTest, QuestionsAreAnswerableAndTyped) {
  const auto& f = Fixture();
  ASSERT_GE(f.test.size(), 10u);
  for (const QaQuestion& q : f.test) {
    EXPECT_FALSE(q.text.empty());
    EXPECT_FALSE(q.focus_entity.empty());
    EXPECT_FALSE(q.gold_answers.empty());
    EXPECT_FALSE(q.expected_types.empty());
    // The question text contains the focus entity.
    EXPECT_NE(q.text.find(q.focus_entity), std::string::npos) << q.text;
  }
}

TEST(QuestionGenTest, EmergingOnlyQuestionsTargetNewFacts) {
  const auto& f = Fixture();
  // Static-KB answering must fail on most emerging questions: that is the
  // point of the Google Trends regime.
  int static_hits = 0;
  for (const QaQuestion& q : f.test) {
    auto answers = AqquAnswer(q, f.snapshot);
    auto score = ScoreAnswers(q.gold_answers, answers);
    if (score.f1 > 0.5) ++static_hits;
  }
  EXPECT_LT(static_hits, static_cast<int>(f.test.size()) / 3);
}

TEST(QaSystemTest, FullModeAnswersSomeQuestions) {
  const auto& f = Fixture();
  QaSystem system(f.ds.get(), &f.wiki, &f.news, f.snapshot, QaMode::kFull);
  ASSERT_TRUE(system.Train(f.train).ok());
  std::vector<QaScore> scores;
  for (const QaQuestion& q : f.test) {
    scores.push_back(ScoreAnswers(q.gold_answers, system.Answer(q)));
  }
  QaScore avg = MacroAverage(scores);
  EXPECT_GT(avg.f1, 0.3);
  // Question KBs are built through the serving layer's doc tier, so
  // documents retrieved for several questions are extracted once.
  EXPECT_GT(system.service().cache().stats().hits, 0u);
}

TEST(QaSystemTest, FullBeatsStaticKb) {
  const auto& f = Fixture();
  QaSystem full(f.ds.get(), &f.wiki, &f.news, f.snapshot, QaMode::kFull);
  QaSystem stat(f.ds.get(), &f.wiki, &f.news, f.snapshot, QaMode::kStaticKb);
  ASSERT_TRUE(full.Train(f.train).ok());
  Status stat_trained = stat.Train(f.train);
  std::vector<QaScore> full_scores;
  std::vector<QaScore> static_scores;
  for (const QaQuestion& q : f.test) {
    full_scores.push_back(ScoreAnswers(q.gold_answers, full.Answer(q)));
    static_scores.push_back(ScoreAnswers(
        q.gold_answers, stat_trained.ok() ? stat.Answer(q)
                                          : std::vector<std::string>{}));
  }
  EXPECT_GT(MacroAverage(full_scores).f1, MacroAverage(static_scores).f1 + 0.15);
}

TEST(QaSystemTest, SentenceBaselineIsWeaker) {
  const auto& f = Fixture();
  QaSystem full(f.ds.get(), &f.wiki, &f.news, f.snapshot, QaMode::kFull);
  QaSystem sentences(f.ds.get(), &f.wiki, &f.news, f.snapshot,
                     QaMode::kSentences);
  ASSERT_TRUE(full.Train(f.train).ok());
  ASSERT_TRUE(sentences.Train(f.train).ok());
  std::vector<QaScore> full_scores;
  std::vector<QaScore> sentence_scores;
  for (const QaQuestion& q : f.test) {
    full_scores.push_back(ScoreAnswers(q.gold_answers, full.Answer(q)));
    sentence_scores.push_back(ScoreAnswers(q.gold_answers, sentences.Answer(q)));
  }
  EXPECT_GE(MacroAverage(full_scores).f1, MacroAverage(sentence_scores).f1);
}

TEST(AqquTest, AnswersSnapshotQuestionButNotEmerging) {
  const auto& f = Fixture();
  // A snapshot (non-emerging) question should be answerable from the static
  // KB via the AQQU template path.
  auto snapshot_questions =
      GenerateQuestions(*f.ds, f.corpus, 20, 123, /*emerging_only=*/false);
  int hits = 0;
  for (const QaQuestion& q : snapshot_questions) {
    auto score = ScoreAnswers(q.gold_answers, AqquAnswer(q, f.snapshot));
    if (score.f1 > 0) ++hits;
  }
  EXPECT_GT(hits, 0);
}

}  // namespace
}  // namespace qkbfly
