// Ad-hoc question answering over on-the-fly KBs (Section 7.4, Appendix B):
// retrieve documents for the question, build a question-specific KB, collect
// type-filtered answer candidates, and rank them with an SVM over
// question-token x candidate-token pair features.
#ifndef QKBFLY_QA_QA_SYSTEM_H_
#define QKBFLY_QA_QA_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "canon/onthefly_kb.h"
#include "core/qkbfly.h"
#include "ml/linear_svm.h"
#include "qa/question.h"
#include "retrieval/search_engine.h"
#include "service/kb_service.h"
#include "util/interner.h"

namespace qkbfly {

/// The QA configurations compared in Table 9.
enum class QaMode {
  kFull,       ///< On-the-fly KB with higher-arity facts (QKBfly).
  kTriples,    ///< On-the-fly KB restricted to SPO triples (QKBfly-triples).
  kSentences,  ///< Passage-retrieval baseline: no fact extraction.
  kStaticKb,   ///< QA over the static snapshot KB only (QA-Freebase).
};

const char* QaModeName(QaMode mode);

/// The end-to-end QA system.
class QaSystem {
 public:
  /// `dataset` supplies repositories and statistics; `wiki` and `news` are
  /// the up-to-date document stores the system searches; `snapshot_facts`
  /// is the static KB used by kStaticKb (subject name, relation canonical,
  /// answer names).
  struct StaticFact {
    std::string subject;
    std::string relation;
    std::vector<std::string> args;
  };

  /// `num_threads` is forwarded to the serving layer: documents retrieved
  /// for a question are processed in parallel (the answers are unchanged).
  /// `parser_mode` + `parser_complexity_threshold` select the engine's
  /// dependency-parser backend (the serving layer's quality/latency dial;
  /// see src/parser/router.h).
  QaSystem(const SynthDataset* dataset, const DocumentStore* wiki,
           const DocumentStore* news, std::vector<StaticFact> snapshot_facts,
           QaMode mode, int num_threads = 1,
           ParserMode parser_mode = ParserMode::kLinear,
           double parser_complexity_threshold =
               kDefaultParserComplexityThreshold);

  /// Trains the answer classifier on WebQuestions-style training questions
  /// (Appendix B: candidates containing correct answers are positives).
  Status Train(const std::vector<QaQuestion>& training_questions);

  /// Answers one question.
  std::vector<std::string> Answer(const QaQuestion& question) const;

  /// The serving layer every question-specific KB is built through, so
  /// repeated (or overlapping) questions about the same entity reuse
  /// per-document extraction results.
  const KbService& service() const { return *service_; }

  QaMode mode() const { return mode_; }

 private:
  struct Candidate {
    std::string name;
    NerType coarse = NerType::kNone;
    SparseVector features;
  };

  /// Runs retrieval + extraction + candidate generation for a question.
  std::vector<Candidate> Candidates(const QaQuestion& question,
                                    bool training) const;

  std::vector<Candidate> KbCandidates(const QaQuestion& question,
                                      const OnTheFlyKb& kb, bool training) const;
  std::vector<Candidate> SentenceCandidates(const QaQuestion& question,
                                            bool training) const;
  std::vector<Candidate> StaticCandidates(const QaQuestion& question,
                                          bool training) const;

  bool TypeAllowed(const QaQuestion& question, NerType coarse) const;
  int FeatureId(const std::string& name, bool training) const;
  std::vector<const Document*> Retrieve(const QaQuestion& question) const;

  const SynthDataset* dataset_;
  const DocumentStore* wiki_;
  const DocumentStore* news_;
  std::vector<StaticFact> snapshot_facts_;
  QaMode mode_;
  SearchEngine search_;
  std::unique_ptr<QkbflyEngine> engine_;
  std::unique_ptr<KbService> service_;  ///< The cache-backed build path.
  mutable StringInterner features_;
  LinearSvm classifier_;
};

/// AQQU-style end-to-end KB-QA baseline: parses the question into a
/// (focus entity, relation) template and executes it against the static
/// snapshot facts. No on-the-fly knowledge.
std::vector<std::string> AqquAnswer(
    const QaQuestion& question, const std::vector<QaSystem::StaticFact>& facts);

}  // namespace qkbfly

#endif  // QKBFLY_QA_QA_SYSTEM_H_
