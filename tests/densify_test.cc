// Unit and property tests for the densification machinery: the evaluator's
// candidate sets, constraints (1)-(4) on exit, objective monotonicity,
// agreement properties across the three inference variants, and the
// FlatPairCache pair memo.
#include "densify/greedy_densifier.h"

#include <gtest/gtest.h>

#include "densify/ilp_densifier.h"
#include "densify/pipeline_densifier.h"
#include "graph/graph_builder.h"
#include "nlp/pipeline.h"
#include "parser/malt_parser.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

const SynthDataset& Dataset() {
  static const SynthDataset* ds = [] {
    DatasetConfig config;
    config.wiki_eval_articles = 12;
    return BuildDataset(config).release();
  }();
  return *ds;
}

struct Prepared {
  AnnotatedDocument doc;
  SemanticGraph graph;
};

Prepared Prepare(const Document& doc) {
  const auto& ds = Dataset();
  NlpPipeline pipeline(ds.repository.get());
  Prepared p;
  p.doc = pipeline.Annotate(doc.id, doc.title, doc.text);
  GraphBuilder builder(ds.repository.get(), std::make_unique<MaltLikeParser>(),
                       GraphBuilder::Options());
  p.graph = builder.Build(p.doc);
  return p;
}

// Constraints (1) and (2) must hold after every densifier variant.
class DensifierConstraintTest : public ::testing::TestWithParam<const char*> {
 protected:
  DensifyResult Densify(SemanticGraph* graph, const AnnotatedDocument& doc) {
    const auto& ds = Dataset();
    std::string name = GetParam();
    DensifyParams params;
    if (name == "greedy") {
      return GreedyDensifier(&ds.stats, ds.repository.get(), params)
          .Densify(graph, doc);
    }
    if (name == "pipeline") {
      return PipelineDensifier(&ds.stats, ds.repository.get(), params)
          .Densify(graph, doc);
    }
    return IlpDensifier(&ds.stats, ds.repository.get(), params)
        .Densify(graph, doc);
  }
};

TEST_P(DensifierConstraintTest, ConstraintsHoldOnExit) {
  const auto& ds = Dataset();
  int docs = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    if (++docs > 4) break;
    Prepared p = Prepare(gd.doc);
    auto result = Densify(&p.graph, p.doc);
    // (1) every noun phrase keeps at most one means edge;
    for (NodeId np : p.graph.NodesOfKind(NodeKind::kNounPhrase)) {
      EXPECT_LE(p.graph.ActiveMeans(np).size(), 1u);
    }
    // (2) every pronoun keeps at most one sameAs link to a noun phrase.
    for (NodeId pr : p.graph.NodesOfKind(NodeKind::kPronoun)) {
      int np_links = 0;
      for (const auto& [e, other] : p.graph.ActiveSameAs(pr)) {
        if (p.graph.node(other).kind == NodeKind::kNounPhrase) ++np_links;
      }
      EXPECT_LE(np_links, 1);
    }
    // Assignments carry valid confidences.
    for (const auto& a : result.assignments) {
      EXPECT_GE(a.confidence, 0.0);
      EXPECT_LE(a.confidence, 1.0 + 1e-9);
      EXPECT_NE(a.entity, kInvalidEntity);
    }
  }
}

TEST_P(DensifierConstraintTest, GenderConstraintHolds) {
  const auto& ds = Dataset();
  int docs = 0;
  for (const GoldDocument& gd : ds.wiki_eval) {
    if (++docs > 4) break;
    Prepared p = Prepare(gd.doc);
    auto result = Densify(&p.graph, p.doc);
    // (4): a resolved pronoun's antecedent, when linked to a known PERSON,
    // must not conflict in gender.
    for (const auto& [pronoun, antecedent] : result.pronoun_antecedents) {
      const GraphNode& pro = p.graph.node(pronoun);
      if (pro.gender == Gender::kUnknown) continue;
      for (const auto& [e, entity_node] : p.graph.ActiveMeans(antecedent)) {
        Gender g = ds.repository->Get(p.graph.node(entity_node).entity).gender;
        if (g != Gender::kUnknown) {
          EXPECT_EQ(g, pro.gender);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, DensifierConstraintTest,
                         ::testing::Values("greedy", "pipeline", "ilp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(EvaluatorTest, ObjectiveDropsWhenEdgeRemoved) {
  const auto& ds = Dataset();
  Prepared p = Prepare(ds.wiki_eval.front().doc);
  DensifyParams params;
  DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(), params);
  double before = eval.Objective();
  // Removing any positive-weight means edge must lower W(S) by exactly its
  // contribution.
  for (EdgeId e : eval.means_edges()) {
    if (!p.graph.edge(e).active) continue;
    double contribution = eval.Contribution(e);
    p.graph.SetEdgeActive(e, false);
    double after = eval.Objective();
    p.graph.SetEdgeActive(e, true);
    EXPECT_NEAR(before - after, contribution, 1e-9);
    break;
  }
}

TEST(EvaluatorTest, ContributionRestoresGraphState) {
  const auto& ds = Dataset();
  Prepared p = Prepare(ds.wiki_eval.front().doc);
  DensifyParams params;
  DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(), params);
  std::vector<bool> active_before;
  for (size_t e = 0; e < p.graph.edge_count(); ++e) {
    active_before.push_back(p.graph.edge(static_cast<EdgeId>(e)).active);
  }
  for (EdgeId e : eval.RemovableEdges()) {
    (void)eval.Contribution(e);
  }
  for (size_t e = 0; e < p.graph.edge_count(); ++e) {
    EXPECT_EQ(p.graph.edge(static_cast<EdgeId>(e)).active, active_before[e]);
  }
}

TEST(GreedyVsIlpTest, IlpObjectiveAtLeastGreedyOnSmallGraphs) {
  // On single-sentence graphs the branch-and-bound solve is exact and the
  // ILP linearization coincides with W(S), so the exact objective can never
  // be below the greedy one. (On long documents the solver's node budget
  // makes it an anytime algorithm, so no such guarantee exists there.)
  const auto& ds = Dataset();
  DensifyParams params;
  int docs = 0;
  for (const GoldDocument& gd : ds.reverb) {
    if (++docs > 10) break;
    Prepared greedy_p = Prepare(gd.doc);
    Prepared ilp_p = Prepare(gd.doc);
    auto greedy = GreedyDensifier(&ds.stats, ds.repository.get(), params)
                      .Densify(&greedy_p.graph, greedy_p.doc);
    auto ilp = IlpDensifier(&ds.stats, ds.repository.get(), params)
                   .Densify(&ilp_p.graph, ilp_p.doc);
    EXPECT_GE(ilp.objective, greedy.objective - 1e-6) << gd.doc.text;
  }
}

// ---------------------------------------------------------------------------
// FlatPairCache: the open-addressing pair memo behind the weight lanes
// ---------------------------------------------------------------------------

uint64_t PairKey(uint32_t e1, uint32_t e2) {
  return (static_cast<uint64_t>(e1) << 32) | e2;
}

TEST(FlatPairCacheTest, KeysSharingTheirLowHalfStayDistinct) {
  // Every key has the same low 32 bits (one e2, many e1): a slot taken from
  // the raw key would send them all to one probe run.
  FlatPairCache cache;
  cache.Reset(512);
  for (uint32_t e1 = 0; e1 < 512; ++e1) {
    cache.Insert(PairKey(e1, 7), static_cast<double>(e1) + 0.5);
  }
  for (uint32_t e1 = 0; e1 < 512; ++e1) {
    const double* hit = cache.Lookup(PairKey(e1, 7));
    ASSERT_NE(hit, nullptr) << e1;
    EXPECT_EQ(*hit, static_cast<double>(e1) + 0.5);
  }
  EXPECT_EQ(cache.Lookup(PairKey(512, 7)), nullptr);
  EXPECT_EQ(cache.Lookup(PairKey(3, 8)), nullptr);
}

TEST(FlatPairCacheTest, LookupsSurviveGrow) {
  FlatPairCache cache;
  cache.Reset(4);
  const size_t initial = cache.capacity();
  for (uint32_t e1 = 0; e1 < 40; ++e1) {
    for (uint32_t e2 = 0; e2 < 40; ++e2) {
      cache.Insert(PairKey(e1, e2), e1 * 100.0 + e2);
    }
  }
  EXPECT_GT(cache.capacity(), initial);
  for (uint32_t e1 = 0; e1 < 40; ++e1) {
    for (uint32_t e2 = 0; e2 < 40; ++e2) {
      const double* hit = cache.Lookup(PairKey(e1, e2));
      ASSERT_NE(hit, nullptr) << e1 << "," << e2;
      EXPECT_EQ(*hit, e1 * 100.0 + e2);
    }
  }
  EXPECT_EQ(cache.Lookup(PairKey(40, 0)), nullptr);
}

TEST(FlatPairCacheTest, ResetEmptiesAndKeepsCapacity) {
  FlatPairCache cache;
  EXPECT_EQ(cache.Lookup(PairKey(1, 2)), nullptr);  // never reset: no table
  cache.Reset(100);
  for (uint32_t e1 = 0; e1 < 300; ++e1) cache.Insert(PairKey(e1, 1), 1.0);
  const size_t grown = cache.capacity();
  cache.Reset(4);
  EXPECT_EQ(cache.capacity(), grown);
  for (uint32_t e1 = 0; e1 < 300; ++e1) {
    EXPECT_EQ(cache.Lookup(PairKey(e1, 1)), nullptr);
  }
  cache.Insert(PairKey(5, 1), 2.5);
  ASSERT_NE(cache.Lookup(PairKey(5, 1)), nullptr);
  EXPECT_EQ(*cache.Lookup(PairKey(5, 1)), 2.5);
}

}  // namespace
}  // namespace qkbfly
