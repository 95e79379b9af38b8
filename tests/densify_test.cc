// Unit and property tests for the densification machinery: the evaluator's
// weight lanes and candidate sets against graph-walking reference
// implementations, constraints (1)-(4) on exit, objective monotonicity,
// agreement properties across the three inference variants, repeatability
// on the shared warm workspace, and the FlatPairCache pair memo.
#include "densify/greedy_densifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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
    config.wikia_pages = 1;
    config.wikia_facts_per_page = 144;
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

// All three densifiers borrow the calling thread's retained workspace. A
// larger document in between grows every buffer; densifying the first
// document again on the now-warm (and dirty) workspace must reproduce its
// first result exactly.
TEST_P(DensifierConstraintTest, RepeatsBitwiseOnWarmWorkspace) {
  // A and B: the smallest and the largest of the first four wiki articles
  // (larger documents only make the ILP run slow).
  const auto& ds = Dataset();
  const Document* small = &ds.wiki_eval.front().doc;
  const Document* large = small;
  size_t small_edges = Prepare(*small).graph.edge_count();
  size_t large_edges = small_edges;
  for (size_t i = 1; i < 4; ++i) {
    const Document* doc = &ds.wiki_eval[i].doc;
    const size_t edges = Prepare(*doc).graph.edge_count();
    if (edges < small_edges) {
      small = doc;
      small_edges = edges;
    }
    if (edges > large_edges) {
      large = doc;
      large_edges = edges;
    }
  }
  ASSERT_GT(large_edges, small_edges);
  Prepared a1 = Prepare(*small);
  Prepared b = Prepare(*large);
  Prepared a2 = Prepare(*small);

  const DensifyResult first = Densify(&a1.graph, a1.doc);
  (void)Densify(&b.graph, b.doc);
  const DensifyResult again = Densify(&a2.graph, a2.doc);

  ASSERT_EQ(first.assignments.size(), again.assignments.size());
  for (size_t i = 0; i < first.assignments.size(); ++i) {
    const auto& x = first.assignments[i];
    const auto& y = again.assignments[i];
    EXPECT_EQ(x.mention, y.mention) << i;
    EXPECT_EQ(x.entity, y.entity) << i;
    EXPECT_EQ(x.confidence, y.confidence) << i;
    EXPECT_EQ(x.weight, y.weight) << i;
    EXPECT_EQ(x.exact_alias, y.exact_alias) << i;
  }
  EXPECT_EQ(first.pronoun_antecedents, again.pronoun_antecedents);
  EXPECT_EQ(first.objective, again.objective);
  EXPECT_EQ(first.edges_removed, again.edges_removed);
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

// ---------------------------------------------------------------------------
// Reference weight and candidate model: the Section 4 definitions computed
// straight from the graph, BackgroundStats and EntityRepository, with no
// memo, no universes and no lanes. The evaluator must agree bit for bit.
// ---------------------------------------------------------------------------

// ent(n, S) of a noun phrase: entities of its active means edges, in
// incident-edge order.
std::vector<EntityId> WalkedCandidatesOfNp(const SemanticGraph& graph,
                                           NodeId np) {
  std::vector<EntityId> out;
  for (EdgeId e : graph.IncidentEdges(np)) {
    const GraphEdge& edge = graph.edge(e);
    if (!edge.active || edge.kind != EdgeKind::kMeans || edge.a != np) continue;
    out.push_back(graph.node(edge.b).entity);
  }
  return out;
}

// ent(p, S) of a pronoun: the gender-compatible (constraint (4)) union over
// its active sameAs links to noun phrases, ascending and unique.
std::vector<EntityId> WalkedCandidatesOfPronoun(
    const SemanticGraph& graph, const EntityRepository& repository, NodeId p) {
  const GraphNode& pro = graph.node(p);
  std::vector<EntityId> out;
  for (const auto& [edge, np] : graph.ActiveSameAs(p)) {
    if (graph.node(np).kind != NodeKind::kNounPhrase) continue;
    for (EntityId e : WalkedCandidatesOfNp(graph, np)) {
      const Gender g = repository.Get(e).gender;
      if (pro.gender != Gender::kUnknown && g != Gender::kUnknown &&
          g != pro.gender) {
        continue;
      }
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Dispatch on node kind; literals and entity nodes have no candidates.
std::vector<EntityId> WalkedCandidates(const SemanticGraph& graph,
                                       const EntityRepository& repository,
                                       NodeId n) {
  const GraphNode& node = graph.node(n);
  if (node.kind == NodeKind::kPronoun) {
    return WalkedCandidatesOfPronoun(graph, repository, n);
  }
  if (node.kind == NodeKind::kNounPhrase && !node.is_literal) {
    return WalkedCandidatesOfNp(graph, n);
  }
  return {};
}

class ReferenceWeights {
 public:
  ReferenceWeights(const SemanticGraph& graph, const AnnotatedDocument& doc,
                   const BackgroundStats& stats,
                   const EntityRepository& repository,
                   const DensifyParams& params)
      : graph_(graph), doc_(doc), stats_(stats), repository_(repository),
        params_(params) {}

  // w(n, e) = a1 * prior + a2 * sim(cxt(n), cxt(e)), times the looseness
  // factor of the candidate.
  double Means(NodeId np, EntityId entity) const {
    const GraphNode& node = graph_.node(np);
    SparseVector context;
    if (node.sentence >= 0 &&
        node.sentence < static_cast<int>(doc_.sentences.size())) {
      context = stats_.MentionContext(
          doc_.sentences[static_cast<size_t>(node.sentence)].tokens);
    }
    const double prior = stats_.Prior(node.text, entity);
    const double sim = WeightedOverlap(context, stats_.EntityContext(entity));
    const double weight = params_.alpha1 * prior + params_.alpha2 * sim;
    return IsExact(np, entity) ? weight : 0.3 * weight;
  }

  // w(a, b, S) = a3 * sum coh + a4 * sum ts over the given candidate sets,
  // each term scaled by both candidates' looseness factors. A side with an
  // empty candidate set contributes its literal type (factor 1.0) to the ts
  // term, or nothing when it has none.
  double Relation(NodeId a, NodeId b, const std::string& pattern,
                  const std::vector<EntityId>& ca,
                  const std::vector<EntityId>& cb) const {
    double coherence = 0.0;
    for (EntityId ea : ca) {
      for (EntityId eb : cb) {
        coherence += Looseness(a, ea) * Looseness(b, eb) *
                     stats_.Coherence(ea, eb);
      }
    }
    const std::vector<TypedCandidate> ta = TypedSide(a, ca);
    const std::vector<TypedCandidate> tb = TypedSide(b, cb);
    double ts = 0.0;
    for (const TypedCandidate& x : ta) {
      for (const TypedCandidate& y : tb) {
        ts += x.factor * y.factor *
              stats_.TypeSignatureSum(x.types, pattern, y.types);
      }
    }
    return params_.alpha3 * coherence + params_.alpha4 * ts;
  }

 private:
  struct TypedCandidate {
    std::vector<TypeId> types;
    double factor;
  };

  bool IsExact(NodeId n, EntityId e) const {
    const auto& exact = repository_.CandidatesForAlias(graph_.node(n).text);
    return std::find(exact.begin(), exact.end(), e) != exact.end();
  }

  double Looseness(NodeId n, EntityId e) const {
    return IsExact(n, e) ? 1.0 : 0.3;
  }

  std::vector<TypedCandidate> TypedSide(
      NodeId n, const std::vector<EntityId>& candidates) const {
    const TypeSystem& ts = repository_.type_system();
    std::vector<TypedCandidate> out;
    for (EntityId e : candidates) {
      TypedCandidate c{{}, Looseness(n, e)};
      for (TypeId t : repository_.Get(e).types) {
        for (TypeId anc : ts.AncestorsOf(t)) c.types.push_back(anc);
      }
      out.push_back(std::move(c));
    }
    if (!candidates.empty()) return out;
    const GraphNode& node = graph_.node(n);
    if (node.ner == NerType::kTime) {
      out.push_back({{ts.time()}, 1.0});
    } else if (node.ner == NerType::kNumber) {
      out.push_back({{ts.number()}, 1.0});
    } else if (node.ner != NerType::kNone) {
      if (auto type = ts.Find(NerTypeName(node.ner))) {
        out.push_back({{*type}, 1.0});
      }
    }
    return out;
  }

  const SemanticGraph& graph_;
  const AnnotatedDocument& doc_;
  const BackgroundStats& stats_;
  const EntityRepository& repository_;
  DensifyParams params_;
};

// Four wiki articles plus the 144-fact recap page, whose repeated character
// names give large candidate universes and NP-NP sameAs clusters.
std::vector<const Document*> OracleDocuments() {
  const auto& ds = Dataset();
  std::vector<const Document*> out;
  for (size_t i = 0; i < 4 && i < ds.wiki_eval.size(); ++i) {
    out.push_back(&ds.wiki_eval[i].doc);
  }
  out.push_back(&ds.wikia.front().doc);
  return out;
}

TEST(WeightModelTest, LanesMatchReferenceWeights) {
  const auto& ds = Dataset();
  const DensifyParams params;
  size_t means = 0, relations = 0, pairs = 0, literal_pairs = 0;
  size_t loose_means = 0, nonzero_literal = 0;
  for (const Document* doc : OracleDocuments()) {
    Prepared p = Prepare(*doc);
    DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(),
                          params);
    const ReferenceWeights ref(p.graph, p.doc, ds.stats, *ds.repository,
                               params);
    for (EdgeId e : eval.means_edges()) {
      const GraphEdge& edge = p.graph.edge(e);
      const EntityId entity = p.graph.node(edge.b).entity;
      EXPECT_EQ(eval.MeansWeight(e), ref.Means(edge.a, entity))
          << doc->id << " means edge " << e;
      if (!eval.IsExactAlias(edge.a, entity)) ++loose_means;
      ++means;
    }
    for (EdgeId r : eval.relation_edges()) {
      const GraphEdge& edge = p.graph.edge(r);
      const std::vector<EntityId> ca =
          WalkedCandidates(p.graph, *ds.repository, edge.a);
      const std::vector<EntityId> cb =
          WalkedCandidates(p.graph, *ds.repository, edge.b);
      EXPECT_EQ(eval.RelationEdgeWeight(r),
                ref.Relation(edge.a, edge.b, edge.label, ca, cb))
          << doc->id << " relation edge " << r;
      ++relations;
      for (EntityId ea : ca) {
        for (EntityId eb : cb) {
          EXPECT_EQ(eval.PairWeight(r, ea, eb),
                    ref.Relation(edge.a, edge.b, edge.label, {ea}, {eb}))
              << doc->id << " edge " << r << " pair " << ea << "," << eb;
          ++pairs;
        }
      }
      // Literal sides: one candidate against the other side's literal type.
      for (EntityId ea : ca) {
        const double w = eval.PairWeight(r, ea, kInvalidEntity);
        EXPECT_EQ(w, ref.Relation(edge.a, edge.b, edge.label, {ea}, {}))
            << doc->id << " edge " << r << " pair " << ea << ",literal";
        if (w != 0.0) ++nonzero_literal;
        ++literal_pairs;
      }
      for (EntityId eb : cb) {
        const double w = eval.PairWeight(r, kInvalidEntity, eb);
        EXPECT_EQ(w, ref.Relation(edge.a, edge.b, edge.label, {}, {eb}))
            << doc->id << " edge " << r << " pair literal," << eb;
        if (w != 0.0) ++nonzero_literal;
        ++literal_pairs;
      }
      EXPECT_EQ(eval.PairWeight(r, kInvalidEntity, kInvalidEntity),
                ref.Relation(edge.a, edge.b, edge.label, {}, {}))
          << doc->id << " edge " << r << " literal,literal";
    }
  }
  // The documents must exercise every branch the comparison claims to cover.
  EXPECT_GT(means, 0u);
  EXPECT_GT(loose_means, 0u);
  EXPECT_GT(relations, 0u);
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(literal_pairs, 0u);
  EXPECT_GT(nonzero_literal, 0u);
}

// The universe query against the graph walk on every node, after
// Preprocess and after each of the first removals of a brute-force greedy
// run (every step removes the minimum (contribution, EdgeId)).
TEST(WeightModelTest, UniverseCandidatesMatchGraphWalk) {
  const auto& ds = Dataset();
  std::vector<EntityId> got;
  size_t nonempty = 0;
  for (const Document* doc : OracleDocuments()) {
    Prepared p = Prepare(*doc);
    DensifyEvaluator eval(&p.graph, p.doc, &ds.stats, ds.repository.get(),
                          DensifyParams());
    auto expect_all_match = [&](int step) {
      for (size_t n = 0; n < p.graph.node_count(); ++n) {
        const NodeId id = static_cast<NodeId>(n);
        eval.ActiveCandidatesInto(id, &got);
        EXPECT_EQ(got, WalkedCandidates(p.graph, *ds.repository, id))
            << doc->id << " node " << n << " after removal " << step;
        if (!got.empty()) ++nonempty;
      }
    };
    eval.SnapshotOriginalMeans();
    eval.Preprocess();
    expect_all_match(0);
    for (int step = 1; step <= 20; ++step) {
      const std::vector<EdgeId> removable = eval.RemovableEdges();
      if (removable.empty()) break;
      EdgeId best = -1;
      double best_c = 0.0;
      for (EdgeId e : removable) {
        const double c = eval.Contribution(e);
        if (best < 0 || c < best_c || (c == best_c && e < best)) {
          best = e;
          best_c = c;
        }
      }
      p.graph.SetEdgeActive(best, false);
      expect_all_match(step);
    }
  }
  EXPECT_GT(nonempty, 0u);
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
