// The Section 4 weight model and the subgraph evaluation machinery shared by
// all three densifiers — greedy (Algorithm 1), ILP (Appendix A) and the
// pipeline baseline — plus confidence scoring: candidate-set queries (the
// ent() notation of Section 4), edge weights, the objective W(S), and edge
// contributions c(x, y, S).
//
// The evaluator runs off flat per-edge weight lanes in a DensifyWorkspace:
// construction builds candidate universes and dense coherence/type-signature
// matrices once, and every later weight, Contribution or Objective call is a
// gather-and-sum over contiguous arrays with no hashing. The lanes are the
// only weight model: every densifier reads its weights from them. Each lane
// entry is computed once, and every sum over lane entries starts from 0.0
// and runs in universe order, so the same subgraph state always yields the
// same doubles.
#ifndef QKBFLY_DENSIFY_EVALUATOR_H_
#define QKBFLY_DENSIFY_EVALUATOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "corpus/background_stats.h"
#include "densify/workspace.h"
#include "graph/semantic_graph.h"
#include "kb/entity_repository.h"

namespace qkbfly {

/// The alpha_1..alpha_4 hyper-parameters (Section 4), learned by L-BFGS in
/// ParameterTuner; the defaults are sensible starting values.
struct DensifyParams {
  double alpha1 = 0.45;  ///< mention-entity prior
  double alpha2 = 0.25;  ///< mention-context / entity-context similarity
  double alpha3 = 0.15;  ///< entity-entity coherence on relation edges
  double alpha4 = 0.35;  ///< type-signature score on relation edges
};

/// The calling thread's retained DensifyWorkspace, shared by the greedy,
/// pipeline and ILP densifiers so a warm thread densifies a stream of
/// documents without reallocating. At most one evaluator may use it at a
/// time; thread_local keeps the batch pipeline's workers from sharing it.
DensifyWorkspace& ThreadDensifyWorkspace();

/// The result of densification over one document graph (produced by the
/// greedy, pipeline and ILP variants alike).
struct DensifyResult {
  /// Final mention -> entity assignments with normalized confidence scores.
  struct Assignment {
    NodeId mention = kNoNode;
    EntityId entity = kInvalidEntity;
    double confidence = 0.0;  ///< Normalized over the original alternatives.
    double weight = 0.0;      ///< Absolute means-edge weight of the choice.
    bool exact_alias = false; ///< Mention is an exact alias of the entity.
  };
  std::vector<Assignment> assignments;

  /// Resolved pronoun -> antecedent noun-phrase links, ascending by pronoun.
  std::vector<std::pair<NodeId, NodeId>> pronoun_antecedents;

  double objective = 0.0;  ///< W(S*) of the final subgraph.
  int edges_removed = 0;

  /// Contribution evaluations the greedy loop made: one per removable edge
  /// to seed the heap, plus one per recomputation after each removal.
  /// Confidence scoring is not counted. Zero for the ILP and pipeline
  /// densifiers.
  int64_t contributions_evaluated = 0;

  /// Edge ids in the order the greedy loop deactivated them. Deterministic:
  /// ties on contribution break toward the smaller EdgeId, so the sequence
  /// equals that of a brute-force greedy that rescans every removable edge
  /// at every step, run after run.
  std::vector<EdgeId> removal_order;

  /// Antecedent of a pronoun node, or kNoNode.
  NodeId AntecedentOf(NodeId pronoun) const {
    auto it = std::lower_bound(
        pronoun_antecedents.begin(), pronoun_antecedents.end(), pronoun,
        [](const std::pair<NodeId, NodeId>& e, NodeId p) { return e.first < p; });
    if (it == pronoun_antecedents.end() || it->first != pronoun) return kNoNode;
    return it->second;
  }

  /// Empties the result but keeps vector capacity, for reuse across
  /// documents.
  void Clear() {
    assignments.clear();
    pronoun_antecedents.clear();
    removal_order.clear();
    objective = 0.0;
    edges_removed = 0;
    contributions_evaluated = 0;
  }
};

/// Evaluates the current subgraph state (the graph's active-edge flags).
/// Mutating calls toggle edges through the graph pointer.
///
/// Pass a retained DensifyWorkspace (normally ThreadDensifyWorkspace()) to
/// make construction and evaluation allocation-free once the workspace is
/// warm; without one the evaluator owns a private workspace (the test path).
class DensifyEvaluator {
 public:
  DensifyEvaluator(SemanticGraph* graph, const AnnotatedDocument& doc,
                   const BackgroundStats* stats,
                   const EntityRepository* repository,
                   const DensifyParams& params,
                   DensifyWorkspace* workspace = nullptr);

  SemanticGraph& graph() { return *graph_; }
  DensifyWorkspace& workspace() { return *ws_; }

  /// ent(n, S): the active candidate entities of a mention, read off its
  /// candidate universe in universe order. For a noun phrase: the entities
  /// of its active means edges, ascending by edge, duplicates preserved. For
  /// a pronoun: the distinct gender-compatible entities of its sameAs-linked
  /// noun phrases, ascending, each present iff one (sameAs, means) support
  /// pair is fully active. Literals and entity nodes have none.
  void ActiveCandidatesInto(NodeId n, std::vector<EntityId>* out) const;

  /// Constraint (4): entity gender known and conflicting with the pronoun.
  bool GenderConflict(const GraphNode& pronoun, EntityId e) const;

  /// Weight of one means edge (n_i, e_ij): a1 * prior + a2 *
  /// sim(cxt(n_i), cxt(e_ij)), dampened by 0.3 for a loose (non-alias)
  /// candidate.
  double MeansWeight(EdgeId e) const {
    return ws_->mw_lane[static_cast<size_t>(e)];
  }

  /// Whether the mention's surface is an exact repository alias of `entity`
  /// (as opposed to a loose partial-name candidate).
  bool IsExactAlias(NodeId mention, EntityId entity) const;

  /// Weight of relation edge `r` when its endpoints are restricted to the
  /// single candidates `ea` and `eb`: a3 * coh + a4 * ts over that one pair.
  /// kInvalidEntity stands for an empty candidate set on that side, whose
  /// literal type (if any) then feeds the ts term. Both entities must be in
  /// their side's candidate universe.
  double PairWeight(EdgeId r, EntityId ea, EntityId eb) const;

  /// Current weight of one relation edge under the active candidate sets.
  double RelationEdgeWeight(EdgeId e) const;

  /// W(S): sum of active means weights and relation-edge weights.
  double Objective() const;

  /// c(x, y, S) = W(S) - W(S \ {edge}), computed incrementally over the
  /// relation edges the removal affects.
  double Contribution(EdgeId e) const;

  /// Preprocessing: candidate-set intersection over sameAs clusters
  /// (constraint (3)) and the pronoun gender constraint (constraint (4)).
  void Preprocess();

  /// Edges the greedy algorithm may remove without violating the
  /// keep-at-least-one rule: means edges of multi-candidate noun phrases and
  /// sameAs edges of multi-antecedent pronouns.
  std::vector<EdgeId> RemovableEdges() const;

  /// RemovableEdges into a retained buffer (same contents and order).
  void RemovableEdgesInto(std::vector<EdgeId>* out) const;

  /// O(1) membership test against the same rule, for one edge that was in
  /// an earlier RemovableEdges() snapshot. Active degrees only ever shrink
  /// during the greedy loop, so once this turns false for an edge it stays
  /// false (the basis for the heap path's lazy deletion).
  bool IsRemovable(EdgeId e) const;

  /// Records which means edges are active right now; call before Preprocess.
  /// The confidence denominators evaluate every originally-active
  /// alternative of each mention.
  void SnapshotOriginalMeans();

  /// Section 4 confidence scores for the current (already pruned) graph: the
  /// chosen means edge's contribution normalized over all original
  /// alternatives, each evaluated in the swapped subgraph S_t. Emits in
  /// ascending mention order. Requires a prior SnapshotOriginalMeans().
  void ComputeConfidencesInto(std::vector<DensifyResult::Assignment>* out);

  const std::vector<EdgeId>& means_edges() const { return ws_->means_edges; }
  const std::vector<EdgeId>& relation_edges() const {
    return ws_->relation_edges;
  }

 private:
  // Construction-time lane building (all storage in the workspace).
  void BuildEdgeLists();
  void BuildNodeData(const AnnotatedDocument& doc);
  void BuildUniverses();
  void BuildLanes();
  double TsPairValue(const BackgroundStats::TypeSignatureTable& table,
                     size_t pattern_id, uint64_t key_a, uint64_t key_b,
                     Span<TypeId> types_a, Span<TypeId> types_b) const;
  uint32_t PatternIdOf(const std::string& pattern);

  /// Calls fn(universe index, entity) for each active candidate of a
  /// mention, in universe order — the one definition of ent(n, S).
  template <typename Fn>
  void ForEachActiveCandidate(NodeId n, Fn&& fn) const;

  /// Active universe indices of one relation-edge side, in universe order.
  void CollectActiveSide(NodeId n, std::vector<uint32_t>* out) const;

  /// Universe index of `entity` on one relation-edge side; kInvalidEntity
  /// maps to the universe size, the index of the literal row/column.
  uint32_t UniverseIndex(NodeId n, EntityId entity) const;

  /// Sum of one lane under the current active flags: coherence and ts terms
  /// each summed from 0.0 over the active rows and columns in universe order.
  double LaneWeight(const DensifyWorkspace::RelationLane& lane) const;

  /// Active relation edges whose weight can change when `e` toggles, sorted
  /// ascending, duplicates preserved (an edge incident to two sources is
  /// summed twice; the fixed order fixes the floating-point sum).
  void AffectedRelationEdgesInto(EdgeId e, std::vector<EdgeId>* out) const;

  void IntersectSameAsClusters();
  void ApplyGenderConstraint();

  SemanticGraph* graph_;
  const AnnotatedDocument* doc_;
  const EntityRepository* repository_;
  const BackgroundStats* stats_;
  DensifyParams params_;
  DensifyWorkspace* ws_;
  std::unique_ptr<DensifyWorkspace> owned_;  ///< When no workspace was given.
};

/// Reads the surviving pronoun -> antecedent links off the pruned graph,
/// ascending by pronoun node.
std::vector<std::pair<NodeId, NodeId>> ExtractPronounAntecedents(
    const SemanticGraph& graph);

/// ExtractPronounAntecedents into a retained buffer.
void ExtractPronounAntecedentsInto(const SemanticGraph& graph,
                                   std::vector<std::pair<NodeId, NodeId>>* out);

/// Whether an assignment is a real entity link, as opposed to a leftover
/// dictionary artifact: both the normalized confidence and the absolute
/// means weight must clear small floors. The canonicalizer turns rejected
/// assignments into emerging entities; the NED experiments apply the same
/// gate.
inline bool IsConfidentLink(const DensifyResult::Assignment& a) {
  if (a.confidence < 0.05) return false;
  // Loose (partial-name) candidates additionally need real evidence; exact
  // dictionary aliases stand on their own.
  return a.exact_alias || a.weight >= 0.02;
}

}  // namespace qkbfly

#endif  // QKBFLY_DENSIFY_EVALUATOR_H_
