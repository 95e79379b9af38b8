#include "densify/greedy_densifier.h"

#include <algorithm>

#include "graph/graph_invariants.h"
#include "util/invariants.h"
#include "util/logging.h"

namespace qkbfly {

namespace {

// Mention node an edge belongs to: the noun phrase of a means edge, the
// pronoun of a pronoun-sameAs edge. Static per edge, so it can be computed
// once when the edge enters the candidate pool.
NodeId MentionOfEdge(const SemanticGraph& graph, EdgeId e) {
  const GraphEdge& edge = graph.edge(e);
  if (edge.kind == EdgeKind::kMeans) return edge.a;
  return graph.node(edge.a).kind == NodeKind::kPronoun ? edge.a : edge.b;
}

// Symmetric neighbour CSR over the edges `keep` accepts, into retained
// workspace vectors: per node, the other endpoints in ascending edge order.
// Built over every such edge regardless of its active flag, so it is a
// static superset of what the loop may read.
template <typename Keep>
void BuildNeighbourCsr(const SemanticGraph& graph, Keep keep,
                       DensifyWorkspace::NeighbourCsr* out,
                       std::vector<uint32_t>* cursor) {
  const size_t n = graph.node_count();
  const size_t edges = graph.edge_count();
  out->off.assign(n + 1, 0);
  for (size_t e = 0; e < edges; ++e) {
    const GraphEdge& edge = graph.edge(static_cast<EdgeId>(e));
    if (!keep(edge)) continue;
    ++out->off[static_cast<size_t>(edge.a) + 1];
    ++out->off[static_cast<size_t>(edge.b) + 1];
  }
  for (size_t i = 0; i < n; ++i) out->off[i + 1] += out->off[i];
  cursor->assign(out->off.begin(), out->off.end() - 1);
  out->data.resize(out->off[n]);
  for (size_t e = 0; e < edges; ++e) {
    const GraphEdge& edge = graph.edge(static_cast<EdgeId>(e));
    if (!keep(edge)) continue;
    out->data[(*cursor)[static_cast<size_t>(edge.a)]++] = edge.b;
    out->data[(*cursor)[static_cast<size_t>(edge.b)]++] = edge.a;
  }
}

// Min-heap on contribution, then on EdgeId — ties between distinct edges
// break toward the smaller id; ties between versions of the same edge are
// resolved by the stale-version check on pop.
struct HeapOrder {
  bool operator()(const DensifyWorkspace::HeapEntry& a,
                  const DensifyWorkspace::HeapEntry& b) const {
    if (a.c != b.c) return a.c > b.c;
    return a.e > b.e;
  }
};

}  // namespace

DensifyResult GreedyDensifier::Densify(SemanticGraph* graph,
                                       const AnnotatedDocument& doc) const {
  DensifyResult result;
  Densify(graph, doc, &result);
  return result;
}

void GreedyDensifier::Densify(SemanticGraph* graph, const AnnotatedDocument& doc,
                              DensifyResult* result) const {
  // Universes, weight lanes and loop buffers all live in the thread's
  // retained workspace, so a warm thread densifies a stream of documents
  // without heap allocations.
  result->Clear();
  DensifyEvaluator eval(graph, doc, stats_, repository_, params_,
                        &ThreadDensifyWorkspace());

  eval.SnapshotOriginalMeans();
  eval.Preprocess();
  RunHeapLoop(&eval, graph, result);

  // After the removal loop the O(1) degree counters must agree with a full
  // recount, or removability decisions (and thus the KB) were wrong. The
  // invariant walk is debug-only cross-checking, off the measured hot path.
  // qkbfly-lint: allow(A1)
  QKBFLY_INVARIANT(CheckGraphInvariants(*graph), "GreedyDensifier::Densify");

  result->objective = eval.Objective();
  eval.ComputeConfidencesInto(&result->assignments);
  ExtractPronounAntecedentsInto(*graph, &result->pronoun_antecedents);
}

// Incremental greedy loop. Correctness rests on two invariants:
//
//  1. Monotone removability: active degrees only shrink inside the loop, so
//     the initial RemovableEdges() snapshot is a superset of every later
//     removable set, and an edge that fails IsRemovable() can be dropped
//     from the heap permanently.
//  2. Exact read sets: after a removal, every edge whose Contribution reads
//     something the removal changed is recomputed eagerly (bumping its
//     version so stale heap entries are discarded on pop); every other edge
//     keeps a cached value that is still exact. A node's "side" is its
//     active candidate set. Contribution(e) reads the sides of both
//     endpoints of the relation edges incident to its sources: its mention,
//     plus, for a means edge, the pronouns sameAs-linked to that noun
//     phrase. Removing a means edge at noun phrase m changes the side of m
//     and of every pronoun sameAs-linked to m; removing a pronoun sameAs
//     edge (p, np) changes the side of p and the source set of np's means
//     edges. So the loop recomputes the removable edges of each changed
//     node y, of y's relation neighbours s, and of the noun phrases
//     sameAs-linked to any such pronoun s (for a sameAs removal, np is one
//     of those, with s = y = p). NP-NP sameAs edges are read only by
//     Preprocess and play no part.
//
// Together these make every pop the brute-force greedy choice: the minimum
// (contribution, EdgeId) over the currently removable edges, with ties
// breaking toward the smaller EdgeId via the heap order. All loop state
// (heap vector, version array, neighbour and edges-of-mention CSRs,
// epoch-marked dirty set) lives in the retained workspace: zero heap
// traffic once warm.
void GreedyDensifier::RunHeapLoop(DensifyEvaluator* eval, SemanticGraph* graph,
                                  DensifyResult* result) const {
  DensifyWorkspace& ws = eval->workspace();
  const size_t n = graph->node_count();
  BuildNeighbourCsr(
      *graph,
      [](const GraphEdge& edge) { return edge.kind == EdgeKind::kRelation; },
      &ws.relation_nbrs, &ws.cursor);
  BuildNeighbourCsr(
      *graph,
      [graph](const GraphEdge& edge) {
        if (edge.kind != EdgeKind::kSameAs) return false;
        const NodeKind ka = graph->node(edge.a).kind;
        const NodeKind kb = graph->node(edge.b).kind;
        return (ka == NodeKind::kPronoun && kb == NodeKind::kNounPhrase) ||
               (ka == NodeKind::kNounPhrase && kb == NodeKind::kPronoun);
      },
      &ws.pronoun_np_nbrs, &ws.cursor);

  ws.version.assign(graph->edge_count(), 0);
  ws.dirty_mark.assign(n, 0);
  ws.dirty_epoch = 0;

  // Candidate edges grouped by their (static) mention node; the initial
  // removable set is a superset of all future ones (invariant 1), so no
  // edge ever needs to be added later.
  eval->RemovableEdgesInto(&ws.removable);
  ws.eom_off.assign(n + 1, 0);
  for (EdgeId e : ws.removable) {
    ++ws.eom_off[static_cast<size_t>(MentionOfEdge(*graph, e)) + 1];
  }
  for (size_t i = 0; i < n; ++i) ws.eom_off[i + 1] += ws.eom_off[i];
  ws.cursor.assign(ws.eom_off.begin(), ws.eom_off.end() - 1);
  ws.eom_data.resize(ws.removable.size());
  for (EdgeId e : ws.removable) {
    ws.eom_data[ws.cursor[static_cast<size_t>(MentionOfEdge(*graph, e))]++] = e;
  }

  const HeapOrder order;
  ws.heap.clear();
  for (EdgeId e : ws.removable) {
    ws.heap.push_back({eval->Contribution(e), e, 0});
    std::push_heap(ws.heap.begin(), ws.heap.end(), order);
  }
  result->contributions_evaluated += static_cast<int64_t>(ws.removable.size());

  auto add_dirty = [&ws](NodeId d) {
    uint32_t& mark = ws.dirty_mark[static_cast<size_t>(d)];
    if (mark != ws.dirty_epoch) {
      mark = ws.dirty_epoch;
      ws.dirty.push_back(d);
    }
  };
  // A source s: its own removable edges read it, and so do the means edges
  // of every noun phrase a pronoun s is sameAs-linked to.
  const DensifyWorkspace::NeighbourCsr& rel = ws.relation_nbrs;
  const DensifyWorkspace::NeighbourCsr& pro_np = ws.pronoun_np_nbrs;
  auto add_source = [&](NodeId s) {
    add_dirty(s);
    if (graph->node(s).kind != NodeKind::kPronoun) return;
    const size_t i = static_cast<size_t>(s);
    for (uint32_t k = pro_np.off[i]; k < pro_np.off[i + 1]; ++k) {
      add_dirty(pro_np.data[k]);
    }
  };
  // The side of y changed: every source on a relation edge at y reads it.
  auto add_readers_of_side = [&](NodeId y) {
    add_source(y);
    const size_t i = static_cast<size_t>(y);
    for (uint32_t k = rel.off[i]; k < rel.off[i + 1]; ++k) {
      add_source(rel.data[k]);
    }
  };

  while (!ws.heap.empty()) {
    const DensifyWorkspace::HeapEntry top = ws.heap.front();
    std::pop_heap(ws.heap.begin(), ws.heap.end(), order);
    ws.heap.pop_back();
    if (ws.version[static_cast<size_t>(top.e)] != top.version) continue;  // stale
    if (!eval->IsRemovable(top.e)) continue;  // permanently out (invariant 1)

    graph->SetEdgeActive(top.e, false);
    ++result->edges_removed;
    result->removal_order.push_back(top.e);
    ++ws.version[static_cast<size_t>(top.e)];  // no heap entry survives removal

    ++ws.dirty_epoch;
    ws.dirty.clear();
    const GraphEdge& removed = graph->edge(top.e);
    if (removed.kind == EdgeKind::kMeans) {
      const size_t m = static_cast<size_t>(removed.a);
      add_readers_of_side(removed.a);
      for (uint32_t k = pro_np.off[m]; k < pro_np.off[m + 1]; ++k) {
        add_readers_of_side(pro_np.data[k]);
      }
    } else {
      // The pronoun's side changed, and np's means edges lost it as a
      // source; np is sameAs-linked to the pronoun, so add_source marks it.
      add_readers_of_side(MentionOfEdge(*graph, top.e));
    }
    for (NodeId d : ws.dirty) {
      const size_t id = static_cast<size_t>(d);
      for (uint32_t k = ws.eom_off[id]; k < ws.eom_off[id + 1]; ++k) {
        const EdgeId de = ws.eom_data[k];
        if (!eval->IsRemovable(de)) continue;  // never coming back; skip
        ++ws.version[static_cast<size_t>(de)];
        ws.heap.push_back({eval->Contribution(de), de,
                           ws.version[static_cast<size_t>(de)]});
        std::push_heap(ws.heap.begin(), ws.heap.end(), order);
        ++result->contributions_evaluated;
      }
    }
  }
}

}  // namespace qkbfly
