#include "graph/graph_builder.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

struct GraphBuilder::BuildState {
  const GraphBuilder* builder;
  const AnnotatedDocument* doc;
  SemanticGraph graph;

  // (sentence << 20 | begin << 10 | end) -> node id for text-node dedup.
  std::unordered_map<uint64_t, NodeId> span_nodes;

  static uint64_t SpanKey(int sentence, const TokenSpan& span) {
    return (static_cast<uint64_t>(sentence) << 40) |
           (static_cast<uint64_t>(static_cast<uint32_t>(span.begin)) << 20) |
           static_cast<uint64_t>(static_cast<uint32_t>(span.end));
  }

  const AnnotatedSentence& Sentence(int s) const {
    return doc->sentences[static_cast<size_t>(s)];
  }

  // Creates (or reuses) the noun-phrase / pronoun node for a span.
  NodeId GetTextNode(int s, TokenSpan span, int head) {
    uint64_t key = SpanKey(s, span);
    auto it = span_nodes.find(key);
    if (it != span_nodes.end()) return it->second;

    const AnnotatedSentence& sentence = Sentence(s);
    const Token& head_token = sentence.tokens[static_cast<size_t>(head)];

    GraphNode node;
    node.sentence = s;
    node.span = span;
    node.head_token = head;

    if (head_token.pos == PosTag::kPRP) {
      node.kind = NodeKind::kPronoun;
      node.text = head_token.text;
      if (auto info = Lexicon::Get().GetPronoun(head_token.sym)) {
        node.gender = info->gender;
        node.plural_pronoun = info->plural;
      }
    } else {
      node.kind = NodeKind::kNounPhrase;
      // NER mention covering the head wins; else trim leading determiners
      // and premodifiers from the span.
      TokenSpan mention_span = span;
      for (const NerMention& m : sentence.ner_mentions) {
        if (m.span.Contains(head)) {
          mention_span = m.span;
          node.ner = m.type;
          break;
        }
      }
      if (node.ner == NerType::kNone) {
        while (mention_span.begin < head) {
          PosTag t = sentence.tokens[static_cast<size_t>(mention_span.begin)].pos;
          if (t == PosTag::kDT || t == PosTag::kPRPS || t == PosTag::kPOS) {
            ++mention_span.begin;
          } else {
            break;
          }
        }
      }
      node.text = SpanText(sentence.tokens, mention_span);
      // Literals: time and number arguments, and lowercase non-name phrases
      // with no repository candidate.
      for (const TimeMention& tm : sentence.time_mentions) {
        if (tm.span.Contains(head)) {
          node.is_literal = true;
          node.ner = NerType::kTime;
          node.normalized_literal = tm.normalized;
          break;
        }
      }
      if (!node.is_literal) {
        if (node.ner == NerType::kNumber || head_token.pos == PosTag::kCD ||
            head_token.pos == PosTag::kSYM) {
          node.is_literal = true;
          node.ner = NerType::kNumber;
          node.normalized_literal = node.text;
        } else if (head_token.pos != PosTag::kNNP &&
                   !builder->repository_->HasAlias(node.text)) {
          node.is_literal = true;  // "actor", "the lyrics", ...
        }
      }
    }
    NodeId id = graph.AddNode(std::move(node));
    span_nodes.emplace(key, id);
    return id;
  }

  // Creates the argument node for a clause constituent, resolving
  // appositions ("ex-wife Angelina Jolie" -> node for "Angelina Jolie") and
  // emitting the possessive relation heuristic when applicable.
  NodeId ArgumentNode(int s, const DependencyParse& parse, const Constituent& c) {
    const AnnotatedSentence& sentence = Sentence(s);
    int head = c.head;
    if (head < 0) return kNoNode;

    if (builder->options_.possessive_relations) {
      auto apposed = parse.DependentsWithLabel(head, DepLabel::kAppos);
      if (!apposed.empty()) {
        int appos_head = apposed[0];
        // Span of the apposed name: the name run around appos_head.
        TokenSpan name_span = NameSpanAround(sentence, appos_head);
        NodeId name_node = GetTextNode(s, name_span, appos_head);
        // Possessive relation: "[Pitt] 's [ex-wife] [Angelina Jolie]".
        auto possessors = parse.DependentsWithLabel(head, DepLabel::kPoss);
        if (!possessors.empty() &&
            sentence.tokens[static_cast<size_t>(possessors[0])].pos !=
                PosTag::kPRPS) {
          int poss = possessors[0];
          TokenSpan poss_span = NameSpanAround(sentence, poss);
          NodeId poss_node = GetTextNode(s, poss_span, poss);
          GraphEdge rel;
          rel.kind = EdgeKind::kRelation;
          rel.a = poss_node;
          rel.b = name_node;
          rel.label = sentence.tokens[static_cast<size_t>(head)].lemma;
          graph.AddEdge(std::move(rel));
        }
        return name_node;
      }
    }
    return GetTextNode(s, c.span, head);
  }

  // The contiguous same-NER-mention (or NNP run) span containing `token`.
  TokenSpan NameSpanAround(const AnnotatedSentence& sentence, int token) const {
    for (const NerMention& m : sentence.ner_mentions) {
      if (m.span.Contains(token)) return m.span;
    }
    int lo = token;
    int hi = token;
    const auto& toks = sentence.tokens;
    while (lo > 0 && toks[static_cast<size_t>(lo - 1)].pos == PosTag::kNNP) --lo;
    while (hi + 1 < static_cast<int>(toks.size()) &&
           toks[static_cast<size_t>(hi + 1)].pos == PosTag::kNNP) {
      ++hi;
    }
    return {lo, hi + 1};
  }
};

GraphBuilder::GraphBuilder(const EntityRepository* repository,
                           std::unique_ptr<DependencyParser> parser,
                           Options options)
    : repository_(repository), parser_(std::move(parser)), options_(options) {}

SemanticGraph GraphBuilder::Build(const AnnotatedDocument& doc) const {
  BuildState state;
  state.builder = this;
  state.doc = &doc;

  // --- per-sentence clause structure -> clause, NP and pronoun nodes --------
  for (int s = 0; s < static_cast<int>(doc.sentences.size()); ++s) {
    const AnnotatedSentence& sentence = doc.sentences[static_cast<size_t>(s)];
    DependencyParse parse = parser_->Parse(sentence.tokens);
    std::vector<Clause> clauses = detector_.Detect(sentence.tokens, parse);

    std::vector<NodeId> clause_nodes(clauses.size(), kNoNode);
    for (size_t c = 0; c < clauses.size(); ++c) {
      const Clause& clause = clauses[c];
      GraphNode node;
      node.kind = NodeKind::kClause;
      node.sentence = s;
      node.clause_index = static_cast<int>(c);
      node.clause_type = clause.type;
      node.relation_pattern = clause.RelationPattern();
      node.negated_clause = clause.negated;
      node.head_token = clause.verb;
      node.text = clause.relation;
      clause_nodes[c] = state.graph.AddNode(std::move(node));
    }

    for (size_t c = 0; c < clauses.size(); ++c) {
      const Clause& clause = clauses[c];
      NodeId cnode = clause_nodes[c];

      // depends edge to the governing clause.
      if (clause.parent >= 0 &&
          clause.parent < static_cast<int>(clause_nodes.size())) {
        GraphEdge dep;
        dep.kind = EdgeKind::kDepends;
        dep.a = clause_nodes[static_cast<size_t>(clause.parent)];
        dep.b = cnode;
        dep.label = DepLabelName(clause.link);
        state.graph.AddEdge(std::move(dep));
      }

      if (!clause.has_subject) continue;
      NodeId subject = state.ArgumentNode(s, parse, clause.subject);
      if (subject == kNoNode) continue;
      state.graph.AddEdge({EdgeKind::kDepends, cnode, subject, "subject", true});

      std::string base = clause.negated ? "not " + clause.relation : clause.relation;
      auto connect = [&](const Constituent& arg, const std::string& label) {
        NodeId node = state.ArgumentNode(s, parse, arg);
        if (node == kNoNode) return;
        state.graph.AddEdge({EdgeKind::kDepends, cnode, node, "argument", true,
                             kNoNode});
        state.graph.AddEdge({EdgeKind::kRelation, subject, node, label, true,
                             cnode});
      };
      for (const Constituent& obj : clause.objects) connect(obj, base);
      if (clause.complement) connect(*clause.complement, base);
      for (const Constituent& adv : clause.adverbials) {
        connect(adv, adv.preposition.empty() ? base : base + " " + adv.preposition);
      }
    }
  }

  // --- means edges: candidate entities from the repository -------------------
  for (NodeId np : state.graph.NodesOfKind(NodeKind::kNounPhrase)) {
    const GraphNode& node = state.graph.node(np);
    if (node.is_literal) continue;
    // Exact alias matches plus loose partial-name candidates (Babelfy's
    // "loose identification of candidate meanings"). The weight model
    // discounts the loose ones; they mostly enlarge the inference problem.
    std::vector<EntityId> candidates =
        options_.loose_candidates
            ? repository_->LooseCandidates(
                  node.text, static_cast<size_t>(options_.max_candidates))
            : repository_->CandidatesForAlias(node.text);
    for (EntityId e : candidates) {
      GraphNode entity_node;
      entity_node.kind = NodeKind::kEntity;
      entity_node.entity = e;
      NodeId en = state.graph.AddNode(std::move(entity_node));
      state.graph.AddEdge({EdgeKind::kMeans, np, en, "", true});
    }
  }

  // --- sameAs edges among noun phrases (string-match co-reference) -----------
  // Two names match if they are equal ignoring case, or if the lowercased
  // token multiset of the one with fewer tokens is contained in the other's:
  // "Pitt" matches "Brad Pitt"; "Angelina Jolie" matches "Jolie". Each noun
  // phrase is lowercased and split into sorted tokens once, so the quadratic
  // pair pass is a std::includes over two short sorted ranges.
  auto nps = state.graph.NodesOfKind(NodeKind::kNounPhrase);
  std::vector<std::vector<std::string>> name_tokens(nps.size());
  for (size_t i = 0; i < nps.size(); ++i) {
    const GraphNode& node = state.graph.node(nps[i]);
    if (node.is_literal) continue;
    name_tokens[i] = SplitWhitespace(Lowercase(node.text));
    std::sort(name_tokens[i].begin(), name_tokens[i].end());
  }
  for (size_t i = 0; i < nps.size(); ++i) {
    const GraphNode& a = state.graph.node(nps[i]);
    if (a.is_literal) continue;
    const std::vector<std::string>& ta = name_tokens[i];
    for (size_t j = i + 1; j < nps.size(); ++j) {
      const GraphNode& b = state.graph.node(nps[j]);
      if (b.is_literal) continue;
      if (a.ner != b.ner) continue;
      if (a.sentence == b.sentence && a.span == b.span) continue;
      const std::vector<std::string>& tb = name_tokens[j];
      bool match = EqualsIgnoreCase(a.text, b.text);
      if (!match && !ta.empty() && !tb.empty()) {
        const auto& small = ta.size() <= tb.size() ? ta : tb;
        const auto& big = ta.size() <= tb.size() ? tb : ta;
        match = std::includes(big.begin(), big.end(), small.begin(), small.end());
      }
      if (match) {
        state.graph.AddEdge({EdgeKind::kSameAs, nps[i], nps[j], "", true});
      }
    }
  }

  // --- sameAs edges from pronouns to candidate antecedents -------------------
  if (!options_.pronoun_coreference) {
    state.graph.Finalize();
    return state.graph;
  }
  for (NodeId p : state.graph.NodesOfKind(NodeKind::kPronoun)) {
    const GraphNode& pro = state.graph.node(p);
    auto info = Lexicon::Get().GetPronoun(pro.text);
    bool personal = !info || info->personal_reference;
    for (NodeId np : nps) {
      const GraphNode& cand = state.graph.node(np);
      if (cand.is_literal) continue;
      if (cand.sentence > pro.sentence ||
          cand.sentence < pro.sentence - options_.pronoun_window) {
        continue;
      }
      if (cand.sentence == pro.sentence && cand.span.begin >= pro.span.begin) {
        continue;  // antecedents precede the pronoun
      }
      // "he"/"she" refer to persons, "it" to non-persons, "they" to either.
      if (info && !info->plural) {
        if (personal && cand.ner != NerType::kPerson) continue;
        if (!personal && cand.ner == NerType::kPerson) continue;
      }
      state.graph.AddEdge({EdgeKind::kSameAs, p, np, "", true});
    }
  }

  // Build the CSR adjacency index now, while the graph is still warm: the
  // densifier and every downstream reader start from an indexed graph.
  state.graph.Finalize();
  return state.graph;
}

}  // namespace qkbfly
