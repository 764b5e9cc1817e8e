#include "eval/topics.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/random.h"

namespace csr {

namespace {

/// Overwrites abstract positions of doc: `heavy_count` positions with
/// `heavy` and one position with `light`, all positions distinct.
/// Replacement (not appending) keeps document length constant, so pivoted
/// length normalization cannot tell planted documents from natural ones;
/// distinct positions guarantee the document matches the conjunctive query.
void InjectByReplacement(Document& doc, TermId heavy, uint32_t heavy_count,
                         TermId light, SplitMix64& rng) {
  size_t n = doc.abstract_text.size();
  if (n < heavy_count + 1) return;
  std::vector<size_t> positions =
      SampleWithoutReplacement(n, heavy_count + 1, rng);
  for (uint32_t i = 0; i < heavy_count; ++i) {
    doc.abstract_text[positions[i]] = heavy;
  }
  doc.abstract_text[positions[heavy_count]] = light;
}

}  // namespace

Result<std::vector<Topic>> TopicPlanter::Plant(Corpus& corpus) const {
  if (config_.num_topics == 0) {
    return Status::InvalidArgument("num_topics must be > 0");
  }

  // Concept -> member documents (annotation includes the concept).
  std::unordered_map<TermId, std::vector<DocId>> members;
  for (const Document& d : corpus.docs) {
    for (TermId m : d.annotations) members[m].push_back(d.id);
  }

  // Split qualifying concepts into a "small" band (search contexts: their
  // topical terms are globally rare) and a "big" band (sources of globally
  // common terms that are rare inside a small context).
  std::vector<std::pair<size_t, TermId>> by_size;
  for (const auto& [m, docs] : members) {
    if (docs.size() >= config_.min_context_size) {
      by_size.emplace_back(docs.size(), m);
    }
  }
  std::sort(by_size.begin(), by_size.end());
  if (by_size.size() < 4) {
    return Status::FailedPrecondition(
        "corpus has fewer than 4 concepts large enough for topics; lower "
        "min_context_size or enlarge the corpus");
  }
  std::vector<TermId> small_band, big_band;
  size_t split = by_size.size() / 2;
  for (size_t i = 0; i < by_size.size(); ++i) {
    if (i < split) {
      small_band.push_back(by_size[i].second);
    } else {
      big_band.push_back(by_size[i].second);
    }
  }

  SplitMix64 rng(config_.seed);
  std::unordered_set<DocId> used_docs;
  const uint32_t vocab = corpus.config.vocab_size;
  const uint32_t window = corpus.config.topical_window;
  const Ontology& ont = corpus.ontology;

  std::vector<Topic> topics;
  topics.reserve(config_.num_topics);
  double poor_quota = 0.0;
  for (uint32_t t = 0; t < config_.num_topics; ++t) {
    Topic topic;
    topic.name = "Q";
    topic.name += std::to_string(t + 1);

    // Deterministic quota: exactly ~poor_fit_fraction of topics are
    // poor-fit, spread across the sequence.
    poor_quota += config_.poor_fit_fraction;
    bool poor = poor_quota >= 1.0;
    if (poor) poor_quota -= 1.0;
    topic.good_context_fit = !poor;

    // c from the small band (so its topical term X is globally rare), c2
    // from the big band (so its topical term Y is globally common), with
    // no ancestry relation between them.
    TermId c = small_band[rng.NextBounded(small_band.size())];
    TermId c2 = c;
    for (int attempt = 0; attempt < 64; ++attempt) {
      TermId cand = big_band[rng.NextBounded(big_band.size())];
      if (cand != c && !ont.IsAncestor(cand, c) && !ont.IsAncestor(c, cand)) {
        c2 = cand;
        break;
      }
    }
    if (c2 == c) continue;  // no usable pair this draw; topic skipped

    TermId x = CorpusGenerator::ConceptTopicalTerm(c, 0, vocab, window);
    TermId y = CorpusGenerator::ConceptTopicalTerm(c2, 0, vocab, window);
    for (uint32_t r = 1; x == y && r < window; ++r) {
      y = CorpusGenerator::ConceptTopicalTerm(c2, r, vocab, window);
    }
    if (x == y) continue;

    // Documents already planted for another topic are off limits: a second
    // injection could overwrite the first topic's planted terms.
    std::vector<DocId> pool;
    for (DocId d : members[c]) {
      if (!used_docs.count(d)) pool.push_back(d);
    }
    Shuffle(pool, rng);
    uint32_t want = config_.relevant_per_topic + config_.distractors_per_topic;
    if (pool.size() < want) continue;
    for (uint32_t i = 0; i < want; ++i) used_docs.insert(pool[i]);

    // Good fit: relevant documents are heavy in Y (the context-rare term);
    // distractors are heavy in X (globally rare, so conventional idf loves
    // it — the paper's pancreas/leukemia inversion). Distractors get the
    // stronger dose so that conventional ranking reliably surfaces them
    // first (depressing its reciprocal rank, as in Figure 6c/d). Poor fit:
    // relevance correlates only weakly with X, so conventional ranking
    // wins by a small margin.
    if (topic.good_context_fit) {
      uint32_t heavy = 3 + static_cast<uint32_t>(rng.NextBounded(2));
      for (uint32_t i = 0; i < config_.relevant_per_topic; ++i) {
        Document& doc = corpus.docs[pool[i]];
        InjectByReplacement(doc, y, heavy, x, rng);
        topic.relevant.push_back(doc.id);
      }
      for (uint32_t i = 0; i < config_.distractors_per_topic; ++i) {
        Document& doc = corpus.docs[pool[config_.relevant_per_topic + i]];
        InjectByReplacement(doc, x, heavy + 2, y, rng);
      }
    } else {
      // Both groups carry both terms; relevant docs are slightly
      // X-heavier, distractors slightly Y-heavier.
      for (uint32_t i = 0; i < config_.relevant_per_topic; ++i) {
        Document& doc = corpus.docs[pool[i]];
        InjectByReplacement(doc, x, 3, y, rng);
        InjectByReplacement(doc, y, 1, x, rng);
        topic.relevant.push_back(doc.id);
      }
      for (uint32_t i = 0; i < config_.distractors_per_topic; ++i) {
        Document& doc = corpus.docs[pool[config_.relevant_per_topic + i]];
        InjectByReplacement(doc, y, 3, x, rng);
        InjectByReplacement(doc, x, 1, y, rng);
      }
    }
    std::sort(topic.relevant.begin(), topic.relevant.end());

    topic.keywords = {x, y};
    topic.context = {c};
    topics.push_back(std::move(topic));
  }

  if (topics.empty()) {
    return Status::FailedPrecondition(
        "no topics could be planted; corpus too small");
  }
  return topics;
}

}  // namespace csr
