#include "views/size_estimator.h"

#include <unordered_set>

#include "util/hash.h"
#include "util/random.h"

namespace csr {

ViewSizeEstimator::ViewSizeEstimator(const Corpus* corpus, uint64_t seed,
                                     uint32_t sample_size)
    : corpus_(corpus) {
  SplitMix64 rng(seed);
  size_t n = corpus_->docs.size();
  std::vector<size_t> idx = SampleWithoutReplacement(n, sample_size, rng);
  sample_annotations_.reserve(idx.size());
  for (size_t i : idx) sample_annotations_.push_back(corpus_->docs[i].annotations);
  all_docs_.reserve(n);
  for (size_t i = 0; i < n; ++i) all_docs_.push_back(static_cast<DocId>(i));
}

namespace {

// Signatures are summarized by a 64-bit hash of the sorted bit positions;
// a collision would undercount by one tuple, which is harmless for the
// thresholding these estimates feed.
inline bool HashAnnotations(const ViewDefinition& def,
                            const std::vector<TermId>& annotations,
                            uint64_t* out) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  bool any = false;
  for (TermId m : annotations) {
    int32_t bit = def.BitOf(m);
    if (bit < 0) continue;
    any = true;
    h = HashCombine(h, static_cast<uint64_t>(bit));
  }
  *out = h;
  return any;
}

}  // namespace

uint64_t ViewSizeEstimator::CountDistinct(
    const ViewDefinition& def, const std::vector<DocId>& docs) const {
  std::unordered_set<uint64_t> seen;
  uint64_t h = 0;
  for (DocId d : docs) {
    if (HashAnnotations(def, corpus_->docs[d].annotations, &h)) seen.insert(h);
  }
  return seen.size();
}

uint64_t ViewSizeEstimator::CountDistinctFrozen(
    const ViewDefinition& def) const {
  std::unordered_set<uint64_t> seen;
  uint64_t h = 0;
  for (const std::vector<TermId>& annotations : sample_annotations_) {
    if (HashAnnotations(def, annotations, &h)) seen.insert(h);
  }
  return seen.size();
}

uint64_t ViewSizeEstimator::Estimate(const ViewDefinition& def) const {
  return CountDistinctFrozen(def);
}

uint64_t ViewSizeEstimator::Exact(const ViewDefinition& def) const {
  return CountDistinct(def, all_docs_);
}

uint64_t ViewSizeEstimator::CompactedBytes(uint64_t tuples,
                                           uint32_t keyword_columns,
                                           const ViewParamOptions& options,
                                           uint32_t num_tracked) {
  // The compacted layout is private to MaterializedView, so the
  // cross-check test pins this model against actual Compact() MemoryBytes.
  uint64_t key_words = uint64_t{keyword_columns} * ((tuples + 63) / 64);
  uint64_t per_tuple = 2 * sizeof(uint64_t);  // count + sum_len
  if (options.year_bucket_size > 0) per_tuple += sizeof(uint16_t);
  if (options.track_df) per_tuple += sizeof(uint32_t) * uint64_t{num_tracked};
  if (options.track_tc) per_tuple += sizeof(uint32_t) * uint64_t{num_tracked};
  return key_words * sizeof(uint64_t) + tuples * per_tuple;
}

uint64_t ViewSizeEstimator::EstimateBytes(const ViewDefinition& def,
                                          const ViewParamOptions& options,
                                          uint32_t num_tracked) const {
  return CompactedBytes(Estimate(def), def.num_columns(), options,
                        num_tracked);
}

}  // namespace csr
