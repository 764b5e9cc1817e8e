#ifndef CSR_VIEWS_MATERIALIZED_VIEW_H_
#define CSR_VIEWS_MATERIALIZED_VIEW_H_

#include <cstddef>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/cost_model.h"
#include "util/types.h"
#include "views/signature.h"
#include "views/view_def.h"
#include "views/wide_table.h"

namespace csr {

/// Which parameter columns views carry. df columns (document count per
/// tracked keyword) are required by TF-IDF/BM25; tc columns (term count per
/// tracked keyword) additionally enable language-model ranking.
struct ViewParamOptions {
  bool track_df = true;
  bool track_tc = false;

  /// Section 7 time extension: when non-zero, the GROUP BY additionally
  /// partitions documents by floor(year / year_bucket_size), so year-range
  /// restrictions aligned to bucket boundaries are answerable from the
  /// view. 0 disables the time dimension.
  uint16_t year_bucket_size = 0;
};

/// A materialized view V_K (Section 4.1): GROUP BY K over the wide sparse
/// table, keeping one row per *non-empty* partition (Section 4.3). Each row
/// aggregates COUNT(*), SUM(len(d)), and per tracked keyword w the partial
/// df (and optionally tc).
///
/// Computing S_c(D_P) for P ⊆ K is a full scan of the rows, summing those
/// whose signature contains all bits of P (Theorem 4.2: O(ViewSize)).
class MaterializedView {
 public:
  MaterializedView(ViewDefinition def, ViewParamOptions options,
                   uint32_t num_tracked)
      : def_(std::move(def)), options_(options), num_tracked_(num_tracked) {}

  MaterializedView(const MaterializedView&) = delete;
  MaterializedView& operator=(const MaterializedView&) = delete;
  MaterializedView(MaterializedView&&) = default;
  MaterializedView& operator=(MaterializedView&&) = default;

  const ViewDefinition& def() const { return def_; }
  const ViewParamOptions& options() const { return options_; }

  /// Folds one document into its partition. `tracked_terms` is the
  /// document's (slot, tf) vector from the DocParamTable; `sig` must have
  /// been built against this view's definition. `year` is ignored unless
  /// the view has a time dimension.
  void AddDocument(const BitSignature& sig, uint32_t doc_length,
                   std::span<const std::pair<uint32_t, uint32_t>> tracked_terms,
                   uint16_t year = 0);

  /// Result of a statistics query against the view, aligned with the query
  /// keyword order. covered[i] is false when keyword i is not a tracked
  /// parameter column, in which case df[i]/tc[i] are meaningless and the
  /// caller must compute them at query time (Section 6.2 "Storage usage").
  struct StatsResult {
    uint64_t cardinality = 0;
    uint64_t total_length = 0;
    std::vector<uint64_t> df;
    std::vector<uint64_t> tc;
    std::vector<bool> covered;

    /// False when a year-range restriction could not be answered from
    /// this view (no time dimension, or range not aligned to bucket
    /// boundaries); the caller must fall back to the straightforward plan.
    bool range_answerable = true;
  };

  /// Computes S_c(D_P) by scanning the view. `context` must be sorted and
  /// satisfy Covers(context); violations return a zeroed result with all
  /// covered[i] = false. An active `range` is answered exactly iff the
  /// view has a time dimension and the range aligns to bucket boundaries.
  StatsResult ComputeStats(std::span<const TermId> context,
                           std::span<const TermId> keywords,
                           const TrackedKeywords& tracked,
                           CostCounters* cost = nullptr,
                           YearRange range = {}) const;

  /// True if an active year range aligns to this view's buckets (an
  /// inactive range is always answerable).
  bool RangeAnswerable(YearRange range) const;

  /// Number of non-empty tuples (the paper's ViewSize).
  size_t NumTuples() const {
    return compacted_ ? flat_.size() : rows_.size();
  }

  /// Deep copy. MaterializedView is move-only (accidental copies of a
  /// multi-MB row store are bugs); segment flattening needs an explicit
  /// one to fold deltas into a fresh base catalog without mutating the
  /// published snapshot.
  MaterializedView Clone() const;

  /// Folds another view's rows into this one (tuple-wise sums of count,
  /// sum_len, and the df/tc parameter columns). Both views must share the
  /// same definition, options, and tracked-keyword table; this is the
  /// physical merge of a per-segment delta into its base view, and because
  /// every aggregate is an integer sum it reproduces exactly what a
  /// scratch build over the union of documents would have produced.
  void MergeFrom(const MaterializedView& other);

  /// Converts the hash-map row store into flat column arenas sorted by
  /// tuple key: one contiguous key-word block and one contiguous parameter
  /// block instead of three heap vectors per row. ComputeStats serves
  /// either representation identically (the scan is full either way);
  /// AddDocument on a compacted view lazily un-compacts first. Idempotent.
  void Compact();
  bool compacted() const { return compacted_; }

  /// Actual resident bytes of the row store (keys + aggregates + parameter
  /// columns + per-row container overhead when uncompacted).
  uint64_t MemoryBytes() const;

  /// Modeled on-disk storage: per tuple, the packed signature key plus
  /// 8-byte count/sum columns and 4-byte df/tc columns.
  uint64_t StorageBytes() const;

  /// Number of parameter columns (count + len + df/tc columns), matching
  /// the paper's "912 parameter columns" accounting.
  uint32_t NumParameterColumns() const {
    uint32_t cols = 2;
    if (options_.track_df) cols += num_tracked_;
    if (options_.track_tc) cols += num_tracked_;
    return cols;
  }

 private:
  friend class ViewSerializer;  // persistence (storage/snapshot.cc)

  struct Row {
    uint64_t count = 0;
    uint64_t sum_len = 0;
    std::vector<uint32_t> df;  // per tracked slot; empty unless track_df
    std::vector<uint32_t> tc;  // per tracked slot; empty unless track_tc
  };

  /// Group-by key: the keyword-column signature plus (when the view has a
  /// time dimension) the year bucket.
  struct TupleKey {
    BitSignature sig;
    uint16_t bucket = 0;

    bool operator==(const TupleKey& o) const {
      return bucket == o.bucket && sig == o.sig;
    }
  };
  struct TupleKeyHash {
    size_t operator()(const TupleKey& k) const {
      return static_cast<size_t>(HashCombine(k.sig.Hash(), k.bucket));
    }
  };

  /// Compacted row store: structure-of-arrays. Tuple keys are split into
  /// one signature-word arena (sig_words per row, row-major) and a bucket
  /// column that is kept only when the view has a time dimension (every
  /// bucket is 0 otherwise); df/tc are packed row-major into one arena
  /// each (stride num_tracked_).
  struct FlatRows {
    size_t sig_words = 0;
    std::vector<uint64_t> key_words;
    std::vector<uint16_t> buckets;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> sum_lens;
    std::vector<uint32_t> df;
    std::vector<uint32_t> tc;

    size_t size() const { return counts.size(); }
    std::span<const uint64_t> sig(size_t r) const {
      return {key_words.data() + r * sig_words, sig_words};
    }
    uint16_t bucket(size_t r) const {
      return buckets.empty() ? 0 : buckets[r];
    }
    TupleKey key(size_t r) const {
      std::span<const uint64_t> w = sig(r);
      return TupleKey{
          BitSignature::FromWords(std::vector<uint64_t>(w.begin(), w.end())),
          bucket(r)};
    }
  };

  /// Rebuilds rows_ from flat_ (incremental maintenance needs keyed
  /// upserts).
  void Uncompact();

  ViewDefinition def_;
  ViewParamOptions options_;
  uint32_t num_tracked_;
  std::unordered_map<TupleKey, Row, TupleKeyHash> rows_;
  bool compacted_ = false;
  FlatRows flat_;
};

}  // namespace csr

#endif  // CSR_VIEWS_MATERIALIZED_VIEW_H_
