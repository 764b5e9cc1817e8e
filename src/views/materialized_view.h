#ifndef CSR_VIEWS_MATERIALIZED_VIEW_H_
#define CSR_VIEWS_MATERIALIZED_VIEW_H_

#include <algorithm>
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
/// whose signature contains all bits of P (Theorem 4.2: O(ViewSize)). The
/// build and maintenance form is a hash map of rows; Compact() turns it
/// into the column store that serves queries (DESIGN.md §18).
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
  /// scratch build over the union of documents would have produced. A
  /// compacted view un-compacts first; a compacted `other` is read in
  /// place.
  void MergeFrom(const MaterializedView& other);

  /// Converts the hash-map row store into the column store (FlatRows),
  /// tuples sorted by key. ComputeStats serves either representation with
  /// identical results and cost charge; AddDocument and MergeFrom on a
  /// compacted view lazily un-compact first. Idempotent.
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
    // One cell per tracked slot when track_df / track_tc, else empty.
    std::vector<uint32_t> df;
    std::vector<uint32_t> tc;
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

  /// The staging map's entries in compacted tuple order: by bucket, then
  /// by signature words. views.csr frames list tuples in this order too,
  /// so a view saves to the same bytes whichever store is live.
  using RowEntry = std::pair<const TupleKey, Row>;
  std::vector<const RowEntry*> SortedRows() const;

  /// Compacted store: one column per attribute over the n sorted tuples.
  /// Keyword columns are bit-sliced: column c is a row bitmap of
  /// `row_words` words whose bit r is set iff tuple r's key holds c, so
  /// the tuples matching P are the AND of |P| bitmaps. df/tc are
  /// slot-major (`df[slot * n + r]`), so one keyword's sum walks one
  /// contiguous column. The bucket column is kept only when the view has
  /// a time dimension (every bucket is 0 otherwise).
  struct FlatRows {
    size_t n = 0;
    uint32_t columns = 0;
    size_t row_words = 0;            // ceil(n / 64)
    std::vector<uint64_t> key_bits;  // columns × row_words
    std::vector<uint16_t> buckets;
    std::vector<uint64_t> counts;
    std::vector<uint64_t> sum_lens;
    std::vector<uint32_t> df;  // slots × n, slot-major
    std::vector<uint32_t> tc;  // slots × n, slot-major

    size_t size() const { return n; }
    size_t sig_words() const { return (columns + 63) / 64; }
    const uint64_t* column(uint32_t c) const {
      return key_bits.data() + c * row_words;
    }
    uint16_t bucket(size_t r) const {
      return buckets.empty() ? 0 : buckets[r];
    }

    /// Sizes an empty store for `rows` tuples of `num_columns` keyword
    /// columns: all-zero key bitmaps, aggregate columns of `rows`, a bucket
    /// column when `with_buckets`, and `rows * slots` df/tc cells when
    /// enabled.
    void Reset(size_t rows, uint32_t num_columns, bool with_buckets,
               bool with_df, bool with_tc, size_t slots);
    /// Sets tuple r's key bits from its signature words.
    void SetKey(size_t r, const uint64_t* words);
    /// Every tuple's signature words, row-major (sig_words() per tuple),
    /// rebuilt from the key bitmaps.
    std::vector<uint64_t> SigWords() const;

    /// Visits the (row, slot) cells of rows [begin, end) × `slots` in
    /// 64×64 tiles, slot-outer within a tile. A copy between per-row
    /// parameter arrays and slot-major columns then touches 64 lines on
    /// either side per tile, where a plain row- or slot-order walk strides
    /// a whole column or row per cell on one side.
    template <typename Fn>
    static void ForEachParamCell(size_t begin, size_t end, size_t slots,
                                 Fn&& fn) {
      constexpr size_t kTile = 64;
      for (size_t r0 = begin; r0 < end; r0 += kTile) {
        size_t r1 = std::min(end, r0 + kTile);
        for (size_t s0 = 0; s0 < slots; s0 += kTile) {
          size_t s1 = std::min(slots, s0 + kTile);
          for (size_t s = s0; s < s1; ++s) {
            for (size_t r = r0; r < r1; ++r) fn(r, s);
          }
        }
      }
    }
  };

  /// The compacted scan: ANDs P's key columns 64 tuples per word, drops
  /// tuples outside an active bucket range, and sums the matched cells of
  /// each covered keyword's columns. No heap allocation.
  void ScanColumns(std::span<const TermId> context,
                   std::span<const TermId> keywords,
                   const TrackedKeywords& tracked, bool filter_buckets,
                   uint16_t bucket_lo, uint16_t bucket_hi,
                   StatsResult* out) const;

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
