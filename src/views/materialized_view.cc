#include "views/materialized_view.h"

#include <algorithm>
#include <numeric>

namespace csr {

void MaterializedView::AddDocument(
    const BitSignature& sig, uint32_t doc_length,
    std::span<const std::pair<uint32_t, uint32_t>> tracked_terms,
    uint16_t year) {
  if (compacted_) Uncompact();
  TupleKey key{sig, 0};
  if (options_.year_bucket_size > 0) {
    key.bucket = static_cast<uint16_t>(year / options_.year_bucket_size);
  }
  Row& row = rows_[key];
  if (row.count == 0 && options_.track_df) {
    row.df.assign(num_tracked_, 0);
  }
  if (row.count == 0 && options_.track_tc) {
    row.tc.assign(num_tracked_, 0);
  }
  row.count++;
  row.sum_len += doc_length;
  if (options_.track_df || options_.track_tc) {
    for (const auto& [slot, tf] : tracked_terms) {
      if (options_.track_df) row.df[slot]++;
      if (options_.track_tc) row.tc[slot] += tf;
    }
  }
}

MaterializedView MaterializedView::Clone() const {
  MaterializedView copy(def_, options_, num_tracked_);
  copy.rows_ = rows_;
  copy.compacted_ = compacted_;
  copy.flat_ = flat_;
  return copy;
}

void MaterializedView::MergeFrom(const MaterializedView& other) {
  if (compacted_) Uncompact();
  auto upsert = [&](const TupleKey& key, uint64_t count, uint64_t sum_len,
                    const uint32_t* df_row, const uint32_t* tc_row) {
    Row& row = rows_[key];
    if (row.count == 0 && options_.track_df) row.df.assign(num_tracked_, 0);
    if (row.count == 0 && options_.track_tc) row.tc.assign(num_tracked_, 0);
    row.count += count;
    row.sum_len += sum_len;
    if (options_.track_df && df_row != nullptr) {
      for (uint32_t s = 0; s < num_tracked_; ++s) row.df[s] += df_row[s];
    }
    if (options_.track_tc && tc_row != nullptr) {
      for (uint32_t s = 0; s < num_tracked_; ++s) row.tc[s] += tc_row[s];
    }
  };
  if (other.compacted_) {
    const FlatRows& f = other.flat_;
    for (size_t r = 0; r < f.size(); ++r) {
      upsert(f.key(r), f.counts[r], f.sum_lens[r],
             f.df.empty() ? nullptr : f.df.data() + r * num_tracked_,
             f.tc.empty() ? nullptr : f.tc.data() + r * num_tracked_);
    }
  } else {
    for (const auto& [key, row] : other.rows_) {
      upsert(key, row.count, row.sum_len,
             row.df.empty() ? nullptr : row.df.data(),
             row.tc.empty() ? nullptr : row.tc.data());
    }
  }
}

bool MaterializedView::RangeAnswerable(YearRange range) const {
  if (!range.active()) return true;
  uint16_t b = options_.year_bucket_size;
  if (b == 0) return false;
  // The range must cover whole buckets: [min, max] answerable iff min is a
  // bucket start and max is a bucket end.
  return range.min_year % b == 0 && (range.max_year + 1) % b == 0 &&
         range.min_year <= range.max_year;
}

MaterializedView::StatsResult MaterializedView::ComputeStats(
    std::span<const TermId> context, std::span<const TermId> keywords,
    const TrackedKeywords& tracked, CostCounters* cost,
    YearRange range) const {
  StatsResult out;
  out.df.assign(keywords.size(), 0);
  out.tc.assign(keywords.size(), 0);
  out.covered.assign(keywords.size(), false);

  if (!def_.Covers(context)) return out;
  if (!RangeAnswerable(range)) {
    out.range_answerable = false;
    return out;
  }
  uint16_t bucket_lo = 0;
  uint16_t bucket_hi = UINT16_MAX;
  if (range.active()) {
    bucket_lo = static_cast<uint16_t>(range.min_year /
                                      options_.year_bucket_size);
    bucket_hi = static_cast<uint16_t>(range.max_year /
                                      options_.year_bucket_size);
  }

  // Which keywords have a parameter column in this view.
  std::vector<int32_t> slots(keywords.size(), -1);
  for (size_t i = 0; i < keywords.size(); ++i) {
    int32_t slot = tracked.SlotOf(keywords[i]);
    slots[i] = slot;
    out.covered[i] = slot >= 0 && (options_.track_df || options_.track_tc);
  }

  // Build the probe mask for P.
  BitSignature mask(def_.num_columns());
  for (TermId m : context) {
    int32_t bit = def_.BitOf(m);
    if (bit < 0) return out;  // unreachable given Covers(context)
    mask.Set(static_cast<uint32_t>(bit));
  }

  // Full scan of the view (Theorem 4.2), over whichever row store is live.
  auto fold = [&](uint16_t bucket, std::span<const uint64_t> sig,
                  uint64_t count, uint64_t sum_len, const uint32_t* df_row,
                  const uint32_t* tc_row) {
    if (cost != nullptr) cost->view_tuples_scanned++;
    if (bucket < bucket_lo || bucket > bucket_hi) return;
    if (!BitSignature::ContainsAll(sig, mask.raw_words())) return;
    out.cardinality += count;
    out.total_length += sum_len;
    for (size_t i = 0; i < keywords.size(); ++i) {
      if (slots[i] < 0) continue;
      if (options_.track_df && df_row != nullptr) {
        out.df[i] += df_row[slots[i]];
      }
      if (options_.track_tc && tc_row != nullptr) {
        out.tc[i] += tc_row[slots[i]];
      }
    }
  };
  if (compacted_) {
    for (size_t r = 0; r < flat_.size(); ++r) {
      fold(flat_.bucket(r), flat_.sig(r), flat_.counts[r], flat_.sum_lens[r],
           flat_.df.empty() ? nullptr : flat_.df.data() + r * num_tracked_,
           flat_.tc.empty() ? nullptr : flat_.tc.data() + r * num_tracked_);
    }
  } else {
    for (const auto& [key, row] : rows_) {
      fold(key.bucket, key.sig.raw_words(), row.count, row.sum_len,
           row.df.empty() ? nullptr : row.df.data(),
           row.tc.empty() ? nullptr : row.tc.data());
    }
  }
  return out;
}

void MaterializedView::Compact() {
  if (compacted_) return;
  // A view rebuilt after a corrupt-snapshot fallback may carry stale
  // flat-row scratch from before the rebuild; re-compaction must flatten
  // only rows_, or the appends below would duplicate tuples and the
  // second Compact of an idempotence round-trip would diverge byte-wise.
  flat_ = FlatRows();
  // Sort by (bucket, signature words) so the compacted order — and
  // therefore serialized snapshots — is deterministic, unlike hash-map
  // iteration.
  std::vector<const std::pair<const TupleKey, Row>*> sorted;
  sorted.reserve(rows_.size());
  for (const auto& kv : rows_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    if (a->first.bucket != b->first.bucket) {
      return a->first.bucket < b->first.bucket;
    }
    return a->first.sig.raw_words() < b->first.sig.raw_words();
  });

  size_t n = sorted.size();
  flat_.sig_words = BitSignature(def_.num_columns()).num_words();
  flat_.key_words.reserve(n * flat_.sig_words);
  if (options_.year_bucket_size > 0) flat_.buckets.reserve(n);
  flat_.counts.reserve(n);
  flat_.sum_lens.reserve(n);
  if (options_.track_df) flat_.df.reserve(n * num_tracked_);
  if (options_.track_tc) flat_.tc.reserve(n * num_tracked_);
  for (const auto* kv : sorted) {
    const Row& row = kv->second;
    const std::vector<uint64_t>& words = kv->first.sig.raw_words();
    flat_.key_words.insert(flat_.key_words.end(), words.begin(), words.end());
    if (options_.year_bucket_size > 0) {
      flat_.buckets.push_back(kv->first.bucket);
    }
    flat_.counts.push_back(row.count);
    flat_.sum_lens.push_back(row.sum_len);
    if (options_.track_df) {
      if (row.df.empty()) {
        flat_.df.insert(flat_.df.end(), num_tracked_, 0);
      } else {
        flat_.df.insert(flat_.df.end(), row.df.begin(), row.df.end());
      }
    }
    if (options_.track_tc) {
      if (row.tc.empty()) {
        flat_.tc.insert(flat_.tc.end(), num_tracked_, 0);
      } else {
        flat_.tc.insert(flat_.tc.end(), row.tc.begin(), row.tc.end());
      }
    }
  }
  rows_ = {};
  compacted_ = true;
}

void MaterializedView::Uncompact() {
  if (!compacted_) return;
  rows_.reserve(flat_.size());
  for (size_t r = 0; r < flat_.size(); ++r) {
    Row& row = rows_[flat_.key(r)];
    row.count = flat_.counts[r];
    row.sum_len = flat_.sum_lens[r];
    if (!flat_.df.empty()) {
      auto it = flat_.df.begin() + static_cast<ptrdiff_t>(r * num_tracked_);
      row.df.assign(it, it + num_tracked_);
    }
    if (!flat_.tc.empty()) {
      auto it = flat_.tc.begin() + static_cast<ptrdiff_t>(r * num_tracked_);
      row.tc.assign(it, it + num_tracked_);
    }
  }
  flat_ = FlatRows();
  compacted_ = false;
}

uint64_t MaterializedView::MemoryBytes() const {
  if (compacted_) {
    return (flat_.key_words.size() + flat_.counts.size() +
            flat_.sum_lens.size()) *
               sizeof(uint64_t) +
           flat_.buckets.size() * sizeof(uint16_t) +
           (flat_.df.size() + flat_.tc.size()) * sizeof(uint32_t);
  }
  uint64_t sig_bytes = 0;
  if (NumTuples() > 0) {
    sig_bytes = rows_.begin()->first.sig.raw_words().size() * sizeof(uint64_t);
  }
  uint64_t bytes = 0;
  for (const auto& [key, row] : rows_) {
    bytes += sizeof(TupleKey) + sig_bytes + sizeof(Row) +
             (row.df.capacity() + row.tc.capacity()) * sizeof(uint32_t) +
             sizeof(void*);  // hash-table node overhead, roughly
  }
  return bytes;
}

uint64_t MaterializedView::StorageBytes() const {
  if (NumTuples() == 0) return 0;
  uint64_t key_bytes = BitSignature(def_.num_columns()).StorageBytes();
  if (options_.year_bucket_size > 0) key_bytes += sizeof(uint16_t);
  uint64_t row_bytes = 2 * sizeof(uint64_t);
  if (options_.track_df) row_bytes += 4ULL * num_tracked_;
  if (options_.track_tc) row_bytes += 4ULL * num_tracked_;
  return NumTuples() * (key_bytes + row_bytes);
}

}  // namespace csr
