#include "views/materialized_view.h"

#include <algorithm>
#include <bit>

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
  auto upsert = [&](TupleKey key, uint64_t count, uint64_t sum_len) -> Row& {
    Row& row = rows_[std::move(key)];
    if (row.count == 0 && options_.track_df) row.df.assign(num_tracked_, 0);
    if (row.count == 0 && options_.track_tc) row.tc.assign(num_tracked_, 0);
    row.count += count;
    row.sum_len += sum_len;
    return row;
  };
  if (other.compacted_) {
    // Aggregates tuple by tuple; the slot-major parameter columns fold in
    // tiles, never one strided cell per slot.
    const FlatRows& f = other.flat_;
    const size_t n = f.size();
    const size_t sw = f.sig_words();
    const std::vector<uint64_t> words = f.SigWords();
    rows_.reserve(rows_.size() + n);
    std::vector<Row*> targets(n);
    for (size_t r = 0; r < n; ++r) {
      auto w = words.begin() + static_cast<ptrdiff_t>(r * sw);
      TupleKey key{BitSignature::FromWords({w, w + static_cast<ptrdiff_t>(sw)}),
                   f.bucket(r)};
      targets[r] = &upsert(std::move(key), f.counts[r], f.sum_lens[r]);
    }
    std::vector<uint32_t*> dst(n);
    auto fold = [&](const std::vector<uint32_t>& cols,
                    std::vector<uint32_t> Row::*field) {
      for (size_t r = 0; r < n; ++r) dst[r] = (targets[r]->*field).data();
      FlatRows::ForEachParamCell(0, n, num_tracked_, [&](size_t r, size_t s) {
        dst[r][s] += cols[s * n + r];
      });
    };
    if (options_.track_df && !f.df.empty()) fold(f.df, &Row::df);
    if (options_.track_tc && !f.tc.empty()) fold(f.tc, &Row::tc);
    return;
  }
  for (const auto& [key, src] : other.rows_) {
    Row& row = upsert(key, src.count, src.sum_len);
    if (options_.track_df && !src.df.empty()) {
      for (uint32_t s = 0; s < num_tracked_; ++s) row.df[s] += src.df[s];
    }
    if (options_.track_tc && !src.tc.empty()) {
      for (uint32_t s = 0; s < num_tracked_; ++s) row.tc[s] += src.tc[s];
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
  const bool has_params = options_.track_df || options_.track_tc;
  for (size_t i = 0; i < keywords.size(); ++i) {
    out.covered[i] = has_params && tracked.SlotOf(keywords[i]) >= 0;
  }

  // Theorem 4.2: the scan is charged one tuple per stored tuple, whichever
  // store is live and however many tuples match.
  if (cost != nullptr) cost->view_tuples_scanned += NumTuples();
  if (compacted_) {
    ScanColumns(context, keywords, tracked, range.active(), bucket_lo,
                bucket_hi, &out);
    return out;
  }

  // Staging store: test every row's signature against the probe mask.
  std::vector<int32_t> slots(keywords.size(), -1);
  for (size_t i = 0; i < keywords.size(); ++i) {
    if (out.covered[i]) slots[i] = tracked.SlotOf(keywords[i]);
  }
  BitSignature mask(def_.num_columns());
  for (TermId m : context) {
    mask.Set(static_cast<uint32_t>(def_.BitOf(m)));
  }
  for (const auto& [key, row] : rows_) {
    if (key.bucket < bucket_lo || key.bucket > bucket_hi) continue;
    if (!key.sig.ContainsAll(mask)) continue;
    out.cardinality += row.count;
    out.total_length += row.sum_len;
    for (size_t i = 0; i < keywords.size(); ++i) {
      if (slots[i] < 0) continue;
      if (!row.df.empty()) out.df[i] += row.df[slots[i]];
      if (!row.tc.empty()) out.tc[i] += row.tc[slots[i]];
    }
  }
  return out;
}

namespace {

/// Sums col[r] over the set bits r of `match` (`words` words).
uint64_t SumMatched(const uint32_t* col, const uint64_t* match,
                    size_t words) {
  uint64_t sum = 0;
  for (size_t k = 0; k < words; ++k) {
    for (uint64_t bits = match[k]; bits != 0; bits &= bits - 1) {
      sum += col[k * 64 + static_cast<size_t>(std::countr_zero(bits))];
    }
  }
  return sum;
}

}  // namespace

void MaterializedView::ScanColumns(std::span<const TermId> context,
                                   std::span<const TermId> keywords,
                                   const TrackedKeywords& tracked,
                                   bool filter_buckets, uint16_t bucket_lo,
                                   uint16_t bucket_hi,
                                   StatsResult* out) const {
  const FlatRows& f = flat_;
  // Tuples are matched a stack chunk of row words at a time (16,384
  // tuples), so the scan allocates nothing whatever the view's size.
  constexpr size_t kChunkWords = 256;
  uint64_t match[kChunkWords];
  for (size_t w0 = 0; w0 < f.row_words; w0 += kChunkWords) {
    const size_t words = std::min(kChunkWords, f.row_words - w0);
    const size_t base = w0 * 64;
    // The tuples whose key holds every bit of P: the AND of P's columns
    // (all tuples for an empty P).
    std::fill_n(match, words, ~uint64_t{0});
    if (w0 + words == f.row_words && f.n % 64 != 0) {
      match[words - 1] = (uint64_t{1} << (f.n % 64)) - 1;
    }
    for (TermId m : context) {
      const uint64_t* col =
          f.column(static_cast<uint32_t>(def_.BitOf(m))) + w0;
      for (size_t k = 0; k < words; ++k) match[k] &= col[k];
    }
    // Count/length of the matched tuples; an active year range drops the
    // matched tuples outside its buckets first.
    for (size_t k = 0; k < words; ++k) {
      for (uint64_t bits = match[k]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const size_t r = base + k * 64 + static_cast<size_t>(b);
        if (filter_buckets &&
            (f.buckets[r] < bucket_lo || f.buckets[r] > bucket_hi)) {
          match[k] &= ~(uint64_t{1} << b);
          continue;
        }
        out->cardinality += f.counts[r];
        out->total_length += f.sum_lens[r];
      }
    }
    // One contiguous column per covered keyword.
    for (size_t i = 0; i < keywords.size(); ++i) {
      if (!out->covered[i]) continue;
      const size_t col =
          static_cast<size_t>(tracked.SlotOf(keywords[i])) * f.n + base;
      if (!f.df.empty()) {
        out->df[i] += SumMatched(f.df.data() + col, match, words);
      }
      if (!f.tc.empty()) {
        out->tc[i] += SumMatched(f.tc.data() + col, match, words);
      }
    }
  }
}

std::vector<const MaterializedView::RowEntry*> MaterializedView::SortedRows()
    const {
  std::vector<const RowEntry*> sorted;
  sorted.reserve(rows_.size());
  for (const auto& kv : rows_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    if (a->first.bucket != b->first.bucket) {
      return a->first.bucket < b->first.bucket;
    }
    return a->first.sig.raw_words() < b->first.sig.raw_words();
  });
  return sorted;
}

void MaterializedView::Compact() {
  if (compacted_) return;
  // Sorted so the compacted order — and therefore serialized snapshots —
  // is deterministic, unlike hash-map iteration.
  std::vector<const RowEntry*> sorted = SortedRows();
  const size_t n = sorted.size();
  FlatRows f;
  f.Reset(n, def_.num_columns(), options_.year_bucket_size > 0,
          options_.track_df, options_.track_tc, num_tracked_);
  for (size_t r = 0; r < n; ++r) {
    const TupleKey& key = sorted[r]->first;
    f.SetKey(r, key.sig.raw_words().data());
    if (!f.buckets.empty()) f.buckets[r] = key.bucket;
    f.counts[r] = sorted[r]->second.count;
    f.sum_lens[r] = sorted[r]->second.sum_len;
  }
  // Parameter columns are written tile by tile from the per-row arrays.
  std::vector<const uint32_t*> src(n);
  auto transpose = [&](std::vector<uint32_t>& cols,
                       std::vector<uint32_t> Row::*field) {
    for (size_t r = 0; r < n; ++r) src[r] = (sorted[r]->second.*field).data();
    FlatRows::ForEachParamCell(0, n, num_tracked_, [&](size_t r, size_t s) {
      cols[s * n + r] = src[r][s];
    });
  };
  if (options_.track_df) transpose(f.df, &Row::df);
  if (options_.track_tc) transpose(f.tc, &Row::tc);
  flat_ = std::move(f);
  rows_ = {};
  compacted_ = true;
}

void MaterializedView::FlatRows::Reset(size_t rows, uint32_t num_columns,
                                       bool with_buckets, bool with_df,
                                       bool with_tc, size_t slots) {
  n = rows;
  columns = num_columns;
  row_words = (rows + 63) / 64;
  key_bits.assign(columns * row_words, 0);
  buckets.assign(with_buckets ? rows : 0, 0);
  counts.assign(rows, 0);
  sum_lens.assign(rows, 0);
  df.assign(with_df ? rows * slots : 0, 0);
  tc.assign(with_tc ? rows * slots : 0, 0);
}

void MaterializedView::FlatRows::SetKey(size_t r, const uint64_t* words) {
  for (size_t k = 0; k < sig_words(); ++k) {
    for (uint64_t bits = words[k]; bits != 0; bits &= bits - 1) {
      size_t c = k * 64 + static_cast<size_t>(std::countr_zero(bits));
      key_bits[c * row_words + (r >> 6)] |= uint64_t{1} << (r & 63);
    }
  }
}

std::vector<uint64_t> MaterializedView::FlatRows::SigWords() const {
  const size_t sw = sig_words();
  std::vector<uint64_t> words(n * sw, 0);
  for (uint32_t c = 0; c < columns; ++c) {
    const uint64_t* col = column(c);
    for (size_t k = 0; k < row_words; ++k) {
      for (uint64_t bits = col[k]; bits != 0; bits &= bits - 1) {
        size_t r = k * 64 + static_cast<size_t>(std::countr_zero(bits));
        words[r * sw + (c >> 6)] |= uint64_t{1} << (c & 63);
      }
    }
  }
  return words;
}

void MaterializedView::Uncompact() {
  if (!compacted_) return;
  // Folding the columns into an empty staging store rebuilds the rows.
  MaterializedView staging(def_, options_, num_tracked_);
  staging.MergeFrom(*this);
  rows_ = std::move(staging.rows_);
  flat_ = FlatRows();
  compacted_ = false;
}

uint64_t MaterializedView::MemoryBytes() const {
  if (compacted_) {
    return (flat_.key_bits.size() + flat_.counts.size() +
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
