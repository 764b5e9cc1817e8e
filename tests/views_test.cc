#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "index/inverted_index.h"
#include "stats/collector.h"
#include "storage/serializer.h"
#include "storage/snapshot.h"
#include "util/random.h"
#include "views/materialized_view.h"
#include "views/signature.h"
#include "views/size_estimator.h"
#include "views/view_builder.h"
#include "views/view_catalog.h"
#include "views/view_def.h"
#include "views/wide_table.h"

namespace csr {
namespace {

TEST(BitSignatureTest, SetTestAndPopCount) {
  BitSignature s(130);
  EXPECT_FALSE(s.Any());
  s.Set(0);
  s.Set(64);
  s.Set(129);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(129));
  EXPECT_FALSE(s.Test(1));
  EXPECT_EQ(s.PopCount(), 3u);
  EXPECT_TRUE(s.Any());
  EXPECT_EQ(s.num_words(), 3u);
}

TEST(BitSignatureTest, ContainsAll) {
  BitSignature s(128), mask(128);
  s.Set(3);
  s.Set(70);
  s.Set(100);
  mask.Set(3);
  mask.Set(100);
  EXPECT_TRUE(s.ContainsAll(mask));
  mask.Set(5);
  EXPECT_FALSE(s.ContainsAll(mask));
}

TEST(BitSignatureTest, HashAndEquality) {
  BitSignature a(64), b(64), c(64);
  a.Set(7);
  b.Set(7);
  c.Set(8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.Hash(), c.Hash());
}

TEST(ViewDefinitionTest, CoversAndBitOf) {
  ViewDefinition def{TermIdSet{3, 7, 12, 20}};
  EXPECT_TRUE(def.Covers(TermIdSet{3, 12}));
  EXPECT_TRUE(def.Covers(TermIdSet{}));
  EXPECT_TRUE(def.Covers(TermIdSet{3, 7, 12, 20}));
  EXPECT_FALSE(def.Covers(TermIdSet{3, 8}));
  EXPECT_EQ(def.BitOf(3), 0);
  EXPECT_EQ(def.BitOf(20), 3);
  EXPECT_EQ(def.BitOf(8), -1);
}

/// Shared fixture: a small synthetic corpus with indexes and the view
/// plumbing.
class ViewsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    CorpusConfig cfg;
    cfg.num_docs = 3000;
    cfg.vocab_size = 1500;
    cfg.ontology_fanouts = {4, 3};
    cfg.seed = 17;
    auto r = CorpusGenerator(cfg).Generate();
    ASSERT_TRUE(r.ok());
    corpus_ = std::move(r).value();

    IndexBuilder cb, pb;
    for (const Document& d : corpus_.docs) {
      ASSERT_TRUE(cb.AddDocument(d.id, d.ContentTokens()).ok());
      ASSERT_TRUE(pb.AddDocument(d.id, d.annotations).ok());
    }
    content_ = cb.Build();
    predicates_ = pb.Build();
    tracked_ = TrackedKeywords::Select(content_, /*min_df=*/30, /*cap=*/256);
    table_ = std::make_unique<DocParamTable>(
        DocParamTable::Build(content_, tracked_));
  }

  MaterializedView BuildView(const TermIdSet& k, bool track_tc = true) {
    ViewParamOptions params;
    params.track_df = true;
    params.track_tc = track_tc;
    ViewBuilder builder(&corpus_, table_.get(), params,
                        static_cast<uint32_t>(tracked_.size()));
    std::vector<ViewDefinition> defs = {ViewDefinition{k}};
    auto views = builder.BuildAll(defs);
    return std::move(views[0]);
  }

  Corpus corpus_;
  InvertedIndex content_;
  InvertedIndex predicates_;
  TrackedKeywords tracked_;
  std::unique_ptr<DocParamTable> table_;
};

TEST_F(ViewsFixture, TrackedKeywordsRespectThresholdAndCap) {
  for (TermId t : tracked_.terms()) {
    EXPECT_GE(content_.df(t), 30u);
  }
  EXPECT_LE(tracked_.size(), 256u);
  // Slots round-trip.
  for (uint32_t slot = 0; slot < tracked_.size(); ++slot) {
    EXPECT_EQ(tracked_.SlotOf(tracked_.TermAt(slot)),
              static_cast<int32_t>(slot));
  }
  EXPECT_EQ(tracked_.SlotOf(kInvalidTermId - 1), -1);
}

TEST_F(ViewsFixture, DocParamTableMatchesIndex) {
  EXPECT_EQ(table_->num_docs(), content_.num_docs());
  // Spot-check: every tracked entry of a doc matches the index's tf.
  for (DocId d = 0; d < 200; ++d) {
    EXPECT_EQ(table_->doc_length(d), content_.doc_length(d));
    for (const auto& [slot, tf] : table_->TrackedOf(d)) {
      TermId w = tracked_.TermAt(slot);
      const PostingList* l = content_.list(w);
      ASSERT_NE(l, nullptr);
      auto it = l->MakeIterator();
      it.SkipTo(d);
      ASSERT_FALSE(it.AtEnd());
      ASSERT_EQ(it.doc(), d);
      EXPECT_EQ(it.tf(), tf);
    }
  }
}

TEST_F(ViewsFixture, ViewStatsMatchStraightforward) {
  // THE core correctness property (Theorem 4.1): statistics computed from
  // a usable materialized view must equal the straightforward plan's.
  TermIdSet roots = {0, 1, 2, 3};  // the 4 top-level concepts
  MaterializedView view = BuildView(roots);

  std::vector<TermId> keywords;
  // A mix of tracked and untracked keywords.
  keywords.push_back(tracked_.TermAt(0));
  keywords.push_back(tracked_.TermAt(tracked_.size() / 2));

  std::vector<TermIdSet> contexts = {{0}, {1}, {0, 2}, {1, 2, 3}, {0, 1, 2, 3}};
  for (const TermIdSet& ctx : contexts) {
    SCOPED_TRACE("context size " + std::to_string(ctx.size()));
    ASSERT_TRUE(view.def().Covers(ctx));
    auto vr = view.ComputeStats(ctx, keywords, tracked_);
    CollectionStats exact = StraightforwardCollectionStats(
        content_, predicates_, ctx, keywords, /*compute_tc=*/true);
    EXPECT_EQ(vr.cardinality, exact.cardinality);
    EXPECT_EQ(vr.total_length, exact.total_length);
    for (size_t i = 0; i < keywords.size(); ++i) {
      ASSERT_TRUE(vr.covered[i]);
      EXPECT_EQ(vr.df[i], exact.df[i]) << "df keyword " << i;
      EXPECT_EQ(vr.tc[i], exact.tc[i]) << "tc keyword " << i;
    }
  }
}

TEST_F(ViewsFixture, UntrackedKeywordNotCovered) {
  TermIdSet roots = {0, 1};
  MaterializedView view = BuildView(roots);
  // Find a keyword that exists but is untracked.
  TermId untracked = kInvalidTermId;
  for (TermId w = 0; w < content_.num_terms(); ++w) {
    if (content_.df(w) > 0 && !tracked_.IsTracked(w)) {
      untracked = w;
      break;
    }
  }
  ASSERT_NE(untracked, kInvalidTermId);
  std::vector<TermId> keywords = {untracked};
  auto vr = view.ComputeStats(TermIdSet{0}, keywords, tracked_);
  EXPECT_FALSE(vr.covered[0]);
  // Cardinality is still exact.
  CollectionStats exact = StraightforwardCollectionStats(
      content_, predicates_, TermIdSet{0}, keywords);
  EXPECT_EQ(vr.cardinality, exact.cardinality);
}

TEST_F(ViewsFixture, NonCoveredContextReturnsZeroed) {
  MaterializedView view = BuildView(TermIdSet{0, 1});
  std::vector<TermId> keywords = {tracked_.TermAt(0)};
  auto vr = view.ComputeStats(TermIdSet{0, 2}, keywords, tracked_);
  EXPECT_EQ(vr.cardinality, 0u);
  EXPECT_FALSE(vr.covered[0]);
}

TEST_F(ViewsFixture, ViewSizeBoundedByPartitions) {
  TermIdSet roots = {0, 1, 2, 3};
  MaterializedView view = BuildView(roots);
  EXPECT_GT(view.NumTuples(), 0u);
  EXPECT_LE(view.NumTuples(), 15u);  // 2^4 - 1 non-zero signatures
  EXPECT_GT(view.StorageBytes(), 0u);
  EXPECT_EQ(view.NumParameterColumns(),
            2u + 2u * static_cast<uint32_t>(tracked_.size()));
}

TEST_F(ViewsFixture, CostCountersChargeTupleScans) {
  TermIdSet roots = {0, 1, 2, 3};
  MaterializedView view = BuildView(roots);
  std::vector<TermId> keywords = {tracked_.TermAt(0)};
  CostCounters cost;
  view.ComputeStats(TermIdSet{0}, keywords, tracked_, &cost);
  EXPECT_EQ(cost.view_tuples_scanned, view.NumTuples());
}

TEST_F(ViewsFixture, SizeEstimatorExactMatchesView) {
  TermIdSet roots = {0, 1, 2, 3};
  MaterializedView view = BuildView(roots);
  ViewSizeEstimator full(&corpus_, 1, /*sample_size=*/1u << 30);
  EXPECT_EQ(full.Exact(view.def()), view.NumTuples());
  EXPECT_EQ(full.Estimate(view.def()), view.NumTuples());
}

TEST_F(ViewsFixture, SizeEstimatorSampleIsLowerBoundAndClose) {
  ViewDefinition def{TermIdSet{0, 1, 2, 3, 4, 5, 6}};
  ViewSizeEstimator sampler(&corpus_, 2, /*sample_size=*/800);
  ViewSizeEstimator full(&corpus_, 3, /*sample_size=*/1u << 30);
  uint64_t est = sampler.Estimate(def);
  uint64_t exact = full.Exact(def);
  EXPECT_LE(est, exact);
  EXPECT_GE(est * 4, exact) << "sample estimate implausibly low";
}

TEST_F(ViewsFixture, CatalogFindsSmallestUsableView) {
  ViewParamOptions params;
  ViewBuilder builder(&corpus_, table_.get(), params,
                      static_cast<uint32_t>(tracked_.size()));
  std::vector<ViewDefinition> defs = {
      ViewDefinition{TermIdSet{0, 1, 2, 3}},
      ViewDefinition{TermIdSet{0, 1}},
      ViewDefinition{TermIdSet{2, 3}},
  };
  auto views = builder.BuildAll(defs);
  ViewCatalog catalog;
  for (auto& v : views) catalog.Add(std::move(v));

  const MaterializedView* best = catalog.FindBest(TermIdSet{0, 1});
  ASSERT_NE(best, nullptr);
  // Both {0,1,2,3} and {0,1} cover; {0,1} has fewer tuples.
  EXPECT_EQ(best->def().keyword_columns, (TermIdSet{0, 1}));

  const MaterializedView* broad = catalog.FindBest(TermIdSet{0, 2});
  ASSERT_NE(broad, nullptr);
  EXPECT_EQ(broad->def().keyword_columns, (TermIdSet{0, 1, 2, 3}));

  EXPECT_EQ(catalog.FindBest(TermIdSet{0, 999}), nullptr);
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_GT(catalog.TotalStorageBytes(), 0u);
  EXPECT_GT(catalog.TotalTuples(), 0u);
}

// ---------------------------------------------------------------------------
// The compacted column store (DESIGN.md §18) against the staging hash-map
// store of the same view, and both against a brute-force sum over the
// documents, on synthetic views of every layout edge: column counts around
// the 64-bit word boundary, tuple counts around the 64-row bitmap word,
// more tracked slots than one 64-slot transpose tile, tc on and off, and a
// time dimension.

constexpr uint32_t kSynthTracked = 70;
constexpr TermId kFirstColumn = 10;
constexpr TermId kFirstTracked = 5000;
constexpr uint16_t kFirstYear = 1990;
constexpr uint16_t kNumYears = 30;

// Keyword columns 10, 13, 16, ...: the terms in between belong to no view.
TermIdSet SynthColumns(uint32_t n) {
  TermIdSet cols;
  for (uint32_t i = 0; i < n; ++i) cols.push_back(kFirstColumn + 3 * i);
  return cols;
}

// Tracked keywords 5000, 5002, ...: the odd terms in between are untracked.
TrackedKeywords SynthTracked() {
  std::vector<TermId> terms;
  for (uint32_t i = 0; i < kSynthTracked; ++i) {
    terms.push_back(kFirstTracked + 2 * i);
  }
  return TrackedKeywords::FromTerms(std::move(terms));
}

struct SynthDoc {
  BitSignature sig;
  uint32_t length = 0;
  std::vector<std::pair<uint32_t, uint32_t>> params;  // (slot, tf)
  uint16_t year = 0;
};

// Documents spread over exactly `tuples` distinct (signature, bucket)
// keys, one to three documents per key.
std::vector<SynthDoc> SynthDocs(uint32_t columns, size_t tuples,
                                uint16_t bucket_size, uint64_t seed) {
  SplitMix64 rng(seed);
  std::set<std::pair<uint16_t, std::vector<uint64_t>>> keys;
  std::vector<SynthDoc> docs;
  while (keys.size() < tuples) {
    BitSignature sig(columns);
    for (uint32_t c = 0; c < columns; ++c) {
      if (rng.NextBool(0.35)) sig.Set(c);
    }
    if (!sig.Any()) sig.Set(static_cast<uint32_t>(rng.NextBounded(columns)));
    uint16_t year = static_cast<uint16_t>(kFirstYear +
                                          rng.NextBounded(kNumYears));
    uint16_t bucket = bucket_size > 0 ? year / bucket_size : 0;
    if (!keys.emplace(bucket, sig.raw_words()).second) continue;
    uint64_t copies = 1 + rng.NextBounded(3);
    for (uint64_t i = 0; i < copies; ++i) {
      SynthDoc d;
      d.sig = sig;
      d.length = static_cast<uint32_t>(1 + rng.NextBounded(400));
      for (uint32_t slot = 0; slot < kSynthTracked; ++slot) {
        if (rng.NextBool(0.2)) {
          d.params.emplace_back(slot, 1 + rng.NextBounded(6));
        }
      }
      // Same bucket as the key, any year inside it.
      d.year = bucket_size > 0
                   ? static_cast<uint16_t>(bucket * bucket_size +
                                           rng.NextBounded(bucket_size))
                   : year;
      docs.push_back(std::move(d));
    }
  }
  return docs;
}

MaterializedView SynthView(uint32_t columns, const ViewParamOptions& options,
                           std::span<const SynthDoc> docs) {
  MaterializedView v(ViewDefinition{SynthColumns(columns)}, options,
                     kSynthTracked);
  for (const SynthDoc& d : docs) {
    v.AddDocument(d.sig, d.length, d.params, d.year);
  }
  return v;
}

// The statistics by brute force over the documents themselves.
MaterializedView::StatsResult OracleStats(
    std::span<const SynthDoc> docs, const ViewDefinition& def,
    const ViewParamOptions& options, std::span<const TermId> context,
    std::span<const TermId> keywords, const TrackedKeywords& tracked,
    YearRange range) {
  MaterializedView::StatsResult out;
  out.df.assign(keywords.size(), 0);
  out.tc.assign(keywords.size(), 0);
  out.covered.assign(keywords.size(), false);
  if (!def.Covers(context)) return out;
  for (size_t i = 0; i < keywords.size(); ++i) {
    out.covered[i] = tracked.SlotOf(keywords[i]) >= 0;
  }
  for (const SynthDoc& d : docs) {
    bool in_context = true;
    for (TermId m : context) {
      in_context = in_context && d.sig.Test(static_cast<uint32_t>(
                                     def.BitOf(m)));
    }
    if (!in_context || !range.Contains(d.year)) continue;
    out.cardinality++;
    out.total_length += d.length;
    for (size_t i = 0; i < keywords.size(); ++i) {
      int32_t slot = tracked.SlotOf(keywords[i]);
      for (const auto& [s, tf] : d.params) {
        if (static_cast<int32_t>(s) != slot) continue;
        out.df[i] += 1;
        if (options.track_tc) out.tc[i] += tf;
      }
    }
  }
  return out;
}

std::string SavedBytes(const MaterializedView& view,
                       const TrackedKeywords& tracked) {
  ViewCatalog catalog;
  catalog.Add(view.Clone());
  std::string path = ::testing::TempDir() + "/column_store_views.csr";
  EXPECT_TRUE(SaveViews(catalog, tracked, path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// A context over the view's columns (possibly empty), or — one time in
// five — one that also names a term outside the view.
TermIdSet RandomContext(const TermIdSet& columns, SplitMix64& rng) {
  TermIdSet ctx;
  uint64_t size = rng.NextBounded(4);
  for (uint64_t i = 0; i < size; ++i) {
    ctx.push_back(columns[rng.NextBounded(columns.size())]);
  }
  if (rng.NextBounded(5) == 0) ctx.push_back(kFirstColumn + 1);
  std::sort(ctx.begin(), ctx.end());
  ctx.erase(std::unique(ctx.begin(), ctx.end()), ctx.end());
  return ctx;
}

// Tracked keywords (repeats included), untracked ones, and a term no
// document has.
std::vector<TermId> RandomKeywords(SplitMix64& rng) {
  std::vector<TermId> kws;
  uint64_t size = 1 + rng.NextBounded(5);
  for (uint64_t i = 0; i < size; ++i) {
    switch (rng.NextBounded(4)) {
      case 0:
        kws.push_back(kFirstTracked + 1 +
                      2 * static_cast<TermId>(rng.NextBounded(10)));
        break;
      case 1:
        kws.push_back(kws.empty() ? kFirstTracked : kws.front());
        break;
      default:
        kws.push_back(kFirstTracked +
                      2 * static_cast<TermId>(rng.NextBounded(kSynthTracked)));
    }
  }
  if (rng.NextBounded(6) == 0) kws.push_back(kInvalidTermId - 1);
  return kws;
}

void ExpectSameStats(const MaterializedView::StatsResult& want,
                     const MaterializedView::StatsResult& got) {
  EXPECT_EQ(got.cardinality, want.cardinality);
  EXPECT_EQ(got.total_length, want.total_length);
  EXPECT_EQ(got.df, want.df);
  EXPECT_EQ(got.tc, want.tc);
  EXPECT_EQ(got.covered, want.covered);
  EXPECT_EQ(got.range_answerable, want.range_answerable);
}

// Every probe against `staging` and each of `others`: identical results
// and an identical tuple charge, and (when answerable) the oracle's
// statistics.
void ExpectStoresAgree(const MaterializedView& staging,
                       std::initializer_list<const MaterializedView*> others,
                       std::span<const SynthDoc> docs,
                       const TrackedKeywords& tracked, uint64_t seed) {
  SplitMix64 rng(seed);
  const ViewParamOptions& options = staging.options();
  std::vector<YearRange> ranges = {YearRange{}};
  if (options.year_bucket_size > 0) {
    const uint16_t b = options.year_bucket_size;
    const uint16_t first = kFirstYear / b * b;
    ranges.push_back({first, static_cast<uint16_t>(first + b - 1)});
    ranges.push_back({static_cast<uint16_t>(first + b),
                      static_cast<uint16_t>(first + 4 * b - 1)});
    ranges.push_back({first, static_cast<uint16_t>(first + 30 * b - 1)});
    ranges.push_back({static_cast<uint16_t>(first + 1),
                      static_cast<uint16_t>(first + 2 * b - 1)});  // unaligned
  } else {
    ranges.push_back({2000, 2009});  // no time dimension: unanswerable
  }
  for (int probe = 0; probe < 40; ++probe) {
    TermIdSet ctx = RandomContext(staging.def().keyword_columns, rng);
    std::vector<TermId> kws = RandomKeywords(rng);
    for (YearRange range : ranges) {
      SCOPED_TRACE("probe " + std::to_string(probe) + " range " +
                   std::to_string(range.min_year) + ".." +
                   std::to_string(range.max_year));
      CostCounters want_cost;
      auto want = staging.ComputeStats(ctx, kws, tracked, &want_cost, range);
      if (want.range_answerable) {
        ExpectSameStats(OracleStats(docs, staging.def(), options, ctx, kws,
                                    tracked, range),
                        want);
      }
      for (const MaterializedView* other : others) {
        CostCounters got_cost;
        auto got = other->ComputeStats(ctx, kws, tracked, &got_cost, range);
        ExpectSameStats(want, got);
        EXPECT_EQ(got_cost.view_tuples_scanned,
                  want_cost.view_tuples_scanned);
      }
    }
  }
}

struct StoreShape {
  uint32_t columns;
  size_t tuples;
  bool track_tc;
  uint16_t bucket_size;
};

std::vector<StoreShape> StoreShapes() {
  std::vector<StoreShape> shapes;
  for (uint32_t columns : {1u, 63u, 64u, 65u, 130u}) {
    for (size_t tuples : {0, 1, 63, 64, 65, 300}) {
      // One keyword column has a single non-empty signature.
      if (columns == 1 && tuples > 1) continue;
      shapes.push_back({columns, tuples, tuples % 2 == 1, 0});
    }
  }
  for (bool tc : {false, true}) {
    shapes.push_back({64, 65, tc, 0});
    shapes.push_back({3, 40, tc, 5});    // time dimension, few columns
    shapes.push_back({70, 200, tc, 5});  // time dimension, two key words
  }
  shapes.push_back({1, 6, true, 5});  // one column, six year buckets
  return shapes;
}

TEST(ColumnStoreTest, CompactedStoreAnswersLikeStagingStore) {
  const TrackedKeywords tracked = SynthTracked();
  uint64_t seed = 1;
  for (const StoreShape& shape : StoreShapes()) {
    SCOPED_TRACE("columns=" + std::to_string(shape.columns) +
                 " tuples=" + std::to_string(shape.tuples) +
                 " tc=" + std::to_string(shape.track_tc) +
                 " bucket=" + std::to_string(shape.bucket_size));
    ViewParamOptions options{true, shape.track_tc, shape.bucket_size};
    std::vector<SynthDoc> docs =
        SynthDocs(shape.columns, shape.tuples, shape.bucket_size, ++seed);
    MaterializedView staging = SynthView(shape.columns, options, docs);
    ASSERT_EQ(staging.NumTuples(), shape.tuples);
    MaterializedView compacted = staging.Clone();
    compacted.Compact();
    ASSERT_TRUE(compacted.compacted());
    EXPECT_EQ(compacted.NumTuples(), shape.tuples);
    MaterializedView cloned = compacted.Clone();
    ExpectStoresAgree(staging, {&compacted, &cloned}, docs, tracked, seed);
  }
}

TEST(ColumnStoreTest, RoundTripsKeepTheSameViewBytes) {
  const TrackedKeywords tracked = SynthTracked();
  uint64_t seed = 100;
  for (const StoreShape& shape : StoreShapes()) {
    SCOPED_TRACE("columns=" + std::to_string(shape.columns) +
                 " tuples=" + std::to_string(shape.tuples) +
                 " tc=" + std::to_string(shape.track_tc) +
                 " bucket=" + std::to_string(shape.bucket_size));
    ViewParamOptions options{true, shape.track_tc, shape.bucket_size};
    std::vector<SynthDoc> docs =
        SynthDocs(shape.columns, shape.tuples, shape.bucket_size, ++seed);
    MaterializedView staging = SynthView(shape.columns, options, docs);
    MaterializedView compacted = staging.Clone();
    compacted.Compact();
    const std::string bytes = SavedBytes(compacted, tracked);
    // Either store saves the same views.csr bytes.
    EXPECT_EQ(SavedBytes(staging, tracked), bytes);
    EXPECT_EQ(SavedBytes(compacted.Clone(), tracked), bytes);

    // Compact -> Uncompact (merging an empty view un-compacts) -> Compact.
    MaterializedView again = compacted.Clone();
    again.MergeFrom(MaterializedView(staging.def(), options, kSynthTracked));
    EXPECT_FALSE(again.compacted());
    EXPECT_EQ(SavedBytes(again, tracked), bytes);
    again.Compact();
    EXPECT_EQ(SavedBytes(again, tracked), bytes);

    // A delta folded into a base equals the view built over the union,
    // whichever stores the two are in, and compacts back to the same store.
    std::span<const SynthDoc> all(docs);
    const size_t half = docs.size() / 2;
    MaterializedView base = SynthView(shape.columns, options, all.first(half));
    MaterializedView delta =
        SynthView(shape.columns, options, all.subspan(half));
    MaterializedView staged_base = base.Clone();
    MaterializedView staged_delta = delta.Clone();
    base.Compact();
    delta.Compact();
    MaterializedView mixed = base.Clone();
    mixed.MergeFrom(staged_delta);
    staged_base.MergeFrom(delta);
    base.MergeFrom(delta);
    EXPECT_EQ(base.NumTuples(), shape.tuples);
    EXPECT_EQ(SavedBytes(base, tracked), bytes);
    base.Compact();
    EXPECT_EQ(SavedBytes(base, tracked), bytes);
    EXPECT_EQ(SavedBytes(staged_base, tracked), bytes);
    EXPECT_EQ(SavedBytes(mixed, tracked), bytes);

    // And the saved frame loads back to the same view.
    std::string path = ::testing::TempDir() + "/column_store_views.csr";
    Result<LoadedViews> loaded = LoadViews(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->catalog.size(), 1u);
    std::vector<MaterializedView> views = loaded->catalog.Release();
    ExpectStoresAgree(staging, {&views[0], &base, &again, &mixed}, docs,
                      tracked, seed);
    views[0].Compact();
    EXPECT_EQ(SavedBytes(views[0], tracked), bytes);
  }
}

// views.csr holding one hand-written frame for a 3-column view tracking 2
// keywords (layout and magic mirror storage/snapshot.cc), with one tuple.
// `slots` is the frame's own tracked-slot count.
std::string WriteOneTupleViewFile(uint64_t sig_word, std::vector<uint64_t> df,
                                  std::vector<uint64_t> tc,
                                  uint32_t slots = 2) {
  const TermIdSet columns = {1, 2, 3};
  BinaryWriter frame;
  frame.PutVarintVector(columns);
  frame.PutU8(1);  // track_df
  frame.PutU8(0);  // track_tc
  frame.PutVarint(0);  // no time dimension
  frame.PutU32(slots);
  frame.PutVarint(1);  // tuples
  frame.PutVarint(0);  // bucket
  frame.PutVarintVector(std::vector<uint64_t>{sig_word});
  frame.PutVarint(4);   // count
  frame.PutVarint(90);  // sum_len
  frame.PutVarintVector(df);
  frame.PutVarintVector(tc);

  BinaryWriter header;
  header.PutU32(3);  // views format version
  header.PutVarint(0);
  header.PutVarintVector(std::vector<TermId>{100, 200});
  header.PutVarint(1);
  header.PutVarint(frame.buffer().size());
  header.PutU64(Fnv1a(frame.buffer()));
  header.PutVarintVector(columns);

  BinaryWriter w;
  w.PutVarint(header.buffer().size());
  w.PutU64(Fnv1a(header.buffer()));
  w.PutRaw(header.buffer());
  w.PutRaw(frame.buffer());
  std::string path = ::testing::TempDir() + "/one_tuple_views.csr";
  EXPECT_TRUE(w.WriteFile(path, 0x43535256).ok());
  return path;
}

TEST(ColumnStoreTest, LoadQuarantinesTuplesTheColumnStoreCannotHold) {
  // Control: a well-formed tuple loads and compacts.
  Result<LoadedViews> ok = LoadViews(WriteOneTupleViewFile(0b101, {3, 0}, {}));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->catalog.size(), 1u);
  std::vector<MaterializedView> views = ok->catalog.Release();
  views[0].Compact();
  TrackedKeywords tracked = TrackedKeywords::FromTerms({100, 200});
  std::vector<TermId> kws = {100};
  auto stats = views[0].ComputeStats(TermIdSet{1, 3}, kws, tracked);
  EXPECT_EQ(stats.cardinality, 4u);
  EXPECT_EQ(stats.df[0], 3u);

  // A key bit past the last column (the bitmaps keep one per column),
  // parameter rows whose width is not the tracked-slot count, and a frame
  // whose slot count is not the header's tracked-keyword count (the scan
  // indexes columns by the catalog's slots).
  struct Case {
    uint64_t sig;
    std::vector<uint64_t> df;
    std::vector<uint64_t> tc;
    uint32_t slots;
    const char* reason;
  };
  for (const Case& c : {Case{0b1001, {3, 0}, {}, 2, "signature"},
                        Case{0b1, {3}, {}, 2, "parameters"},
                        Case{0b1, {}, {}, 2, "parameters"},
                        Case{0b1, {3, 0}, {1, 1}, 2, "parameters"},
                        Case{0b1, {3}, {}, 1, "catalog tracks 2"},
                        Case{0b1, {3, 0, 0}, {}, 3, "catalog tracks 2"}}) {
    Result<LoadedViews> r =
        LoadViews(WriteOneTupleViewFile(c.sig, c.df, c.tc, c.slots));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->catalog.size(), 0u);
    ASSERT_EQ(r->catalog.quarantined().size(), 1u);
    EXPECT_NE(r->catalog.quarantined()[0].reason.find(c.reason),
              std::string::npos)
        << r->catalog.quarantined()[0].reason;
  }
}

}  // namespace
}  // namespace csr
