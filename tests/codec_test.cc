#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "index/codec.h"
#include "index/intersection.h"
#include "util/random.h"

namespace csr {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  const uint32_t values[] = {0,       1,          127,        128,
                             16383,   16384,      2097151,    2097152,
                             1u << 28, UINT32_MAX};
  for (uint32_t v : values) {
    std::string buf;
    PutVarint32(buf, v);
    uint32_t decoded = 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    const uint8_t* end =
        GetVarint32(p, p + buf.size(), &decoded);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(end, p + buf.size());
  }
}

TEST(VarintTest, TruncatedInputRejected) {
  std::string buf;
  PutVarint32(buf, 1u << 20);  // multi-byte
  uint32_t v;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
  EXPECT_EQ(GetVarint32(p, p + 1, &v), nullptr);
}

TEST(BlockCodecTest, RoundTrip) {
  std::vector<Posting> postings = {
      {0, 1}, {5, 3}, {6, 1}, {1000, 255}, {1000000, 1}};
  std::string buf;
  PostingBlockCodec::Encode(postings, 0, buf);
  EXPECT_LT(buf.size(), postings.size() * sizeof(Posting));

  std::vector<Posting> decoded;
  ASSERT_TRUE(
      PostingBlockCodec::Decode(buf, 0, postings.size(), decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(BlockCodecTest, RoundTripWithBase) {
  std::vector<Posting> postings = {{500, 2}, {501, 1}, {900, 7}};
  std::string buf;
  PostingBlockCodec::Encode(postings, 499, buf);
  std::vector<Posting> decoded;
  ASSERT_TRUE(PostingBlockCodec::Decode(buf, 499, 3, decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(BlockCodecTest, TruncationDetected) {
  std::vector<Posting> postings = {{10, 1}, {20, 2}, {30, 3}};
  std::string buf;
  PostingBlockCodec::Encode(postings, 0, buf);
  std::vector<Posting> decoded;
  Status s = PostingBlockCodec::Decode(
      std::string_view(buf).substr(0, buf.size() / 2), 0, 3, decoded);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

PostingList MakeRandomList(SplitMix64& rng, uint32_t universe,
                           double density) {
  PostingList l(128);
  for (DocId d = 0; d < universe; ++d) {
    if (rng.NextBool(density)) {
      l.Append(d, 1 + static_cast<uint32_t>(rng.NextBounded(9)));
    }
  }
  l.FinishBuild();
  return l;
}

class CompressedListProperty
    : public ::testing::TestWithParam<std::tuple<int, double, uint32_t>> {};

TEST_P(CompressedListProperty, DecodesBackExactly) {
  auto [seed, density, block] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed));
  PostingList plain = MakeRandomList(rng, 20000, density);
  auto compressed = CompressedPostingList::FromPostingList(plain, block);

  EXPECT_EQ(compressed.size(), plain.size());
  std::vector<Posting> decoded = compressed.Decode();
  ASSERT_EQ(decoded.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(decoded[i], plain.at(i));
  }
  if (plain.size() > 100) {
    EXPECT_LT(compressed.MemoryBytes(), plain.MemoryBytes())
        << "compression made things bigger";
  }
}

TEST_P(CompressedListProperty, IteratorMatchesPlain) {
  auto [seed, density, block] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed) ^ 0xFEED);
  PostingList plain = MakeRandomList(rng, 20000, density);
  if (plain.empty()) return;
  auto compressed = CompressedPostingList::FromPostingList(plain, block);

  auto pi = plain.MakeIterator();
  auto ci = compressed.MakeIterator();
  while (!pi.AtEnd()) {
    ASSERT_FALSE(ci.AtEnd());
    EXPECT_EQ(ci.doc(), pi.doc());
    EXPECT_EQ(ci.tf(), pi.tf());
    pi.Next();
    ci.Next();
  }
  EXPECT_TRUE(ci.AtEnd());
}

TEST_P(CompressedListProperty, SkipToMatchesPlain) {
  auto [seed, density, block] = GetParam();
  SplitMix64 rng(static_cast<uint64_t>(seed) ^ 0xBEEF);
  PostingList plain = MakeRandomList(rng, 20000, density);
  if (plain.empty()) return;
  auto compressed = CompressedPostingList::FromPostingList(plain, block);

  auto pi = plain.MakeIterator();
  auto ci = compressed.MakeIterator();
  DocId target = 0;
  while (true) {
    target += static_cast<DocId>(1 + rng.NextBounded(400));
    pi.SkipTo(target);
    ci.SkipTo(target);
    if (pi.AtEnd()) {
      EXPECT_TRUE(ci.AtEnd());
      break;
    }
    ASSERT_FALSE(ci.AtEnd());
    EXPECT_EQ(ci.doc(), pi.doc());
    EXPECT_EQ(ci.tf(), pi.tf());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressedListProperty,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0.002, 0.05, 0.6),
                       ::testing::Values(16u, 128u, 1024u)));

TEST(CompressedIntersectionTest, MatchesPlainIntersection) {
  SplitMix64 rng(77);
  PostingList a = MakeRandomList(rng, 30000, 0.1);
  PostingList b = MakeRandomList(rng, 30000, 0.02);
  auto ca = CompressedPostingList::FromPostingList(a);
  auto cb = CompressedPostingList::FromPostingList(b);

  std::vector<const PostingList*> lists = {&a, &b};
  uint64_t expected = CountIntersection(lists);
  EXPECT_EQ(CountCompressedIntersection(ca, cb), expected);
  EXPECT_EQ(CountCompressedIntersection(cb, ca), expected);
}

TEST(CompressedIntersectionTest, EmptyLists) {
  PostingList empty(128);
  empty.FinishBuild();
  PostingList one(128);
  one.Append(5, 1);
  one.FinishBuild();
  auto ce = CompressedPostingList::FromPostingList(empty);
  auto co = CompressedPostingList::FromPostingList(one);
  EXPECT_EQ(CountCompressedIntersection(ce, co), 0u);
  EXPECT_TRUE(ce.empty());
}

TEST(CompressedListTest, CompressionRatioOnDenseList) {
  // Dense docids (delta 1-2) should compress ~4x vs 8-byte postings.
  PostingList plain(128);
  for (DocId d = 0; d < 100000; d += 2) plain.Append(d, 1);
  plain.FinishBuild();
  auto compressed = CompressedPostingList::FromPostingList(plain);
  double ratio = static_cast<double>(plain.MemoryBytes()) /
                 static_cast<double>(compressed.MemoryBytes());
  EXPECT_GT(ratio, 3.0) << "ratio " << ratio;
}

// ---------------------------------------------------------------------------
// ForBlockCodec: fixed-width kernels and block round-trips, including
// adversarial inputs. Corrupt or truncated buffers must produce typed
// Status values, never UB.

TEST(ForKernelTest, PackUnpackRoundTripAllWidths) {
  SplitMix64 rng(11);
  for (uint32_t bits = 0; bits <= 32; ++bits) {
    for (size_t count : {size_t{1}, size_t{7}, size_t{64}, size_t{129}}) {
      const uint64_t mask = bits == 32 ? ~0ull >> 32 : (1ull << bits) - 1;
      std::vector<uint32_t> values(count);
      for (auto& v : values) v = static_cast<uint32_t>(rng.Next() & mask);
      std::string buf;
      ForBlockCodec::PackBits(values.data(), count, bits, buf);
      EXPECT_EQ(buf.size(), (count * bits + 7) / 8);
      std::vector<uint32_t> out(count, 0xA5A5A5A5u);
      ASSERT_TRUE(ForBlockCodec::UnpackBits(
                      reinterpret_cast<const uint8_t*>(buf.data()),
                      buf.size(), count, bits, out.data())
                      .ok())
          << "bits=" << bits << " count=" << count;
      EXPECT_EQ(out, values) << "bits=" << bits << " count=" << count;
    }
  }
}

TEST(ForKernelTest, UnpackRejectsTruncationAndBadWidth) {
  std::vector<uint32_t> values(50, 0x1FFF);
  std::string buf;
  ForBlockCodec::PackBits(values.data(), values.size(), 13, buf);
  std::vector<uint32_t> out(values.size());
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
  EXPECT_EQ(ForBlockCodec::UnpackBits(p, buf.size() - 1, values.size(), 13,
                                      out.data())
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ForBlockCodec::UnpackBits(p, buf.size(), values.size(), 33,
                                      out.data())
                .code(),
            StatusCode::kInvalidArgument);
}

std::vector<Posting> MakeRandomPostings(SplitMix64& rng, size_t count,
                                        DocId start, uint32_t max_gap,
                                        uint32_t max_tf) {
  std::vector<Posting> out;
  DocId d = start;
  for (size_t i = 0; i < count; ++i) {
    d += static_cast<DocId>(i == 0 ? rng.NextBounded(max_gap)
                                   : 1 + rng.NextBounded(max_gap));
    out.push_back(
        Posting{d, static_cast<uint32_t>(rng.NextBounded(max_tf + 1))});
  }
  return out;
}

TEST(ForCodecTest, RandomRoundTrips) {
  SplitMix64 rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    size_t count = 1 + rng.NextBounded(300);
    DocId base = static_cast<DocId>(rng.NextBounded(1 << 20));
    uint32_t max_gap = 1 + static_cast<uint32_t>(rng.NextBounded(1 << 14));
    uint32_t max_tf = static_cast<uint32_t>(rng.NextBounded(1 << 10));
    std::vector<Posting> postings =
        MakeRandomPostings(rng, count, base, max_gap, max_tf);
    std::string buf;
    ForBlockCodec::Encode(postings, base, buf);
    std::vector<Posting> decoded;
    ASSERT_TRUE(ForBlockCodec::Decode(buf, base, count, decoded).ok());
    EXPECT_EQ(decoded, postings) << "trial " << trial;
  }
}

TEST(ForCodecTest, EmptyBlock) {
  std::string buf;
  ForBlockCodec::Encode({}, 0, buf);
  EXPECT_EQ(buf.size(), 2u);  // header only, both widths 0
  std::vector<Posting> decoded;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 0, 0, decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ForCodecTest, SinglePostingZeroTfPacksToHeader) {
  // delta 0 from base, tf 0: both widths 0, so the block is 2 bytes.
  std::vector<Posting> postings = {{42, 0}};
  std::string buf;
  ForBlockCodec::Encode(postings, 42, buf);
  EXPECT_EQ(buf.size(), 2u);
  std::vector<Posting> decoded;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 42, 1, decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(ForCodecTest, MaxWidthDeltasRoundTrip) {
  // Widest possible values: a first delta near 2^32 and a 32-bit tf.
  std::vector<Posting> postings = {{kInvalidDocId - 2, UINT32_MAX},
                                   {kInvalidDocId - 1, 0}};
  std::string buf;
  ForBlockCodec::Encode(postings, 0, buf);
  std::vector<Posting> decoded;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 0, 2, decoded).ok());
  EXPECT_EQ(decoded, postings);
}

TEST(ForCodecTest, EveryTruncationReturnsStatus) {
  SplitMix64 rng(31);
  std::vector<Posting> postings = MakeRandomPostings(rng, 100, 10, 500, 30);
  std::string buf;
  ForBlockCodec::Encode(postings, 10, buf);
  std::vector<Posting> decoded;
  for (size_t len = 0; len < buf.size(); ++len) {
    Status s = ForBlockCodec::Decode(std::string_view(buf.data(), len), 10,
                                     postings.size(), decoded);
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << "prefix " << len;
  }
}

TEST(ForCodecTest, CorruptBuffersNeverCrash) {
  SplitMix64 rng(37);
  std::vector<Posting> postings = MakeRandomPostings(rng, 64, 0, 1000, 15);
  std::string buf;
  ForBlockCodec::Encode(postings, 0, buf);
  // Flip every byte through a few values; decode must return a Status
  // (possibly OK with different postings) and never read out of bounds —
  // ASan/TSan builds of this test are the actual assertion.
  std::vector<Posting> decoded;
  for (size_t i = 0; i < buf.size(); ++i) {
    std::string corrupt = buf;
    for (uint8_t delta : {0x01, 0x80, 0xFF}) {
      corrupt[i] = static_cast<char>(static_cast<uint8_t>(buf[i]) ^ delta);
      Status s =
          ForBlockCodec::Decode(corrupt, 0, postings.size(), decoded);
      if (s.ok()) {
        EXPECT_EQ(decoded.size(), postings.size());
      }
    }
  }
  // Corrupt bit widths specifically (> 32 must be InvalidArgument).
  std::string bad = buf;
  bad[0] = static_cast<char>(40);
  EXPECT_EQ(
      ForBlockCodec::Decode(bad, 0, postings.size(), decoded).code(),
      StatusCode::kInvalidArgument);
}

TEST(ForCodecTest, SplitDecodeMatchesFullDecode) {
  SplitMix64 rng(41);
  std::vector<Posting> postings = MakeRandomPostings(rng, 150, 5, 200, 60);
  std::string buf;
  ForBlockCodec::Encode(postings, 5, buf);

  std::vector<Posting> full;
  ASSERT_TRUE(ForBlockCodec::Decode(buf, 5, postings.size(), full).ok());
  std::vector<DocId> docs;
  std::vector<uint32_t> tfs;
  size_t tf_offset = 0;
  ASSERT_TRUE(
      ForBlockCodec::DecodeDocs(buf, 5, postings.size(), docs, &tf_offset)
          .ok());
  ASSERT_TRUE(
      ForBlockCodec::DecodeTfs(buf, tf_offset, postings.size(), tfs).ok());
  ASSERT_EQ(docs.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(docs[i], full[i].doc);
    EXPECT_EQ(tfs[i], full[i].tf);
  }
}

TEST(CodecPolicyTest, AutoNeverLargerThanEitherForcedPolicy) {
  SplitMix64 rng(53);
  for (double density : {0.002, 0.05, 0.6}) {
    PostingList plain = MakeRandomList(rng, 30000, density);
    auto c_auto =
        CompressedPostingList::FromPostingList(plain, 128, CodecPolicy::kAuto);
    auto c_for = CompressedPostingList::FromPostingList(
        plain, 128, CodecPolicy::kForOnly);
    auto c_var = CompressedPostingList::FromPostingList(
        plain, 128, CodecPolicy::kVarintOnly);
    EXPECT_LE(c_auto.MemoryBytes(),
              std::min(c_for.MemoryBytes(), c_var.MemoryBytes()));
    // All three decode to the same postings.
    EXPECT_EQ(c_auto.Decode(), c_for.Decode());
    EXPECT_EQ(c_auto.Decode(), c_var.Decode());
  }
}

TEST(CompressedListTest, LazyTfChargesBytesOnlyWhenRead) {
  PostingList plain(128);
  for (DocId d = 0; d < 50000; d += 3) plain.Append(d, 1 + d % 7);
  plain.FinishBuild();
  auto compressed = CompressedPostingList::FromPostingList(plain, 128);

  CostCounters docs_only;
  for (auto it = compressed.MakeIterator(&docs_only); !it.AtEnd(); it.Next()) {
  }
  CostCounters with_tfs;
  uint64_t tf_sum = 0;
  for (auto it = compressed.MakeIterator(&with_tfs); !it.AtEnd(); it.Next()) {
    tf_sum += it.tf();
  }
  EXPECT_EQ(tf_sum, compressed.total_tf());
  EXPECT_LT(docs_only.bytes_touched, with_tfs.bytes_touched);
  EXPECT_EQ(with_tfs.bytes_touched, compressed.raw_bytes().size());
}

// -- In-place bitmap serving vs the decode path ------------------------------
//
// kAuto bitmaps dense docid-only blocks and iterators serve bitmap blocks in
// place (word scan, tf by rank). Drive an in-place iterator and a
// decode-path iterator over the same list through identical operations:
// every observable — doc/tf/AtEnd, the block-max probe, and the per-block
// cost charges — must agree.

std::vector<Posting> RandomPostings(SplitMix64& rng, DocId first,
                                    uint32_t universe, double density,
                                    double docid_only_frac) {
  std::vector<Posting> out;
  bool docid_only = true;
  for (DocId d = first; d < universe; ++d) {
    if (d % 512 == 0) docid_only = rng.NextBool(docid_only_frac);
    if (!rng.NextBool(density)) continue;
    out.push_back({d, docid_only ? 1u : 1 + static_cast<uint32_t>(
                                                rng.NextBounded(4))});
  }
  return out;
}

struct InPlaceCase {
  std::string name;
  std::vector<Posting> postings;
  uint32_t block_size;
};

std::vector<InPlaceCase> InPlaceCases() {
  std::vector<InPlaceCase> cases;
  SplitMix64 rng(71);
  for (uint32_t block : {1u, 16u, 128u}) {
    const std::string b = "/b" + std::to_string(block);
    // Docid-only at predicate-list density, starting at docid 0: the first
    // block cannot be bitmapped (bit 0 is docid base + 1).
    std::vector<Posting> dense = RandomPostings(rng, 0, 9000, 0.22, 1.0);
    dense.insert(dense.begin(), Posting{0, 1});
    if (dense.size() > 1 && dense[1].doc == 0) dense.erase(dense.begin());
    cases.push_back({"docid_only_dense" + b, dense, block});
    // Near the 32-docids-per-posting bound: a mix of bitmapped and FOR
    // blocks within one list.
    cases.push_back({"docid_only_sparse" + b,
                     RandomPostings(rng, 3, 30000, 0.035, 1.0), block});
    // Mixed tf: docid-only runs alternate with runs of tf > 1.
    cases.push_back({"mixed_tf" + b,
                     RandomPostings(rng, 1, 12000, 0.3, 0.5), block});
  }
  return cases;
}

// Cost charges that depend on block entry alone (the §3.2 counters);
// entries_scanned counts probes, which legitimately differ by path.
void ExpectSameCharges(const CostCounters& a, const CostCounters& b,
                       const std::string& what) {
  EXPECT_EQ(a.segments_touched, b.segments_touched) << what;
  EXPECT_EQ(a.bytes_touched, b.bytes_touched) << what;
}

class PathPair {
 public:
  explicit PathPair(const CompressedPostingList& list)
      : list_(list),
        in_place_(list.MakeIterator(&in_place_cost_)),
        decoded_(MakeDecodePath(list, &decoded_cost_)) {}

  template <typename Op>
  void Apply(Op op, const std::string& what) {
    op(in_place_);
    op(decoded_);
    ASSERT_EQ(in_place_.AtEnd(), decoded_.AtEnd()) << what;
    ExpectSameCharges(in_place_cost_, decoded_cost_, what);
    if (in_place_.AtEnd()) return;
    ASSERT_EQ(in_place_.doc(), decoded_.doc()) << what;
    ASSERT_EQ(in_place_.block(), decoded_.block()) << what;
    EXPECT_EQ(in_place_.tf(), decoded_.tf()) << what;
    ExpectSameCharges(in_place_cost_, decoded_cost_, what + " (tf read)");
    DocId last_a = 0, last_b = 0;
    uint32_t tf_a = 0, tf_b = 0;
    const DocId probe = in_place_.doc() + 1;
    const bool ba = list_.BlockBound(probe, in_place_.block(), &last_a, &tf_a);
    const bool bb = list_.BlockBound(probe, decoded_.block(), &last_b, &tf_b);
    EXPECT_EQ(ba, bb) << what;
    EXPECT_EQ(last_a, last_b) << what;
    EXPECT_EQ(tf_a, tf_b) << what;
  }

  bool AtEnd() const { return in_place_.AtEnd(); }

 private:
  static CompressedPostingList::Iterator MakeDecodePath(
      const CompressedPostingList& list, CostCounters* cost) {
    SetInPlaceBitmapServingForTest(false);
    auto it = list.MakeIterator(cost);
    SetInPlaceBitmapServingForTest(true);
    return it;
  }

  const CompressedPostingList& list_;
  CostCounters in_place_cost_;
  CostCounters decoded_cost_;
  CompressedPostingList::Iterator in_place_;
  CompressedPostingList::Iterator decoded_;
};

TEST(InPlaceBitmapTest, KAutoBitmapsDenseDocidOnlyBlocks) {
  for (const InPlaceCase& c : InPlaceCases()) {
    auto auto_list = CompressedPostingList::FromPostings(c.postings,
                                                         c.block_size);
    auto for_list = CompressedPostingList::FromPostings(
        c.postings, c.block_size, CodecPolicy::kForOnly);
    EXPECT_EQ(auto_list.Decode(), c.postings) << c.name;
    EXPECT_EQ(for_list.Decode(), c.postings) << c.name;
    // Which blocks the rule must bitmap: docid-only, not starting at
    // docid 0, range within 32 docids per posting.
    uint64_t want_bitmaps = 0;
    for (size_t b = 0; b < auto_list.num_blocks(); ++b) {
      const auto& m = auto_list.blocks()[b];
      const size_t first = b * c.block_size;
      bool docid_only = true;
      for (size_t i = first; i < first + m.count; ++i) {
        docid_only &= c.postings[i].tf == 1;
      }
      const bool rule = docid_only && c.postings[first].doc > m.base &&
                        m.max_doc - m.base <= 32ull * m.count;
      if (rule) {
        ++want_bitmaps;
        EXPECT_EQ(auto_list.BlockCodecTag(b), BlockCodec::kBitmap)
            << c.name << " block " << b;
      }
    }
    if (c.name.rfind("docid_only_dense", 0) == 0) {
      EXPECT_NE(auto_list.BlockCodecTag(0), BlockCodec::kBitmap) << c.name;
      EXPECT_GT(want_bitmaps, 0u) << c.name;
    }
    EXPECT_EQ(for_list.codec_block_counts()[2], 0u) << c.name;
  }
}

TEST(InPlaceBitmapTest, NextWalkMatchesDecodePath) {
  const DecodeTallies before = SnapshotDecodeTallies();
  for (const InPlaceCase& c : InPlaceCases()) {
    auto list = CompressedPostingList::FromPostings(c.postings, c.block_size);
    PathPair pair(list);
    size_t steps = 0;
    while (!pair.AtEnd()) {
      pair.Apply([](auto& it) { it.Next(); },
                 c.name + " step " + std::to_string(steps));
      ++steps;
    }
    EXPECT_EQ(steps, c.postings.size()) << c.name;
  }
  // Both paths ran: bitmap blocks were served in place by one iterator of
  // each pair and decoded by the other.
  const DecodeTallies after = SnapshotDecodeTallies();
  EXPECT_GT(after.blocks_probed_in_place, before.blocks_probed_in_place);
  EXPECT_GT(after.blocks_decoded, before.blocks_decoded);
}

TEST(InPlaceBitmapTest, SkipAndMergeMatchDecodePathAroundEveryBlock) {
  for (const InPlaceCase& c : InPlaceCases()) {
    auto list = CompressedPostingList::FromPostings(c.postings, c.block_size);
    // Targets before (the inter-block gap and the base itself), inside,
    // and after (max_doc, max_doc + 1) each block, in increasing order.
    SplitMix64 rng(list.size());
    std::vector<DocId> targets;
    for (const auto& m : list.blocks()) {
      targets.push_back(m.base);
      if (m.max_doc > m.base + 1) {
        targets.push_back(m.base + 1 +
                          static_cast<DocId>(rng.NextBounded(
                              m.max_doc - m.base - 1)));
      }
      targets.push_back(m.max_doc);
      targets.push_back(m.max_doc + 1);
    }
    std::sort(targets.begin(), targets.end());
    for (int op = 0; op < 3; ++op) {
      PathPair pair(list);
      for (size_t i = 0; i < targets.size() && !pair.AtEnd(); ++i) {
        const DocId t = targets[i];
        const std::string what = c.name + " op " + std::to_string(op) +
                                 " target " + std::to_string(t);
        if (op == 0) {
          pair.Apply([t](auto& it) { it.SkipTo(t); }, what);
        } else if (op == 1) {
          pair.Apply([t](auto& it) { it.MergeTo(t); }, what);
        } else {
          // Interleave: skip, then step past the hit.
          pair.Apply([t](auto& it) { it.SkipTo(t); }, what);
          if (!pair.AtEnd()) {
            pair.Apply([](auto& it) { it.Next(); }, what + " next");
          }
        }
      }
    }
  }
}

// Bitmap damage. Persisted bytes enter through FromParts, which checks
// every bitmap block's header and population — damage there is a typed
// load failure (the snapshot loader rebuilds). Damage to an in-memory
// image after that point must poison both iterator paths at the same block.
TEST(InPlaceBitmapTest, CorruptBitmapRejectedAtLoadAndPoisonsIterators) {
  std::vector<Posting> postings;
  for (DocId d = 5; d < 6000; d += 3) postings.push_back({d, 1});
  auto build = [&] { return CompressedPostingList::FromPostings(postings, 60); };
  const CompressedPostingList list = build();
  ASSERT_EQ(list.codec_block_counts()[2], list.num_blocks());
  const size_t victim = list.num_blocks() / 2;
  const auto& m = list.blocks()[victim];
  const size_t bm_start = m.offset + 1 + 5;  // tag, tf_bits, u32 range
  const uint32_t range = m.max_doc - m.base;
  ASSERT_NE(range % 8, 0u) << "need spare bits in the last bitmap byte";

  using Damage = std::function<void(std::string&)>;
  const Damage extra_posting = [&](std::string& b) {
    b[bm_start] |= char(1 << 1);  // docid base + 2 is absent (5 + 3k)
  };
  const Damage past_range = [&](std::string& b) {
    b[bm_start + (range - 1) / 8] |= char(0x80);
  };
  const Damage bad_range = [&](std::string& b) {
    b[m.offset + 1 + 4] = char(0xFF);  // beyond BitmapBlockCodec::kMaxRange
  };
  const Damage emptied = [&](std::string& b) {
    for (size_t i = 0; i < (range + 7) / 8; ++i) b[bm_start + i] = 0;
  };

  for (const Damage& damage : {extra_posting, past_range, bad_range, emptied}) {
    CompressedPostingList::Parts parts;
    parts.block_size = list.block_size();
    parts.num_postings = list.size();
    parts.total_tf = list.total_tf();
    parts.max_tf = list.max_tf();
    parts.blocks.assign(list.blocks().begin(), list.blocks().end());
    parts.bytes = list.raw_bytes();
    damage(parts.bytes);
    auto r = CompressedPostingList::FromParts(std::move(parts));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }

  // In-memory damage the O(1) block-entry checks catch (the population is
  // a load-time check): header, bits past the range, an empty bitmap.
  size_t k = 0;
  for (const Damage& damage : {past_range, bad_range, emptied}) {
    CompressedPostingList damaged = build();
    damage(const_cast<std::string&>(damaged.raw_bytes()));
    PathPair pair(damaged);
    size_t steps = 0;
    while (!pair.AtEnd()) {
      pair.Apply([](auto& it) { it.Next(); }, "damage " + std::to_string(k));
      ++steps;
    }
    // Both paths stop where the damaged block begins.
    EXPECT_EQ(steps, victim * 60) << "damage " << k;

    PathPair skipper(damaged);
    skipper.Apply([&](auto& it) { it.SkipTo(m.base + 1); },
                  "damage skip " + std::to_string(k));
    EXPECT_TRUE(skipper.AtEnd()) << "damage " << k;
    ++k;
  }
}

}  // namespace
}  // namespace csr
