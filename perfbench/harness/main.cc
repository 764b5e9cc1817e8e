// The repository benchmark: one command, three seeded workloads, every
// served result checked against a single-threaded reference.
//
//   perfbench --workload <views_large|tail_adaptive|live_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics with no span recording; --trace
// 1 is a separate run of the same workload that records spans around each
// layer call and prints the per-layer metrics. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
// it are the human-readable report (provenance, diagnostics, every metric
// with its unit and, for per-layer metrics, the end-to-end metric it should
// move). Exit code 1 means an output-check or durability failure, 2 a
// refused build or a set-up error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>

#include "eval/query_gen.h"
#include "harness/harness.h"
#include "index/simd_unpack.h"
#include "storage/snapshot.h"

namespace perfbench {
namespace {

using csr::ContextSearchEngine;
using csr::EvaluationMode;
using csr::Result;
using csr::SearchResult;

// -- Fixed workload parameters ------------------------------------------------
// Engine settings are the library defaults except the executor's worker count
// and, on tail_adaptive, the adaptive cache budget. The stats cache and the
// staged pipeline stay off (their defaults).

constexpr uint32_t kDocs = 120000;  // base corpus, every workload
// The corpus, the query pools and live_ingest's appended documents are
// fixed inputs of the workloads: query costs are heavy-tailed (p99 ~ 25x
// p50), and pools and corpora drawn from the run seed moved qps by 2x and
// resident_mb by 1.9x between seeds; with appended documents drawn from the
// run seed, the pool's Zipf-weighted Search cost on the grown engine read
// 1.15-1.20x higher for one seed than for another, measured side by side in
// one process. The run seed drives the rest: Zipf draw sequences and
// Poisson arrival times.
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kPoolSeed = 7;
constexpr uint64_t kAppendSeed = 43;
constexpr int kSetupReps = 3;       // setup_s is the median of these
constexpr uint32_t kWorkers = 2;    // executor workers (+ <= 2 harness threads)
constexpr uint32_t kOutstanding = 4;  // closed-loop queries in flight
constexpr double kWarmupChunkSeconds = 1.0;
constexpr uint32_t kWarmupMinChunks = 4;
constexpr uint32_t kWarmupMaxChunks = 8;
// Share of --seconds given to the open loop (latencies); the closed
// loop (qps) gets the rest. The open loop's latencies are medians over
// windows and qps a rate over rounds of one to two seconds each; the host's
// speed drifts over seconds, so each phase needs several of them.
constexpr double kOpenShare = 0.6;
// Open-loop percentiles are medians over windows of at least this many
// samples (so each window's p99 has ten samples beyond it).
constexpr size_t kSamplesPerWindow = 1000;

// views_large: the Figure 7 class.
constexpr uint32_t kLargePerKeywordCount = 200;  // x keyword counts 2..5
constexpr uint32_t kConventionalEvery = 5;      // 20% conventional
constexpr double kLargeZipf = 1.0;
constexpr double kLargeRate = 400;      // open-loop arrivals per second
constexpr double kLargeLimitMs = 50;    // latency limit (slo_miss_frac)

// tail_adaptive: the Figure 8 class through the adaptive cache.
constexpr uint32_t kSmallPerKeywordCount = 200;  // x keyword counts 2..3
constexpr double kTailZipf = 1.0;
constexpr double kTailRate = 1000;
constexpr double kTailLimitMs = 50;
// The controller keeps ~0.96 MiB of views resident when the budget is 8 MiB;
// half a MiB holds about half of that, so installs after the hot set moves
// must evict.
constexpr uint64_t kAdaptiveBudgetBytes = 512ull << 10;
constexpr uint64_t kStepCadence = 512;  // queries per AdaptiveStep

// live_ingest: one writer beside an open-loop mix of both classes.
constexpr uint32_t kIngestBatchDocs = 1024;
// Batch i is due i / kIngestBatchesPerSecond seconds into the open loop, for
// the whole open loop. The writer was busy 10-12 s of an 18 s open loop on a
// 4-vCPU x86-64 host, so a slower writer shows in its lateness and in
// ingest.* before it outlasts the open loop.
constexpr double kIngestBatchesPerSecond = 8;
constexpr uint32_t kMixedPerKeywordCount = 50;
constexpr double kMixedZipf = 1.0;
constexpr double kIngestRate = 300;
constexpr double kIngestLimitMs = 50;

// -- Per-layer metrics ----------------------------------------------------------
// Each per-layer metric, its unit, and the end-to-end metric (@ workload) it
// should move. The traced run emits all of them on every workload; a layer a
// workload bypasses reads 0 there.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  const char* moves;
};
constexpr LayerMetricDef kLayerMetrics[] = {
    {"executor.queue_wait_ms", "ms", "serving.p50_ms,serving.p99_ms@views_large"},
    {"executor.exec_ms", "ms", "qps@views_large,tail_adaptive"},
    {"executor.rejected", "count", "slo_miss_frac@all"},
    {"engine.begin_ms", "ms", "search_p50_ms@all (conventional share of views_large)"},
    {"stats.ms", "ms", "search_p50_ms,serving.p99_ms,qps@tail_adaptive"},
    {"stats.view_frac", "fraction", "search_p50_ms@tail_adaptive"},
    {"views.tuples_per_q", "count", "search_p50_ms@views_large"},
    {"views.uncovered_kw_per_q", "count", "search_p50_ms@views_large"},
    {"views.delta_folds_per_q", "count", "search_p50_ms@live_ingest"},
    {"retrieval.ms", "ms", "qps,serving.p99_ms@views_large (includes chunked scoring)"},
    {"retrieval.results_per_q", "count", "qps@views_large"},
    {"index.bytes_touched_per_q", "bytes", "qps@views_large,search_p50_ms@tail_adaptive"},
    {"index.blocks_skipped_per_q", "count", "qps@views_large,search_p50_ms@tail_adaptive"},
    {"index.entries_scanned_per_q", "count", "qps@views_large,search_p50_ms@tail_adaptive"},
    {"index.model_cost_per_q", "count", "qps@views_large,search_p50_ms@tail_adaptive"},
    {"index.build_s", "s", "setup_s@all"},
    {"ranking.finish_ms", "ms", "search_p50_ms@views_large"},
    {"selection.offline_s", "s", "setup_s@all"},
    {"selection.hit_frac", "fraction", "qps,search_p50_ms@tail_adaptive"},
    {"selection.step_ms", "ms", "serving.p99_ms@tail_adaptive"},
    {"selection.build_ms", "ms", "serving.p99_ms@tail_adaptive"},
    {"selection.installs", "count", "serving.p99_ms@tail_adaptive"},
    {"selection.evictions", "count", "serving.p99_ms@tail_adaptive"},
    {"selection.resident_mb", "MB", "resident_mb@tail_adaptive"},
    {"ingest.append_p50_ms", "ms", "ingest.docs_per_s@live_ingest"},
    {"ingest.append_p99_ms", "ms", "ingest.docs_per_s@live_ingest"},
    {"ingest.docs_per_s", "docs/s", "(end to end on live_ingest)"},
    {"segments.merge_ms", "ms", "ingest.docs_per_s@live_ingest"},
    {"segments.merges", "count", "segments.write_amp,serving.p99_ms@live_ingest"},
    {"segments.seals", "count", "segments.write_amp,serving.p99_ms@live_ingest"},
    {"segments.parts_max", "count", "segments.write_amp,serving.p99_ms@live_ingest"},
    {"segments.write_amp", "ratio", "(end to end on live_ingest)"},
    {"serving.p50_ms", "ms", "(end to end p50, from the traced run)"},
    {"serving.p99_ms", "ms", "(end to end p99, from the traced run)"},
    {"serving.slo_miss_frac", "fraction", "(end to end, from the traced run)"},
    {"trace.overhead", "ratio", "(traced qps / untraced qps)"},
};

// -- Arguments ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = v == "1" ? 1 : 0;
      have_trace = v == "0" || v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload != "views_large" && a.workload != "tail_adaptive" &&
      a.workload != "live_ingest") {
    Die("--workload must be views_large, tail_adaptive or live_ingest");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Die("--seed <n>, --seconds <s> and --trace <0|1> are required");
  }
  return a;
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return csr::SplitMix64(seed * 0x100000001B3ULL ^ tag).Next();
}

// -- Provenance -------------------------------------------------------------------

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int c : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out.empty() ? "-" : out;
}

void CheckAndPrintProvenance(const Args& a, const CpuPlan& cpus) {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const char* scalar_env = std::getenv("CSR_FORCE_SCALAR");
  bool force_scalar =
      scalar_env != nullptr && std::strcmp(scalar_env, "0") != 0;
  std::printf(
      "# provenance: nproc=%u unpack=%s CSR_FORCE_SCALAR=%s build=%s "
      "compiler=\"%s\" flags=\"%s\" docs=%u seed=%llu workers=%u "
      "cpus(workers/main/helper)=%s/%s/%s\n",
      std::thread::hardware_concurrency(),
      std::string(csr::UnpackLevelName(csr::ActiveUnpackLevel())).c_str(),
      force_scalar ? "set" : "unset", PERFBENCH_BUILD_TYPE, __VERSION__,
      flags.c_str(), kDocs, static_cast<unsigned long long>(a.seed),
      kWorkers, CpuList(cpus.workers).c_str(), CpuList(cpus.main_thread).c_str(),
      CpuList(cpus.helper).c_str());
  bool optimized = false;
#if defined(__OPTIMIZE__)
  optimized = true;
#endif
  bool sanitized = flags.find("-fsanitize") != std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (!optimized) Die("refusing to report numbers from an unoptimized build");
  if (sanitized) Die("refusing to report numbers from a sanitizer build");
}

// -- Pools ------------------------------------------------------------------------

std::vector<csr::WorkloadQuery> GenerateQueries(
    const ContextSearchEngine& engine, uint64_t seed, bool lift,
    uint32_t per_count, uint32_t kw_min, uint32_t kw_max, uint64_t min_size,
    uint64_t max_size) {
  csr::WorkloadGenerator gen(&engine, seed);
  gen.set_lift_to_roots(lift);
  std::vector<csr::WorkloadQuery> out;
  for (uint32_t nk = kw_min; nk <= kw_max; ++nk) {
    for (csr::WorkloadQuery& wq :
         gen.Generate(per_count, nk, min_size, max_size, 200000)) {
      out.push_back(std::move(wq));
    }
  }
  csr::SplitMix64 rng(seed ^ 0x5EEDULL);
  csr::Shuffle(out, rng);  // mix keyword counts over the Zipf ranks
  return out;
}

/// Root-lifted contexts >= T_C with 2-5 keywords; every fifth entry is
/// evaluated conventionally (the paper's baseline), the rest with views.
std::vector<PoolEntry> LargeEntries(const ContextSearchEngine& engine,
                                    uint64_t seed, uint32_t per_count) {
  std::vector<PoolEntry> out;
  for (csr::WorkloadQuery& wq :
       GenerateQueries(engine, seed, /*lift=*/true, per_count, 2, 5,
                       engine.context_threshold(), 0)) {
    EvaluationMode mode = out.size() % kConventionalEvery == 0
                              ? EvaluationMode::kConventional
                              : EvaluationMode::kContextWithViews;
    out.push_back(PoolEntry{std::move(wq.query), mode});
  }
  return out;
}

/// Small contexts (< T_C) that no offline view covers, evaluated with
/// views: the offline catalog misses, so they take the straightforward
/// plan or the adaptive cache.
std::vector<PoolEntry> SmallEntries(const ContextSearchEngine& engine,
                                    uint64_t seed, uint32_t per_count) {
  std::vector<PoolEntry> out;
  uint64_t tc = engine.context_threshold();
  for (csr::WorkloadQuery& wq :
       GenerateQueries(engine, seed, /*lift=*/false, per_count, 2, 3, 1,
                       tc > 1 ? tc - 1 : 1)) {
    if (engine.catalog().FindBest(wq.query.context) != nullptr) continue;
    if (wq.query.context.size() > engine.config().adaptive_max_context_terms) {
      continue;
    }
    out.push_back(
        PoolEntry{std::move(wq.query), EvaluationMode::kContextWithViews});
  }
  return out;
}

/// One group per entry.
Pool EntryPool(std::vector<PoolEntry> entries, double zipf) {
  Pool pool;
  pool.entries = std::move(entries);
  for (uint32_t i = 0; i < pool.entries.size(); ++i) pool.groups.push_back({i});
  FinishPool(pool, zipf);
  return pool;
}

/// One group per distinct context, so the Zipf skew (and the hot set) is
/// over contexts.
Pool ContextPool(std::vector<PoolEntry> entries, double zipf) {
  Pool pool;
  pool.entries = std::move(entries);
  std::map<csr::TermIdSet, uint32_t> group_of;
  for (uint32_t i = 0; i < pool.entries.size(); ++i) {
    auto [it, fresh] = group_of.emplace(pool.entries[i].query.context,
                                        static_cast<uint32_t>(pool.groups.size()));
    if (fresh) pool.groups.emplace_back();
    pool.groups[it->second].push_back(i);
  }
  FinishPool(pool, zipf);
  return pool;
}

// -- Report -------------------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, Metric{value, unit});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", m.value);
      json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
              num + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
};

// -- Run state ----------------------------------------------------------------------

/// Operation accounting across every phase: queries, appends and the
/// durability checks. `correct` turns false on any output-check or
/// durability failure (rejections under load are failures, not errors).
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  int reported = 0;

  void Mismatch(const std::string& what) {
    correct = false;
    if (reported++ < 5) std::fprintf(stderr, "perfbench: check failed: %s\n",
                                     what.c_str());
  }
};

/// Verifies each result against its reference (exact) and records it.
Checker ExactChecker(const std::vector<Reference>& refs, Ops& ops) {
  return [&refs, &ops](uint32_t e, const Result<SearchResult>& r) {
    std::string why = CheckAgainst(r, refs[e]);
    if (why.empty()) return true;
    ops.Mismatch("entry " + std::to_string(e) + ": " + why);
    return false;
  };
}

/// (entry, result_count) of each result served while the writer grows the
/// collection.
using LiveCounts = std::vector<std::pair<uint32_t, uint64_t>>;

/// Results served while the writer grows the collection are well-formed
/// now; their result counts are checked against the pre- and post-ingest
/// references once the writer is done.
Checker LiveChecker(uint32_t top_k, LiveCounts& live, Ops& ops) {
  return [top_k, &live, &ops](uint32_t e, const Result<SearchResult>& r) {
    std::string why = CheckWellFormed(r, top_k);
    if (!why.empty()) {
      ops.Mismatch("live entry " + std::to_string(e) + ": " + why);
      return false;
    }
    live.emplace_back(e, r->result_count);
    return true;
  };
}

/// Runs every entry once through the executor, checked, then closed-loop
/// chunks: at least kWarmupMinChunks (latency kept falling for ~15 s after
/// set-up with a 1 s warm-up), and with the adaptive cache until a chunk
/// installs at most one view. Page faults, lazy set-up and the resident set
/// settle before any timed phase.
void WarmUp(csr::QueryExecutor& exec, const Pool& pool,
            const std::vector<Reference>& refs, uint64_t seed, Ops& ops,
            Stepper* stepper) {
  Checker check = ExactChecker(refs, ops);
  const uint32_t n = static_cast<uint32_t>(pool.entries.size());
  for (uint32_t start = 0; start < n; start += 32) {  // within queue capacity
    uint32_t stop = std::min(n, start + 32);
    std::vector<std::future<Result<SearchResult>>> futures;
    for (uint32_t i = start; i < stop; ++i) {
      futures.push_back(exec.SubmitSearch(pool.entries[i].query,
                                          pool.entries[i].mode));
    }
    for (uint32_t i = start; i < stop; ++i) {
      ops.attempted++;
      if (!check(i, futures[i - start].get())) ops.failed++;
    }
  }
  const csr::AdaptiveViewController* ctl = exec.engine().adaptive();
  auto installs = [ctl] {
    return ctl == nullptr ? 0 : ctl->telemetry().installs.load();
  };
  for (uint32_t chunk = 0; chunk < kWarmupMaxChunks; ++chunk) {
    uint64_t before = installs();
    ClosedLoopResult w =
        RunClosedLoop(exec, pool, seed + chunk, kWarmupChunkSeconds,
                      kOutstanding, 0, check, stepper);
    ops.attempted += w.attempted;
    ops.failed += w.failed;
    bool settled = ctl == nullptr || installs() - before <= 1;
    if (chunk + 1 >= kWarmupMinChunks && settled) break;
  }
}

// -- live_ingest writer ---------------------------------------------------------------

struct WriterResult {
  uint64_t appended = 0;  // acknowledged documents
  uint64_t batches_failed = 0;
  std::vector<double> append_ms;
  std::vector<double> merge_ms;  // MergeOnce calls that merged
  uint64_t parts_max = 0;
  uint64_t seals = 0;
  uint64_t merged_docs = 0;
  double busy_s = 0;  // AppendDocuments + MergeOnce, summed over batches
  double wall_s = 0;  // first due time -> last MergeOnce returned
  double lateness_mean_ms = 0;  // batch start - due time
  double lateness_max_ms = 0;
};

uint64_t Counter(const ContextSearchEngine& engine, const std::string& name) {
  auto snap = engine.MetricsSnapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Appends the batches in order, batch i no earlier than i / `per_second`
/// seconds after the start, calling MergeOnce after each one, so the merge
/// sequence depends only on the batch sizes.
WriterResult RunWriter(ContextSearchEngine& engine,
                       std::vector<std::vector<csr::Document>> batches,
                       double per_second, Tracer& tracer) {
  WriterResult out;
  std::vector<Span> spans;
  uint64_t seals0 = Counter(engine, "ingest.seals");
  uint64_t merged0 = Counter(engine, "segments.merged_docs");
  double lateness_sum = 0;
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < batches.size(); ++i) {
    Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(i / per_second));
    std::this_thread::sleep_until(due);
    std::vector<csr::Document>& batch = batches[i];
    uint64_t n = batch.size();
    uint64_t id = tracer.enabled() ? tracer.NewTraceId() : 0;
    int64_t s0 = tracer.enabled() ? tracer.Now() : 0;
    Clock::time_point a0 = Clock::now();
    double late = MsBetween(due, a0);
    lateness_sum += late;
    out.lateness_max_ms = std::max(out.lateness_max_ms, late);
    csr::Status st = engine.AppendDocuments(std::move(batch));
    Clock::time_point a1 = Clock::now();
    int64_t s1 = tracer.enabled() ? tracer.Now() : 0;
    if (st.ok()) {
      out.appended += n;
    } else {
      out.batches_failed++;
      std::fprintf(stderr, "perfbench: append failed: %s\n",
                   st.ToString().c_str());
    }
    out.append_ms.push_back(MsBetween(a0, a1));
    bool merged = engine.MergeOnce();
    Clock::time_point m1 = Clock::now();
    int64_t s2 = tracer.enabled() ? tracer.Now() : 0;
    if (merged) out.merge_ms.push_back(MsBetween(a1, m1));
    out.busy_s += MsBetween(a0, m1) / 1000.0;
    out.parts_max =
        std::max<uint64_t>(out.parts_max, engine.SegmentInfos().size());
    if (tracer.enabled()) {
      spans.push_back(Span{id, 1, 0, "ingest_batch", s0, s2});
      spans.push_back(Span{id, 2, 1, "append", s0, s1});
      spans.push_back(Span{id, 3, 1, merged ? "merge" : "merge_noop", s1, s2});
    }
  }
  out.wall_s = MsBetween(t0, Clock::now()) / 1000.0;
  out.lateness_mean_ms = batches.empty() ? 0 : lateness_sum / batches.size();
  out.seals = Counter(engine, "ingest.seals") - seals0;
  out.merged_docs = Counter(engine, "segments.merged_docs") - merged0;
  tracer.Merge(std::move(spans));
  return out;
}

/// Saves a snapshot, loads it back, and checks that the loaded engine holds
/// every acknowledged document and answers the pool as the references say.
void CheckDurability(const ContextSearchEngine& engine, const Pool& pool,
                     const std::vector<Reference>& refs,
                     uint64_t expected_docs, Ops& ops) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(".bench_build") / "perfbench-snapshots" /
                 ("snap-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir.string() + ": " + ec.message());
  Clock::time_point t0 = Clock::now();
  ops.attempted++;
  csr::Status saved = csr::SaveEngineSnapshot(engine, dir.string());
  if (!saved.ok()) {
    ops.failed++;
    ops.Mismatch("snapshot save: " + saved.ToString());
    fs::remove_all(dir, ec);
    return;
  }
  ops.attempted++;
  auto loaded = csr::LoadEngineSnapshot(dir.string(), engine.config());
  fs::remove_all(dir, ec);
  if (!loaded.ok()) {
    ops.failed++;
    ops.Mismatch("snapshot load: " + loaded.status().ToString());
    return;
  }
  const ContextSearchEngine& reloaded = **loaded;
  if (reloaded.total_docs() != expected_docs) {
    ops.failed++;
    ops.Mismatch("reloaded engine holds " +
                 std::to_string(reloaded.total_docs()) + " docs, expected " +
                 std::to_string(expected_docs));
  }
  for (uint32_t i = 0; i < pool.entries.size(); ++i) {
    const PoolEntry& e = pool.entries[i];
    ops.attempted++;
    std::string why = CheckAgainst(reloaded.Search(e.query, e.mode), refs[i]);
    if (!why.empty()) {
      ops.failed++;
      ops.Mismatch("reloaded entry " + std::to_string(i) + ": " + why);
    }
  }
  std::printf("# durability: snapshot save+load+check %.2f s, %llu docs\n",
              MsBetween(t0, Clock::now()) / 1000.0,
              static_cast<unsigned long long>(reloaded.total_docs()));
}

// -- The run ----------------------------------------------------------------------------

int Run(const Args& a) {
  const CpuPlan cpus = PlanCpus();
  PinThisThread(cpus.main_thread);
  CheckAndPrintProvenance(a, cpus);
  const bool traced = a.trace == 1;
  const bool tail = a.workload == "tail_adaptive";
  const bool live = a.workload == "live_ingest";
  Tracer tracer(traced);
  Report report;
  Ops ops;

  double gen_s = 0;
  csr::Corpus corpus = GenerateCorpus(kCorpusSeed, kDocs, &gen_s);
  csr::EngineConfig config;
  if (tail) config.adaptive_view_budget_bytes = kAdaptiveBudgetBytes;
  SetupResult setup = SetupEngine(corpus, config, kSetupReps);
  ContextSearchEngine& engine = *setup.engine;
  corpus = csr::Corpus();  // only the engine's copy is needed from here on

  Pool pool;
  if (a.workload == "views_large") {
    pool = EntryPool(LargeEntries(engine, SubSeed(kPoolSeed, 2),
                                  kLargePerKeywordCount),
                     kLargeZipf);
  } else if (tail) {
    pool = ContextPool(SmallEntries(engine, SubSeed(kPoolSeed, 3),
                                    kSmallPerKeywordCount),
                       kTailZipf);
  } else {
    std::vector<PoolEntry> large =
        LargeEntries(engine, SubSeed(kPoolSeed, 2), kMixedPerKeywordCount);
    std::vector<PoolEntry> small =
        SmallEntries(engine, SubSeed(kPoolSeed, 3), kMixedPerKeywordCount * 2);
    std::vector<PoolEntry> mixed;  // alternate classes so both share ranks
    for (size_t i = 0; i < std::max(large.size(), small.size()); ++i) {
      if (i < large.size()) mixed.push_back(large[i]);
      if (i < small.size()) mixed.push_back(small[i]);
    }
    pool = EntryPool(std::move(mixed), kMixedZipf);
  }
  // On tail_adaptive the hot set moves by a third of the groups halfway
  // through the open loop and stays there for the closed loop, which thus
  // measures the adapted cache; the other workloads keep theirs.
  const uint32_t shift =
      tail ? static_cast<uint32_t>(pool.groups.size() / 3) : 0;

  Clock::time_point r0 = Clock::now();
  std::vector<Reference> refs = ComputeReferences(engine, pool);
  double ref_s = MsBetween(r0, Clock::now()) / 1000.0;
  std::printf(
      "# setup: corpus generation %.2f s (diagnostic), reference answers "
      "%.2f s for %zu pool entries in %zu groups (diagnostic); T_C=%llu, "
      "%zu offline views\n",
      gen_s, ref_s, pool.entries.size(), pool.groups.size(),
      static_cast<unsigned long long>(engine.context_threshold()),
      engine.catalog().size());

  std::unique_ptr<Stepper> stepper;
  auto new_stepper = [&] {
    stepper.reset();
    if (tail) {
      stepper = std::make_unique<Stepper>(&engine, kStepCadence, &tracer,
                                          cpus.helper);
    }
  };
  csr::ExecutorConfig ec;
  ec.num_threads = kWorkers;
  const std::vector<int> threads_before = ThreadIds();
  csr::QueryExecutor exec(&engine, ec);  // one pool for every phase
  if (!cpus.workers.empty() &&
      PinNewThreads(threads_before, cpus.workers) != kWorkers) {
    Die("the executor did not start exactly " + std::to_string(kWorkers) +
        " threads");
  }
  new_stepper();
  WarmUp(exec, pool, refs, SubSeed(a.seed, 4), ops, stepper.get());
  new_stepper();  // step timings cover the timed phases only

  const csr::AdaptiveViewController* ctl = engine.adaptive();
  auto tel = [&](auto field) -> uint64_t {
    return ctl == nullptr ? 0 : (ctl->telemetry().*field).load();
  };
  using T = csr::AdaptiveCacheTelemetry;
  const uint64_t hits0 = tel(&T::hits);
  const uint64_t misses0 = tel(&T::misses);
  const uint64_t installs0 = tel(&T::installs);
  const uint64_t evictions0 = tel(&T::evictions);
  const uint64_t rejected0 = tel(&T::rejected_budget);
  const uint64_t builds0 =
      tel(&T::installs) + tel(&T::refreshes) + tel(&T::build_failures);
  const uint64_t build_us0 = tel(&T::build_micros);

  const double open_s = a.seconds * kOpenShare;
  const double closed_s = a.seconds - open_s;
  const double rate = tail ? kTailRate : live ? kIngestRate : kLargeRate;
  const double limit =
      tail ? kTailLimitMs : live ? kIngestLimitMs : kLargeLimitMs;
  Checker exact = ExactChecker(refs, ops);

  // Phase A: the open loop (every workload; beside the writer on
  // live_ingest).
  OpenLoopResult open;
  csr::ExecutorMetrics open_exec;
  WriterResult writer;
  LiveCounts live_counts;
  std::vector<Reference> final_refs;
  uint64_t base_docs = engine.total_docs();
  const uint32_t batch_count = std::max<uint32_t>(
      1, static_cast<uint32_t>(kIngestBatchesPerSecond * open_s));
  const csr::ExecutorMetrics exec_before = exec.metrics();
  if (!live) {
    open = RunOpenLoop(exec, pool, SubSeed(a.seed, 5), rate, open_s, limit, 0,
                       shift, exact, stepper.get());
  } else {
    std::vector<csr::Document> docs =
        GenerateAppendDocs(kAppendSeed, kIngestBatchDocs * batch_count);
    std::vector<std::vector<csr::Document>> batches(batch_count);
    for (size_t i = 0; i < docs.size(); ++i) {
      batches[i / kIngestBatchDocs].push_back(std::move(docs[i]));
    }
    std::thread writer_thread([&] {
      PinThisThread(cpus.helper);
      writer = RunWriter(engine, std::move(batches), kIngestBatchesPerSecond,
                         tracer);
    });
    Checker live_check = LiveChecker(engine.config().top_k, live_counts, ops);
    open = RunOpenLoop(exec, pool, SubSeed(a.seed, 5), rate, open_s, limit, 0,
                       0, live_check, nullptr);
    writer_thread.join();
    ops.attempted += batch_count;
    ops.failed += writer.batches_failed;
  }
  open_exec = exec.metrics();
  open_exec.completed -= exec_before.completed;
  open_exec.rejected -= exec_before.rejected;
  open_exec.queue_wait_ms_total -= exec_before.queue_wait_ms_total;
  open_exec.exec_ms_total -= exec_before.exec_ms_total;
  ops.attempted += open.attempted;
  ops.failed += open.failed + open.rejected;
  const uint64_t hits1 = tel(&T::hits);
  const uint64_t misses1 = tel(&T::misses);
  const uint64_t installs1 = tel(&T::installs);
  const uint64_t evictions1 = tel(&T::evictions);
  const uint64_t rejected1 = tel(&T::rejected_budget);

  const std::vector<Reference>* phase_refs = &refs;
  if (live) {
    ops.attempted++;
    if (writer.batches_failed != 0 ||
        engine.total_docs() != base_docs + writer.appended) {
      ops.failed++;
      ops.Mismatch("total_docs " + std::to_string(engine.total_docs()) +
                   " != base " + std::to_string(base_docs) + " + appended " +
                   std::to_string(writer.appended));
    }
    final_refs = ComputeReferences(engine, pool);
    for (const auto& [e, count] : live_counts) {
      if (count < refs[e].result_count || count > final_refs[e].result_count) {
        ops.failed++;
        ops.Mismatch("live entry " + std::to_string(e) + " result_count " +
                     std::to_string(count) + " outside [" +
                     std::to_string(refs[e].result_count) + ", " +
                     std::to_string(final_refs[e].result_count) + "]");
      }
    }
    phase_refs = &final_refs;
  }
  Checker phase_check = ExactChecker(*phase_refs, ops);

  // Phase B: closed-loop throughput (untraced) or the traced phased loop.
  ClosedLoopResult closed;
  PhasedResult phased;
  uint64_t folds0 = Counter(engine, "view.delta.folds");
  if (!traced) {
    closed = RunClosedLoop(exec, pool, SubSeed(a.seed, 7), closed_s,
                           kOutstanding, shift, phase_check, stepper.get());
    ops.attempted += closed.attempted;
    ops.failed += closed.failed;
  } else {
    exec.Shutdown();  // the phased loop's threads take the workers' place
    phased = RunPhasedLoop(engine, pool, SubSeed(a.seed, 7), closed_s,
                           kWorkers, shift, phase_check, &tracer,
                           stepper.get(), cpus.workers);
    ops.attempted += phased.attempted;
    ops.failed += phased.failed;
  }
  uint64_t folds = Counter(engine, "view.delta.folds") - folds0;
  std::vector<double> step_ms = stepper ? stepper->StepMs() : std::vector<double>{};
  stepper.reset();  // joins the stepper; its spans merge into the tracer
  auto hit_frac = [](uint64_t hits, uint64_t misses) {
    return hits + misses ? static_cast<double>(hits) / (hits + misses) : 0;
  };
  const double selection_mb =
      ctl ? ctl->Snapshot()->resident_bytes / (1024.0 * 1024.0) : 0;
  if (ctl != nullptr) {
    std::printf(
        "# adaptive cache: budget %.3f MiB, resident %.3f MiB; open loop "
        "(hot set moves halfway): hit_frac %.3f, %llu installs, %llu "
        "evictions, %llu rejected for budget; after the move (%s loop): "
        "hit_frac %.3f, %llu installs, %llu evictions, %llu rejected for "
        "budget\n",
        engine.config().adaptive_view_budget_bytes / (1024.0 * 1024.0),
        selection_mb, hit_frac(hits1 - hits0, misses1 - misses0),
        static_cast<unsigned long long>(installs1 - installs0),
        static_cast<unsigned long long>(evictions1 - evictions0),
        static_cast<unsigned long long>(rejected1 - rejected0),
        traced ? "phased" : "closed",
        hit_frac(tel(&T::hits) - hits1, tel(&T::misses) - misses1),
        static_cast<unsigned long long>(tel(&T::installs) - installs1),
        static_cast<unsigned long long>(tel(&T::evictions) - evictions1),
        static_cast<unsigned long long>(tel(&T::rejected_budget) -
                                        rejected1));
  }

  const double resident_mb = ResidentMb(engine);
  if (live) CheckDurability(engine, pool, final_refs, base_docs + writer.appended, ops);

  // -- Report --------------------------------------------------------------
  const double setup_s = Median(setup.total_s);
  const std::vector<double>& lat = open.latency_ms;
  const size_t windows = lat.size() / kSamplesPerWindow;
  const std::vector<double> p50s = WindowPercentiles(lat, 50, windows);
  const std::vector<double> p99s = WindowPercentiles(lat, 99, windows);
  const double p50 = Median(p50s), p99 = Median(p99s);
  // The same queries' Search time inside the worker (BeginSearch to
  // FinishSearch), in the same windows: the latency minus queueing and
  // waking an idle worker, which on a virtualized host varies with what
  // the host's other tenants do.
  const std::vector<double> search_p50s =
      WindowPercentiles(open.service_ms, 50, windows);
  const double search_p50 = Median(search_p50s);
  std::printf("# open loop: %.0f/s Poisson for %.2f s: %llu attempted, %zu "
              "timed samples in %zu windows, generator lateness mean %.3f ms "
              "max %.3f ms, latency limit %.0f ms, max latency %.3f ms\n",
              rate, open.seconds, static_cast<unsigned long long>(open.attempted),
              lat.size(), windows, open.lateness_mean_ms, open.lateness_max_ms,
              limit, lat.empty() ? 0 : *std::max_element(lat.begin(), lat.end()));
  std::printf("# per-window p50_ms:");
  for (double v : p50s) std::printf(" %.3f", v);
  std::printf("; per-window search_p50_ms:");
  for (double v : search_p50s) std::printf(" %.3f", v);
  std::printf("; per-window p99_ms:");
  for (double v : p99s) std::printf(" %.3f", v);
  std::printf(" (the metrics are their medians)\n");
  if (!traced) {
    std::printf("# closed loop: %u workers, %u in flight, %.2f s, %llu "
                "queries in rounds of %zu; per-round qps:",
                kWorkers, kOutstanding, closed.seconds,
                static_cast<unsigned long long>(closed.completed),
                closed.round_size);
    for (double s : closed.round_seconds) {
      std::printf(" %.0f", closed.round_size / s);
    }
    std::printf(" (qps is the rate over all of them)\n");
  } else {
    std::printf("# phased loop: %u threads, %.2f s, %.0f qps untraced, %.0f "
                "qps traced\n",
                kWorkers, closed_s, phased.qps_untraced, phased.qps_traced);
  }
  const double docs_per_s = writer.busy_s > 0 ? writer.appended / writer.busy_s : 0;
  const double write_amp =
      writer.appended > 0 ? static_cast<double>(writer.merged_docs) / writer.appended : 0;
  if (live) {
    std::printf("# writer: %llu docs in %u batches due %.0f/s, %.2f s wall, "
                "%.2f s busy (append + merge), lateness mean %.3f ms max "
                "%.3f ms, %zu merges, %llu seals, at most %llu parts\n",
                static_cast<unsigned long long>(writer.appended), batch_count,
                kIngestBatchesPerSecond, writer.wall_s, writer.busy_s,
                writer.lateness_mean_ms, writer.lateness_max_ms,
                writer.merge_ms.size(),
                static_cast<unsigned long long>(writer.seals),
                static_cast<unsigned long long>(writer.parts_max));
  }
  const double failed_frac =
      ops.attempted == 0 ? 0 : static_cast<double>(ops.failed) / ops.attempted;

  if (!traced) {
    std::printf("# end-to-end (%s, seed %llu)\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed));
    auto line = [](const char* name, double v, const char* unit) {
      std::printf("%-22s %14.6f %s\n", name, v, unit);
    };
    line("setup_s", setup_s, "s");
    line("qps", closed.qps(), "queries/s");
    line("search_p50_ms", search_p50, "ms");
    line("p50_ms", p50, "ms");
    line("p99_ms", p99, "ms");
    line("slo_miss_frac", open.slo_miss_frac(), "fraction");
    line("failed_frac", failed_frac, "fraction");
    line("resident_mb", resident_mb, "MB");
    if (live) {
      line("ingest_docs_per_s", docs_per_s, "docs/s");
      line("write_amp", write_amp, "ratio");
    }
    report.Add("setup_s", setup_s, "s");
    report.Add("qps", closed.qps(), "queries/s");
    report.Add("search_p50_ms", search_p50, "ms");
    report.Add("resident_mb", resident_mb, "MB");
  } else {
    const LayerCounters& c = phased.counters;
    auto per_q = [&](double total) { return c.queries ? total / c.queries : 0; };
    auto span_mean = [&](const char* name) {
      Tracer::NameStats s = tracer.Stats(name);
      return s.count ? s.total_ms / s.count : 0;
    };
    Tracer::NameStats query_span = tracer.Stats("query");
    uint64_t builds = tel(&T::installs) + tel(&T::refreshes) +
                      tel(&T::build_failures) - builds0;
    double build_ms =
        builds ? (tel(&T::build_micros) - build_us0) / 1000.0 / builds : 0;
    std::map<std::string, double> v = {
        {"executor.queue_wait_ms",
         open_exec.completed ? open_exec.queue_wait_ms_total / open_exec.completed : 0},
        {"executor.exec_ms",
         open_exec.completed ? open_exec.exec_ms_total / open_exec.completed : 0},
        {"executor.rejected", static_cast<double>(open_exec.rejected)},
        {"engine.begin_ms", span_mean("begin")},
        {"stats.ms", span_mean("stats")},
        {"stats.view_frac",
         c.context_queries ? static_cast<double>(c.view_queries) / c.context_queries : 0},
        {"views.tuples_per_q", per_q(c.view_tuples)},
        {"views.uncovered_kw_per_q", per_q(c.uncovered_kw)},
        {"views.delta_folds_per_q", per_q(folds)},
        {"retrieval.ms", span_mean("intersect")},
        {"retrieval.results_per_q", per_q(c.results)},
        {"index.bytes_touched_per_q", per_q(c.cost.bytes_touched)},
        {"index.blocks_skipped_per_q", per_q(c.cost.blocks_skipped)},
        {"index.entries_scanned_per_q", per_q(c.cost.entries_scanned)},
        {"index.model_cost_per_q",
         per_q(c.cost.ModelIntersectionCost(engine.config().segment_size))},
        {"index.build_s", Median(setup.build_s)},
        {"ranking.finish_ms", span_mean("finish")},
        {"selection.offline_s", Median(setup.select_s)},
        {"selection.hit_frac",
         hit_frac(tel(&T::hits) - hits0, tel(&T::misses) - misses0)},
        {"selection.step_ms",
         step_ms.empty() ? 0
                         : std::accumulate(step_ms.begin(), step_ms.end(), 0.0) /
                               step_ms.size()},
        {"selection.build_ms", build_ms},
        {"selection.installs", static_cast<double>(tel(&T::installs) - installs0)},
        {"selection.evictions", static_cast<double>(tel(&T::evictions) - evictions0)},
        {"selection.resident_mb", selection_mb},
        {"ingest.append_p50_ms", SmoothedPercentile(writer.append_ms, 50)},
        {"ingest.append_p99_ms", SmoothedPercentile(writer.append_ms, 99)},
        {"ingest.docs_per_s", docs_per_s},
        {"segments.merge_ms", Median(writer.merge_ms)},
        {"segments.merges", static_cast<double>(writer.merge_ms.size())},
        {"segments.seals", static_cast<double>(writer.seals)},
        {"segments.parts_max",
         static_cast<double>(std::max(writer.parts_max, c.parts_max))},
        {"segments.write_amp", write_amp},
        {"serving.p50_ms", p50},
        {"serving.p99_ms", p99},
        {"serving.slo_miss_frac", open.slo_miss_frac()},
        {"trace.overhead",
         phased.qps_untraced > 0 ? phased.qps_traced / phased.qps_untraced : 0},
    };
    std::printf("# per-layer (%s, seed %llu): %llu traced queries; chunked "
                "scoring inside SearchIntersect is counted in retrieval.ms\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(query_span.count));
    std::printf("# spans: name count total_ms self_ms (self = span minus "
                "the part its children cover)\n");
    for (const char* name : {"query", "begin", "stats", "intersect", "finish",
                             "adaptive_step", "ingest_batch", "append",
                             "merge", "merge_noop"}) {
      Tracer::NameStats s = tracer.Stats(name);
      if (s.count != 0) {
        std::printf("#   %-14s %8llu %12.3f %12.3f\n", name,
                    static_cast<unsigned long long>(s.count), s.total_ms,
                    s.self_ms);
      }
    }
    for (const LayerMetricDef& m : kLayerMetrics) {
      std::printf("%-28s %14.6f %-9s -> %s\n", m.name, v.at(m.name), m.unit,
                  m.moves);
      report.Add(m.name, v.at(m.name), m.unit);
    }
    if (!a.trace_out.empty() && !tracer.WriteJsonLines(a.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
    }
  }
  report.Print(ops.correct, ops.attempted, ops.failed);
  return ops.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
