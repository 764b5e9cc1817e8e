// Shared declarations of the benchmark harness: engine set-up, query pools
// with their reference answers, the load loops, and the span recorder.
//
// The harness only calls the engine's public API. Every layer is measured
// from outside: by timing calls into that layer's public functions and by
// reading the counters those calls return (SearchMetrics/CostCounters,
// ExecutorMetrics, AdaptiveCacheTelemetry, SegmentInfos, the metrics
// registry snapshot).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Aborts the run with a message on stderr and exit code 2. Used for set-up
/// errors (bad arguments, failed builds), never for measured failures.
[[noreturn]] void Die(const std::string& message);

double Median(std::vector<double> v);
/// The p-th percentile estimated as the mean of the order statistics within
/// one binomial standard deviation (sqrt(n p (1-p)) ranks) of its rank. The
/// tail of a pool is a few costly queries, so the nearest-rank p99 jumps
/// between their discrete costs from run to run; the local mean does not.
double SmoothedPercentile(std::vector<double> v, double p);
/// Splits `v` (samples in completion order) into `windows` consecutive
/// windows and returns each window's SmoothedPercentile. The host's speed
/// drifts over seconds; the median window is robust to a slow one.
std::vector<double> WindowPercentiles(const std::vector<double>& v, double p,
                                      size_t windows);

// ---------------------------------------------------------------------------
// CPU placement

/// Where each thread runs. Each busy thread gets a CPU of its own: one
/// executor worker (or phased-loop thread) on each of the last two allowed
/// CPUs, the main thread (set-up, load generator) on the third-last, and the
/// helper thread (adaptive stepper or writer) on the fourth-last. Without
/// this, the scheduler decides, and where a cpuset turns its load balancing
/// off (cpuset.sched_load_balance = 0, as on the 4-vCPU VM the benchmark
/// was tuned on) a thread stays on the CPU it started on: both executor
/// workers then shared one CPU in some runs and not in others, and qps
/// halved. Empty below four allowed CPUs: nothing is pinned then.
struct CpuPlan {
  std::vector<int> workers;
  std::vector<int> main_thread;
  std::vector<int> helper;
};
CpuPlan PlanCpus();
/// Restricts the calling thread to `cpus`; no-op when empty.
void PinThisThread(const std::vector<int>& cpus);
/// Ids of this process's threads, sorted.
std::vector<int> ThreadIds();
/// Pins each thread of this process that is not in `before` (from
/// ThreadIds) to one CPU of `cpus`, round-robin, and returns how many it
/// pinned; no-op when `cpus` is empty. This places threads the engine
/// starts, such as the executor's workers, from outside.
size_t PinNewThreads(const std::vector<int>& before,
                     const std::vector<int>& cpus);

// ---------------------------------------------------------------------------
// Set-up

/// The generated collection: corpus generation is timed separately from
/// engine set-up and reported only as a diagnostic.
csr::Corpus GenerateCorpus(uint64_t seed, uint32_t num_docs,
                           double* gen_seconds);

/// Documents for the live_ingest writer, drawn from the same generator
/// configuration as the base corpus (same ontology) under another seed.
std::vector<csr::Document> GenerateAppendDocs(uint64_t seed,
                                              uint32_t num_docs);

struct SetupResult {
  std::unique_ptr<csr::ContextSearchEngine> engine;
  std::vector<double> build_s;   // Build(): index + compaction, per rep
  std::vector<double> select_s;  // SelectAndMaterializeViews, per rep
  std::vector<double> total_s;   // their sums, per rep
};

/// Builds the engine `reps` times from copies of `corpus` (the copy is not
/// timed) and keeps the last engine. Each rep is timed separately so the
/// report can give medians.
SetupResult SetupEngine(const csr::Corpus& corpus,
                        const csr::EngineConfig& config, int reps);

/// Index + predicate index + offline views + adaptive residents + extra
/// segments and their view deltas, in MB.
double ResidentMb(const csr::ContextSearchEngine& engine);

// ---------------------------------------------------------------------------
// Pools, references and output checks

struct PoolEntry {
  csr::ContextQuery query;
  csr::EvaluationMode mode;
};

struct Reference {
  uint64_t result_count = 0;
  std::vector<csr::SearchResultEntry> top;
};

/// A pool of queries plus how the stream draws from it: Zipf over groups
/// (a group is one pool entry, or every entry sharing a context), then
/// uniformly within the group. `shift` rotates the rank -> group mapping,
/// which moves the hot set.
struct Pool {
  std::vector<PoolEntry> entries;
  std::vector<std::vector<uint32_t>> groups;
  std::unique_ptr<csr::ZipfDistribution> zipf;

  uint32_t Draw(csr::SplitMix64& rng, uint32_t shift) const;
};

/// Builds the zipf sampler over `pool.groups` with exponent `s`.
void FinishPool(Pool& pool, double s);

/// Single-threaded reference answers for every pool entry, computed with
/// no clock running: the paper's Figure 3 straightforward plan for
/// context-sensitive entries; conventional entries have no other plan than
/// their own. Dies if a reference query itself fails.
std::vector<Reference> ComputeReferences(const csr::ContextSearchEngine& engine,
                                         const Pool& pool);

/// Empty when `r` is OK, not degraded, and equal to `ref` in result_count,
/// top-k docids and bit-exact scores; otherwise a description.
std::string CheckAgainst(const csr::Result<csr::SearchResult>& r,
                         const Reference& ref);

/// The weaker check used while a writer grows the collection: OK, not
/// degraded, and a well-ordered top-k of the right length. (The caller
/// bounds the result count by the pre- and post-ingest references once the
/// writer finishes: documents are only ever added.)
std::string CheckWellFormed(const csr::Result<csr::SearchResult>& r,
                            uint32_t top_k);

// ---------------------------------------------------------------------------
// Span recorder

struct Span {
  uint64_t trace_id = 0;  // shared by the spans of one query / batch
  uint32_t span_id = 0;   // unique within the trace
  uint32_t parent_id = 0; // 0 = root
  const char* name = "";
  int64_t start_ns = 0;   // since the recorder's epoch
  int64_t end_ns = 0;
};

/// Spans are kept in memory, one buffer per recording thread, and written
/// out (JSON lines) when the run ends. Recording is off unless enabled.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  uint64_t NewTraceId() { return next_trace_.fetch_add(1) + 1; }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Per-thread buffer; the caller owns it for the thread's lifetime and
  /// hands it back with Merge.
  void Merge(std::vector<Span>&& spans);

  /// Summed duration and self time (duration minus the part its children
  /// cover) per span name, plus count.
  struct NameStats {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  NameStats Stats(const std::string& name) const;

  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_trace_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Adaptive stepper

/// Calls AdaptiveStep() on its own thread once per `cadence` queries
/// reported through Note(). Steps requested while one runs coalesce.
class Stepper {
 public:
  Stepper(const csr::ContextSearchEngine* engine, uint64_t cadence,
          Tracer* tracer, std::vector<int> cpus);
  ~Stepper();
  Stepper(const Stepper&) = delete;
  Stepper& operator=(const Stepper&) = delete;

  /// Reports `n` more completed queries.
  void Note(uint64_t n);
  /// Harness-timed AdaptiveStep durations so far (ms).
  std::vector<double> StepMs() const;

 private:
  void Loop();

  const csr::ContextSearchEngine* engine_;
  const uint64_t cadence_;
  Tracer* tracer_;
  const std::vector<int> cpus_;
  std::vector<Span> spans_;  // owned by the stepper thread
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t queries_ = 0;       // guarded by mu_
  uint64_t next_trigger_ = 0;  // guarded by mu_
  uint64_t pending_ = 0;       // guarded by mu_
  bool stop_ = false;          // guarded by mu_
  std::vector<double> step_ms_;  // guarded by mu_
  std::thread thread_;  // declared last: started after the members it uses
};

// ---------------------------------------------------------------------------
// Load loops

/// What a load loop does with each completed query: returns false when the
/// result fails its output check (the loop counts it as failed). Called
/// from one thread at a time per loop.
using Checker =
    std::function<bool(uint32_t entry, const csr::Result<csr::SearchResult>&)>;

struct ClosedLoopResult {
  uint64_t attempted = 0;  // every checked completion, drained ones included
  uint64_t failed = 0;
  uint64_t completed = 0;  // completions before the loop's time ran out
  double seconds = 0;
  size_t round_size = 0;   // queries per round
  /// Duration of each completed round. A few queries cost 50-100x the
  /// median, so the rate of a time window of random draws depends on which
  /// of them it holds; every round holds the same queries, so round times
  /// differ only by the host's speed.
  std::vector<double> round_seconds;
  /// The completed rounds' queries over their summed time; the overall
  /// rate when not one round completed.
  double qps() const {
    double total = 0;
    for (double s : round_seconds) total += s;
    if (total > 0) return round_seconds.size() * round_size / total;
    return seconds > 0 ? completed / seconds : 0;
  }
};

/// Closed loop through the executor: keeps `outstanding` queries in flight
/// and submits a replacement as soon as any completes (a slow query never
/// holds back the others), for `seconds`. Submits the same round of
/// queries over and over, each round in an order shuffled from `seed`: as
/// many draws as it takes for the least likely pool entry to be expected
/// once under the Zipf weights (with hot-set `shift`), each entry as often
/// as its weight gives it, the rare costly ones included.
ClosedLoopResult RunClosedLoop(csr::QueryExecutor& exec, const Pool& pool,
                               uint64_t seed, double seconds,
                               uint32_t outstanding, uint32_t shift,
                               const Checker& check, Stepper* stepper);

struct OpenLoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;    // non-OK (other than rejection) or check failure
  uint64_t rejected = 0;  // kResourceExhausted at submission / shed
  uint64_t over_limit = 0;
  std::vector<double> latency_ms;  // due time -> completion, OK queries
  std::vector<double> service_ms;  // SearchMetrics::total_ms, same order
  double lateness_mean_ms = 0;     // submission time - due time
  double lateness_max_ms = 0;
  double seconds = 0;
  double slo_miss_frac() const {
    return attempted == 0 ? 0
                          : static_cast<double>(failed + rejected +
                                                over_limit) /
                                attempted;
  }
};

/// Open-loop Poisson arrivals at `rate` per second, generated from `seed`.
/// Submits for `seconds`, then collects what is still in flight. The hot
/// set moves from `shift_a` to `shift_b` halfway through the schedule.
/// One thread both submits and collects, polling every query in flight
/// between arrivals.
OpenLoopResult RunOpenLoop(csr::QueryExecutor& exec, const Pool& pool,
                           uint64_t seed, double rate, double seconds,
                           double limit_ms,
                           uint32_t shift_a, uint32_t shift_b,
                           const Checker& check, Stepper* stepper);

/// Per-query layer counters summed over a phased run.
struct LayerCounters {
  uint64_t queries = 0;
  uint64_t context_queries = 0;
  uint64_t view_queries = 0;  // context queries with stats from any view
  uint64_t view_tuples = 0;
  uint64_t uncovered_kw = 0;
  uint64_t results = 0;
  csr::CostCounters cost;
  uint64_t parts_max = 0;
};

struct PhasedResult {
  LayerCounters counters;  // OK results only
  uint64_t attempted = 0;  // every query run
  uint64_t failed = 0;
  double qps_traced = 0;
  double qps_untraced = 0;
};

/// The traced closed loop: `threads` harness threads run each query as
/// BeginSearch -> SearchStats -> SearchIntersect -> FinishSearch (the
/// sequence Search runs inline, so results are identical) and record a
/// span around each call. Spans are recorded in the 2nd and 3rd quarters
/// only (untraced, traced, traced, untraced), so the ratio of the two
/// throughputs is the tracing overhead with drift cancelled.
PhasedResult RunPhasedLoop(const csr::ContextSearchEngine& engine,
                           const Pool& pool, uint64_t seed, double seconds,
                           uint32_t threads, uint32_t shift,
                           const Checker& check, Tracer* tracer,
                           Stepper* stepper, const std::vector<int>& cpus);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
