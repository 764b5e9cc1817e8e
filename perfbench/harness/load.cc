// Load loops (closed loop, open loop, traced phased loop), the adaptive
// stepper, and the span recorder.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <unordered_map>

#include "harness/harness.h"

namespace perfbench {

using csr::EvaluationMode;
using csr::Result;
using csr::SearchResult;

// ---------------------------------------------------------------------------
// Tracer

void Tracer::Merge(std::vector<Span>&& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  spans.clear();
}

static uint64_t SpanKey(uint64_t trace_id, uint32_t span_id) {
  return (trace_id << 8) | span_id;  // span ids stay below 256 per trace
}

Tracer::NameStats Tracer::Stats(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, int64_t> child_ns;  // parent key -> covered
  for (const Span& s : spans_) {
    if (s.parent_id != 0) {
      child_ns[SpanKey(s.trace_id, s.parent_id)] += s.end_ns - s.start_ns;
    }
  }
  NameStats out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    int64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(SpanKey(s.trace_id, s.span_id));
    int64_t covered = it == child_ns.end() ? 0 : it->second;
    out.count++;
    out.total_ms += dur / 1e6;
    out.self_ms += (dur - covered) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"trace\":%llu,\"span\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.trace_id), s.span_id,
                 s.parent_id, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Stepper

Stepper::Stepper(const csr::ContextSearchEngine* engine, uint64_t cadence,
                 Tracer* tracer, std::vector<int> cpus)
    : engine_(engine),
      cadence_(cadence),
      tracer_(tracer),
      cpus_(std::move(cpus)),
      next_trigger_(cadence),
      thread_([this] { Loop(); }) {}

Stepper::~Stepper() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  if (tracer_ != nullptr) tracer_->Merge(std::move(spans_));
}

void Stepper::Note(uint64_t n) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queries_ += n;
    while (queries_ >= next_trigger_) {
      next_trigger_ += cadence_;
      pending_++;
      wake = true;
    }
  }
  if (wake) cv_.notify_one();
}

std::vector<double> Stepper::StepMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return step_ms_;
}

void Stepper::Loop() {
  PinThisThread(cpus_);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_) return;
      pending_ = 0;  // requests that piled up during a step coalesce
    }
    bool traced = tracer_ != nullptr && tracer_->enabled();
    int64_t s0 = traced ? tracer_->Now() : 0;
    Clock::time_point t0 = Clock::now();
    engine_->AdaptiveStep();
    double ms = MsBetween(t0, Clock::now());
    if (traced) {
      spans_.push_back(
          Span{tracer_->NewTraceId(), 1, 0, "adaptive_step", s0,
               tracer_->Now()});
    }
    std::lock_guard<std::mutex> lock(mu_);
    step_ms_.push_back(ms);
  }
}

// ---------------------------------------------------------------------------
// Closed loop

namespace {

struct InFlight {
  std::future<Result<SearchResult>> future;
  uint32_t entry = 0;
  Clock::time_point due;
};

std::future<Result<SearchResult>> Submit(csr::QueryExecutor& exec,
                                          const Pool& pool, uint32_t entry) {
  const PoolEntry& e = pool.entries[entry];
  return exec.SubmitSearch(e.query, e.mode);
}

double SecondsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now()) / 1000.0;
}

bool IsReady(const InFlight& f) {
  return f.future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until any query in flight completes or `wake` passes. The load
/// generator never sleeps in a timed phase: on a virtualized host a
/// sleeping thread wakes late by a varying amount (0.25 ms on average for
/// the open loop's arrivals, most of a small query's latency), and that
/// delay would be measured as the engine's.
void WaitForAny(const std::vector<InFlight>& inflight,
                Clock::time_point wake) {
  for (;;) {
    for (const InFlight& f : inflight) {
      if (IsReady(f)) return;
    }
    if (Clock::now() >= wake) return;
    CpuRelax();
  }
}

/// Removes every completed query from `inflight` (keeping submission
/// order) and hands it to `done`.
template <typename Fn>
void HarvestReady(std::vector<InFlight>& inflight, Fn&& done) {
  size_t kept = 0;
  for (size_t i = 0; i < inflight.size(); ++i) {
    if (IsReady(inflight[i])) {
      done(inflight[i]);
    } else {
      if (kept != i) inflight[kept] = std::move(inflight[i]);
      kept++;
    }
  }
  inflight.resize(kept);
}

/// One closed-loop round (see RunClosedLoop); the fractional counts are
/// rounded by largest remainder.
std::vector<uint32_t> RoundDeck(const Pool& pool, uint32_t shift) {
  const size_t groups = pool.groups.size();
  std::vector<std::pair<double, uint32_t>> weights;  // (probability, entry)
  double least = 1;
  for (size_t rank = 0; rank < groups; ++rank) {
    const std::vector<uint32_t>& members = pool.groups[(rank + shift) % groups];
    const double p = pool.zipf->pmf(rank) / members.size();
    for (uint32_t e : members) weights.emplace_back(p, e);
    least = std::min(least, p);
  }
  const size_t size = static_cast<size_t>(std::ceil(1 / least - 1e-9));
  std::vector<uint32_t> deck;
  std::vector<std::pair<double, uint32_t>> remainders;  // (fraction, entry)
  for (const auto& [p, e] : weights) {
    const double each = size * p;
    const size_t whole = static_cast<size_t>(each);
    deck.insert(deck.end(), whole, e);
    remainders.emplace_back(each - whole, e);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; deck.size() < size && i < remainders.size(); ++i) {
    deck.push_back(remainders[i].second);
  }
  return deck;
}

}  // namespace

ClosedLoopResult RunClosedLoop(csr::QueryExecutor& exec, const Pool& pool,
                               uint64_t seed, double seconds,
                               uint32_t outstanding, uint32_t shift,
                               const Checker& check, Stepper* stepper) {
  csr::SplitMix64 rng(seed);
  const std::vector<uint32_t> deck = RoundDeck(pool, shift);
  std::vector<uint32_t> round;  // the round being submitted, shuffled
  size_t next = 0;
  std::vector<InFlight> inflight;
  ClosedLoopResult out;
  out.round_size = deck.size();
  uint64_t done_in_round = 0;
  Clock::time_point t0 = Clock::now();
  Clock::time_point round_start = t0;
  double elapsed = 0;
  for (;;) {
    while (inflight.size() < outstanding) {
      if (next == round.size()) {
        round = deck;
        csr::Shuffle(round, rng);
        next = 0;
      }
      uint32_t e = round[next++];
      inflight.push_back(InFlight{Submit(exec, pool, e), e, {}});
    }
    WaitForAny(inflight, Clock::time_point::max());
    HarvestReady(inflight, [&](InFlight& f) {
      Result<SearchResult> r = f.future.get();
      out.attempted++;
      out.completed++;
      if (!check(f.entry, r)) out.failed++;
      if (stepper != nullptr) stepper->Note(1);
      if (++done_in_round == deck.size()) {
        Clock::time_point now = Clock::now();
        out.round_seconds.push_back(MsBetween(round_start, now) / 1000.0);
        round_start = now;
        done_in_round = 0;
      }
    });
    elapsed = SecondsSince(t0);
    if (elapsed >= seconds) break;
  }
  out.seconds = elapsed;
  // The queries still in flight are checked but not counted as throughput.
  for (InFlight& f : inflight) {
    out.attempted++;
    if (!check(f.entry, f.future.get())) out.failed++;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Open loop

OpenLoopResult RunOpenLoop(csr::QueryExecutor& exec, const Pool& pool,
                           uint64_t seed, double rate, double seconds,
                           double limit_ms,
                           uint32_t shift_a, uint32_t shift_b,
                           const Checker& check, Stepper* stepper) {
  csr::SplitMix64 rng(seed);
  auto next_gap = [&] {
    double u = rng.NextDouble();
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log1p(-u) / rate));
  };

  OpenLoopResult out;
  std::vector<InFlight> inflight;
  double lateness_sum = 0;
  Clock::time_point t0 = Clock::now();
  Clock::time_point end = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  Clock::time_point next_due = t0 + next_gap();
  bool submitting = true;

  auto harvest = [&](InFlight& f, Clock::time_point now) {
    Result<SearchResult> r = f.future.get();
    if (stepper != nullptr) stepper->Note(1);
    if (!r.ok() &&
        (r.status().code() == csr::StatusCode::kResourceExhausted ||
         r.status().code() == csr::StatusCode::kDeadlineExceeded)) {
      out.rejected++;
      return;
    }
    if (!check(f.entry, r)) {
      out.failed++;
      return;
    }
    double ms = MsBetween(f.due, now);
    out.latency_ms.push_back(ms);
    out.service_ms.push_back(r->metrics.total_ms);
    if (ms > limit_ms) out.over_limit++;
  };

  for (;;) {
    Clock::time_point now = Clock::now();
    HarvestReady(inflight, [&](InFlight& f) { harvest(f, now); });
    if (submitting && next_due >= end) submitting = false;
    if (submitting && now >= next_due) {
      bool first_half = next_due < t0 + (end - t0) / 2;
      uint32_t e = pool.Draw(rng, first_half ? shift_a : shift_b);
      double late = MsBetween(next_due, now);
      lateness_sum += late;
      out.lateness_max_ms = std::max(out.lateness_max_ms, late);
      inflight.push_back(InFlight{Submit(exec, pool, e), e, next_due});
      out.attempted++;
      next_due += next_gap();
      continue;
    }
    if (!submitting && inflight.empty()) break;
    Clock::time_point wake =
        submitting ? next_due : now + std::chrono::hours(1);
    WaitForAny(inflight, wake);
  }
  out.seconds = SecondsSince(t0);
  out.lateness_mean_ms = out.attempted == 0 ? 0 : lateness_sum / out.attempted;
  return out;
}

// ---------------------------------------------------------------------------
// Traced phased loop

PhasedResult RunPhasedLoop(const csr::ContextSearchEngine& engine,
                           const Pool& pool, uint64_t seed, double seconds,
                           uint32_t threads, uint32_t shift,
                           const Checker& check, Tracer* tracer,
                           Stepper* stepper, const std::vector<int>& cpus) {
  struct PerThread {
    LayerCounters counters;
    uint64_t failed = 0;
    uint64_t traced_done = 0;
    uint64_t untraced_done = 0;
    std::vector<Span> spans;
  };
  std::vector<PerThread> per(threads);
  std::mutex check_mu;  // Checker is called from one thread at a time
  Clock::time_point t0 = Clock::now();
  const double quarter = seconds / 4;

  auto body = [&](uint32_t t) {
    if (!cpus.empty()) PinThisThread({cpus[t % cpus.size()]});
    PerThread& me = per[t];
    csr::SplitMix64 rng(seed + 0x9E3779B97F4A7C15ULL * (t + 1));
    for (;;) {
      double elapsed = SecondsSince(t0);
      if (elapsed >= seconds) break;
      int q = static_cast<int>(elapsed / quarter);
      bool traced = tracer->enabled() && (q == 1 || q == 2);
      uint32_t e = pool.Draw(rng, shift);
      const PoolEntry& entry = pool.entries[e];

      int64_t ts[5] = {0, 0, 0, 0, 0};
      auto stamp = [&](int i) {
        if (traced) ts[i] = tracer->Now();
      };
      stamp(0);
      auto ps = engine.BeginSearch(entry.query, entry.mode);
      stamp(1);
      Result<SearchResult> r = csr::Status::Internal("not run");
      if (!ps.ok()) {
        r = ps.status();
      } else {
        me.counters.parts_max =
            std::max<uint64_t>(me.counters.parts_max, (*ps)->parts.size());
        csr::Status st = engine.SearchStats(**ps);
        stamp(2);
        if (st.ok()) st = engine.SearchIntersect(**ps);
        stamp(3);
        r = st.ok() ? engine.FinishSearch(**ps) : Result<SearchResult>(st);
        stamp(4);
      }
      if (traced && ps.ok()) {
        uint64_t id = tracer->NewTraceId();
        me.spans.push_back(Span{id, 1, 0, "query", ts[0], ts[4]});
        me.spans.push_back(Span{id, 2, 1, "begin", ts[0], ts[1]});
        me.spans.push_back(Span{id, 3, 1, "stats", ts[1], ts[2]});
        me.spans.push_back(Span{id, 4, 1, "intersect", ts[2], ts[3]});
        me.spans.push_back(Span{id, 5, 1, "finish", ts[3], ts[4]});
      }
      (traced ? me.traced_done : me.untraced_done)++;
      {
        std::lock_guard<std::mutex> lock(check_mu);
        if (!check(e, r)) me.failed++;
      }
      if (stepper != nullptr) stepper->Note(1);
      if (!r.ok()) continue;
      LayerCounters& c = me.counters;
      const csr::SearchMetrics& m = r->metrics;
      c.queries++;
      if (entry.mode != EvaluationMode::kConventional) {
        c.context_queries++;
        if (m.used_view) c.view_queries++;
      }
      c.view_tuples += m.view_tuples_scanned;
      c.uncovered_kw += m.keywords_uncovered_by_view;
      c.results += r->result_count;
      c.cost += m.cost;
    }
  };
  std::vector<std::thread> pool_threads;
  for (uint32_t t = 0; t < threads; ++t) pool_threads.emplace_back(body, t);
  for (std::thread& th : pool_threads) th.join();

  PhasedResult out;
  uint64_t traced_done = 0, untraced_done = 0;
  for (PerThread& p : per) {
    LayerCounters& c = out.counters;
    c.queries += p.counters.queries;
    c.context_queries += p.counters.context_queries;
    c.view_queries += p.counters.view_queries;
    c.view_tuples += p.counters.view_tuples;
    c.uncovered_kw += p.counters.uncovered_kw;
    c.results += p.counters.results;
    c.cost += p.counters.cost;
    c.parts_max = std::max(c.parts_max, p.counters.parts_max);
    out.failed += p.failed;
    traced_done += p.traced_done;
    untraced_done += p.untraced_done;
    tracer->Merge(std::move(p.spans));
  }
  out.attempted = traced_done + untraced_done;
  out.qps_traced = traced_done / (2 * quarter);
  out.qps_untraced = untraced_done / (2 * quarter);
  return out;
}

}  // namespace perfbench
