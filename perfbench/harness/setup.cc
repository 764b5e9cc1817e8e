// Engine set-up, pools, reference answers and output checks.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sched.h>

#include "harness/harness.h"

namespace perfbench {

using csr::ContextSearchEngine;
using csr::EvaluationMode;

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SmoothedPercentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double q = p / 100.0;
  const double center = q * (n - 1);
  const double half = std::sqrt(n * q * (1 - q));
  size_t lo = static_cast<size_t>(std::max(0.0, std::floor(center - half)));
  size_t hi = static_cast<size_t>(std::min(n - 1, std::ceil(center + half)));
  double sum = 0;
  for (size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

std::vector<double> WindowPercentiles(const std::vector<double>& v, double p,
                                      size_t windows) {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(1, v.size()));
  std::vector<double> out;
  for (size_t w = 0; w < windows; ++w) {
    auto first = v.begin() + static_cast<ptrdiff_t>(v.size() * w / windows);
    auto last =
        v.begin() + static_cast<ptrdiff_t>(v.size() * (w + 1) / windows);
    out.push_back(SmoothedPercentile({first, last}, p));
  }
  return out;
}

CpuPlan PlanCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return {};
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) allowed.push_back(c);
  }
  size_t n = allowed.size();
  if (n < 4) return {};
  return CpuPlan{{allowed[n - 2], allowed[n - 1]}, {allowed[n - 3]},
                 {allowed[n - 4]}};
}

void PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    Die("sched_setaffinity failed");
  }
}

std::vector<int> ThreadIds() {
  std::vector<int> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    out.push_back(std::atoi(entry.path().filename().c_str()));
  }
  if (ec) Die("cannot list /proc/self/task: " + ec.message());
  std::sort(out.begin(), out.end());
  return out;
}

size_t PinNewThreads(const std::vector<int>& before,
                     const std::vector<int>& cpus) {
  if (cpus.empty()) return 0;
  size_t pinned = 0;
  for (int tid : ThreadIds()) {
    if (std::binary_search(before.begin(), before.end(), tid)) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[pinned % cpus.size()], &set);
    if (sched_setaffinity(tid, sizeof(set), &set) != 0) {
      Die("sched_setaffinity failed for thread " + std::to_string(tid));
    }
    pinned++;
  }
  return pinned;
}

static csr::CorpusConfig CorpusConfigFor(uint64_t seed, uint32_t num_docs) {
  csr::CorpusConfig cfg;  // generator defaults: 684 concepts, 20k terms
  cfg.seed = seed;
  cfg.num_docs = num_docs;
  return cfg;
}

csr::Corpus GenerateCorpus(uint64_t seed, uint32_t num_docs,
                           double* gen_seconds) {
  Clock::time_point t0 = Clock::now();
  auto r = csr::CorpusGenerator(CorpusConfigFor(seed, num_docs)).Generate();
  if (!r.ok()) Die("corpus generation failed: " + r.status().ToString());
  *gen_seconds = MsBetween(t0, Clock::now()) / 1000.0;
  return std::move(r).value();
}

std::vector<csr::Document> GenerateAppendDocs(uint64_t seed,
                                              uint32_t num_docs) {
  auto r = csr::CorpusGenerator(CorpusConfigFor(seed, num_docs)).Generate();
  if (!r.ok()) Die("append-doc generation failed: " + r.status().ToString());
  return std::move(r).value().docs;
}

SetupResult SetupEngine(const csr::Corpus& corpus,
                        const csr::EngineConfig& config, int reps) {
  SetupResult out;
  for (int rep = 0; rep < reps; ++rep) {
    out.engine.reset();  // one engine alive at a time
    csr::Corpus copy = corpus;
    Clock::time_point t0 = Clock::now();
    auto built = ContextSearchEngine::Build(std::move(copy), config);
    Clock::time_point t1 = Clock::now();
    if (!built.ok()) Die("engine build failed: " + built.status().ToString());
    out.engine = std::move(built).value();
    if (csr::Status s = out.engine->SelectAndMaterializeViews(); !s.ok()) {
      Die("view selection failed: " + s.ToString());
    }
    Clock::time_point t2 = Clock::now();
    out.build_s.push_back(MsBetween(t0, t1) / 1000.0);
    out.select_s.push_back(MsBetween(t1, t2) / 1000.0);
    out.total_s.push_back(MsBetween(t0, t2) / 1000.0);
  }
  return out;
}

double ResidentMb(const ContextSearchEngine& engine) {
  uint64_t bytes = 0;
  for (const csr::SegmentInfo& info : engine.SegmentInfos()) {
    bytes += info.memory_bytes;  // base indexes, then each extra's indexes
  }
  for (size_t i = 0; i < engine.catalog().size(); ++i) {
    bytes += engine.catalog().view(i).MemoryBytes();
  }
  for (const auto& extra : engine.LiveSnapshot()->extras) {
    for (const csr::MaterializedView& delta : extra->view_deltas) {
      bytes += delta.MemoryBytes();
    }
  }
  if (engine.adaptive() != nullptr) {
    bytes += engine.adaptive()->Snapshot()->resident_bytes;
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

uint32_t Pool::Draw(csr::SplitMix64& rng, uint32_t shift) const {
  size_t g = (zipf->Sample(rng) + shift) % groups.size();
  const std::vector<uint32_t>& members = groups[g];
  return members[members.size() == 1 ? 0 : rng.NextBounded(members.size())];
}

void FinishPool(Pool& pool, double s) {
  if (pool.groups.empty()) Die("empty query pool");
  pool.zipf = std::make_unique<csr::ZipfDistribution>(pool.groups.size(), s);
}

static EvaluationMode ReferenceMode(EvaluationMode mode) {
  return mode == EvaluationMode::kConventional
             ? EvaluationMode::kConventional
             : EvaluationMode::kContextStraightforward;
}

std::vector<Reference> ComputeReferences(const ContextSearchEngine& engine,
                                         const Pool& pool) {
  std::vector<Reference> refs;
  refs.reserve(pool.entries.size());
  for (const PoolEntry& e : pool.entries) {
    auto r = engine.Search(e.query, ReferenceMode(e.mode));
    if (!r.ok()) Die("reference query failed: " + r.status().ToString());
    if (r->metrics.degraded) {
      Die("reference query degraded: " + r->metrics.degraded_reason);
    }
    refs.push_back(Reference{r->result_count, r->top_docs});
  }
  return refs;
}

std::string CheckAgainst(const csr::Result<csr::SearchResult>& r,
                         const Reference& ref) {
  if (!r.ok()) return "status " + r.status().ToString();
  if (r->metrics.degraded) return "degraded: " + r->metrics.degraded_reason;
  if (r->result_count != ref.result_count) {
    return "result_count " + std::to_string(r->result_count) + " != " +
           std::to_string(ref.result_count);
  }
  if (r->top_docs.size() != ref.top.size()) return "top-k length differs";
  for (size_t i = 0; i < ref.top.size(); ++i) {
    if (r->top_docs[i].doc != ref.top[i].doc ||
        std::bit_cast<uint64_t>(r->top_docs[i].score) !=
            std::bit_cast<uint64_t>(ref.top[i].score)) {
      return "top-k differs at rank " + std::to_string(i);
    }
  }
  return {};
}

std::string CheckWellFormed(const csr::Result<csr::SearchResult>& r,
                            uint32_t top_k) {
  if (!r.ok()) return "status " + r.status().ToString();
  if (r->metrics.degraded) return "degraded: " + r->metrics.degraded_reason;
  const auto& top = r->top_docs;
  if (top.size() != std::min<uint64_t>(top_k, r->result_count)) {
    return "top-k length does not match result_count";
  }
  for (size_t i = 1; i < top.size(); ++i) {
    bool ordered = top[i - 1].score > top[i].score ||
                   (top[i - 1].score == top[i].score &&
                    top[i - 1].doc < top[i].doc);
    if (!ordered) return "top-k out of order at rank " + std::to_string(i);
  }
  return {};
}

}  // namespace perfbench
