// Reproduces Figure 7: execution time for LARGE-context queries (context
// size >= T_C), varying the number of keywords from 2 to 5. Three series:
//
//   conventional          Q_t = Q_k ∪ P   (global stats, P is a filter)
//   Q_c with views        context stats from materialized views
//   Q_c without views     context stats by the straightforward plan
//
// Paper shape: with-views ≈ 2x conventional; without-views is far slower;
// absolute with-views time stays bounded (~100 ms at PubMed scale).
//
// `--json <path>` also writes the per-keyword-count means of the
// statistics phase (SearchMetrics::stats_ms) and of the whole query for
// each series, with the host's nproc and SIMD dispatch level
// (BENCH_fig7.json). check_bench_regression.py --fig7-bench gates the
// paper's shape on it as same-run ratios.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "eval/query_gen.h"
#include "index/simd_unpack.h"

int main(int argc, char** argv) {
  using namespace csr;
  std::string json_path = bench::TakeJsonFlag(&argc, argv);
  uint32_t num_docs = bench::BenchNumDocs();
  auto engine = bench::BuildBenchEngine(num_docs);
  uint64_t t_c = engine->context_threshold();

  const uint32_t kQueriesPerPoint = 50;
  const int kRepeats = 5;

  std::printf("=== Figure 7: execution time, large-context queries "
              "(context >= T_C = %llu docs; %u queries/point, mean of "
              "per-query best-of-%d) ===\n\n",
              static_cast<unsigned long long>(t_c), kQueriesPerPoint,
              kRepeats);
  std::printf("%-10s %14s %16s %18s %12s %14s %16s\n", "#keywords",
              "conv (ms)", "Qc+views (ms)", "Qc-no-views (ms)", "view hit%",
              "views stats", "no-views stats");

  bench::JsonWriter j;
  j.Open();
  j.OpenObject("fig7");
  j.Field("nproc",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  j.Field("dispatch_level",
          std::string(UnpackLevelName(ActiveUnpackLevel())));
  j.Field("num_docs", static_cast<uint64_t>(num_docs));
  j.Field("context_threshold", t_c);
  j.OpenObject("keywords");

  // The three plans, in the order they run per query.
  const EvaluationMode kModes[] = {EvaluationMode::kConventional,
                                   EvaluationMode::kContextWithViews,
                                   EvaluationMode::kContextStraightforward};
  const char* kSeries[] = {"conventional", "views", "straightforward"};

  for (uint32_t nk = 2; nk <= 5; ++nk) {
    WorkloadGenerator gen(engine.get(), 1000 + nk);
    gen.set_lift_to_roots(true);  // broad contexts, as in the experiment
    auto queries = gen.Generate(kQueriesPerPoint, nk, t_c, 0, 200000);
    if (queries.empty()) {
      std::printf("%-10u  (no qualifying queries generated)\n", nk);
      continue;
    }

    // Per series: summed per-query best-of-kRepeats total and stats-phase
    // time. Nothing persistent warms between runs (all in-memory, no
    // stats cache), so repeats only shed timer and scheduler noise.
    double total_ms[3] = {0, 0, 0};
    double stats_ms[3] = {0, 0, 0};
    uint32_t view_hits = 0;
    for (const auto& wq : queries) {
      double total[3] = {1e300, 1e300, 1e300};
      double stats[3] = {1e300, 1e300, 1e300};
      for (int rep = 0; rep < kRepeats; ++rep) {
        Result<SearchResult> r[3] = {engine->Search(wq.query, kModes[0]),
                                     engine->Search(wq.query, kModes[1]),
                                     engine->Search(wq.query, kModes[2])};
        if (!r[0].ok() || !r[1].ok() || !r[2].ok()) continue;
        for (int s = 0; s < 3; ++s) {
          total[s] = std::min(total[s], r[s]->metrics.total_ms);
          stats[s] = std::min(stats[s], r[s]->metrics.stats_ms);
        }
        if (rep == 0 && r[1]->metrics.used_view) ++view_hits;
      }
      for (int s = 0; s < 3; ++s) {
        total_ms[s] += total[s];
        stats_ms[s] += stats[s];
      }
    }
    double n = static_cast<double>(queries.size());
    std::printf("%-10u %14.3f %16.3f %18.3f %11.0f%% %14.4f %16.4f\n", nk,
                total_ms[0] / n, total_ms[1] / n, total_ms[2] / n,
                100.0 * view_hits / n, stats_ms[1] / n, stats_ms[2] / n);

    j.OpenObject(std::to_string(nk));
    j.Field("queries", static_cast<uint64_t>(queries.size()));
    j.Field("view_hit_frac", view_hits / n);
    for (int s = 0; s < 3; ++s) {
      j.OpenObject(kSeries[s]);
      j.Field("total_ms", total_ms[s] / n);
      j.Field("stats_ms", stats_ms[s] / n);
      j.CloseObject();
    }
    j.CloseObject();
  }
  j.CloseObject();
  j.CloseObject();
  j.Close();

  std::printf("\nExpected shape: Qc-without-views >> Qc-with-views, and "
              "Qc-with-views within a small factor of conventional.\n");
  if (!json_path.empty()) {
    if (Status s = j.WriteFile(json_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
