// Figure 5 reproduction: performance overhead of the five shadow-stack
// implementations (Inline, Func, SealPK-WR, SealPK-RD+WR, mprotect) vs. the
// uninstrumented baseline, for 6 SPECint2000 + 4 SPECint2006 + 7 MiBench
// proxies, with per-suite geometric means and the paper's "~88x" headline
// ratio.
//
// Usage: bench_fig5_shadowstack [--scale=N] [--threads=N] [--quiet] [--mix]
//                               [--csv]
//   --scale=N   override every workload's bench scale (smaller = faster)
//   --threads=N worker-pool size for the cell matrix (default 1 = serial;
//               0 = one per host hardware thread). Results are
//               bit-identical for any value: cells run on private machines
//               via the fleet batch engine (src/fleet).
//   --quiet     suppress per-cell progress on stderr
//   --mix       also print each workload's call rate and resident set —
//               the two properties that drive its Figure-5 bars
//   --csv       emit a machine-readable CSV of the matrix on stdout
//               (suite,benchmark,variant,overhead_pct) after the tables
#include <cstdio>
#include <iterator>
#include <optional>

#include "cli.h"
#include "fleet/engine.h"
#include "fleet/report.h"

using namespace sealpk;

namespace {

constexpr size_t kCells = 1 + std::size(fleet::kFig5Variants);

void print_suite(const std::vector<fleet::JobResult>& results,
                 wl::Suite suite) {
  std::printf("\n--- %s ---\n", wl::suite_name(suite));
  std::printf("%-14s %12s %9s %9s %9s %12s %12s\n", "benchmark",
              "base cycles", "Inline", "Func", "SealPK-WR", "SealPK-RD+WR",
              "mprotect");
  // Each row: the baseline cell, then the variants in legend order.
  for (size_t i = 0; i < results.size(); i += kCells) {
    const fleet::JobResult* row = &results[i];
    if (row->workload->suite != suite) continue;
    std::printf("%-14s %12llu", row->workload->name,
                static_cast<unsigned long long>(row->cycles));
    for (size_t v = 1; v < kCells; ++v) {
      std::printf(v >= 4 ? " %11.2f%%" : " %8.2f%%",
                  fleet::overhead_pct(row[v], row[0]));
    }
    std::printf("\n");
  }
  std::printf("%-14s %12s", "GMean", "");
  for (size_t v = 0; v < std::size(fleet::kFig5Variants); ++v) {
    const double g =
        fleet::gmean_overhead(results, suite, fleet::kFig5Variants[v]);
    std::printf(v >= 3 ? " %11.2f%%" : " %8.2f%%", g);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<u64> scale;
  bool quiet = false;
  bool mix = false;
  bool csv = false;
  fleet::FleetOptions opts;
  for (cli::Args a("bench_fig5_shadowstack", argc, argv); a.next();) {
    u64 s = 0;
    if (a.value("--scale", &s)) {
      scale = s;
    } else if (!a.value("--threads", &opts.threads) &&
               !a.flag("--quiet", &quiet) && !a.flag("--mix", &mix) &&
               !a.flag("--csv", &csv)) {
      a.reject();
    }
  }

  std::printf(
      "Figure 5: shadow-stack performance overhead vs. uninstrumented "
      "baseline\n(simulated Rocket-class hart; every cell checksum-verified "
      "against the golden model)\n");
  if (!quiet) {
    opts.on_done = [](const fleet::JobResult& r) {
      std::fprintf(stderr, "  %s %s: %s\n", r.label.c_str(),
                   passes::shadow_stack_kind_name(r.ss), r.verdict.c_str());
    };
  }
  fleet::ImageCache cache;
  const std::vector<fleet::JobResult> results =
      fleet::run_jobs(fleet::fig5_specs(scale), cache, opts);
  // A failed cell (checksum mismatch, non-zero exit, timeout) fails the
  // run instead of skewing the figure.
  bool failed = false;
  for (const fleet::JobResult& r : results) {
    if (r.ok) continue;
    std::fprintf(stderr, "bench_fig5_shadowstack: %s: %s\n", r.label.c_str(),
                 r.verdict.c_str());
    failed = true;
  }
  if (failed) return 1;

  print_suite(results, wl::Suite::kSpec2000);
  print_suite(results, wl::Suite::kSpec2006);
  print_suite(results, wl::Suite::kMiBench);

  std::printf("\nPaper targets (GMean): SPECint2000 mprotect 2875.62%% / "
              "SealPK-RD+WR 21.00%%\n");
  std::printf("                       SPECint2006 mprotect 1982.70%% / "
              "SealPK-RD+WR 14.81%%\n");
  std::printf("                       MiBench     mprotect  320.21%% / "
              "SealPK-RD+WR  8.52%%\n");
  std::printf(
      "\nIsolated shadow stack via SealPK is ~%.0fx faster than via "
      "mprotect\n(geomean of per-suite overhead ratios; paper reports "
      "~88x)\n",
      fleet::mprotect_speedup(results));

  if (csv) {
    std::printf("\nsuite,benchmark,variant,overhead_pct\n");
    for (size_t i = 0; i < results.size(); i += kCells) {
      for (size_t v = 1; v < kCells; ++v) {
        std::printf("%s,%s,%s,%.4f\n",
                    wl::suite_name(results[i].workload->suite),
                    results[i].workload->name,
                    passes::shadow_stack_kind_name(results[i + v].ss),
                    fleet::overhead_pct(results[i + v], results[i]));
      }
    }
  }

  if (mix) {
    std::printf(
        "\nWorkload mix (baseline runs): calls/kilocycle drives the "
        "SealPK bars,\nresident pages drive the mprotect bars "
        "(EXPERIMENTS.md, calibration)\n");
    std::printf("%-14s %-13s %14s %16s %12s\n", "benchmark", "suite",
                "instructions", "calls/kcycle", "RSS pages");
    for (size_t i = 0; i < results.size(); i += kCells) {
      const fleet::JobResult& base = results[i];
      const double rate = 1000.0 * static_cast<double>(base.calls) /
                          static_cast<double>(base.cycles);
      std::printf("%-14s %-13s %14llu %16.2f %12llu\n", base.workload->name,
                  wl::suite_name(base.workload->suite),
                  static_cast<unsigned long long>(base.instructions), rate,
                  static_cast<unsigned long long>(base.pages_mapped));
    }
  }
  return 0;
}
