// Result aggregation and JSON reporting for fleet runs.
//
// The "records" array of a report is the canonical, deterministic part:
// one canonical_record() line per job, ordered by job id. Wall-clock,
// thread count and per-job timing live in a separate "timing" section that
// canonical mode omits, so `sealpk-fleet diff` (and the determinism tests)
// can compare reports from different thread counts byte-for-byte.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fleet/job.h"

namespace sealpk::fleet {

// Cross-job totals (sums over every result).
struct Aggregate {
  u64 jobs = 0;
  u64 ok = 0;
  u64 failures = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  u64 faults_injected = 0;
  u64 recoveries = 0;
  u64 kills = 0;  // machine-check + watchdog
  u64 checkpoints = 0;
  u64 rollbacks = 0;
  double wall_ms_sum = 0.0;  // total cpu-side work (not elapsed)
};

Aggregate aggregate(const std::vector<JobResult>& results);

// The Figure-5 variants, in legend order.
inline constexpr passes::ShadowStackKind kFig5Variants[] = {
    passes::ShadowStackKind::kInline,     passes::ShadowStackKind::kFunc,
    passes::ShadowStackKind::kSealPkWr,   passes::ShadowStackKind::kSealPkRdWr,
    passes::ShadowStackKind::kMprotect,
};

// The Figure-5 matrix: for every workload, its kNone baseline job followed
// by one job per kFig5Variants entry, ids dense from 0. `scale` overrides
// each workload's bench_scale.
std::vector<JobSpec> fig5_specs(std::optional<u64> scale = std::nullopt);

// Cycle overhead of `variant` over `baseline`, in percent.
double overhead_pct(const JobResult& variant, const JobResult& baseline);

// Geometric mean of per-workload overhead (percent, vs the kNone baseline
// job for the same workload among `results`) across the suite. Overheads
// below 0.01% are clamped to it, so a single near-zero bar cannot zero the
// mean (the paper's log-scale plot has the same floor). Only pairs whose
// variant and baseline jobs both completed (ok) count. Returns a negative
// value when the suite has no such pair, so callers can skip rather than
// divide by nothing.
double gmean_overhead(const std::vector<JobResult>& results, wl::Suite suite,
                      passes::ShadowStackKind ss, bool perm_seal = false);

// The paper's headline: the geomean over the three suites of (mprotect
// gmean overhead / SealPK-RD+WR gmean overhead), "~88x faster". Negative
// when a suite lacks either gmean.
double mprotect_speedup(const std::vector<JobResult>& results);

struct ReportOptions {
  unsigned threads = 1;
  double elapsed_ms = 0.0;
  // Canonical mode drops the "timing" section (the only scheduling-
  // dependent bytes), making whole reports comparable across thread counts.
  bool canonical = false;
};

void write_report(std::ostream& os, const std::vector<JobResult>& results,
                  const ReportOptions& opts);

// One entry of the instrumentation axis as the CLI spells it (the table
// itself lives with the CLI; callers pass it in).
struct MatrixVariant {
  std::string name;
  passes::ShadowStackKind ss = passes::ShadowStackKind::kNone;
  bool perm_seal = false;
};

// Machine-readable workload x variant matrix ("sealpk-fleet-matrix-v1"):
// every Figure-5 workload, every variant, and the full cell cross product
// — so the SLO gate and CI asserts can enumerate cells without scraping
// `sealpk-fleet list` text. Deterministic (list order x table order).
void write_matrix_json(std::ostream& os,
                       const std::vector<MatrixVariant>& variants);

// Compares the canonical "records" arrays of two report texts. Returns the
// number of diverging records (0 = byte-identical record sets); mismatch
// details go to `log`.
size_t diff_reports(const std::string& a_text, const std::string& b_text,
                    std::ostream& log);

// Machine-readable form of a diff_reports outcome, for `sealpk-fleet diff
// --json=...`. The JSON carries the verdict only; the process exit code
// must signal divergence identically in both output modes (the CLI
// regression in tests/test_fleet.cpp pins that contract).
void write_diff_report(std::ostream& os, const std::string& a_name,
                       const std::string& b_name, size_t diverging,
                       const std::string& log_text);

}  // namespace sealpk::fleet
