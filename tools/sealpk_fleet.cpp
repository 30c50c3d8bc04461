// sealpk-fleet — parallel batch-execution driver for the workload matrix.
//
// A fixed-size worker pool drains the (workload x instrumentation-variant)
// job matrix; each worker owns a private Machine per job, linked images are
// built once per (workload, variant, scale) in a shared read-only cache,
// and per-job records are byte-identical for any --threads value (the
// determinism contract of src/fleet). Modes:
//
//   sweep                 run the matrix (default: all 17 workloads x all 7
//                         variants = 119 jobs, at each workload's bench
//                         scale); filter with --workloads / --variants
//   run <workload>...     run the named workloads (same engine/filters)
//   diff <a.json> <b.json> compare the canonical records of two reports;
//                         exit 1 when any record differs
//   list                  print workloads and variant names
//
// --chaos turns every job into the clean-vs-fault differential oracle of
// sealpk-chaos (two machines per job, fault plan from the --chaos-* flags).
// --json writes the aggregated report; with --canonical the scheduling-
// dependent "timing" section is omitted so reports from different thread
// counts are byte-comparable (that is what `diff` checks). --selfcheck runs
// the matrix twice — serial and with --threads workers — and fails unless
// every record matches.
//
// Exit status: 0 all jobs ok, 1 job failures / record divergence, 2 usage
// or I/O error.
//
// Usage:
//   sealpk-fleet sweep --threads=8 --scale=1 --json=BENCH_fleet.json
//   sealpk-fleet sweep --variants='sealpk-*' --workloads='MiBench/*'
//   sealpk-fleet run qsort sha --variants=none,mprotect --threads=4
//   sealpk-fleet sweep --chaos --chaos-seed=7 --chaos-rate=2e-5 --threads=0
//   sealpk-fleet sweep --scale=1 --threads=4 --selfcheck
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "fleet/engine.h"
#include "fleet/report.h"

using namespace sealpk;

namespace {

struct VariantDef {
  const char* name;
  passes::ShadowStackKind ss;
  bool perm_seal;
};

// The 7-variant instrumentation axis of the evaluation matrix ("sealed" =
// sealpk-wr with the WRPKR permission-seal applied).
constexpr VariantDef kVariants[] = {
    {"none", passes::ShadowStackKind::kNone, false},
    {"inline", passes::ShadowStackKind::kInline, false},
    {"func", passes::ShadowStackKind::kFunc, false},
    {"sealpk-wr", passes::ShadowStackKind::kSealPkWr, false},
    {"sealpk-rdwr", passes::ShadowStackKind::kSealPkRdWr, false},
    {"mprotect", passes::ShadowStackKind::kMprotect, false},
    {"sealed", passes::ShadowStackKind::kSealPkWr, true},
};

struct CliOptions {
  std::string mode;
  std::vector<std::string> names;       // run mode positional workloads
  std::vector<std::string> workloads;   // --workloads= globs
  std::vector<std::string> variants;    // --variants= globs
  unsigned threads = 1;
  u64 scale = 0;  // 0 = per-workload bench_scale
  u64 budget = 8'000'000'000ULL;
  bool chaos = false;
  bool trace = false;       // --trace: per-job event recording + metrics
  u64 trace_ring = 4096;    // ring capture keeps fleet memory bounded
  bool quiet = false;
  bool canonical = false;
  bool selfcheck = false;
  bool json = false;  // bare --json: machine-readable output on stdout
  std::string json_path;
  // chaos plan / robustness knobs (only consulted with --chaos)
  fault::FaultPlan plan;
  bool rollback = false;
  bool no_pkr_save = false;
  u64 ckpt_interval = 0;
  u64 max_rollbacks = 3;
};

// Minimal glob: '*' any run, '?' any char; everything else literal.
bool glob_match(const char* pat, const char* text) {
  if (*pat == '\0') return *text == '\0';
  if (*pat == '*') {
    for (const char* t = text;; ++t) {
      if (glob_match(pat + 1, t)) return true;
      if (*t == '\0') return false;
    }
  }
  if (*text == '\0') return false;
  if (*pat != '?' && *pat != *text) return false;
  return glob_match(pat + 1, text + 1);
}

bool any_glob(const std::vector<std::string>& pats, const std::string& text) {
  for (const auto& p : pats) {
    if (glob_match(p.c_str(), text.c_str())) return true;
  }
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-fleet <sweep | run <workload>... | diff <a> <b> | "
      "list>\n"
      "       [--threads=<n>] [--scale=<n>] [--budget=<n>] [-q]\n"
      "       [--workloads=<glob,...>] [--variants=<glob,...>]\n"
      "       [--json=<path>] [--canonical] [--selfcheck]\n"
      "       [--chaos] [--chaos-seed=<n>] [--chaos-rate=<p>]\n"
      "       [--cam-rate=<p>] [--max-faults=<n>] [--kinds=<k,...>]\n"
      "       [--rollback] [--ckpt-interval=<n>] [--max-rollbacks=<n>]\n"
      "       [--no-pkr-save] [--trace] [--trace-ring=<n>]\n"
      "variants: none inline func sealpk-wr sealpk-rdwr mprotect sealed\n");
  return 2;
}

// Builds the selected (workload x variant) job matrix in deterministic
// (figure, variant-table) order.
std::vector<fleet::JobSpec> build_matrix(const CliOptions& cli) {
  std::vector<fleet::JobSpec> specs;
  for (const auto& w : wl::all_workloads()) {
    const std::string qualified =
        std::string(wl::suite_name(w.suite)) + "/" + w.name;
    if (cli.mode == "run") {
      bool wanted = false;
      for (const auto& name : cli.names) {
        if (name == w.name || name == qualified) wanted = true;
      }
      if (!wanted) continue;
    }
    if (!cli.workloads.empty() && !any_glob(cli.workloads, qualified) &&
        !any_glob(cli.workloads, w.name)) {
      continue;
    }
    for (const VariantDef& v : kVariants) {
      if (!cli.variants.empty() && !any_glob(cli.variants, v.name)) continue;
      fleet::JobSpec spec;
      spec.id = static_cast<u32>(specs.size());
      spec.workload = &w;
      spec.ss = v.ss;
      spec.perm_seal = v.perm_seal;
      spec.scale = cli.scale != 0 ? cli.scale : w.bench_scale;
      spec.budget = cli.budget;
      if (cli.chaos) {
        spec.kind = fleet::JobKind::kChaosDiff;
        spec.config.fault_plan = cli.plan;
        if (cli.no_pkr_save) spec.config.kernel.save_pkr_on_switch = false;
        if (cli.rollback || cli.ckpt_interval != 0) {
          spec.config.checkpoint_interval =
              cli.ckpt_interval != 0 ? cli.ckpt_interval : 25'000;
          spec.config.max_rollbacks = cli.max_rollbacks;
        }
      }
      if (cli.trace) {
        // Fan trace capture across the matrix: each job records its own
        // deterministic event stream; the metric summary lands in the
        // canonical record (and report) per job.
        spec.config.trace.enabled = true;
        spec.config.trace.ring_capacity = cli.trace_ring;
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

struct SweepOutcome {
  std::vector<fleet::JobResult> results;
  double elapsed_ms = 0;
  u64 image_builds = 0;
};

SweepOutcome run_matrix(const std::vector<fleet::JobSpec>& specs,
                        unsigned threads, bool progress) {
  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = threads;
  if (progress) {
    opts.on_done = [](const fleet::JobResult& r) {
      std::fprintf(stderr, "  [%3u] %-42s %s\n", r.id, r.label.c_str(),
                   r.verdict.c_str());
    };
  }
  const auto start = std::chrono::steady_clock::now();
  SweepOutcome out;
  out.results = fleet::run_jobs(specs, cache, opts);
  out.elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  out.image_builds = cache.builds();
  return out;
}

void print_summary(const SweepOutcome& sweep, unsigned threads) {
  const fleet::Aggregate agg = fleet::aggregate(sweep.results);
  std::printf(
      "%llu job(s): %llu ok, %llu failed; %llu image build(s); "
      "%.0f ms elapsed, %.0f ms of job work on %u thread(s) (%.2fx)\n",
      static_cast<unsigned long long>(agg.jobs),
      static_cast<unsigned long long>(agg.ok),
      static_cast<unsigned long long>(agg.failures),
      static_cast<unsigned long long>(sweep.image_builds), sweep.elapsed_ms,
      agg.wall_ms_sum, threads,
      sweep.elapsed_ms > 0 ? agg.wall_ms_sum / sweep.elapsed_ms : 0.0);
  // Suite geomeans for whatever slice of the Figure-5 matrix ran.
  bool header = false;
  for (const wl::Suite suite : {wl::Suite::kSpec2000, wl::Suite::kSpec2006,
                                wl::Suite::kMiBench}) {
    for (const VariantDef& v : kVariants) {
      if (v.ss == passes::ShadowStackKind::kNone) continue;
      const double g = fleet::gmean_overhead(sweep.results, suite, v.ss,
                                             v.perm_seal);
      if (g < 0) continue;
      if (!header) {
        std::printf("suite overhead geomeans (%% vs baseline):\n");
        header = true;
      }
      std::printf("  %-13s %-12s %10.2f%%\n", wl::suite_name(suite), v.name,
                  g);
    }
  }
}

int mode_diff(const std::vector<std::string>& names,
              const std::string& json_path) {
  if (names.size() != 2) return usage();
  const std::string a = cli::read_file(names[0]);
  const std::string b = cli::read_file(names[1]);
  std::ostringstream log;
  const size_t diverging = fleet::diff_reports(a, b, log);
  // --json changes the output format, never the verdict: the exit code must
  // signal divergence identically in both modes (CI scripts key off it).
  if (!json_path.empty()) {
    std::ostringstream report;
    fleet::write_diff_report(report, names[0], names[1], diverging, log.str());
    cli::write_file(json_path, report.str());
  }
  if (diverging == 0) {
    if (json_path.empty()) {
      std::printf("reports identical (canonical records)\n");
    }
    return 0;
  }
  if (json_path.empty()) {
    std::fputs(log.str().c_str(), stdout);
    std::printf("%zu diverging record(s)\n", diverging);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli.plan.enabled = true;
  cli.plan.seed = 7;
  cli.plan.rate = 2e-5;
  cli::Args a("sealpk-fleet", argc, argv);
  while (a.next()) {
    if (a.flag("-q", &cli.quiet) || a.flag("--quiet", &cli.quiet) ||
        a.flag("--chaos", &cli.chaos) || a.flag("--trace", &cli.trace) ||
        a.value("--trace-ring", &cli.trace_ring) ||
        a.flag("--canonical", &cli.canonical) ||
        a.flag("--selfcheck", &cli.selfcheck) ||
        a.flag("--rollback", &cli.rollback) ||
        a.flag("--no-pkr-save", &cli.no_pkr_save) ||
        a.value("--threads", &cli.threads) ||
        a.value("--scale", &cli.scale) || a.value("--budget", &cli.budget) ||
        a.value("--workloads", &cli.workloads) ||
        a.value("--variants", &cli.variants) ||
        a.json(&cli.json, &cli.json_path) ||
        cli::fault_plan_flag(a, &cli.plan) ||
        a.value("--kinds", &cli.plan.kinds, cli::parse_fault_kinds) ||
        a.value("--ckpt-interval", &cli.ckpt_interval) ||
        a.value("--max-rollbacks", &cli.max_rollbacks)) {
      continue;
    }
    if (a.is("sweep") || a.is("run") || a.is("diff") || a.is("list")) {
      if (!cli.mode.empty()) return usage();
      cli.mode = a.arg();
    } else if (a.positional()) {
      cli.names.push_back(a.arg());
    } else {
      a.reject();
    }
  }
  if (cli.mode.empty()) return usage();
  // sweep and run read every flag but the bare --json (their report goes
  // to a file); list and diff read only their output flags.
  if (cli.mode == "list") {
    a.only("list", {"-q", "--quiet", "--json", "--json="});
  } else if (cli.mode == "diff") {
    a.only("diff", {"--json="});
  } else {
    a.only(cli.mode,
           {"-q", "--quiet", "--chaos", "--trace", "--trace-ring=",
            "--canonical", "--selfcheck", "--rollback", "--no-pkr-save",
            "--threads=", "--scale=", "--budget=", "--workloads=",
            "--variants=", "--json=", "--chaos-seed=", "--chaos-rate=",
            "--cam-rate=", "--max-faults=", "--kinds=", "--ckpt-interval=",
            "--max-rollbacks="});
  }

  if (cli.mode == "list") {
    if (cli.json) {
      // Machine-readable workload x variant matrix for the SLO gate and
      // CI asserts; exit-code parity with the plain listing (always 0).
      std::vector<fleet::MatrixVariant> variants;
      for (const VariantDef& v : kVariants) {
        variants.push_back({v.name, v.ss, v.perm_seal});
      }
      std::ostringstream os;
      fleet::write_matrix_json(os, variants);
      cli::emit(cli.json_path, os.str());
      return 0;
    }
    std::printf("workloads:\n");
    for (const auto& w : wl::all_workloads()) {
      std::printf("  %s/%s\n", wl::suite_name(w.suite), w.name);
    }
    std::printf("variants:\n");
    for (const VariantDef& v : kVariants) std::printf("  %s\n", v.name);
    return 0;
  }
  if (cli.mode == "diff") return mode_diff(cli.names, cli.json_path);
  if (cli.mode == "run" && cli.names.empty()) return usage();

  const std::vector<fleet::JobSpec> specs = build_matrix(cli);
  if (specs.empty()) {
    std::fprintf(stderr, "no matching (workload, variant) jobs; try list\n");
    return 2;
  }

  const SweepOutcome sweep = run_matrix(specs, cli.threads, !cli.quiet);

  if (cli.selfcheck) {
    // Determinism oracle: the same matrix run serially must produce byte-
    // identical canonical records.
    const SweepOutcome serial = run_matrix(specs, 1, false);
    size_t mismatches = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const std::string a = fleet::canonical_record(sweep.results[i]);
      const std::string b = fleet::canonical_record(serial.results[i]);
      if (a != b) {
        ++mismatches;
        std::fprintf(stderr,
                     "selfcheck: record %zu diverges\n  %u threads: %s\n"
                     "  serial:    %s\n",
                     i, cli.threads, a.c_str(), b.c_str());
      }
    }
    if (mismatches != 0) {
      std::fprintf(stderr, "selfcheck FAILED: %zu diverging record(s)\n",
                   mismatches);
      return 1;
    }
    if (!cli.quiet) {
      std::printf("selfcheck ok: %zu records byte-identical (%u threads vs "
                  "serial)\n",
                  specs.size(), cli.threads);
    }
  }

  fleet::ReportOptions ropts;
  ropts.threads = cli.threads;
  ropts.elapsed_ms = sweep.elapsed_ms;
  ropts.canonical = cli.canonical;
  if (!cli.json_path.empty()) {
    std::ostringstream os;
    fleet::write_report(os, sweep.results, ropts);
    cli::write_file(cli.json_path, os.str());
  }

  const fleet::Aggregate agg = fleet::aggregate(sweep.results);
  if (!cli.quiet || agg.failures != 0) print_summary(sweep, cli.threads);
  return agg.failures == 0 ? 0 : 1;
}
