// sealpk-chaos — differential fault-injection oracle harness.
//
// Runs each selected workload twice: once clean and once under a seeded
// fault plan (PKR bit flips, TLB/PTE corruption, CAM refill drops and
// duplicates, spurious machine-check traps). The oracle then requires, per
// workload, that either
//   (a) the chaos run's guest-visible output (reports, console, exit code)
//       is identical to the clean run's — every fault recovered, masked, or
//       absorbed by a snapshot rollback; or
//   (b) the machine recorded an explicit recovery or killed the affected
//       process with a distinct robustness exit code.
// In addition every injected fault event must be resolved by the end of the
// run (recovered / killed / masked-benign — never unaccounted), and no host
// exception may escape Machine::run.
//
// The sweep executes on the fleet batch engine (src/fleet): --threads=N
// drains the per-workload differential jobs on a worker pool (each job owns
// its two Machines; the linked image is built once and shared read-only),
// and per-workload verdicts are byte-identical for any thread count.
//
// --rollback arms periodic checkpointing with snapshot-rollback recovery:
// unrecoverable machine checks restore the last known-good checkpoint and
// re-execute with the offending injections suppressed, so scenarios that
// would otherwise kill the process instead finish with output identical to
// the clean run (the bit-identical oracle above then applies).
//
// --json <path> writes a machine-readable summary: per-workload verdicts,
// clean and chaos exit codes, per-job wall-clock milliseconds, rollback
// counts, and the full per-fault event log with each event's resolution.
//
// Exit status: 0 when every workload satisfies the oracle, 1 otherwise,
// 2 on usage errors or when the --json file cannot be written.
//
// Usage:
//   sealpk-chaos --all --chaos-seed=7 --chaos-rate=2e-5
//   sealpk-chaos qsort sha --chaos-rate=1e-4 -q --threads=4
//   sealpk-chaos --all --ss=sealpk-wr --seal --cam-rate=0.3
//   sealpk-chaos --all --rollback --no-pkr-save --kinds=pkr --json=out.json
//   sealpk-chaos --list
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "fleet/engine.h"
#include "fleet/report.h"
#include "passes/shadow_stack.h"
#include "sim/machine.h"
#include "workloads/workload.h"

using namespace sealpk;

namespace {

struct CliOptions {
  bool all = false;
  bool list = false;
  bool quiet = false;
  bool perm_seal = false;
  bool rollback = false;
  bool no_pkr_save = false;
  unsigned threads = 1;
  u64 ckpt_interval = 0;  // 0 = default (when --rollback) or off
  u64 max_rollbacks = 3;
  std::string json_path;
  passes::ShadowStackKind ss = passes::ShadowStackKind::kNone;
  std::vector<std::string> names;
  fault::FaultPlan plan;
};

const char* resolution_name(fault::FaultResolution r) {
  switch (r) {
    case fault::FaultResolution::kOutstanding: return "outstanding";
    case fault::FaultResolution::kRecovered: return "recovered";
    case fault::FaultResolution::kProcessKilled: return "process-killed";
    case fault::FaultResolution::kMaskedBenign: return "masked-benign";
  }
  return "unknown";
}

void print_kind_names(std::FILE* out) {
  std::fprintf(out, "fault kinds:");
  for (const cli::FaultKindName& e : cli::kFaultKindNames) {
    std::fprintf(out, " %s", e.name);
  }
  std::fprintf(out, "\n");
}

int print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: sealpk-chaos [--all | <workload>...] [--list] [-q] [--help]\n"
      "                    [--threads=<n>]\n"
      "                    [--chaos-seed=<n>] [--chaos-rate=<p>]\n"
      "                    [--cam-rate=<p>] [--max-faults=<n>]\n"
      "                    [--kinds=<kind>[,<kind>...]] [--kinds]\n"
      "                    [--rollback] [--ckpt-interval=<n>]\n"
      "                    [--max-rollbacks=<n>] [--no-pkr-save]\n"
      "                    [--json=<path>]\n"
      "                    [--ss=none|inline|func|sealpk-wr|sealpk-rdwr|"
      "mprotect] [--seal]\n");
  print_kind_names(out);
  return out == stderr ? 2 : 0;
}

int usage() { return print_usage(stderr); }

sim::MachineConfig base_config(const CliOptions& cli) {
  sim::MachineConfig config;
  if (cli.no_pkr_save) config.kernel.save_pkr_on_switch = false;
  if (cli.rollback || cli.ckpt_interval != 0) {
    config.checkpoint_interval =
        cli.ckpt_interval != 0 ? cli.ckpt_interval : 25'000;
    config.max_rollbacks = cli.max_rollbacks;
  }
  return config;
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string summary_json(const CliOptions& cli,
                         const std::vector<fleet::JobResult>& results,
                         size_t failures, double elapsed_ms) {
  std::ostringstream out;
  u64 total_faults = 0;
  for (const auto& r : results) total_faults += r.injected;
  out << "{\n";
  out << "  \"plan\": {\"seed\": " << cli.plan.seed
      << ", \"rate\": " << cli.plan.rate
      << ", \"cam_rate\": " << cli.plan.cam_rate
      << ", \"max_faults\": " << cli.plan.max_faults
      << ", \"kinds\": " << cli.plan.kinds << "},\n";
  out << "  \"rollback\": " << (cli.rollback ? "true" : "false")
      << ", \"checkpoint_interval\": "
      << base_config(cli).checkpoint_interval
      << ", \"max_rollbacks\": " << cli.max_rollbacks << ",\n";
  char elapsed[64];
  std::snprintf(elapsed, sizeof(elapsed), "%.3f", elapsed_ms);
  out << "  \"threads\": " << cli.threads << ", \"elapsed_ms\": " << elapsed
      << ",\n";
  out << "  \"programs\": " << results.size()
      << ", \"failures\": " << failures
      << ", \"total_faults\": " << total_faults << ",\n";
  out << "  \"workloads\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const fleet::JobResult& r = results[i];
    out << "    {\"label\": ";
    json_escape(out, r.label);
    out << ", \"ok\": " << (r.ok ? "true" : "false") << ", \"verdict\": ";
    json_escape(out, r.verdict);
    char wall[64];
    std::snprintf(wall, sizeof(wall), "%.3f", r.wall_ms);
    out << ",\n     \"clean_exit\": " << r.clean_exit
        << ", \"chaos_exit\": " << r.exit_code
        << ", \"completed\": " << (r.completed ? "true" : "false")
        << ", \"wall_ms\": " << wall
        << ", \"injected\": " << r.injected
        << ", \"outstanding\": " << r.outstanding << ",\n";
    out << "     \"recoveries\": " << r.stats.recoveries
        << ", \"machine_check_kills\": " << r.stats.machine_check_kills
        << ", \"watchdog_kills\": " << r.stats.watchdog_kills
        << ", \"checkpoints\": " << r.stats.checkpoints
        << ", \"rollbacks\": " << r.stats.rollbacks
        << ", \"rollback_failures\": " << r.stats.rollback_failures << ",\n";
    out << "     \"faults\": [";
    for (size_t j = 0; j < r.events.size(); ++j) {
      const fault::FaultEvent& e = r.events[j];
      if (j != 0) out << ", ";
      out << "{\"kind\": \"" << fault_kind_name(e.kind)
          << "\", \"instret\": " << e.instret << ", \"resolution\": \""
          << resolution_name(e.resolution) << "\"}";
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli.plan.enabled = true;
  cli.plan.seed = 7;
  cli.plan.rate = 2e-5;
  for (cli::Args a("sealpk-chaos", argc, argv); a.next();) {
    if (a.flag("--all", &cli.all) || a.flag("--list", &cli.list) ||
        a.flag("-q", &cli.quiet) || a.flag("--quiet", &cli.quiet) ||
        a.flag("--seal", &cli.perm_seal) ||
        a.flag("--rollback", &cli.rollback) ||
        a.flag("--no-pkr-save", &cli.no_pkr_save) ||
        a.value("--threads", &cli.threads) ||
        a.value("--ss", &cli.ss, cli::parse_ss_kind) ||
        cli::fault_plan_flag(a, &cli.plan) ||
        a.value("--ckpt-interval", &cli.ckpt_interval) ||
        a.value("--max-rollbacks", &cli.max_rollbacks) ||
        a.value("--json", &cli.json_path)) {
      continue;
    }
    if (a.is("--kinds") || a.is("--kinds=")) {
      // Bare --kinds is a query, not an error: print the valid names.
      print_kind_names(stdout);
      return 0;
    }
    if (a.is("--help") || a.is("-h")) return print_usage(stdout);
    if (a.value("--kinds", &cli.plan.kinds, cli::parse_fault_kinds)) continue;
    if (a.positional()) {
      cli.names.push_back(a.arg());
    } else {
      a.reject();
    }
  }

  if (cli.list) {
    for (const auto& w : wl::all_workloads()) {
      std::printf("%-10s (%s)\n", w.name, wl::suite_name(w.suite));
    }
    return 0;
  }
  if (!cli.all && cli.names.empty()) return usage();

  // One differential job per selected workload, drained by the fleet pool.
  std::vector<fleet::JobSpec> specs;
  for (const auto& w : wl::all_workloads()) {
    bool wanted = cli.all;
    for (const auto& name : cli.names) {
      if (name == w.name) wanted = true;
    }
    if (!wanted) continue;
    fleet::JobSpec spec;
    spec.id = static_cast<u32>(specs.size());
    spec.workload = &w;
    spec.ss = cli.ss;
    spec.perm_seal = cli.perm_seal;
    spec.scale = w.test_scale;
    spec.budget = 400'000'000;
    spec.kind = fleet::JobKind::kChaosDiff;
    spec.config = base_config(cli);
    spec.config.fault_plan = cli.plan;
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no matching workload; try --list\n");
    return 2;
  }

  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = cli.threads;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<fleet::JobResult> results =
      fleet::run_jobs(specs, cache, opts);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

  size_t failures = 0;
  u64 total_faults = 0;
  for (const fleet::JobResult& r : results) {
    if (!r.ok) ++failures;
    total_faults += r.injected;
    if (!cli.quiet || !r.ok) {
      const u64 kills =
          r.stats.machine_check_kills + r.stats.watchdog_kills;
      std::printf(
          "%-28s %-40s faults=%llu recoveries=%llu kills=%llu rollbacks=%llu\n",
          r.label.c_str(), r.verdict.c_str(),
          static_cast<unsigned long long>(r.injected),
          static_cast<unsigned long long>(r.stats.recoveries),
          static_cast<unsigned long long>(kills),
          static_cast<unsigned long long>(r.stats.rollbacks));
    }
  }

  if (!cli.json_path.empty()) {
    cli::write_file(cli.json_path,
                    summary_json(cli, results, failures, elapsed_ms));
  }
  if (!cli.quiet || failures != 0) {
    std::printf(
        "%zu program(s) checked, %llu fault(s) injected, %zu failure(s)\n",
        results.size(), static_cast<unsigned long long>(total_faults),
        failures);
  }
  return failures == 0 ? 0 : 1;
}
