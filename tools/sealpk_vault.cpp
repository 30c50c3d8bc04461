// sealpk-vault — crash-anywhere sealed-storage durability workbench
// (src/vault).
//
// An owner domain seals secret bundles into a write-only, perm-sealed
// vault region through the kernel's vault syscalls, journaling every
// operation (guest-written intent record, kernel-written commit record,
// FNV-1a checksums throughout). This tool drives the workload and its
// durability harness:
//
//   run     one clean run; prints the recovered ledger and vault counters,
//           exits 0 iff the run is clean and the ledger matches the
//           build-time oracle
//   sweep   the crash-anywhere sweep: kill a fresh machine at every
//           sampled instret (dense around every journal-record write,
//           uniform elsewhere), cold-replay the region and assert
//           integrity / durability / confidentiality; a subset of points
//           additionally restores the last known-good checkpoint and
//           re-runs to completion. --chaos layers seeded vault-record bit
//           flips on top (invariants weaken exactly to detection).
//
// --selfcheck re-runs the sweep serially and requires the canonical
// verdict to be byte-identical to the parallel run. --json writes the
// machine-readable verdict (the CI artifact uploaded on failure).
//
// Exit status: 0 ok, 1 invariant violated, 2 usage or I/O error.
//
// Usage:
//   sealpk-vault run --seals=5 --reseals=2 --unseals=3
//   sealpk-vault sweep --threads=4 --selfcheck --json=vault_sweep.json
//   sealpk-vault sweep --chaos --chaos-seed=7 --threads=4
#include <cstdio>
#include <sstream>
#include <string>

#include "cli.h"
#include "sim/machine.h"
#include "vault/run.h"
#include "vault/sweep.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string mode;
  bool quiet = false;
  bool selfcheck = false;
  std::string json_path;
  vault::SweepConfig cfg;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-vault run [options]\n"
      "       sealpk-vault sweep [options]\n"
      "options:\n"
      "  --slots=<n> --slot-size=<bytes> --seals=<n> --reseals=<n>\n"
      "  --unseals=<n> --seed=<n>\n"
      "  --points=<n>             minimum sampled crash points (sweep)\n"
      "  --stride=<n>             uniform samples across the run (sweep)\n"
      "  --threads=<n>            fleet workers for the sweep\n"
      "  --rollback-every=<n>     checkpoint-resume every Nth point\n"
      "  --checkpoint-interval=<instructions>\n"
      "  --chaos --chaos-runs=<n> --chaos-seed=<n> --chaos-rate=<p>\n"
      "  --chaos-max-faults=<n>\n"
      "  --selfcheck              serial re-run must match byte-for-byte\n"
      "  --json=<path>            machine-readable sweep verdict\n"
      "  -q                       suppress the canonical report\n");
  return 2;
}

int mode_run(const CliOptions& cli) {
  const vault::VaultRunResult r = vault::run_vault_once(cli.cfg.spec);
  if (r.ledger.empty()) {  // run_vault_once bailed before running
    std::fprintf(stderr, "load refused\n");
    return 1;
  }
  const os::VaultStats& vs = r.stats;
  if (!cli.quiet) {
    std::printf("%s", r.ledger.c_str());
    std::printf(
        "vault run exit=%lld instructions=%llu seals=%llu reseals=%llu "
        "unseals=%llu denials=%llu corruption_detected=%llu\n",
        static_cast<long long>(r.exit_code),
        static_cast<unsigned long long>(r.instructions),
        static_cast<unsigned long long>(vs.seals),
        static_cast<unsigned long long>(vs.reseals),
        static_cast<unsigned long long>(vs.unseals),
        static_cast<unsigned long long>(vs.denials),
        static_cast<unsigned long long>(vs.corruption_detected));
  }
  return r.ok() ? 0 : 1;
}

int mode_sweep(const CliOptions& cli) {
  const vault::SweepResult r = vault::run_sweep(cli.cfg);
  if (!cli.quiet) std::printf("%s", r.canonical.c_str());
  int rc = r.ok ? 0 : 1;
  if (cli.selfcheck) {
    vault::SweepConfig serial = cli.cfg;
    serial.threads = 1;
    const vault::SweepResult again = vault::run_sweep(serial);
    if (again.canonical != r.canonical) {
      std::fprintf(stderr,
                   "selfcheck: serial sweep diverged from %u-thread sweep\n",
                   cli.cfg.threads);
      rc = 1;
    } else if (!cli.quiet) {
      std::printf("selfcheck: serial re-run byte-identical\n");
    }
  }
  if (!cli.json_path.empty()) {
    std::ostringstream os;
    vault::write_sweep_json(os, cli.cfg, r);
    cli::write_file(cli.json_path, os.str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  vault::SweepConfig& cfg = cli.cfg;
  cli::Args a("sealpk-vault", argc, argv);
  while (a.next()) {
    if (a.flag("-q", &cli.quiet) || a.flag("--quiet", &cli.quiet) ||
        a.flag("--selfcheck", &cli.selfcheck) ||
        a.flag("--chaos", &cfg.chaos) ||
        a.value("--slots", &cfg.spec.n_slots) ||
        a.value("--slot-size", &cfg.spec.slot_size) ||
        a.value("--seals", &cfg.spec.seals) ||
        a.value("--reseals", &cfg.spec.reseals) ||
        a.value("--unseals", &cfg.spec.unseals) ||
        a.value("--seed", &cfg.spec.seed) ||
        a.value("--points", &cfg.min_points) ||
        a.value("--stride", &cfg.stride_points) ||
        a.value("--threads", &cfg.threads) ||
        a.value("--rollback-every", &cfg.rollback_every) ||
        a.value("--checkpoint-interval", &cfg.checkpoint_interval) ||
        a.value("--chaos-runs", &cfg.chaos_runs) ||
        a.value("--chaos-seed", &cfg.chaos_seed) ||
        a.value("--chaos-rate", &cfg.chaos_rate) ||
        a.value("--chaos-max-faults", &cfg.chaos_max_faults) ||
        a.value("--json", &cli.json_path)) {
      continue;
    }
    if (!a.is("run") && !a.is("sweep")) a.reject();
    if (!cli.mode.empty()) return usage();
    cli.mode = a.arg();
  }
  // run reads the workload spec; sweep reads every flag.
  if (cli.mode == "run") {
    a.only("run", {"-q", "--quiet", "--slots=", "--slot-size=", "--seals=",
                   "--reseals=", "--unseals=", "--seed="});
    return mode_run(cli);
  }
  if (cli.mode == "sweep") return mode_sweep(cli);
  return usage();
}
