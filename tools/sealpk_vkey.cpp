// sealpk-vkey — unbounded pkey virtualization workbench (src/mpk).
//
// Drives the session-server workload: one virtual protection domain per
// user session, seeded connect/touch/disconnect churn, far more live
// domains than the 1023 usable physical keys. The kernel's vkey layer
// (vkey_table.h) multiplexes physical keys under the sessions with LRU
// eviction, real PTE re-keying, batched map-in and an MRU pin cache;
// --lazy selects the deferred drain-queue sync policy and --raw runs the
// same schedule on physical pkeys (capped at 768 sessions) for the
// virtualization-tax baseline.
//
//   run     one session-server run; prints the canonical churn record,
//           exits 0 iff the guest checksum matches the host golden
//   sweep   the key-churn matrix: virt-eager + virt-lazy (+ raw where it
//           fits) cells per scale, drained through the fleet pool;
//           --json writes BENCH_keychurn.json
//
// --selfcheck re-runs the sweep serially and requires the concatenated
// canonical records to be byte-identical to the parallel run.
//
// Exit status: 0 ok, 1 checksum/selfcheck failure, 2 usage or I/O error.
//
// Usage:
//   sealpk-vkey run --sessions=4096 --ops=8192
//   sealpk-vkey run --sessions=512 --raw
//   sealpk-vkey sweep --threads=4 --selfcheck --json=BENCH_keychurn.json
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "cli.h"
#include "hw/pkr.h"
#include "mpk/session.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string mode;
  bool quiet = false;
  bool selfcheck = false;
  std::string json_path;
  mpk::SessionConfig cfg;
  bool ops_set = false;
  std::vector<u64> scales = {256, 768, 2048, 6144};
  unsigned threads = 0;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-vkey run [options]\n"
      "       sealpk-vkey sweep [options]\n"
      "options:\n"
      "  --sessions=<n>           live session domains (run)\n"
      "  --ops=<n>                churn operations after ramp (run;\n"
      "                           default 2*sessions)\n"
      "  --seed=<n>               churn schedule seed\n"
      "  --mru=<n>                per-process MRU pin slots\n"
      "  --lazy                   lazy drain-queue sync policy\n"
      "  --raw                    physical pkeys (sessions <= 768)\n"
      "  --max-instr=<n>          instruction budget per run\n"
      "  --scales=<a,b,...>       session scales for the sweep\n"
      "  --threads=<n>            fleet workers for the sweep\n"
      "  --selfcheck              serial re-run must match byte-for-byte\n"
      "  --json=<path>            machine-readable sweep report\n"
      "  -q                       suppress the canonical records\n");
  return 2;
}

int mode_run(const CliOptions& cli) {
  mpk::SessionConfig cfg = cli.cfg;
  if (!cli.ops_set) cfg.ops = 2 * cfg.sessions;
  if (cfg.raw && cfg.sessions > mpk::kRawSessionCap) {
    std::fprintf(stderr, "--raw needs --sessions <= %llu\n",
                 static_cast<unsigned long long>(mpk::kRawSessionCap));
    return 2;
  }
  const mpk::SessionResult r = mpk::run_session_server(cfg);
  if (!cli.quiet) std::printf("%s", mpk::session_record(cfg, r).c_str());
  if (!r.ok()) {
    std::fprintf(stderr,
                 "session server failed: completed=%d exit=%lld "
                 "checksum=%llu expected=%llu\n",
                 r.completed ? 1 : 0, static_cast<long long>(r.exit_code),
                 static_cast<unsigned long long>(r.checksum),
                 static_cast<unsigned long long>(r.expected));
    return 1;
  }
  return 0;
}

int mode_sweep(const CliOptions& cli) {
  const std::vector<mpk::ChurnCell> cells =
      mpk::run_churn_sweep(cli.scales, cli.cfg.seed, cli.threads);
  const std::string records = mpk::sweep_records(cells);
  if (!cli.quiet) std::printf("%s", records.c_str());
  int rc = 0;
  for (const mpk::ChurnCell& cell : cells) {
    if (!cell.result.ok()) rc = 1;
  }
  if (rc != 0) std::fprintf(stderr, "sweep: at least one cell failed\n");
  if (cli.selfcheck) {
    const std::vector<mpk::ChurnCell> serial =
        mpk::run_churn_sweep(cli.scales, cli.cfg.seed, 1);
    if (mpk::sweep_records(serial) != records) {
      std::fprintf(stderr, "selfcheck: serial sweep diverged\n");
      rc = 1;
    } else if (!cli.quiet) {
      std::printf("selfcheck: serial re-run byte-identical\n");
    }
  }
  if (!cli.json_path.empty()) {
    cli::write_file(cli.json_path, mpk::churn_json(cells));
  }
  return rc;
}

// --mru=<n>: at most one pin slot per pkey, the cap sim::validate puts on
// every machine.
bool parse_mru(std::string_view text, u32* out) {
  return cli::parse(text, out) && *out <= hw::kNumPkeys;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  mpk::SessionConfig& cfg = cli.cfg;
  cli::Args a("sealpk-vkey", argc, argv);
  while (a.next()) {
    if (a.flag("-q", &cli.quiet) || a.flag("--quiet", &cli.quiet) ||
        a.flag("--selfcheck", &cli.selfcheck) ||
        a.flag("--lazy", &cfg.lazy_sync) || a.flag("--raw", &cfg.raw) ||
        a.value("--sessions", &cfg.sessions) ||
        a.value("--seed", &cfg.seed) ||
        a.value("--mru", &cfg.mru_slots, parse_mru) ||
        a.value("--max-instr", &cfg.max_instructions) ||
        a.value("--scales", &cli.scales) ||
        a.value("--threads", &cli.threads) ||
        a.value("--json", &cli.json_path)) {
      continue;
    }
    if (a.value("--ops", &cfg.ops)) {
      cli.ops_set = true;
      continue;
    }
    if (!a.is("run") && !a.is("sweep")) a.reject();
    if (!cli.mode.empty()) return usage();
    cli.mode = a.arg();
  }
  if (cli.mode == "run") {
    a.only("run", {"-q", "--quiet", "--lazy", "--raw", "--sessions=",
                   "--ops=", "--seed=", "--mru=", "--max-instr="});
    return mode_run(cli);
  }
  if (cli.mode == "sweep") {
    a.only("sweep", {"-q", "--quiet", "--selfcheck", "--seed=", "--scales=",
                     "--threads=", "--json="});
    return mode_sweep(cli);
  }
  return usage();
}
