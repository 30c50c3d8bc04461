// sealpk-serve — in-process sandboxed plugin server workbench (src/serve).
//
// A trusted monitor domain dispatches a seeded synthetic request stream to
// untrusted handler domains through perm-sealed call gates, reporting
// domain-crossings/sec and per-handler latency (in instructions) alongside
// the Fig-5 overhead numbers. The request plane degrades gracefully:
// per-request instruction budgets, strike-based handler quarantine, bounded
// retry with deterministic backoff onto the replica slot, and load shedding
// — every request ends in exactly one canonical disposition.
//
// Modes:
//   run                  clean serving run
//   attack <name>|--all  run with a red-team plugin planted in handler 0;
//                        exits 1 unless the attack's declared catcher fired
//                        AND the monitor survived AND serving continued
//   list                 print the attack registry (name, catcher, what)
//
// --chaos composes the FaultInjector on top of any mode (seeded PKR
// upsets); the canonical ledger stays byte-identical for a fixed config.
// `attack --all --threads=N` drains the suite through the fleet worker
// pool; ledgers and reports are byte-identical for any N. --json writes
// the machine-readable report (array form for --all). --trace-out records
// gate entry/exit, dispositions and quarantine transitions per handler and
// exports Perfetto JSON (open in ui.perfetto.dev, or feed the same events
// through sealpk-trace).
//
// Exit status: 0 ok, 1 attack escaped / monitor died / request lost,
// 2 usage or I/O error.
//
// Usage:
//   sealpk-serve run --requests=64 --primaries=3 --json=serve.json
//   sealpk-serve attack gate-exit-hijack --trace-out=hijack.perfetto.json
//   sealpk-serve attack --all --threads=4 --json=redteam.json
//   sealpk-serve run --chaos --chaos-seed=11 --chaos-rate=1e-4
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "fleet/engine.h"
#include "obs/export.h"
#include "serve/redteam.h"
#include "serve/server.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string mode;
  std::string attack_name;
  bool all_attacks = false;
  unsigned threads = 1;
  bool quiet = false;
  std::string json_path;
  std::string trace_path;
  serve::ServeConfig cfg;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-serve run [options]\n"
      "       sealpk-serve attack <name>|--all [options]\n"
      "       sealpk-serve list\n"
      "options:\n"
      "  --primaries=<n> --requests=<n> --rounds=<n> --seed=<n>\n"
      "  --budget=<instructions> --max-attempts=<n> --strike-limit=<n>\n"
      "  --threads=<n>            worker pool for `attack --all`\n"
      "  --chaos --chaos-seed=<n> --chaos-rate=<p> --max-faults=<n>\n"
      "  --json=<path>            machine-readable report (array for --all)\n"
      "  --trace-out=<path>       Perfetto JSON of the obs event stream\n"
      "  -q                       suppress the per-run summary\n");
  return 2;
}

void print_summary(const serve::ServeConfig& cfg, const serve::ServeResult& r,
                   const char* label) {
  std::printf(
      "%-22s served=%llu retried=%llu shed=%llu quarantined=%llu "
      "crossings=%llu (%.0f/sec) epochs=%llu instructions=%llu\n",
      label, static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.retried),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.quarantined),
      static_cast<unsigned long long>(r.crossings), r.crossings_per_sec(),
      static_cast<unsigned long long>(r.epochs),
      static_cast<unsigned long long>(r.instructions));
  u64 latency_sum = 0, latency_n = 0;
  for (const auto& rec : r.records) {
    if (rec.latency != 0) {
      latency_sum += rec.latency;
      ++latency_n;
    }
  }
  if (latency_n != 0) {
    std::printf("%-22s mean handler latency %llu instructions over %llu "
                "crossings\n",
                "", static_cast<unsigned long long>(latency_sum / latency_n),
                static_cast<unsigned long long>(latency_n));
  }
  if (r.attack != nullptr) {
    std::printf("%-22s catcher=%s %s monitor=%s canary=%s\n", "",
                serve::redteam::catcher_name(r.attack->catcher),
                r.attack_caught ? "CAUGHT" : "ESCAPED",
                r.monitor_alive ? "alive" : "DEAD",
                r.canary_intact ? "intact" : "CLOBBERED");
  }
  (void)cfg;
}

// 0 when the run upholds the contract this tool exists to demonstrate:
// config asserts passed, the monitor survived, no probe landed, and — for
// attack runs — the declared catcher fired.
int verdict(const serve::ServeResult& r) {
  if (!r.config_ok || !r.monitor_alive || !r.canary_intact) return 1;
  if (r.evidence.probe_successes != 0) return 1;
  if (r.attack != nullptr && !r.attack_caught) return 1;
  return 0;
}

void export_trace(const serve::ServeResult& r, const std::string& path) {
  std::ostringstream os;
  obs::write_perfetto_json(r.trace, os);
  cli::write_file(path, os.str());
}

int mode_list() {
  for (const auto& atk : serve::redteam::attacks()) {
    std::printf("%-20s caught-by=%-8s %s\n", atk.name,
                serve::redteam::catcher_name(atk.catcher), atk.description);
  }
  return 0;
}

int run_one(const CliOptions& cli) {
  serve::ServeConfig cfg = cli.cfg;
  if (!cli.trace_path.empty()) cfg.trace = true;
  if (!cli.attack_name.empty()) {
    const serve::redteam::Attack* atk =
        serve::redteam::find_attack(cli.attack_name);
    if (atk == nullptr) {
      std::fprintf(stderr, "unknown attack '%s' (see `sealpk-serve list`)\n",
                   cli.attack_name.c_str());
      return 2;
    }
    cfg.attack = atk->kind;
  }
  const serve::ServeResult r = serve::run_server(cfg);
  if (!cli.quiet) {
    print_summary(cfg, r,
                  cli.attack_name.empty() ? "clean" : cli.attack_name.c_str());
  }
  if (!cli.json_path.empty()) {
    std::ostringstream os;
    serve::write_result_json(os, cfg, r);
    cli::write_file(cli.json_path, os.str());
  }
  if (!cli.trace_path.empty()) export_trace(r, cli.trace_path);
  return verdict(r);
}

// The whole registry drained by the fleet worker pool; per-attack reports
// and the exit verdict are byte-identical for any --threads value.
int run_all(const CliOptions& cli) {
  const auto& registry = serve::redteam::attacks();
  std::vector<serve::ServeResult> results(registry.size());
  std::vector<serve::ServeConfig> cfgs(registry.size());
  for (size_t i = 0; i < registry.size(); ++i) {
    cfgs[i] = cli.cfg;
    cfgs[i].attack = registry[i].kind;
  }
  fleet::run_indexed(registry.size(), cli.threads,
                     [&](size_t i, unsigned) {
                       results[i] = serve::run_server(cfgs[i]);
                     });

  int rc = 0;
  for (size_t i = 0; i < registry.size(); ++i) {
    if (!cli.quiet) print_summary(cfgs[i], results[i], registry[i].name);
    if (verdict(results[i]) != 0) rc = 1;
  }
  if (!cli.json_path.empty()) {
    std::ostringstream os;
    os << "[\n";
    for (size_t i = 0; i < registry.size(); ++i) {
      serve::write_result_json(os, cfgs[i], results[i]);
      os << (i + 1 < registry.size() ? ",\n" : "\n");
    }
    os << "]\n";
    cli::write_file(cli.json_path, os.str());
  }
  if (!cli.quiet) {
    std::printf("%s: %zu attack(s), %s\n", "red team", registry.size(),
                rc == 0 ? "all caught by their declared catcher"
                        : "ESCAPE OR MONITOR LOSS — see above");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  serve::ServeConfig& cfg = cli.cfg;
  cli::Args a("sealpk-serve", argc, argv);
  while (a.next()) {
    if (a.flag("--all", &cli.all_attacks) || a.flag("-q", &cli.quiet) ||
        a.flag("--quiet", &cli.quiet) ||
        a.flag("--chaos", &cfg.chaos.enabled) ||
        a.value("--primaries", &cfg.primaries) ||
        a.value("--requests", &cfg.requests) ||
        a.value("--rounds", &cfg.rounds) || a.value("--seed", &cfg.seed) ||
        a.value("--budget", &cfg.request_budget) ||
        a.value("--max-attempts", &cfg.max_attempts) ||
        a.value("--strike-limit", &cfg.strike_limit) ||
        a.value("--threads", &cli.threads) ||
        a.value("--chaos-seed", &cfg.chaos.seed) ||
        a.value("--chaos-rate", &cfg.chaos.rate) ||
        a.value("--max-faults", &cfg.chaos.max_faults) ||
        a.value("--json", &cli.json_path) ||
        a.value("--trace-out", &cli.trace_path)) {
      continue;
    }
    if (a.is("run") || a.is("attack") || a.is("list")) {
      if (!cli.mode.empty()) return usage();
      cli.mode = a.arg();
    } else if (a.positional() && cli.mode == "attack" &&
               cli.attack_name.empty()) {
      cli.attack_name = a.arg();
    } else {
      a.reject();
    }
  }

  if (cli.mode == "list") {
    a.only("list", {});
    return mode_list();
  }
  // One server run reads the serving config and the trace path; the
  // registry drain reads the config and the pool size.
  if (cli.mode == "run" || (cli.mode == "attack" && !cli.all_attacks)) {
    a.only(cli.mode, {"-q", "--quiet", "--chaos", "--primaries=",
                      "--requests=", "--rounds=", "--seed=", "--budget=",
                      "--max-attempts=", "--strike-limit=", "--chaos-seed=",
                      "--chaos-rate=", "--max-faults=", "--json=",
                      "--trace-out="});
  } else if (cli.mode == "attack") {
    a.only("attack --all",
           {"-q", "--quiet", "--all", "--chaos", "--primaries=",
            "--requests=", "--rounds=", "--seed=", "--budget=",
            "--max-attempts=", "--strike-limit=", "--chaos-seed=",
            "--chaos-rate=", "--max-faults=", "--json=", "--threads="});
  }
  if (cli.mode == "run") return run_one(cli);
  if (cli.mode == "attack") {
    if (cli.all_attacks) return run_all(cli);
    if (cli.attack_name.empty()) return usage();
    return run_one(cli);
  }
  return usage();
}
