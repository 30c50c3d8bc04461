// sealpk-verify — static SealPK policy verifier CLI.
//
// Builds guest programs from the workload registry (optionally applying a
// shadow-stack instrumentation variant first, exactly as the Figure-5
// harness would), links them, and runs the src/analysis verifier over the
// resulting binaries. Exit status: 0 when every inspected program is
// admissible (no error-severity findings), 1 otherwise, 2 on usage errors
// or when the --json file cannot be written.
//
// Usage:
//   sealpk-verify --all                      # inspect all 17 workloads
//   sealpk-verify qsort sha gzip             # inspect a subset
//   sealpk-verify --all --ss=sealpk-rdwr     # instrumented flavour
//   sealpk-verify --all --ss=sealpk-wr --seal
//   sealpk-verify --all --json               # machine-readable findings
//   sealpk-verify --all --json=out.json      # ... written to a file
//   sealpk-verify --list                     # list known workload names
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "cli.h"
#include "passes/shadow_stack.h"
#include "workloads/workload.h"

using namespace sealpk;

namespace {

struct CliOptions {
  bool all = false;
  bool list = false;
  bool quiet = false;
  bool perm_seal = false;
  bool json = false;
  std::string json_path;  // empty: JSON goes to stdout
  passes::ShadowStackKind ss = passes::ShadowStackKind::kNone;
  std::vector<std::string> names;
  analysis::VerifyOptions verify;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-verify [--all | <workload>...] [--list] [-q]\n"
      "                     [--ss=none|inline|func|sealpk-wr|sealpk-rdwr|"
      "mprotect]\n"
      "                     [--seal] [--trust=<function>]...\n"
      "                     [--json[=<path>]]\n");
  return 2;
}

struct Verified {
  std::string label;
  analysis::Report report;
};

Verified verify_one(const wl::Workload& w, const CliOptions& cli) {
  isa::Program prog = w.build(w.test_scale);
  std::string label = std::string(wl::suite_name(w.suite)) + "/" + w.name;
  if (cli.ss != passes::ShadowStackKind::kNone) {
    passes::ShadowStackOptions ss;
    ss.kind = cli.ss;
    ss.perm_seal = cli.perm_seal;
    passes::apply_shadow_stack(prog, ss);
    label += std::string(" [") + passes::shadow_stack_kind_name(cli.ss) +
             (cli.perm_seal ? ", perm-sealed]" : "]");
  }
  return {label, analysis::verify_program(prog, cli.verify)};
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (cli::Args a("sealpk-verify", argc, argv); a.next();) {
    std::string gate;
    if (a.flag("--all", &cli.all) || a.flag("--list", &cli.list) ||
        a.flag("-q", &cli.quiet) || a.flag("--quiet", &cli.quiet) ||
        a.flag("--seal", &cli.perm_seal) ||
        a.value("--ss", &cli.ss, cli::parse_ss_kind) ||
        a.json(&cli.json, &cli.json_path)) {
      continue;
    }
    if (a.value("--trust", &gate)) {
      cli.verify.trusted_gates.insert(gate);
    } else if (a.positional()) {
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

  std::vector<Verified> results;
  for (const auto& w : wl::all_workloads()) {
    bool wanted = cli.all;
    for (const auto& name : cli.names) {
      if (name == w.name) wanted = true;
    }
    if (!wanted) continue;
    results.push_back(verify_one(w, cli));
  }
  if (results.empty()) {
    std::fprintf(stderr, "no matching workload; try --list\n");
    return 2;
  }

  size_t errors = 0;
  for (const auto& v : results) {
    errors += v.report.count(analysis::Severity::kError);
  }

  if (cli.json) {
    std::ostringstream os;
    os << "{\n  \"schema\": \"sealpk-verify-v1\",\n"
       << "  \"inspected\": " << results.size() << ",\n"
       << "  \"errors\": " << errors << ",\n"
       << "  \"programs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      results[i].report.print_json(os, results[i].label, "    ");
      os << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    cli::emit(cli.json_path, os.str());
  } else {
    for (const auto& v : results) {
      if (!cli.quiet || !v.report.clean()) {
        v.report.print(std::cout, v.label);
      }
    }
    if (!cli.quiet || errors != 0) {
      std::printf("%zu program(s) inspected, %zu error finding(s)\n",
                  results.size(), errors);
    }
  }
  return errors == 0 ? 0 : 1;
}
