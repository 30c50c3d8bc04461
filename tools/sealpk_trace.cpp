// sealpk-trace — record and inspect deterministic execution traces.
//
// Subcommands:
//   record <workload> [--out=<file>] [--sample=<n>] [--ring=<n>]
//       Build the workload, run it with the event recorder enabled and write
//       the serialized trace blob (default <workload>.spktrace). --sample=N
//       turns on the PC profiler (one sample every N retired instructions);
//       --ring=N bounds capture to the most recent N events (0 = keep all).
//   report <file>
//       Aggregate view: event counts, per-pkey attribution table, domain
//       residency histograms and the hottest functions by sample count.
//   export <file> [--json=<file>] [--collapsed=<file>] [--timeline]
//       Convert a trace blob: --json writes Chrome/Perfetto trace_event JSON
//       (load in ui.perfetto.dev), --collapsed writes folded stacks for
//       flamegraph.pl, --timeline prints the per-event text timeline.
//   diff <a> <b> [--json=<file>]
//       Structural comparison of two blobs (exit status 1 when they differ).
//       This is the CI determinism oracle: two records of the same workload
//       must produce byte-identical blobs. --json writes a machine-readable
//       verdict without changing the exit code.
//
// Workload construction accepts the same shaping flags as sealpk-snapshot
// (--ss=, --seal), so sealed shadow-stack variants can be profiled too.
// Timestamps in every output are modelled instruction/cycle counts — never
// host wall-clock — which is what makes traces diffable at all.
//
// Exit status: 0 success, 1 diff/check failure, 2 usage or I/O errors.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/json.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "passes/shadow_stack.h"
#include "sim/machine.h"
#include "workloads/workload.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string command;
  std::vector<std::string> positional;
  std::string out;
  bool json = false;  // --json[=path] (report mode: machine-readable)
  std::string json_out;
  std::string collapsed_out;
  bool timeline = false;
  u64 sample = 0;  // 0 = profiler off
  u64 ring = 0;    // 0 = unbounded capture
  bool quiet = false;
  bool perm_seal = false;
  passes::ShadowStackKind ss = passes::ShadowStackKind::kNone;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-trace record <workload> [--out=<file>] [--sample=<n>]\n"
      "                           [--ring=<n>]\n"
      "       sealpk-trace report <file> [--json[=<file>]]\n"
      "       sealpk-trace export <file> [--json=<file>] [--collapsed=<file>]\n"
      "                           [--timeline]\n"
      "       sealpk-trace diff <a> <b> [--json=<file>]\n"
      "options: [-q] [--ss=none|inline|func|sealpk-wr|sealpk-rdwr|mprotect]\n"
      "         [--seal]\n");
  return 2;
}

const wl::Workload* find_workload(const std::string& name) {
  for (const auto& w : wl::all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

obs::Trace load_trace(const std::string& path) {
  const std::string bytes = cli::read_file(path);
  return obs::parse(std::vector<u8>(bytes.begin(), bytes.end()));
}

int cmd_record(const CliOptions& cli) {
  const wl::Workload* w = find_workload(cli.positional[0]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", cli.positional[0].c_str());
    return 2;
  }
  isa::Program prog = w->build(w->test_scale);
  if (cli.ss != passes::ShadowStackKind::kNone) {
    passes::ShadowStackOptions ss;
    ss.kind = cli.ss;
    ss.perm_seal = cli.perm_seal;
    passes::apply_shadow_stack(prog, ss);
  }

  sim::MachineConfig config;
  config.trace.enabled = true;
  config.trace.ring_capacity = cli.ring;
  config.trace.sample_interval = cli.sample;
  sim::Machine machine(config);
  if (machine.load(prog.link()) == sim::Machine::kLoadRefused) {
    std::fprintf(stderr, "workload refused by loader\n");
    return 1;
  }
  const sim::RunOutcome outcome = machine.run();
  if (!outcome.completed) {
    std::fprintf(stderr, "run did not complete\n");
    return 1;
  }

  const std::vector<u8> blob = machine.recorder()->serialize_blob();
  const std::string out =
      cli.out.empty() ? cli.positional[0] + ".spktrace" : cli.out;
  cli::write_file(out, blob);
  if (!cli.quiet) {
    const obs::TraceSummary s =
        machine.recorder()->summary(machine.hart().cycles());
    std::printf(
        "%s: %zu bytes, %llu event(s) (%llu dropped), %llu sample(s), "
        "%llu instructions\n",
        out.c_str(), blob.size(), static_cast<unsigned long long>(s.events),
        static_cast<unsigned long long>(s.dropped),
        static_cast<unsigned long long>(s.samples),
        static_cast<unsigned long long>(outcome.instructions));
  }
  return 0;
}

int cmd_report(const CliOptions& cli) {
  const obs::Trace trace = load_trace(cli.positional[0]);
  // --json[=path] swaps the rendering for the machine-readable report
  // ("sealpk-trace-report-v1": counters + per-pkey table + span
  // quantiles); exit-code parity with plain mode (both 0 on a loadable
  // blob — damage is caught by load_trace either way).
  if (cli.json) {
    std::ostringstream os;
    obs::write_report_json(trace, os);
    cli::emit(cli.json_out, os.str());
    if (!cli.json_out.empty() && !cli.quiet) {
      std::printf("%s: report json\n", cli.json_out.c_str());
    }
    return 0;
  }
  obs::write_report(trace, std::cout);
  return 0;
}

int cmd_export(const CliOptions& cli) {
  if (cli.json_out.empty() && cli.collapsed_out.empty() && !cli.timeline) {
    return usage();
  }
  const obs::Trace trace = load_trace(cli.positional[0]);
  if (!cli.json_out.empty()) {
    std::ostringstream os;
    obs::write_perfetto_json(trace, os);
    cli::write_file(cli.json_out, os.str());
    if (!cli.quiet) std::printf("%s: perfetto json\n", cli.json_out.c_str());
  }
  if (!cli.collapsed_out.empty()) {
    std::ostringstream os;
    obs::write_collapsed(trace, os);
    cli::write_file(cli.collapsed_out, os.str());
    if (!cli.quiet) {
      std::printf("%s: collapsed stacks\n", cli.collapsed_out.c_str());
    }
  }
  if (cli.timeline) obs::write_timeline(trace, std::cout);
  return 0;
}

int cmd_diff(const CliOptions& cli) {
  const std::string delta =
      obs::diff_traces(load_trace(cli.positional[0]),
                       load_trace(cli.positional[1]));
  // --json changes the output format, never the verdict: structural
  // divergence exits nonzero in JSON mode exactly as in plain mode (the
  // same contract sealpk-fleet diff --json pins).
  if (!cli.json_out.empty()) {
    std::ostringstream os;
    os << "{\"a\": \"" << json_escape(cli.positional[0]) << "\", \"b\": \""
       << json_escape(cli.positional[1])
       << "\", \"identical\": " << (delta.empty() ? "true" : "false")
       << ", \"delta\": \"" << json_escape(delta) << "\"}\n";
    cli::write_file(cli.json_out, os.str());
    return delta.empty() ? 0 : 1;
  }
  if (delta.empty()) {
    if (!cli.quiet) std::printf("traces are identical\n");
    return 0;
  }
  std::printf("%s\n", delta.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli::Args a("sealpk-trace", argc, argv);
  while (a.next()) {
    if (a.flag("-q", &cli.quiet) || a.flag("--quiet", &cli.quiet) ||
        a.flag("--seal", &cli.perm_seal) ||
        a.flag("--timeline", &cli.timeline) ||
        a.value("--ss", &cli.ss, cli::parse_ss_kind) ||
        a.value("--out", &cli.out) || a.json(&cli.json, &cli.json_out) ||
        a.value("--collapsed", &cli.collapsed_out) ||
        a.value("--sample", &cli.sample) || a.value("--ring", &cli.ring)) {
      continue;
    }
    if (!a.positional()) {
      a.reject();
    } else if (cli.command.empty()) {
      cli.command = a.arg();
    } else {
      cli.positional.push_back(a.arg());
    }
  }

  if (cli.command == "record") {
    a.only("record", {"-q", "--quiet", "--seal", "--ss=", "--out=",
                      "--sample=", "--ring="});
  } else if (cli.command == "report") {
    a.only("report", {"-q", "--quiet", "--json", "--json="});
  } else if (cli.command == "export") {
    a.only("export",
           {"-q", "--quiet", "--timeline", "--json=", "--collapsed="});
  } else if (cli.command == "diff") {
    a.only("diff", {"-q", "--quiet", "--json="});
  }

  const size_t nargs = cli.positional.size();
  try {
    if (cli.command == "record" && nargs == 1) return cmd_record(cli);
    if (cli.command == "report" && nargs == 1) return cmd_report(cli);
    if (cli.command == "export" && nargs == 1) return cmd_export(cli);
    if (cli.command == "diff" && nargs == 2) return cmd_diff(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealpk-trace: %s\n", e.what());
    return 2;
  }
  return usage();
}
