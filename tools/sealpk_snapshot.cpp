// sealpk-snapshot — checkpoint/restore workbench for the simulated machine.
//
// Subcommands:
//   save <workload> --at=<instret> [--out=<file>]
//       Build the workload, run it to the given retired-instruction point,
//       serialize the full machine and write the snapshot file.
//   restore <file> [--expect-exit=<code>]
//       Rebuild a machine from the snapshot's embedded config, restore, run
//       to completion and print the guest outcome. With --expect-exit the
//       process exit code is checked (exit status 1 on mismatch).
//   replay <workload> --at=<instret>
//       Determinism oracle: run the workload uninterrupted to completion and
//       snapshot the final state; then run it again but save/restore through
//       a snapshot at the given point before finishing. The two final
//       snapshots must be bit-identical.
//   diff <a> <b>
//       Section-level comparison of two snapshot files (exit status 1 when
//       they differ).
//   info <file>
//       Header, checksum and section table of a snapshot file.
//
// info and diff accept --json[=<path>] for a machine-readable view (the
// same contract as the chaos/fleet/verify/serve tools): the flag changes
// the output format only, never the exit code.
//
// Workload construction accepts the same shaping flags as sealpk-chaos
// (--ss=, --seal) plus a fault plan (--chaos-seed/--chaos-rate/--cam-rate/
// --max-faults), so replay can prove determinism *under fault injection*:
// the injector's RNG stream and event log travel inside the snapshot.
//
// Exit status: 0 success, 1 oracle/check failure, 2 usage or I/O errors.
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/json.h"
#include "passes/shadow_stack.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "workloads/workload.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string command;
  std::vector<std::string> positional;
  std::string out;
  u64 at = 0;
  bool have_at = false;
  i64 expect_exit = 0;
  bool have_expect_exit = false;
  bool quiet = false;
  bool perm_seal = false;
  bool json = false;      // machine-readable info/diff output
  std::string json_out;   // empty = stdout
  passes::ShadowStackKind ss = passes::ShadowStackKind::kNone;
  fault::FaultPlan plan;  // armed by --chaos-seed, --chaos-rate or --cam-rate
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-snapshot save <workload> --at=<instret> [--out=<file>]\n"
      "       sealpk-snapshot restore <file> [--expect-exit=<code>]\n"
      "       sealpk-snapshot replay <workload> --at=<instret>\n"
      "       sealpk-snapshot diff <a> <b> [--json[=<path>]]\n"
      "       sealpk-snapshot info <file> [--json[=<path>]]\n"
      "options: [-q] [--ss=none|inline|func|sealpk-wr|sealpk-rdwr|mprotect]\n"
      "         [--seal] [--chaos-seed=<n>] [--chaos-rate=<p>]\n"
      "         [--cam-rate=<p>] [--max-faults=<n>]\n");
  return 2;
}

const wl::Workload* find_workload(const std::string& name) {
  for (const auto& w : wl::all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

isa::Image build_image(const wl::Workload& w, const CliOptions& cli) {
  isa::Program prog = w.build(w.test_scale);
  if (cli.ss != passes::ShadowStackKind::kNone) {
    passes::ShadowStackOptions ss;
    ss.kind = cli.ss;
    ss.perm_seal = cli.perm_seal;
    passes::apply_shadow_stack(prog, ss);
  }
  return prog.link();
}

sim::MachineConfig make_config(const CliOptions& cli) {
  sim::MachineConfig config;
  config.fault_plan = cli.plan;
  return config;
}

int cmd_save(const CliOptions& cli) {
  const wl::Workload* w = find_workload(cli.positional[0]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", cli.positional[0].c_str());
    return 2;
  }
  sim::Machine machine(make_config(cli));
  const int pid = machine.load(build_image(*w, cli));
  if (pid == sim::Machine::kLoadRefused) {
    std::fprintf(stderr, "workload refused by loader\n");
    return 1;
  }
  machine.run(cli.at);
  const std::vector<u8> blob = snapshot::save(machine);
  const std::string out =
      cli.out.empty() ? cli.positional[0] + ".spksnap" : cli.out;
  cli::write_file(out, blob);
  if (!cli.quiet) {
    std::printf("%s: %zu bytes at instret=%llu pc=0x%llx\n", out.c_str(),
                blob.size(),
                static_cast<unsigned long long>(machine.hart().instret()),
                static_cast<unsigned long long>(machine.hart().pc()));
  }
  return 0;
}

int cmd_restore(const CliOptions& cli) {
  const std::vector<u8> blob = snapshot::read_file(cli.positional[0]);
  sim::Machine machine(snapshot::config_from(blob));
  snapshot::restore(machine, blob);
  const sim::RunOutcome outcome = machine.run();
  int pid = -1;
  for (int p = 1; p < 64; ++p) {
    if (machine.has_process(p)) pid = p;
  }
  const i64 code = pid > 0 ? machine.exit_code(pid) : sim::Machine::kNoExitCode;
  if (!cli.quiet) {
    std::printf("resumed %llu instruction(s), completed=%d, exit=%lld\n",
                static_cast<unsigned long long>(outcome.instructions),
                outcome.completed ? 1 : 0, static_cast<long long>(code));
    std::fputs(machine.kernel().console().c_str(), stdout);
  }
  if (cli.have_expect_exit && code != cli.expect_exit) {
    std::fprintf(stderr, "exit code %lld, expected %lld\n",
                 static_cast<long long>(code),
                 static_cast<long long>(cli.expect_exit));
    return 1;
  }
  return outcome.completed ? 0 : 1;
}

int cmd_replay(const CliOptions& cli) {
  const wl::Workload* w = find_workload(cli.positional[0]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", cli.positional[0].c_str());
    return 2;
  }
  const isa::Image image = build_image(*w, cli);

  // Reference: one uninterrupted run.
  sim::Machine straight(make_config(cli));
  if (straight.load(image) == sim::Machine::kLoadRefused) {
    std::fprintf(stderr, "workload refused by loader\n");
    return 1;
  }
  straight.run();
  const std::vector<u8> final_straight = snapshot::save(straight);

  // Candidate: same run, but torn down and resumed from a snapshot midway.
  sim::Machine first(make_config(cli));
  first.load(image);
  first.run(cli.at);
  const std::vector<u8> mid = snapshot::save(first);

  sim::Machine resumed(snapshot::config_from(mid));
  snapshot::restore(resumed, mid);
  resumed.run();
  const std::vector<u8> final_resumed = snapshot::save(resumed);

  if (final_straight == final_resumed) {
    if (!cli.quiet) {
      std::printf(
          "%s: bit-identical after save/restore at instret=%llu "
          "(%zu-byte final state)\n",
          cli.positional[0].c_str(), static_cast<unsigned long long>(cli.at),
          final_straight.size());
    }
    return 0;
  }
  std::printf("%s: FINAL STATE DIVERGED after restore at instret=%llu\n",
              cli.positional[0].c_str(),
              static_cast<unsigned long long>(cli.at));
  for (const auto& line : snapshot::diff(final_straight, final_resumed)) {
    std::printf("  %s\n", line.c_str());
  }
  return 1;
}

int cmd_diff(const CliOptions& cli) {
  const std::vector<u8> a = snapshot::read_file(cli.positional[0]);
  const std::vector<u8> b = snapshot::read_file(cli.positional[1]);
  const std::vector<std::string> lines = snapshot::diff(a, b);
  if (cli.json) {
    std::ostringstream os;
    os << "{\"a\": \"" << json_escape(cli.positional[0]) << "\", \"b\": \""
       << json_escape(cli.positional[1])
       << "\", \"equivalent\": " << (lines.empty() ? "true" : "false")
       << ", \"differences\": [";
    for (size_t i = 0; i < lines.size(); ++i) {
      os << (i != 0 ? ", " : "") << "\"" << json_escape(lines[i]) << "\"";
    }
    os << "]}\n";
    // --json changes the output format, never the verdict.
    cli::emit(cli.json_out, os.str());
    return lines.empty() ? 0 : 1;
  }
  if (lines.empty()) {
    if (!cli.quiet) std::printf("snapshots are equivalent\n");
    return 0;
  }
  for (const auto& line : lines) std::printf("%s\n", line.c_str());
  return 1;
}

int cmd_info(const CliOptions& cli) {
  const std::vector<u8> blob = snapshot::read_file(cli.positional[0]);
  const snapshot::Info info = snapshot::info(blob);
  if (cli.json) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(info.checksum));
    std::ostringstream os;
    os << "{\"file\": \"" << json_escape(cli.positional[0])
       << "\", \"version\": " << info.version
       << ", \"payload_bytes\": " << info.payload_len << ", \"fnv1a64\": \""
       << checksum << "\", \"checksum_ok\": "
       << (info.checksum_ok ? "true" : "false")
       << ", \"instret\": " << info.instret << ", \"cycles\": " << info.cycles
       << ", \"pc\": " << info.pc << ", \"sections\": [";
    for (size_t i = 0; i < info.sections.size(); ++i) {
      os << (i != 0 ? ", " : "") << "{\"name\": \""
         << json_escape(info.sections[i].name)
         << "\", \"bytes\": " << info.sections[i].size << "}";
    }
    os << "]}\n";
    cli::emit(cli.json_out, os.str());
    return 0;
  }
  std::printf("version   %u\n", info.version);
  std::printf("payload   %llu bytes, fnv1a64=%016llx (%s)\n",
              static_cast<unsigned long long>(info.payload_len),
              static_cast<unsigned long long>(info.checksum),
              info.checksum_ok ? "ok" : "MISMATCH");
  std::printf("instret   %llu\n",
              static_cast<unsigned long long>(info.instret));
  std::printf("cycles    %llu\n", static_cast<unsigned long long>(info.cycles));
  std::printf("pc        0x%llx\n", static_cast<unsigned long long>(info.pc));
  for (const auto& sec : info.sections) {
    std::printf("  %-4s  %llu bytes\n", sec.name.c_str(),
                static_cast<unsigned long long>(sec.size));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli::Args a("sealpk-snapshot", argc, argv);
  while (a.next()) {
    if (a.flag("-q", &cli.quiet) || a.flag("--quiet", &cli.quiet) ||
        a.flag("--seal", &cli.perm_seal) ||
        a.value("--ss", &cli.ss, cli::parse_ss_kind) ||
        a.value("--out", &cli.out) || a.json(&cli.json, &cli.json_out) ||
        cli::fault_plan_flag(a, &cli.plan)) {
      continue;
    }
    if (a.value("--at", &cli.at)) {
      cli.have_at = true;
    } else if (a.value("--expect-exit", &cli.expect_exit)) {
      cli.have_expect_exit = true;
    } else if (!a.positional()) {
      a.reject();
    } else if (cli.command.empty()) {
      cli.command = a.arg();
    } else {
      cli.positional.push_back(a.arg());
    }
  }

  if (cli.command == "save") {
    a.only("save", {"-q", "--quiet", "--seal", "--ss=", "--out=", "--at=",
                    "--chaos-seed=", "--chaos-rate=", "--cam-rate=",
                    "--max-faults="});
  } else if (cli.command == "restore") {
    a.only("restore", {"-q", "--quiet", "--expect-exit="});
  } else if (cli.command == "replay") {
    a.only("replay", {"-q", "--quiet", "--seal", "--ss=", "--at=",
                      "--chaos-seed=", "--chaos-rate=", "--cam-rate=",
                      "--max-faults="});
  } else if (cli.command == "diff") {
    a.only("diff", {"-q", "--quiet", "--json", "--json="});
  } else if (cli.command == "info") {
    a.only("info", {"--json", "--json="});
  }

  const size_t nargs = cli.positional.size();
  try {
    if (cli.command == "save" && nargs == 1 && cli.have_at) {
      return cmd_save(cli);
    }
    if (cli.command == "restore" && nargs == 1) return cmd_restore(cli);
    if (cli.command == "replay" && nargs == 1 && cli.have_at) {
      return cmd_replay(cli);
    }
    if (cli.command == "diff" && nargs == 2) return cmd_diff(cli);
    if (cli.command == "info" && nargs == 1) return cmd_info(cli);
  } catch (const snapshot::SnapshotError& e) {
    std::fprintf(stderr, "sealpk-snapshot: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealpk-snapshot: unexpected error: %s\n", e.what());
    return 2;
  }
  return usage();
}
