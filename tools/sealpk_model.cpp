// sealpk-model — bounded exhaustive model checker for the seal/pkey state
// machine (src/model).
//
// Drives the real hardware units (Pkr, SealUnit, PK-CAM refill path) and the
// kernel's key-management logic through every op sequence on a down-scaled
// machine, checking each transition against the executable reference spec.
// Counterexamples are written as JSON op scripts that `repro` (and the
// committed-trace regression tests) replay byte-for-byte.
//
// Usage:
//   sealpk-model explore                     # explore to closure, report
//   sealpk-model explore --selfcheck         # + determinism cross-check
//   sealpk-model explore --mutation=skip-free-clear --ce-dir=out/
//   sealpk-model repro trace.json...         # replay committed traces
//   sealpk-model stats                       # config + op alphabet
//   sealpk-model mutations                   # mutation self-test matrix
//
// Exit status: 0 clean (and complete for explore), 1 counterexamples found
// or a self-test failed, 2 usage/IO errors, 3 exploration hit a budget
// before closing the state space.
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli.h"
#include "model/explorer.h"
#include "model/trace.h"

using namespace sealpk;
using namespace sealpk::model;

namespace {

struct CliOptions {
  ModelConfig cfg;
  bool quiet = false;
  bool selfcheck = false;
  bool json = false;
  std::string json_path;  // empty: JSON goes to stdout
  std::string ce_dir;     // counterexample traces land here when set
  std::vector<std::string> paths;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sealpk-model explore [--pkeys=N] [--pages=N] [--cam=N]\n"
      "                            [--depth=N] [--max-states=N]\n"
      "                            [--threads=N] [--max-ce=N]\n"
      "                            [--mutation=<name>] [--ce-dir=<dir>]\n"
      "                            [--selfcheck] [--json[=<path>]] [-q]\n"
      "       sealpk-model repro <trace.json>... [-q]\n"
      "       sealpk-model stats [--pkeys=N] [--pages=N] [--cam=N]\n"
      "       sealpk-model mutations [--depth=N] [--max-states=N] [-q]\n");
  return 2;
}

// --threads, --max-states and --max-ce must be at least 1.
template <class T>
bool parse_positive(std::string_view text, T* out) {
  return cli::parse(text, out) && *out != 0;
}

bool parse_mutation_flag(std::string_view text, Mutation* out) {
  const auto m = parse_mutation(std::string(text));
  if (m.has_value()) *out = *m;
  return m.has_value();
}

void parse_cli(int argc, char** argv, CliOptions* cli) {
  ModelConfig& cfg = cli->cfg;
  cli::Args a("sealpk-model", argc, argv, 2);
  while (a.next()) {
    if (a.flag("-q", &cli->quiet) || a.flag("--quiet", &cli->quiet) ||
        a.flag("--selfcheck", &cli->selfcheck) ||
        a.json(&cli->json, &cli->json_path) ||
        a.value("--ce-dir", &cli->ce_dir) ||
        a.value("--pkeys", &cfg.num_pkeys) ||
        a.value("--pages", &cfg.num_pages) ||
        a.value("--cam", &cfg.cam_entries) ||
        a.value("--depth", &cfg.depth) ||
        a.value("--max-states", &cfg.max_states, parse_positive<u64>) ||
        a.value("--threads", &cfg.threads, parse_positive<unsigned>) ||
        a.value("--max-ce", &cfg.max_counterexamples,
                parse_positive<unsigned>) ||
        a.value("--mutation", &cfg.mutation, parse_mutation_flag)) {
      continue;
    }
    if (a.positional()) {
      cli->paths.push_back(a.arg());
    } else {
      a.reject();
    }
  }
  // explore reads every flag; the other subcommands read a few each.
  const std::string_view cmd = argv[1];
  if (cmd == "repro") {
    a.only(cmd, {"-q", "--quiet"});
  } else if (cmd == "stats") {
    a.only(cmd, {"--pkeys=", "--pages=", "--cam=", "--threads=",
                 "--mutation="});
  } else if (cmd == "mutations") {
    a.only(cmd, {"-q", "--quiet", "--pkeys=", "--pages=", "--cam=",
                 "--depth=", "--max-states=", "--threads=", "--max-ce="});
  }
}

void print_counterexample(const Counterexample& ce, size_t index) {
  std::printf("counterexample %zu: %s%s%s\n", index, ce.kind.c_str(),
              ce.invariant.empty() ? "" : " / ",
              ce.invariant.c_str());
  std::printf("  %s\n", ce.message.c_str());
  for (size_t i = 0; i < ce.ops.size(); ++i) {
    std::printf("  op %zu: %s\n", i, op_to_string(ce.ops[i]).c_str());
  }
}

void dump_counterexamples(const CliOptions& cli,
                          const std::vector<Counterexample>& ces) {
  for (size_t i = 0; i < ces.size(); ++i) {
    const Trace t = make_trace(cli.cfg, ces[i]);
    const std::string path =
        cli.ce_dir + "/ce-" + std::to_string(i) + ".json";
    cli::write_file(path, trace_to_json(t));
    if (!cli.quiet) {
      std::printf("wrote %s\n", path.c_str());
    }
  }
}

void print_stats_json(std::ostream& os, const CliOptions& cli,
                      const ExploreResult& res) {
  os << "{\n  \"schema\": \"sealpk-model-explore-v1\",\n"
     << "  \"pkeys\": " << cli.cfg.num_pkeys << ",\n"
     << "  \"pages\": " << cli.cfg.num_pages << ",\n"
     << "  \"cam\": " << cli.cfg.cam_entries << ",\n"
     << "  \"mutation\": \"" << mutation_name(cli.cfg.mutation) << "\",\n"
     << "  \"states\": " << res.stats.states << ",\n"
     << "  \"transitions\": " << res.stats.transitions << ",\n"
     << "  \"depth\": " << res.stats.depth << ",\n"
     << "  \"complete\": " << (res.stats.complete ? "true" : "false")
     << ",\n"
     << "  \"level_sizes\": [";
  for (size_t i = 0; i < res.stats.level_sizes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << res.stats.level_sizes[i];
  }
  os << "],\n  \"counterexamples\": " << res.counterexamples.size()
     << "\n}\n";
}

int cmd_explore(const CliOptions& cli) {
  ProgressFn progress;
  if (!cli.quiet) {
    progress = [](u64 depth, u64 states, u64 transitions) {
      std::fprintf(stderr, "depth %llu: %llu states, %llu transitions\n",
                   static_cast<unsigned long long>(depth),
                   static_cast<unsigned long long>(states),
                   static_cast<unsigned long long>(transitions));
    };
  }
  const ExploreResult res = explore(cli.cfg, progress);

  if (cli.selfcheck) {
    // Determinism contract: the same exploration on 1 thread and on the
    // requested thread count must agree on every reported number and on
    // the counterexample list.
    ModelConfig serial = cli.cfg;
    serial.threads = 1;
    const ExploreResult ref = explore(serial);
    if (!(ref.stats == res.stats) ||
        !(ref.counterexamples == res.counterexamples)) {
      std::fprintf(stderr,
                   "selfcheck FAILED: %u-thread run disagrees with the "
                   "serial run\n",
                   cli.cfg.threads);
      return 1;
    }
    if (!cli.quiet) {
      std::printf("selfcheck ok: serial run identical\n");
    }
  }

  if (cli.json) {
    std::ostringstream os;
    print_stats_json(os, cli, res);
    cli::emit(cli.json_path, os.str());
  } else if (!cli.quiet || !res.counterexamples.empty() ||
             res.stats.truncated) {
    std::printf(
        "%llu state(s), %llu transition(s), depth %llu, %s, "
        "%zu counterexample(s)\n",
        static_cast<unsigned long long>(res.stats.states),
        static_cast<unsigned long long>(res.stats.transitions),
        static_cast<unsigned long long>(res.stats.depth),
        res.stats.complete    ? "complete"
        : res.stats.truncated ? "TRUNCATED (state budget hit)"
                              : "bounded (depth limit)",
        res.counterexamples.size());
  }
  if (!cli.quiet) {
    for (size_t i = 0; i < res.counterexamples.size(); ++i) {
      print_counterexample(res.counterexamples[i], i);
    }
  }
  if (!cli.ce_dir.empty() && !res.counterexamples.empty()) {
    dump_counterexamples(cli, res.counterexamples);
  }
  if (!res.counterexamples.empty()) return 1;
  return res.stats.truncated ? 3 : 0;
}

int cmd_repro(const CliOptions& cli) {
  if (cli.paths.empty()) return usage();
  int failures = 0;
  for (const auto& path : cli.paths) {
    const std::string text = cli::read_file(path);
    std::string error;
    const auto trace = parse_trace(text, &error);
    if (!trace.has_value()) {
      std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                   error.c_str());
      return 2;
    }
    // The serializer is canonical; a trace that does not round-trip
    // byte-for-byte was edited by hand and should be rewritten.
    if (trace_to_json(*trace) != text) {
      std::fprintf(stderr, "%s: not in canonical form\n", path.c_str());
      ++failures;
      continue;
    }
    const std::string verdict = verify_trace(*trace);
    if (!verdict.empty()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), verdict.c_str());
      ++failures;
    } else if (!cli.quiet) {
      std::printf("%s: ok (%zu op(s), expect %s)\n", path.c_str(),
                  trace->ops.size(), trace->kind.c_str());
    }
  }
  if (!cli.quiet || failures != 0) {
    std::printf("%zu trace(s) replayed, %d failure(s)\n", cli.paths.size(),
                failures);
  }
  return failures == 0 ? 0 : 1;
}

int cmd_stats(const CliOptions& cli) {
  const std::vector<Op> ops = enumerate_ops(cli.cfg);
  std::printf("configuration: %u pkeys, %u pages, %u-entry CAM, %u threads\n",
              cli.cfg.num_pkeys, cli.cfg.num_pages, cli.cfg.cam_entries,
              cli.cfg.threads);
  std::printf("mutation: %s\n", mutation_name(cli.cfg.mutation));
  std::printf("op alphabet (%zu ops):\n", ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    std::printf("  %3zu: %s\n", i, op_to_string(ops[i]).c_str());
  }
  std::printf("access predicates: load/store x %u page(s) + fetch, checked "
              "per state\n",
              cli.cfg.num_pages);
  return 0;
}

int cmd_mutations(const CliOptions& cli) {
  // Mutation self-test: the unmutated machine must explore clean, and every
  // deliberately broken machine/spec variant must be caught. Each mutation
  // is reachable well before depth 7, so default to that bound rather than
  // paying for ten full closures.
  int failures = 0;
  for (unsigned mi = 0; mi < kNumMutations; ++mi) {
    ModelConfig cfg = cli.cfg;
    if (cfg.depth == 0) cfg.depth = 7;
    cfg.mutation = static_cast<Mutation>(mi);
    const ExploreResult res = explore(cfg);
    const bool expect_clean = cfg.mutation == Mutation::kNone;
    const bool clean = res.counterexamples.empty();
    const char* verdict;
    if (expect_clean) {
      const bool ok = clean && !res.stats.truncated;
      verdict = ok ? "ok (clean)" : "FAILED (expected clean)";
      if (!ok) ++failures;
    } else if (clean) {
      verdict = "FAILED (mutation not caught)";
      ++failures;
    } else {
      verdict = "ok (caught)";
    }
    if (!cli.quiet || verdict[0] == 'F') {
      std::printf("%-28s %-28s", mutation_name(cfg.mutation), verdict);
      if (!res.counterexamples.empty()) {
        const auto& ce = res.counterexamples.front();
        std::printf(" first: %s%s%s", ce.kind.c_str(),
                    ce.invariant.empty() ? "" : "/", ce.invariant.c_str());
      }
      std::printf("\n");
    }
  }
  if (!cli.quiet || failures != 0) {
    std::printf("%u mutation(s) checked, %d failure(s)\n", kNumMutations,
                failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  CliOptions cli;
  parse_cli(argc, argv, &cli);
  try {
    cli.cfg.validate();
    if (cmd == "explore") return cmd_explore(cli);
    if (cmd == "repro") return cmd_repro(cli);
    if (cmd == "stats") return cmd_stats(cli);
    if (cmd == "mutations") return cmd_mutations(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sealpk-model: %s\n", e.what());
    return 2;
  }
  return usage();
}
