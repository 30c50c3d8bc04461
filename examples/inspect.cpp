// Tooling demo: run a benchmark proxy with the event recorder on, then dump
// machine statistics and the recorder's report (event counts, per-pkey
// table, domain residency, hottest functions) — the workflow for debugging
// a guest program or an instrumentation pass.
//
// Usage: inspect [workload-name]   (default: qsort)
#include <cstdio>
#include <cstring>
#include <iostream>

#include "obs/export.h"
#include "passes/shadow_stack.h"
#include "sim/stats.h"
#include "workloads/workload.h"

using namespace sealpk;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "qsort";
  const wl::Workload* workload = nullptr;
  for (const auto& w : wl::all_workloads()) {
    if (std::strcmp(w.name, name) == 0) {
      workload = &w;
      break;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; options:", name);
    for (const auto& w : wl::all_workloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  isa::Program prog = workload->build(workload->test_scale);
  passes::ShadowStackOptions opts;
  opts.kind = passes::ShadowStackKind::kSealPkRdWr;
  passes::apply_shadow_stack(prog, opts);

  sim::MachineConfig config;
  config.trace.enabled = true;
  config.trace.sample_interval = 256;  // PC profiler, for the hot functions
  sim::Machine machine(config);
  const int pid = machine.load(prog.link());
  const auto outcome = machine.run();

  std::printf("%s/%s under the SealPK-RD+WR shadow stack: %s, exit %lld\n",
              wl::suite_name(workload->suite), workload->name,
              outcome.completed ? "completed" : "hit the budget",
              static_cast<long long>(machine.exit_code(pid)));
  std::printf("checksum %llu (golden %llu)\n\n",
              static_cast<unsigned long long>(
                  machine.kernel().reports().empty()
                      ? 0
                      : machine.kernel().reports()[0]),
              static_cast<unsigned long long>(
                  workload->golden(workload->test_scale)));

  sim::print_stats(sim::collect_stats(machine), std::cout);

  std::printf("\n");
  obs::write_report(machine.recorder()->trace(), std::cout);
  return 0;
}
