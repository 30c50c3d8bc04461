// Machine-level tests: run-loop behaviour, instruction budgets,
// multi-process isolation (separate address spaces, per-process SealReg /
// PK-CAM state, pkey namespaces), and stats plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "guest_test_util.h"
#include "passes/shadow_stack.h"
#include "sim/stats.h"
#include "snapshot/snapshot.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

using isa::Function;
using isa::Label;
using isa::Program;
using namespace isa;
using testutil::make_main_program;

TEST(Machine, RunStopsAtInstructionBudget) {
  auto prog = make_main_program([](Program&, Function& f) {
    const Label spin = f.new_label();
    f.bind(spin);
    f.j(spin);  // never exits
  });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  const auto outcome = machine.run(10'000);
  EXPECT_FALSE(outcome.completed);
  EXPECT_GE(outcome.instructions, 10'000u);
  EXPECT_LE(outcome.instructions, 10'010u);
}

TEST(Machine, RunIsResumable) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(s0, 0);
    const Label loop = f.new_label(), done = f.new_label();
    f.bind(loop);
    f.li(t0, 50'000);
    f.bgeu(s0, t0, done);
    f.addi(s0, s0, 1);
    f.j(loop);
    f.bind(done);
    f.li(a0, 9);
  });
  sim::Machine machine{sim::MachineConfig{}};
  const int pid = machine.load(prog.link());
  while (!machine.run(10'000).completed) {
  }
  EXPECT_EQ(machine.exit_code(pid), 9);
}

TEST(Machine, CyclesAdvanceMonotonically) {
  auto prog = make_main_program([](Program&, Function& f) { f.li(a0, 0); });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  const auto outcome = machine.run();
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(outcome.cycles, outcome.instructions);  // traps/syscalls cost
}

TEST(Machine, DeterministicAcrossRuns) {
  auto build = [] {
    return make_main_program([](Program& p, Function& f) {
      rt::add_rand_lib(p);
      p.add_zero("state", 8);
      f.la(t0, "state");
      f.li(t1, 123);
      f.sd(t1, 0, t0);
      f.la(a0, "state");
      f.call("__rand");
      rt::syscall(f, os::sys::kReport);
      f.li(a0, 0);
    });
  };
  const auto a = testutil::run_guest(build());
  const auto b = testutil::run_guest(build());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.reports, b.reports);
}

// ---------------------------------------------------------------------------
// Multi-process isolation.
// ---------------------------------------------------------------------------

// A process that allocates a key, maps a page into it, seals, reports its
// own observations, then spins yielding until `rounds` yields pass.
Program make_tenant(u64 tag, bool seal) {
  Program prog;
  rt::add_crt0(prog);
  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(s0, a0);
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(s1, a0);
  rt::syscall(f, os::sys::kReport);  // [0] my first key
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.mv(a3, s1);
  rt::syscall(f, os::sys::kPkeyMprotect);
  if (seal) {
    f.mv(a0, s1);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
  }
  // Write my tag, yield a few times (interleave with the other tenant),
  // then verify my page is untouched and my key still works.
  f.li(t0, static_cast<i64>(tag));
  f.sd(t0, 0, s0);
  for (int i = 0; i < 4; ++i) rt::syscall(f, os::sys::kSchedYield);
  f.ld(a0, 0, s0);
  rt::syscall(f, os::sys::kReport);  // [1] my tag back
  // Second allocation: each process has its own key namespace, so both
  // tenants should see the same sequence (1, then 2).
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  rt::syscall(f, os::sys::kReport);  // [2] my second key
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.li(a0, 0);
  f.ret();
  return prog;
}

TEST(MultiProcess, AddressSpacesAndKeyNamespacesAreIsolated) {
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 1'000;
  sim::Machine machine(cfg);
  const int pid_a = machine.load(make_tenant(0xAAAA, true).link());
  const int pid_b = machine.load(make_tenant(0xBBBB, false).link());
  const auto outcome = machine.run(50'000'000);
  ASSERT_TRUE(outcome.completed);
  EXPECT_EQ(machine.exit_code(pid_a), 0);
  EXPECT_EQ(machine.exit_code(pid_b), 0);
  // Reports interleave, but each process must have reported
  // key=1, its own tag, key=2 — in that per-process order.
  const auto& reports = machine.kernel().reports();
  ASSERT_EQ(reports.size(), 6u);
  std::vector<u64> a_seq, b_seq;
  for (const u64 r : reports) {
    if (r == 0xAAAA) {
      a_seq.push_back(r);
    } else if (r == 0xBBBB) {
      b_seq.push_back(r);
    } else if (a_seq.size() <= b_seq.size() && a_seq.size() < 3) {
      // key reports: attribute by arrival pattern — both sequences are
      // (1, tag, 2), so just check multiset below instead.
    }
  }
  EXPECT_EQ(a_seq, (std::vector<u64>{0xAAAA}));
  EXPECT_EQ(b_seq, (std::vector<u64>{0xBBBB}));
  // Both processes got key 1 first and key 2 second: count them.
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 1u), 2);
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 2u), 2);
}

// The run loop steps in bursts up to its next audit, checkpoint, quantum or
// budget deadline; a recorder makes it step singly. Both must leave the
// machine in the same state after every run() call, whatever the budgets.
// A nonzero `throw_at` makes the first WRPKR at or after that instret throw
// a host exception from the PKR write hook, which lands inside a burst.
void expect_bursts_match_single_steps(const std::vector<isa::Image>& images,
                                      const sim::MachineConfig& config,
                                      u64 throw_at = 0) {
  sim::MachineConfig traced = config;
  traced.trace.enabled = true;
  sim::Machine bursts(config);
  sim::Machine single(traced);
  ASSERT_NE(single.recorder(), nullptr);
  for (const isa::Image& image : images) {
    ASSERT_EQ(bursts.load(image), single.load(image));
  }
  if (throw_at != 0) {
    for (sim::Machine* m : {&bursts, &single}) {
      core::Hart& hart = m->hart();
      os::Kernel& kernel = m->kernel();
      // Keeps the kernel's per-thread PKR shadow, as its own hook does.
      hart.set_pkr_write_hook([&hart, &kernel, throw_at, armed = true](
                                  u32 row, u64 value) mutable {
        if (armed && hart.instret() >= throw_at) {
          armed = false;
          throw std::runtime_error("host fault inside a burst");
        }
        if (kernel.has_current_thread()) {
          kernel.thread(kernel.current_tid()).ctx.pkr[row] = value;
        }
      });
    }
  }
  for (const u64 budget : {u64{1}, u64{7}, u64{4'999}, u64{50'000},
                           u64{4'000'000'000}}) {
    SCOPED_TRACE(budget);
    const sim::RunOutcome a = bursts.run(budget);
    const sim::RunOutcome b = single.run(budget);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    ASSERT_EQ(snapshot::save(bursts), snapshot::save(single));
  }
  EXPECT_TRUE(bursts.kernel().all_exited());
  EXPECT_EQ(bursts.kernel().host_errors().size(), throw_at != 0 ? 1u : 0u);
  EXPECT_GT(bursts.checkpoints_taken(), 0u);
  EXPECT_EQ(bursts.checkpoints_taken(), single.checkpoints_taken());
}

// Every deadline at once; then checkpoints alone, which the audit schedule
// above would otherwise hide (5000 is a multiple of 1000).
std::vector<sim::MachineConfig> burst_configs() {
  sim::MachineConfig all;
  all.preempt_quantum = 97;
  all.audit_interval = 1'000;
  all.checkpoint_interval = 5'000;
  sim::MachineConfig checkpoints_only;
  checkpoints_only.preempt_quantum = 0;
  checkpoints_only.checkpoint_interval = 3'001;
  return {all, checkpoints_only};
}

TEST(RunLoop, BurstsMatchSingleStepsAcrossPreemptedProcesses) {
  for (const sim::MachineConfig& config : burst_configs()) {
    expect_bursts_match_single_steps(
        {make_tenant(0xAAAA, true).link(), make_tenant(0xBBBB, false).link()},
        config);
  }
}

isa::Image qsort_under(passes::ShadowStackKind kind) {
  const wl::Workload* qsort = wl::find_workload(wl::Suite::kMiBench, "qsort");
  SEALPK_CHECK(qsort != nullptr);
  isa::Program prog = qsort->build(qsort->test_scale);
  passes::ShadowStackOptions opts;
  opts.kind = kind;
  passes::apply_shadow_stack(prog, opts);
  return prog.link();
}

TEST(RunLoop, BurstsMatchSingleStepsWhenEveryCallTraps) {
  // The mprotect shadow stack makes two syscalls per call, so nearly every
  // burst ends in a trap.
  for (const sim::MachineConfig& config : burst_configs()) {
    expect_bursts_match_single_steps(
        {qsort_under(passes::ShadowStackKind::kMprotect)}, config);
  }
}

TEST(RunLoop, HostExceptionInsideABurstKeepsItsRetiredSteps) {
  // The exception kills the only process, so the run-loop state the steps
  // before it left is what the final snapshot holds. SealPK-RD+WR is the
  // image with user-mode WRPKRs (two per call).
  for (const sim::MachineConfig& config : burst_configs()) {
    expect_bursts_match_single_steps(
        {qsort_under(passes::ShadowStackKind::kSealPkRdWr)}, config,
        /*throw_at=*/9'000);
  }
}

// ---------------------------------------------------------------------------
// The hart's fetch path across restore and host threads.
// ---------------------------------------------------------------------------

TEST(FetchPath, RestoreIntoTheSameWarmMachineResumesByteIdentically) {
  // The restore frees every page the hart's cached code page points into,
  // and replaces the ITLB it was tagged with. The resumed run must retrace
  // the first one exactly; under ASan this also guards against a read
  // through the stale page pointer.
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(qsort_under(passes::ShadowStackKind::kSealPkRdWr));
  machine.run(15'000);
  const std::vector<u8> mid = snapshot::save(machine);
  const sim::RunOutcome first = machine.run(15'000);
  ASSERT_FALSE(first.completed);
  const std::vector<u8> after = snapshot::save(machine);
  snapshot::restore(machine, mid);
  const sim::RunOutcome again = machine.run(15'000);
  EXPECT_FALSE(again.completed);
  EXPECT_EQ(again.instructions, first.instructions);
  EXPECT_EQ(again.cycles, first.cycles);
  EXPECT_EQ(snapshot::save(machine), after);
}

TEST(FetchPath, TwoHostThreadsRunMachinesConcurrently) {
  // Each hart owns its decoded pages, so machines on different host
  // threads share no fetch state (TSan checks the host side).
  const isa::Image image = qsort_under(passes::ShadowStackKind::kSealPkRdWr);
  auto run = [&image](std::vector<u8>* blob) {
    sim::Machine machine{sim::MachineConfig{}};
    machine.load(image);
    EXPECT_TRUE(machine.run().completed);
    *blob = snapshot::save(machine);
  };
  std::vector<u8> serial, a, b;
  run(&serial);
  std::thread ta(run, &a);
  std::thread tb(run, &b);
  ta.join();
  tb.join();
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
}

TEST(MultiProcess, SealStateIsPerProcess) {
  // Tenant A seals its domain; tenant B (unsealed) must still be able to
  // re-key its own pages even though A's seal bitmap lives in the same
  // hardware SealUnit (swapped on process switch).
  Program prog_a = make_tenant(0x1, true);
  // Tenant B re-keys its page after the yields — legal only if A's seal
  // did not leak into B's process state.
  Program prog_b;
  rt::add_crt0(prog_b);
  Function& f = prog_b.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  f.li(a0, 0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(s0, a0);
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(s1, a0);  // key 1 — the same numeric key A sealed in ITS process
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, 3);
  f.mv(a3, s1);
  rt::syscall(f, os::sys::kPkeyMprotect);
  for (int i = 0; i < 4; ++i) rt::syscall(f, os::sys::kSchedYield);
  // Re-key to a fresh domain: would be EPERM if A's domain seal leaked.
  f.li(a0, 0);
  f.li(a1, 0);
  rt::syscall(f, os::sys::kPkeyAlloc);
  f.mv(a3, a0);
  f.mv(a0, s0);
  f.li(a1, 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kPkeyMprotect);
  f.neg(a0, a0);
  rt::syscall(f, os::sys::kReport);  // expect 0 (allowed)
  f.li(a0, 0);
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.ret();

  sim::MachineConfig cfg;
  cfg.preempt_quantum = 1'000;
  sim::Machine machine(cfg);
  const int pid_a = machine.load(prog_a.link());
  const int pid_b = machine.load(prog_b.link());
  ASSERT_TRUE(machine.run(50'000'000).completed);
  EXPECT_EQ(machine.exit_code(pid_a), 0);
  EXPECT_EQ(machine.exit_code(pid_b), 0);
  // B's re-key succeeded (reported 0).
  const auto& reports = machine.kernel().reports();
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 0u), 1);
}

TEST(MultiProcess, FaultInOneProcessDoesNotKillTheOther) {
  auto crasher = make_main_program([](Program&, Function& f) {
    f.li(t0, 0x6000'0000);
    f.ld(t1, 0, t0);  // unmapped: killed
    f.li(a0, 0);
  });
  auto survivor = make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 3; ++i) rt::syscall(f, os::sys::kSchedYield);
    f.li(a0, 5);
  });
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 500;
  sim::Machine machine(cfg);
  const int pid_crash = machine.load(crasher.link());
  const int pid_ok = machine.load(survivor.link());
  ASSERT_TRUE(machine.run(10'000'000).completed);
  EXPECT_LT(machine.exit_code(pid_crash), 0);
  EXPECT_EQ(machine.exit_code(pid_ok), 5);
  ASSERT_EQ(machine.kernel().faults().size(), 1u);
  EXPECT_EQ(machine.kernel().faults()[0].pid, pid_crash);
}

TEST(Machine, RejectsAConfigItCannotBuild) {
  const auto rejects = [](const auto& edit) {
    sim::MachineConfig config;
    edit(config);
    EXPECT_THROW(sim::Machine{config}, CheckError);
  };
  rejects([](sim::MachineConfig& c) { c.hart.dtlb_entries = 0; });
  rejects([](sim::MachineConfig& c) {
    c.hart.itlb_entries = sim::kMaxTlbEntries + 1;
  });
  rejects([](sim::MachineConfig& c) {
    c.hart.flavor = static_cast<core::IsaFlavor>(7);
  });
  rejects([](sim::MachineConfig& c) { c.mem_bytes = mem::kPageSize + 1; });
  rejects([](sim::MachineConfig& c) {
    c.mem_bytes = 1024 * mem::kPageSize;
    c.kernel.stack_pages = 1025;
  });
  rejects([](sim::MachineConfig& c) {
    c.kernel.vkey_mru_slots = hw::kNumPkeys + 1;
  });

  sim::MachineConfig edges;
  edges.hart.dtlb_entries = 1;
  edges.hart.itlb_entries = sim::kMaxTlbEntries;
  edges.hart.flavor = core::IsaFlavor::kIntelMpkCompat;
  edges.kernel.vkey_mru_slots = hw::kNumPkeys;
  EXPECT_NO_THROW(sim::Machine{edges});
}

TEST(Machine, ExitCodeSentinelForUnknownPid) {
  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_FALSE(machine.has_process(1));
  EXPECT_FALSE(machine.has_process(-3));
  EXPECT_EQ(machine.exit_code(1), sim::Machine::kNoExitCode);
  EXPECT_EQ(machine.exit_code(9999), sim::Machine::kNoExitCode);

  auto prog = make_main_program([](Program&, Function& f) { f.li(a0, 4); });
  const int pid = machine.load(prog.link());
  EXPECT_TRUE(machine.has_process(pid));
  EXPECT_FALSE(machine.has_process(pid + 1));
  EXPECT_EQ(machine.exit_code(pid + 1), sim::Machine::kNoExitCode);
  ASSERT_TRUE(machine.run().completed);
  EXPECT_EQ(machine.exit_code(pid), 4);
  // The sentinel never collides with a real exit code, including the
  // robustness kill codes.
  EXPECT_LT(sim::Machine::kNoExitCode, os::kExitMachineCheck);
}

TEST(Machine, SameImageLoadedTwiceGetsIndependentProcesses) {
  // Each instance reports its first allocated pkey and exits with it:
  // per-process key namespaces mean both must independently get key 1.
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s0, a0);
    rt::syscall(f, os::sys::kReport);
    for (int i = 0; i < 2; ++i) rt::syscall(f, os::sys::kSchedYield);
    f.mv(a0, s0);
  });
  const isa::Image image = prog.link();
  sim::MachineConfig cfg;
  cfg.preempt_quantum = 500;
  sim::Machine machine(cfg);
  const int pid_a = machine.load(image);
  const int pid_b = machine.load(image);
  ASSERT_NE(pid_a, sim::Machine::kLoadRefused);
  ASSERT_NE(pid_b, sim::Machine::kLoadRefused);
  EXPECT_NE(pid_a, pid_b);
  ASSERT_TRUE(machine.run(50'000'000).completed);
  // Both processes allocated "their" key 1 and exited with it.
  EXPECT_EQ(machine.exit_code(pid_a), 1);
  EXPECT_EQ(machine.exit_code(pid_b), 1);
  const auto& reports = machine.kernel().reports();
  EXPECT_EQ(std::count(reports.begin(), reports.end(), 1u), 2);
}

TEST(MachineStats, KernelCountsSyscalls) {
  auto prog = make_main_program([](Program&, Function& f) {
    for (int i = 0; i < 3; ++i) {
      f.li(a0, i);
      rt::syscall(f, os::sys::kReport);
    }
    f.li(a0, 0);
  });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  machine.run();
  const auto& stats = machine.kernel().stats();
  EXPECT_EQ(stats.syscall_counts.at(os::sys::kReport), 3u);
  EXPECT_EQ(stats.syscall_counts.at(os::sys::kExit), 1u);
  EXPECT_GE(stats.syscalls, 4u);
}

TEST(Stats, CollectsCoherentCounters) {
  auto prog = make_main_program([](Program& p, Function& f) {
    rt::add_pkey_lib(p);
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(a1, zero);
    f.mv(a1, a0);
    f.mv(a0, s0);
    f.mv(a3, a1);
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.ld(t0, 0, s0);
    f.sd(t0, 0, s0);
    f.li(a0, 5);
    f.call("__pkey_get");
    f.li(a0, 0);
  });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  const auto outcome = machine.run();
  ASSERT_TRUE(outcome.completed);
  const auto stats = sim::collect_stats(machine);
  EXPECT_EQ(stats.instructions, machine.hart().instret());
  EXPECT_GT(stats.cycles, stats.instructions);
  EXPECT_LT(stats.ipc(), 1.0);
  EXPECT_GT(stats.loads, 0u);
  EXPECT_GT(stats.stores, 0u);
  EXPECT_GT(stats.calls, 0u);          // crt0's call + __pkey_get
  EXPECT_GT(stats.syscalls, 3u);
  EXPECT_GT(stats.rdpkr, 0u);          // __pkey_get uses RDPKR
  EXPECT_GT(stats.dtlb.hits + stats.dtlb.misses, 0u);
  EXPECT_GT(stats.pkr.perm_lookups, 0u);
  EXPECT_GT(stats.dtlb_hit_rate(), 0.2);
  std::ostringstream os;
  sim::print_stats(stats, os);
  EXPECT_NE(os.str().find("dtlb hit rate"), std::string::npos);
  EXPECT_NE(os.str().find("instructions"), std::string::npos);
}

}  // namespace
}  // namespace sealpk
