// Machine — the facade wiring DRAM + hart + kernel into the equivalent of
// the paper's FPGA board (Rocket + SealPK + Linux). This is the main entry
// point of the public API: load a linked guest image and run it.
//
// Robustness layer: the machine optionally carries a seeded FaultInjector
// (MachineConfig::fault_plan) that corrupts PKR/TLB/PTE/CAM state while the
// guest runs, a MachineAuditor that cross-checks hardware state against the
// kernel's software truth every `audit_interval` instructions, and a
// run-loop watchdog that converts same-PC trap storms and zero-retirement
// livelock into process kills with distinct exit codes. Host exceptions
// (CheckError etc.) never escape run(): they are contained as modelled
// machine checks against the offending process.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "analysis/verifier.h"
#include "common/check.h"
#include "core/hart.h"
#include "fault/auditor.h"
#include "fault/fault.h"
#include "isa/program.h"
#include "mem/phys_mem.h"
#include "os/kernel.h"

namespace sealpk::sim {

struct MachineConfig {
  core::HartConfig hart;
  os::KernelConfig kernel;
  u64 mem_bytes = 256 * 1024 * 1024;  // the paper's Zedboard has 256 MiB
  // Timer-preemption quantum in instructions (0 disables preemption; the
  // scheduler then only switches on sched_yield / exit).
  u64 preempt_quantum = 50'000;
  // Static-verification loader gate (src/analysis): kOff admits anything
  // (legacy behaviour), kWarn records the report but still admits, kEnforce
  // refuses images with error-severity findings. The report of the last
  // load() is available via verify_report().
  analysis::LoadVerifyPolicy verify_policy = analysis::LoadVerifyPolicy::kOff;
  analysis::VerifyOptions verify_options;

  // --- robustness ----------------------------------------------------------
  // Seeded fault injection (disabled by default: fault_plan.enabled).
  fault::FaultPlan fault_plan;
  // MachineAuditor cadence in retired instructions. 0 = automatic: audit
  // every kDefaultAuditInterval instructions when fault injection is on,
  // never otherwise (keeping injection-disabled runs byte-identical).
  u64 audit_interval = 0;
  // Watchdog thresholds (0 disables the respective check): consecutive
  // traps pinned to one PC, and consecutive steps retiring nothing.
  u64 watchdog_trap_storm = 64;
  u64 watchdog_livelock = 4096;

  // --- checkpoint / rollback ----------------------------------------------
  // Periodic in-memory checkpoint cadence in retired instructions (0 = no
  // checkpointing). A checkpoint is a full snapshot-format serialization of
  // the machine, taken only when a peek-only audit comes back clean so the
  // saved state is known-good.
  u64 checkpoint_interval = 0;
  // Maximum snapshot rollbacks per machine before an unrecoverable machine
  // check falls through to the existing kExitMachineCheck kill (the cap
  // contains permanently-corrupting fault plans and rollback storms).
  u64 max_rollbacks = 3;

  // --- observability (src/obs) ---------------------------------------------
  // Off by default: publishers then sit on a null-check fast path. Emits
  // charge no modelled cycles and never touch architectural state, so
  // enabling tracing cannot change a run's instructions, cycles or
  // snapshots (guarded by the golden-compat test).
  // Deliberately NOT serialized into snapshots: the CFG section's byte
  // format is frozen by the v1 golden file, and a restored machine decides
  // its own tracing independently of how the snapshot was recorded.
  obs::TraceConfig trace;
};

inline constexpr size_t kMaxTlbEntries = 4096;

// Returns `config`, or throws CheckError when it sizes something no machine
// can be built with. Runs before anything is allocated: in the Machine
// constructor ahead of its members, and in snapshot::config_from.
inline const MachineConfig& validate(const MachineConfig& config) {
  SEALPK_CHECK_MSG(config.mem_bytes != 0 &&
                       config.mem_bytes % mem::kPageSize == 0 &&
                       config.mem_bytes <= mem::kMaxPhysBytes,
                   "mem_bytes " << config.mem_bytes
                                << " is not a nonzero page multiple of at most "
                                << mem::kMaxPhysBytes);
  for (const size_t entries :
       {config.hart.dtlb_entries, config.hart.itlb_entries}) {
    SEALPK_CHECK_MSG(entries != 0 && entries <= kMaxTlbEntries,
                     "TLB of " << entries << " entries; the cap is "
                               << kMaxTlbEntries);
  }
  SEALPK_CHECK_MSG(config.hart.flavor == core::IsaFlavor::kSealPk ||
                       config.hart.flavor == core::IsaFlavor::kIntelMpkCompat,
                   "unknown ISA flavor "
                       << static_cast<unsigned>(config.hart.flavor));
  SEALPK_CHECK_MSG(
      config.kernel.stack_pages <= config.mem_bytes / mem::kPageSize,
      "stack of " << config.kernel.stack_pages << " pages exceeds DRAM");
  SEALPK_CHECK_MSG(config.kernel.vkey_mru_slots <= hw::kNumPkeys,
                   config.kernel.vkey_mru_slots
                       << " vkey MRU slots; the cap is " << hw::kNumPkeys);
  return config;
}

struct RunOutcome {
  bool completed = false;  // every loaded process exited
  u64 instructions = 0;    // retired during this run() call
  u64 cycles = 0;          // simulated cycles elapsed during this run()
};

class Machine {
 public:
  static constexpr u64 kDefaultAuditInterval = 10'000;

  explicit Machine(const MachineConfig& config = {})
      : config_(validate(config)),
        mem_(config.mem_bytes),
        hart_(mem_, config.hart),
        kernel_(hart_, wired_kernel_config()) {
    if (config_.fault_plan.enabled) {
      injector_ = std::make_unique<fault::FaultInjector>(config_.fault_plan);
    }
    auditor_ = std::make_unique<fault::MachineAuditor>(hart_, kernel_);
    if (config_.trace.enabled) {
      recorder_ = std::make_unique<obs::Recorder>(config_.trace);
      hart_.set_recorder(recorder_.get());
      kernel_.set_recorder(recorder_.get());
      if (injector_ != nullptr) injector_->set_recorder(recorder_.get());
    }
  }

  // Loads a linked image as a new process; returns the pid, or kLoadRefused
  // when the verify policy (or the kernel's own admission gate) rejects it.
  static constexpr int kLoadRefused = os::Kernel::kLoadRefused;
  int load(const isa::Image& image);

  // Findings of the most recent load() under kWarn/kEnforce (empty under
  // kOff or when no load has happened yet).
  const analysis::Report& verify_report() const { return verify_report_; }

  // Runs until every process exits or `max_instructions` retire.
  RunOutcome run(u64 max_instructions = 4'000'000'000ULL);

  core::Hart& hart() { return hart_; }
  os::Kernel& kernel() { return kernel_; }
  mem::PhysMem& mem() { return mem_; }
  const MachineConfig& config() const { return config_; }

  // nullptr when fault injection is disabled.
  fault::FaultInjector* injector() { return injector_.get(); }
  fault::MachineAuditor& auditor() { return *auditor_; }

  // nullptr when tracing is disabled (MachineConfig::trace.enabled).
  obs::Recorder* recorder() { return recorder_.get(); }

  // Called by snapshot::restore after the kernel's scheduling state has
  // been loaded: the recorder's pid/tid stamping context arrives out of
  // band (it is not part of the snapshot), so re-seed it here. A no-op
  // without a recorder. Events published after this point stamp exactly as
  // they would have in an uninterrupted traced run.
  void reseed_recorder() {
    if (recorder_ == nullptr) return;
    if (kernel_.has_current_thread()) {
      const int tid = kernel_.current_tid();
      recorder_->seed_context(
          static_cast<u32>(kernel_.thread(tid).pid), static_cast<u32>(tid));
    }
  }

  // Sentinel returned by exit_code() for a pid that never existed — callers
  // probing unknown pids get this instead of a host exception.
  static constexpr i64 kNoExitCode = std::numeric_limits<i64>::min();
  bool has_process(int pid) const { return kernel_.has_process(pid); }
  i64 exit_code(int pid) const {
    return kernel_.has_process(pid) ? kernel_.process(pid).exit_code
                                    : kNoExitCode;
  }

  // --- checkpoint / rollback ----------------------------------------------
  // Run-loop state that must survive a save/restore for the resumed
  // execution to be bit-identical to an uninterrupted one: preemption and
  // watchdog streaks plus the audit/checkpoint schedules. next_audit == 0
  // means "not yet scheduled" (run() initialises it lazily), so a freshly
  // constructed machine and a restored one take the same path.
  struct RunLoopState {
    u64 since_switch = 0;
    u64 trap_streak = 0;
    u64 last_trap_pc = ~u64{0};
    u64 stall_streak = 0;
    u64 next_audit = 0;
    u64 next_checkpoint = 0;
  };
  RunLoopState& runloop() { return runloop_; }
  const RunLoopState& runloop() const { return runloop_; }

  u64 checkpoints_taken() const { return checkpoints_; }
  u64 rollbacks() const { return rollbacks_; }
  u64 rollback_failures() const { return rollback_failures_; }
  bool has_checkpoint() const { return !checkpoint_.empty(); }
  const std::vector<u8>& checkpoint_blob() const { return checkpoint_; }

 private:
  // The kernel's config is derived from ours: the CAM-refill fault hooks
  // close over `this` so they can consult the injector created afterwards,
  // and the machine-check escalation hook routes unrecoverable corruption
  // into snapshot rollback before the kill.
  os::KernelConfig wired_kernel_config() {
    os::KernelConfig cfg = config_.kernel;
    if (config_.fault_plan.enabled) {
      cfg.cam_refill_drop = [this] {
        return injector_ != nullptr && injector_->should_drop_refill(hart_);
      };
      cfg.cam_refill_dup = [this] {
        return injector_ != nullptr && injector_->should_dup_refill(hart_);
      };
    }
    if (config_.checkpoint_interval != 0) {
      cfg.machine_check_escalation = [this] { return request_rollback(); };
    }
    return cfg;
  }

  // Serializes the machine into checkpoint_ (only when a peek-only audit is
  // clean, so the checkpoint never freezes latent corruption).
  void take_checkpoint();
  // Consulted by the kernel's machine-check kill path: returns true when a
  // rollback is possible and arms it (the restore happens once the trap
  // handling has unwound back to the run loop).
  bool request_rollback();
  void perform_rollback();
  // Run-loop bookkeeping for `retired` steps of one burst that retired
  // without trapping: the trap and stall streaks and the preemption quantum.
  void note_retired(u64 retired);

  MachineConfig config_;
  mem::PhysMem mem_;
  core::Hart hart_;
  os::Kernel kernel_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::MachineAuditor> auditor_;
  std::unique_ptr<obs::Recorder> recorder_;
  analysis::Report verify_report_;
  RunLoopState runloop_;

  std::vector<u8> checkpoint_;     // last known-good snapshot (empty = none)
  u64 checkpoint_injected_ = 0;    // injector lifetime count at checkpoint
  u64 checkpoints_ = 0;
  u64 rollbacks_ = 0;
  u64 rollback_failures_ = 0;
  bool rollback_pending_ = false;
  bool in_final_ = false;  // final reckoning: rollback no longer allowed
};

}  // namespace sealpk::sim
