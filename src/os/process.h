// Process and thread models: the task_struct state the paper's kernel
// patch adds (per-thread PKR contents, per-process seal state).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/hart.h"
#include "hw/pkr.h"
#include "hw/seal_unit.h"
#include "mpk/vkey_table.h"
#include "os/addr_space.h"
#include "os/key_manager.h"

namespace sealpk::os {

struct ThreadContext {
  std::array<u64, 32> regs{};
  u64 pc = 0;
  // §III-B.2: "We modify the task_struct in the Linux kernel to maintain
  // the contents of PKR for each thread during the context switches."
  hw::Pkr::Snapshot pkr{};
  u32 pkru = 0;  // the MPK flavour's per-thread register
  // Staged permissible-range latches (seal.start / seal.end).
  u64 seal_start = 0;
  u64 seal_end = 0;

  template <class Ar, class Self>
  static void io(Ar& ar, Self& c) {
    ar(c.regs, c.pc, c.pkr, c.pkru, c.seal_start, c.seal_end);
  }
};

struct Thread {
  int tid = 0;
  int pid = 0;
  ThreadContext ctx;
  bool exited = false;
  // Signal delivery state: the interrupted context is parked here while
  // the handler runs (the Linux port would place this frame on the user
  // stack; kernel-side storage is a documented simplification).
  bool in_signal = false;
  ThreadContext signal_saved;
};

struct Process {
  int pid = 0;
  u64 signal_handler = 0;  // 0 = default action (kill)
  std::unique_ptr<AddressSpace> aspace;
  std::unique_ptr<KeyManager> keys;
  // Per-process hardware seal state (SealReg + PK-CAM), swapped on process
  // switch like the paper's kernel does.
  hw::SealUnit::Snapshot seal_hw{};
  // Virtual-key table (DESIGN.md §15), created lazily on the first vpkey
  // syscall; null for processes that never virtualize. Travels in the
  // snapshot VKEY section (format v2), not in the frozen KERN layout.
  std::unique_ptr<mpk::VkeyTable> vkeys;
  std::vector<int> thread_tids;
  bool exited = false;
  i64 exit_code = 0;
};

}  // namespace sealpk::os
