// The simulated hart: an RV64IM in-order core (Rocket-class) with Sv39
// translation, split TLBs, U/S privilege, trap machinery, and the SealPK
// units (PKR + SealReg/PK-CAM) attached via a RoCC-style custom-instruction
// path. A second ISA flavour models an Intel-MPK-like design (4-bit PTE
// keys + the PKRU register) on the same pipeline for the paper's
// comparisons.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "core/csr.h"
#include "core/timing.h"
#include "core/trap.h"
#include "hw/pkr.h"
#include "hw/pkru.h"
#include "hw/seal_unit.h"
#include "isa/inst.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "mem/walker.h"
#include "obs/recorder.h"

namespace sealpk::core {

enum class IsaFlavor : u8 {
  kSealPk,          // 10-bit PTE pkeys, PKR, sealing units
  kIntelMpkCompat,  // 4-bit PTE pkeys, PKRU, WRPKRU/RDPKRU, no sealing
};

enum class Priv : u8 { kUser = 0, kSupervisor = 1 };

struct HartConfig {
  IsaFlavor flavor = IsaFlavor::kSealPk;
  size_t dtlb_entries = 32;
  size_t itlb_entries = 32;
  TimingModel timing;
};

enum class StepKind : u8 { kOk, kTrap };

struct StepResult {
  StepKind kind = StepKind::kOk;
  TrapCause cause = TrapCause::kIllegalInst;  // valid when kind == kTrap
};

struct HartStats {
  u64 loads = 0;
  u64 stores = 0;
  u64 calls = 0;  // jal/jalr writing ra — the shadow-stack event rate
  u64 traps = 0;
  u64 pkey_denials = 0;  // data accesses denied by the pkey (not the PTE)
  u64 wrpkr_count = 0;
  u64 rdpkr_count = 0;
  u64 wrpkru_count = 0;
};

class Hart {
 public:
  explicit Hart(mem::PhysMem& mem, const HartConfig& config = {});

  // --- architectural state -------------------------------------------------
  u64 reg(unsigned idx) const;
  void set_reg(unsigned idx, u64 value);
  u64 pc() const { return pc_; }
  void set_pc(u64 pc) { pc_ = pc; }
  Priv priv() const { return priv_; }
  void set_priv(Priv priv) { priv_ = priv; }

  CsrFile& csrs() { return csrs_; }
  const CsrFile& csrs() const { return csrs_; }
  hw::Pkr& pkr() { return pkr_; }
  hw::SealUnit& seal_unit() { return seal_unit_; }
  hw::Pkru& pkru() { return pkru_; }
  mem::Tlb& dtlb() { return dtlb_; }
  mem::Tlb& itlb() { return itlb_; }
  mem::PhysMem& mem() { return mem_; }
  const HartConfig& config() const { return config_; }
  const TimingModel& timing() const { return config_.timing; }

  // --- execution -------------------------------------------------------------
  // Executes one instruction; on an exception the hart has already
  // redirected to stvec in S-mode with scause/sepc/stval set.
  StepResult step();

  // Steps until `max_steps` instructions retire or one step traps, and
  // returns that trap (kOk when all `max_steps` retired). The machine's run
  // loop calls this with the distance to its next scheduled event, so a
  // burst of steps costs one call. step() is run(1).
  StepResult run(u64 max_steps);

  // The OS model charges its software-path costs here.
  void add_cycles(u64 cycles) { cycles_ += cycles; }
  u64 cycles() const { return cycles_; }
  u64 instret() const { return instret_; }
  const HartStats& stats() const { return stats_; }

  // Snapshot ports: restore overwrites the performance counters so a
  // resumed hart continues the exact counter stream of the saved one.
  void set_cycles(u64 cycles) { cycles_ = cycles; }
  void set_instret(u64 instret) { instret_ = instret; }
  void set_stats(const HartStats& stats) { stats_ = stats; }

  // Flushes both TLBs (the kernel's sfence.vma after PTE updates).
  void flush_tlbs();

  // Optional PKR write-through hook: invoked after every successful WRPKR
  // with the final row value actually committed to the SRAM
  // (sealed-neighbour preservation already applied). The kernel uses it to
  // keep a live per-thread software shadow of the PKR so a corrupted row
  // can be scrubbed back. Zero cost when unset.
  using PkrWriteHook = std::function<void(u32 row, u64 value)>;
  void set_pkr_write_hook(PkrWriteHook hook) {
    pkr_write_hook_ = std::move(hook);
  }

  // Optional observability sink (src/obs): traps, pkey denials and
  // RDPKR/WRPKR domain transitions are published here. One null check
  // when unset, and emits charge no cycles, so tracing never perturbs
  // architectural state.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  // Fault-injection port: take `cause` as if the *current* instruction had
  // trapped (scause/sepc/stval/SPP set, redirect to stvec, trap cycles
  // charged). Unlike in-pipeline raises the PC advances immediately — the
  // caller dispatches the kernel handler itself rather than re-running
  // step().
  void inject_trap(TrapCause cause, u64 tval);

  // Translation without architectural side effects (no TLB, no A/D update,
  // no fault) — the kernel's copy_{to,from}_user path.
  std::optional<u64> translate_debug(u64 vaddr, mem::Access access) const;

 private:
  struct MemOutcome {
    bool ok = false;
    u64 paddr = 0;
    TrapCause cause = TrapCause::kLoadPageFault;
    u64 tval = 0;
  };

  // 0 = no translation (S-mode or bare); 3 = Sv39; 4 = Sv48.
  unsigned paging_levels() const;
  unsigned pkey_bits() const;
  void raise(TrapCause cause, u64 tval);
  MemOutcome translate_fetch(u64 vaddr);
  MemOutcome translate_data(u64 vaddr, mem::Access access);
  bool data_access_allowed(const mem::TlbEntry& entry, mem::Access access,
                           bool* pkey_denied);

  // The decoded instruction at pc_, or null after raising its fetch trap.
  const isa::Inst* fetch();
  // The slow path of fetch(): translates pc_ as translate_fetch does and
  // points fetch_page_ at the page it lands in.
  bool refill_fetch_page();
  bool mem_load(u64 vaddr, unsigned size, bool sign_extend, u64* value);
  bool mem_store(u64 vaddr, unsigned size, u64 value);
  bool exec(const isa::Inst& inst);         // returns false if trapped
  bool exec_custom(const isa::Inst& inst);  // custom-0 extension
  bool exec_system(const isa::Inst& inst);
  bool exec_csr(const isa::Inst& inst);

  mem::PhysMem& mem_;
  HartConfig config_;
  std::array<u64, 32> regs_{};
  u64 pc_ = 0;
  Priv priv_ = Priv::kSupervisor;
  CsrFile csrs_;
  hw::Pkr pkr_;
  hw::SealUnit seal_unit_;
  hw::Pkru pkru_;
  mem::Tlb dtlb_;
  mem::Tlb itlb_;

  // The code page of the last fetch. A fetch whose pc is word-aligned and
  // lies in `base`'s page reuses the translation while the other four tag
  // fields still match, so it costs one ITLB hit credit, a 4-byte load and
  // a slot lookup. satp and priv are compared, not hooked, so direct CSR
  // writes, set_priv and snapshot restore need no call; the two epochs
  // cover every ITLB change and every page that appears or goes away.
  struct FetchPage {
    u64 base = ~u64{0};  // page base address; ~0 matches no pc
    u64 satp = 0;
    Priv priv = Priv::kSupervisor;
    u64 itlb_epoch = 0;
    u64 layout_epoch = 0;
    bool paged = false;           // the translation went through the ITLB
    const u8* bytes = nullptr;    // mem_.page_data() of the page
    isa::Inst* slots = nullptr;   // its decoded page
  };
  FetchPage fetch_page_;

  // Decoded pages, indexed by ppn mod kDecodedPages and allocated on first
  // fetch. A slot holds decode(slot.raw), and fetch re-decodes whenever
  // the word in memory differs, so stores (self-modifying code, the
  // loader) and pages that share an index need no invalidation. A
  // value-initialised slot holds Inst{}, which is decode(0).
  static constexpr size_t kDecodedPages = 16;
  using DecodedPage = std::array<isa::Inst, mem::kPageSize / 4>;
  std::array<std::unique_ptr<DecodedPage>, kDecodedPages> decoded_pages_;
  u64 cycles_ = 0;
  u64 instret_ = 0;
  HartStats stats_;
  PkrWriteHook pkr_write_hook_;
  obs::Recorder* recorder_ = nullptr;
  bool trapped_ = false;      // set by raise() during the current step
  TrapCause trap_cause_ = TrapCause::kIllegalInst;
  u64 next_pc_ = 0;
};

}  // namespace sealpk::core
