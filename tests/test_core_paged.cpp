// Paged-mode hart tests: the Figure-2 effective-permission control logic
// (PTE perms ∩ pkey perms), the spkinfo fault augmentation, TLB/pkey
// interactions, and the fetch path's cached code page.
#include <gtest/gtest.h>

#include <tuple>

#include "core/hart.h"
#include "isa/program.h"

namespace sealpk::core {
namespace {

using isa::Inst;
using isa::Op;

class PagedFixture : public ::testing::Test {
 protected:
  static constexpr u64 kCodeVa = 0x10000;
  static constexpr u64 kDataVa = 0x40000000;
  static constexpr u64 kCodePpn = 0x80;
  static constexpr u64 kDataPpn = 0x90;

  explicit PagedFixture(const HartConfig& config = {})
      : mem_(16 << 20), hart_(mem_, config) {
    hart_.csrs().satp = csr::kSatpModeSv39 | root_;
    hart_.set_priv(Priv::kUser);
    hart_.set_pc(kCodeVa);
    map(kCodeVa, kCodePpn,
        mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU);
  }

  void map(u64 vaddr, u64 ppn, u64 flags, u32 pkey = 0) {
    u64 table = root_;
    for (int level = 2; level >= 1; --level) {
      const u64 slot =
          (table << mem::kPageShift) +
          mem::sv39::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
      u64 entry = mem_.read_u64(slot);
      if (!mem::pte::valid(entry)) {
        entry = mem::pte::make(next_table_++, mem::pte::kV);
        mem_.write_u64(slot, entry);
      }
      table = mem::pte::ppn_of(entry);
    }
    const u64 slot = (table << mem::kPageShift) +
                     mem::sv39::vpn_slice(vaddr, 0) * 8;
    const unsigned pkey_bits =
        hart_.config().flavor == IsaFlavor::kSealPk
            ? mem::pte::kSealPkPkeyBits
            : mem::pte::kMpkPkeyBits;
    mem_.write_u64(slot, mem::pte::make(ppn, flags, pkey, pkey_bits));
  }

  void place(const std::vector<Inst>& insts) {
    for (size_t i = 0; i < insts.size(); ++i) {
      mem_.write_u32((kCodePpn << mem::kPageShift) + 4 * i,
                     isa::encode(insts[i]));
    }
    hart_.set_pc(kCodeVa);
  }

  mem::PhysMem mem_;
  Hart hart_;
  u64 root_ = 1;
  u64 next_table_ = 2;
};

// ---------------------------------------------------------------------------
// The effective-permission matrix (Figure 2), parameterized:
//   (PTE writable?, pkey 2-bit perm, access-is-store?)
// ---------------------------------------------------------------------------

using PermCase = std::tuple<bool, unsigned, bool>;

class EffectivePermTest
    : public PagedFixture,
      public ::testing::WithParamInterface<PermCase> {
 public:
  EffectivePermTest() : PagedFixture() {}
};

TEST_P(EffectivePermTest, IntersectionOfPteAndPkey) {
  const auto [pte_writable, pkey_perm, is_store] = GetParam();
  constexpr u32 kPkey = 0x3C1;  // Figure 2's example key
  u64 flags = mem::pte::kV | mem::pte::kR | mem::pte::kU;
  if (pte_writable) flags |= mem::pte::kW;
  map(kDataVa, kDataPpn, flags, kPkey);
  hart_.pkr().set_perm(kPkey, static_cast<u8>(pkey_perm));

  hart_.set_reg(isa::a0, kDataVa);
  place({is_store
             ? Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}
             : Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});

  const bool pte_ok = is_store ? pte_writable : true;
  const bool pkey_denies =
      is_store ? (pkey_perm & 0b01) != 0 : (pkey_perm & 0b10) != 0;
  const bool allowed = pte_ok && !pkey_denies;

  const StepResult r = hart_.step();
  if (allowed) {
    EXPECT_EQ(r.kind, StepKind::kOk);
  } else {
    ASSERT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(r.cause, is_store ? TrapCause::kStorePageFault
                                : TrapCause::kLoadPageFault);
    EXPECT_EQ(hart_.csrs().stval, kDataVa);
    // spkinfo flags the fault as pkey-caused exactly when the PTE alone
    // would have allowed it.
    const bool expect_pkey_fault = pte_ok && pkey_denies;
    EXPECT_EQ(hart_.csrs().spkinfo >> 63, expect_pkey_fault ? 1u : 0u);
    if (expect_pkey_fault) {
      EXPECT_EQ(hart_.csrs().spkinfo & 0x3FF, kPkey);
      EXPECT_EQ(hart_.stats().pkey_denials, 1u);
    }
  }
}

std::string perm_case_name(const ::testing::TestParamInfo<PermCase>& info) {
  static const char* const kPerms[] = {"PkeyRW", "PkeyRO", "PkeyWO",
                                       "PkeyNone"};
  std::string name = std::get<0>(info.param) ? "PteRW_" : "PteRO_";
  name += kPerms[std::get<1>(info.param)];
  name += std::get<2>(info.param) ? "_Store" : "_Load";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Figure2Matrix, EffectivePermTest,
    ::testing::Combine(::testing::Bool(),           // PTE writable
                       ::testing::Range(0u, 4u),    // pkey 2-bit perm
                       ::testing::Bool()),          // store?
    perm_case_name);

// ---------------------------------------------------------------------------
// Individual paged-mode behaviours.
// ---------------------------------------------------------------------------

TEST_F(PagedFixture, Figure2WorkedExample) {
  // "RW perm:11, pkey perm:01 -> effective:10": write to page #87 denied.
  constexpr u32 kPkey = 0b1111000001;
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kPkey);
  hart_.pkr().set_perm(kPkey, 0b01);
  hart_.set_reg(isa::a0, kDataVa);
  // Read succeeds...
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  // ...write faults.
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kStorePageFault);
}

TEST_F(PagedFixture, WriteOnlyDomain) {
  // §III-A: pkey (RD=1, WD=0) over an RW page yields a write-only page —
  // impossible through RISC-V PTE permissions alone.
  constexpr u32 kPkey = 12;
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kPkey);
  hart_.pkr().set_perm(kPkey, hw::kPermWriteOnly);
  hart_.set_reg(isa::a0, kDataVa);
  hart_.set_reg(isa::a1, 0x77);
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(mem_.read_u64(kDataPpn << mem::kPageShift), 0x77u);
  place({Inst{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
}

TEST_F(PagedFixture, FetchIgnoresPkey) {
  // The ITLB carries no pkey: code in a no-access domain still executes.
  constexpr u32 kPkey = 33;
  map(kCodeVa + mem::kPageSize, kCodePpn + 1,
      mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU, kPkey);
  hart_.pkr().set_perm(kPkey, hw::kPermNone);
  mem_.write_u32(((kCodePpn + 1) << mem::kPageShift),
                 isa::encode(Inst{.op = Op::kAddi,
                                  .rd = isa::a0,
                                  .rs1 = 0,
                                  .imm = 11}));
  hart_.set_pc(kCodeVa + mem::kPageSize);
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 11u);
}

TEST_F(PagedFixture, NonUserPageFaultsFromUserMode) {
  map(kDataVa, kDataPpn, mem::pte::kV | mem::pte::kR);  // no U bit
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
  EXPECT_EQ(hart_.csrs().spkinfo, 0u);  // not a pkey fault
}

TEST_F(PagedFixture, UnmappedAddressFaults) {
  hart_.set_reg(isa::a0, 0x7000'0000);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
}

TEST_F(PagedFixture, ExecFromNonExecutableFaults) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kU);
  hart_.set_pc(kDataVa);
  EXPECT_EQ(hart_.step().cause, TrapCause::kInstPageFault);
}

TEST_F(PagedFixture, TlbCachesPkeyUntilFlush) {
  constexpr u32 kOld = 5, kNew = 6;
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kOld);
  hart_.pkr().set_perm(kNew, hw::kPermNone);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);  // caches pkey=5

  // Re-key the page in the PTE; without a flush the stale DTLB entry still
  // grants access...
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kNew);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);

  // ...and after the kernel's sfence.vma the new key (no-access) applies.
  hart_.flush_tlbs();
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
  EXPECT_EQ(hart_.csrs().spkinfo & 0x3FF, kNew);
}

TEST_F(PagedFixture, StoreToCleanPageSetsDirtyBit) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU);
  hart_.set_reg(isa::a0, kDataVa);
  // Load first (fills the TLB with a clean entry).
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  // The store must re-walk and set D.
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  const auto wr = mem::walk(static_cast<const mem::PhysMem&>(mem_), root_,
                            kDataVa, mem::Access::kLoad);
  ASSERT_TRUE(wr.ok);
  EXPECT_TRUE((wr.pte & mem::pte::kD) != 0);
}

TEST_F(PagedFixture, TlbMissChargesWalkCycles) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kU);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0},
         Inst{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a0, .imm = 8}});
  const u64 c0 = hart_.cycles();
  hart_.step();  // miss: 3-level walk
  const u64 miss_cost = hart_.cycles() - c0;
  const u64 c1 = hart_.cycles();
  hart_.step();  // hit
  const u64 hit_cost = hart_.cycles() - c1;
  EXPECT_GE(miss_cost, hit_cost + hart_.timing().ptw_cost(3));
}

TEST_F(PagedFixture, TranslateDebugMatchesWalk) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kU);
  const auto pa = hart_.translate_debug(kDataVa + 0x123, mem::Access::kLoad);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, (kDataPpn << mem::kPageShift) + 0x123);
  EXPECT_FALSE(
      hart_.translate_debug(0x5000'0000, mem::Access::kLoad).has_value());
}

// ---------------------------------------------------------------------------
// The fetch path. A fetch served from the hart's cached code page must
// behave exactly as translate_fetch, a read of memory and decode would,
// ITLB counters included, whatever changed since the page was cached.
// ---------------------------------------------------------------------------

Inst li_a0(i64 value) {
  return Inst{.op = Op::kAddi, .rd = isa::a0, .rs1 = 0, .imm = value};
}

TEST_F(PagedFixture, SatpSwitchRunsTheNewSpaceOnlyAfterTheKernelsSfence) {
  // Space B maps the same code vpn to another frame holding other code.
  constexpr u64 kRootB = 0x60, kCodePpnB = 0x81;
  const u64 root_a = root_;
  root_ = kRootB;
  map(kCodeVa, kCodePpnB,
      mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU);
  root_ = root_a;
  mem_.write_u32(kCodePpnB << mem::kPageShift, isa::encode(li_a0(2)));
  place({li_a0(1)});

  const mem::TlbStats& itlb = hart_.itlb().stats();
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);  // ITLB miss
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);  // served from the page
  EXPECT_EQ(hart_.reg(isa::a0), 1u);
  EXPECT_EQ(itlb.misses, 1u);
  EXPECT_EQ(itlb.hits, 1u);

  // The kernel's direct satp write, without its sfence: the stale ITLB
  // entry still answers, and counts as a hit.
  hart_.csrs().satp = csr::kSatpModeSv39 | kRootB;
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 1u);
  EXPECT_EQ(itlb.misses, 1u);
  EXPECT_EQ(itlb.hits, 2u);

  // With the sfence, space B's code runs.
  hart_.flush_tlbs();
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 2u);
  EXPECT_EQ(itlb.misses, 2u);
  EXPECT_EQ(itlb.hits, 2u);
}

TEST_F(PagedFixture, BareSatpOrSupervisorModeFetchesPhysically) {
  // Physical kCodeVa is a different frame from kCodePpn.
  mem_.write_u32(kCodeVa, isa::encode(li_a0(3)));
  place({li_a0(1)});
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  const u64 hits = hart_.itlb().stats().hits;
  const u64 misses = hart_.itlb().stats().misses;

  const u64 sv39 = hart_.csrs().satp;
  hart_.csrs().satp = 0;  // bare, still in U-mode
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 3u);

  hart_.csrs().satp = sv39;  // back to the page the ITLB still holds
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 1u);

  hart_.set_priv(Priv::kSupervisor);  // S-mode does not translate
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 3u);
  EXPECT_EQ(hart_.itlb().stats().hits, hits + 1);
  EXPECT_EQ(hart_.itlb().stats().misses, misses);
}

TEST_F(PagedFixture, ItlbChangesReachTheNextFetch) {
  constexpr u64 kOtherPpn = 0x82;
  mem_.write_u32(kOtherPpn << mem::kPageShift, isa::encode(li_a0(4)));
  place({li_a0(1)});
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);

  // Remapped in the page table: the ITLB entry stands until its sfence.vma.
  map(kCodeVa, kOtherPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU);
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 1u);
  hart_.itlb().flush_vpn(mem::sv39::vpn_of(kCodeVa));
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 4u);

  // A soft error that clears the entry's X bit faults the next fetch.
  for (size_t i = 0; i < hart_.itlb().capacity(); ++i) {
    const mem::TlbEntry* e = hart_.itlb().peek_slot(i);
    if (e != nullptr && e->vpn == mem::sv39::vpn_of(kCodeVa)) {
      ASSERT_TRUE(hart_.itlb().corrupt_slot(i, 0, /*perm_xor=*/4, false));
    }
  }
  hart_.set_pc(kCodeVa);
  EXPECT_EQ(hart_.step().cause, TrapCause::kInstPageFault);
}

TEST_F(PagedFixture, MisalignedPcInTheCachedPageTraps) {
  place({li_a0(1), li_a0(2)});
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  hart_.set_pc(kCodeVa + 6);
  EXPECT_EQ(hart_.step().cause, TrapCause::kInstAddrMisaligned);
  EXPECT_EQ(hart_.csrs().stval, kCodeVa + 6);
}

// A bare S-mode hart: fetches are physical and trap to stvec = 0 without
// leaving S-mode, so only memory itself changes between these fetches.
class BareFetch : public ::testing::Test {
 protected:
  static constexpr u64 kCode = 0x1000;

  BareFetch() : mem_(1 << 20), hart_(mem_) {}

  void place(u64 at, const std::vector<Inst>& insts) {
    for (size_t i = 0; i < insts.size(); ++i) {
      mem_.write_u32(at + 4 * i, isa::encode(insts[i]));
    }
  }

  mem::PhysMem mem_;
  Hart hart_;
};

TEST_F(BareFetch, StoreOverExecutedCodeRunsTheNewWord) {
  place(kCode, {Inst{.op = Op::kAddi, .rd = isa::a0, .rs1 = isa::a0, .imm = 1},
                Inst{.op = Op::kSw, .rs1 = isa::a1, .rs2 = isa::a2},
                Inst{.op = Op::kJal, .rd = 0, .imm = -8}});
  hart_.set_reg(isa::a1, kCode);
  hart_.set_reg(isa::a2, isa::encode(Inst{.op = Op::kAddi,
                                          .rd = isa::a0,
                                          .rs1 = isa::a0,
                                          .imm = 100}));
  hart_.set_pc(kCode);
  ASSERT_EQ(hart_.run(3).kind, StepKind::kOk);  // addi, sw over it, j back
  EXPECT_EQ(hart_.reg(isa::a0), 1u);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 101u);
}

TEST_F(BareFetch, NeverWrittenPageTrapsUntilItIsWritten) {
  constexpr u64 kFresh = 0x3000;
  hart_.set_pc(kFresh);
  const StepResult r = hart_.step();
  ASSERT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.cause, TrapCause::kIllegalInst);
  EXPECT_EQ(hart_.csrs().stval, 0u);  // the word read was zero

  place(kFresh, {li_a0(5)});
  hart_.set_pc(kFresh);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 5u);
}

// MPK-flavour paged behaviour: 4-bit keys and PKRU checks.
class MpkPagedFixture : public PagedFixture {
 protected:
  static HartConfig mpk_config() {
    HartConfig cfg;
    cfg.flavor = IsaFlavor::kIntelMpkCompat;
    return cfg;
  }
  MpkPagedFixture() : PagedFixture(mpk_config()) {}
};

TEST_F(MpkPagedFixture, PkruAccessDisableBlocksLoads) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, 0xA);
  hart_.pkru().set_perm(0xA, /*access_disable=*/true, false);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
}

TEST_F(MpkPagedFixture, PkruWriteDisableAllowsLoads) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, 0xA);
  hart_.pkru().set_perm(0xA, false, /*write_disable=*/true);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kStorePageFault);
}

TEST_F(MpkPagedFixture, NoWriteOnlyDomainsInMpk) {
  // Intel's (AD, WD) encoding cannot express write-only: disabling access
  // kills writes too. This is the §III-A contrast.
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, 0x3);
  hart_.pkru().set_perm(0x3, /*access_disable=*/true, false);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kStorePageFault);
}

}  // namespace
}  // namespace sealpk::core
