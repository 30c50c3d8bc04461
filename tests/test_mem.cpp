#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/phys_mem.h"
#include "mem/pte.h"
#include "mem/tlb.h"
#include "mem/walker.h"

namespace sealpk::mem {
namespace {

// ---------------------------------------------------------------------------
// Physical memory.
// ---------------------------------------------------------------------------

TEST(PhysMem, FreshMemoryReadsZero) {
  PhysMem mem(1 << 20);
  EXPECT_EQ(mem.read_u64(0), 0u);
  EXPECT_EQ(mem.read_u8(0xFFFFF), 0u);
}

TEST(PhysMem, ReadWriteWidths) {
  PhysMem mem(1 << 20);
  mem.write_u8(0x100, 0xAB);
  mem.write_u16(0x102, 0xCDEF);
  mem.write_u32(0x104, 0x12345678);
  mem.write_u64(0x108, 0x1122334455667788ULL);
  EXPECT_EQ(mem.read_u8(0x100), 0xAB);
  EXPECT_EQ(mem.read_u16(0x102), 0xCDEF);
  EXPECT_EQ(mem.read_u32(0x104), 0x12345678u);
  EXPECT_EQ(mem.read_u64(0x108), 0x1122334455667788ULL);
}

TEST(PhysMem, LittleEndianLayout) {
  PhysMem mem(1 << 20);
  mem.write_u32(0x200, 0xAABBCCDD);
  EXPECT_EQ(mem.read_u8(0x200), 0xDD);
  EXPECT_EQ(mem.read_u8(0x203), 0xAA);
}

TEST(PhysMem, CrossPageAccess) {
  PhysMem mem(1 << 20);
  mem.write_u64(kPageSize - 4, 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u64(kPageSize - 4), 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u32(kPageSize), 0x01020304u);
}

TEST(PhysMem, OutOfRangeThrows) {
  PhysMem mem(1 << 20);
  EXPECT_THROW(mem.read_u8(1 << 20), CheckError);
  EXPECT_THROW(mem.write_u8(1 << 20, 0), CheckError);
  EXPECT_FALSE(mem.contains((1 << 20) - 1, 2));
  EXPECT_TRUE(mem.contains((1 << 20) - 1, 1));
}

TEST(PhysMem, BulkOps) {
  PhysMem mem(1 << 20);
  const std::vector<u8> data{1, 2, 3, 4, 5, 6, 7, 8, 9};
  mem.write_bytes(kPageSize - 4, data.data(), data.size());
  std::vector<u8> back(data.size());
  mem.read_bytes(kPageSize - 4, back.data(), back.size());
  EXPECT_EQ(back, data);
  mem.fill(0x100, 0xEE, 8);
  EXPECT_EQ(mem.read_u64(0x100), 0xEEEEEEEEEEEEEEEEULL);
}

// Every word width at every offset across the end of a page: the in-page
// memcpy path and the page-straddling byte loop both agree with a
// byte-by-byte assembly, for reads and writes.
template <typename T>
void check_word_near_page_end(PhysMem& mem) {
  for (u64 addr = kPageSize - 8; addr <= kPageSize; ++addr) {
    SCOPED_TRACE(addr);
    for (u64 i = 0; i < 16; ++i) {
      mem.write_u8(kPageSize - 8 + i, static_cast<u8>(0xA0 + i));
    }
    T want = 0;
    for (unsigned i = 0; i < sizeof(T); ++i) {
      want |= static_cast<T>(static_cast<T>(mem.read_u8(addr + i)) << (8 * i));
    }
    T got = 0;
    if constexpr (sizeof(T) == 2) got = mem.read_u16(addr);
    if constexpr (sizeof(T) == 4) got = mem.read_u32(addr);
    if constexpr (sizeof(T) == 8) got = mem.read_u64(addr);
    EXPECT_EQ(got, want);

    const T value = static_cast<T>(0x8877665544332211ULL);
    if constexpr (sizeof(T) == 2) mem.write_u16(addr, value);
    if constexpr (sizeof(T) == 4) mem.write_u32(addr, value);
    if constexpr (sizeof(T) == 8) mem.write_u64(addr, value);
    for (u64 i = 0; i < 16; ++i) {
      const u64 at = kPageSize - 8 + i;
      const u8 expect = at >= addr && at < addr + sizeof(T)
                            ? static_cast<u8>(value >> (8 * (at - addr)))
                            : static_cast<u8>(0xA0 + i);
      EXPECT_EQ(mem.read_u8(at), expect) << "byte " << at;
    }
  }
}

TEST(PhysMem, WordAccessesNearPageEndMatchByteAssembly) {
  PhysMem mem(1 << 20);
  check_word_near_page_end<u16>(mem);
  check_word_near_page_end<u32>(mem);
  check_word_near_page_end<u64>(mem);
}

TEST(PhysMem, BulkRoundTripOverThreePages) {
  PhysMem mem(1 << 20);
  std::vector<u8> data(3 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7 + 3);
  }
  const u64 base = 5 * kPageSize + 100;  // unaligned: touches four pages
  mem.write_bytes(base, data.data(), data.size());
  std::vector<u8> back(data.size());
  mem.read_bytes(base, back.data(), back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(mem.read_u8(base - 1), 0u);
  EXPECT_EQ(mem.read_u8(base + data.size()), 0u);
  EXPECT_EQ(mem.materialized_pages(), 4u);
}

TEST(PhysMem, ZeroFillLeavesFreshMemoryUnmaterialised) {
  PhysMem mem(1 << 20);
  mem.fill(0, 0, 1 << 20);
  EXPECT_EQ(mem.materialized_pages(), 0u);
  EXPECT_EQ(mem.read_u64(0x1234), 0u);
}

TEST(PhysMem, ZeroFillZeroesDirtyPage) {
  PhysMem mem(1 << 20);
  mem.fill(2 * kPageSize, 0xEE, kPageSize);
  ASSERT_EQ(mem.materialized_pages(), 1u);
  mem.fill(2 * kPageSize + 8, 0, 16);
  EXPECT_EQ(mem.read_u64(2 * kPageSize), 0xEEEEEEEEEEEEEEEEULL);
  EXPECT_EQ(mem.read_u64(2 * kPageSize + 8), 0u);
  EXPECT_EQ(mem.read_u64(2 * kPageSize + 16), 0u);
  EXPECT_EQ(mem.read_u8(2 * kPageSize + 24), 0xEE);
  mem.fill(2 * kPageSize, 0, kPageSize);
  for (u64 i = 0; i < kPageSize; i += 8) {
    EXPECT_EQ(mem.read_u64(2 * kPageSize + i), 0u);
  }
}

std::vector<u8> saved(const PhysMem& mem) {
  ByteWriter w;
  mem.save_state(w);
  return w.take();
}

TEST(PhysMem, WrittenThenZeroedSavesLikeNeverWritten) {
  PhysMem never(1 << 20);
  PhysMem zeroed(1 << 20);
  zeroed.write_u64(0x3000, 0xDEADBEEF);
  zeroed.fill(0x8000, 0x5A, 3 * kPageSize);
  zeroed.write_u64(0x3000, 0);
  zeroed.fill(0x8000, 0, 3 * kPageSize);
  EXPECT_GT(zeroed.materialized_pages(), 0u);
  EXPECT_EQ(saved(zeroed), saved(never));
}

TEST(PhysMem, SaveLoadRoundTripsInIndexOrder) {
  PhysMem mem(1 << 20);
  mem.write_u32(9 * kPageSize, 9);  // materialised before the lower pages
  mem.write_u32(2 * kPageSize, 2);
  mem.write_u32(5 * kPageSize, 5);
  const std::vector<u8> blob = saved(mem);
  ByteReader r(blob);
  EXPECT_EQ(r.get_u64(), u64{1 << 20});
  ASSERT_EQ(r.get_u64(), 3u);
  std::vector<u8> page(kPageSize);
  for (u64 want : {2, 5, 9}) {
    EXPECT_EQ(r.get_u64(), want);
    r.get_bytes(page.data(), page.size());
  }

  PhysMem copy(1 << 20);
  copy.write_u8(7 * kPageSize, 1);  // dropped by the load
  ByteReader in(blob);
  copy.load_state(in);
  EXPECT_EQ(copy.read_u8(7 * kPageSize), 0u);
  EXPECT_EQ(copy.read_u32(5 * kPageSize), 5u);
  EXPECT_EQ(copy.materialized_pages(), 3u);
  EXPECT_EQ(saved(copy), blob);
}

TEST(PhysMem, LoadStateRejectsDuplicatePageIndex) {
  ByteWriter w;
  w.put_u64(1 << 20);
  w.put_u64(2);
  const std::vector<u8> page(kPageSize, 0x11);
  for (int i = 0; i < 2; ++i) {
    w.put_u64(3);
    w.put_bytes(page.data(), page.size());
  }
  const std::vector<u8> blob = w.take();
  PhysMem mem(1 << 20);
  ByteReader r(blob);
  EXPECT_THROW(mem.load_state(r), CheckError);
}

TEST(PhysMem, ZeroLengthBulkOpsAtEndAreNoOps) {
  PhysMem mem(1 << 20);
  u8 byte = 0x77;
  EXPECT_NO_THROW(mem.read_bytes(mem.size(), &byte, 0));
  EXPECT_NO_THROW(mem.write_bytes(mem.size(), &byte, 0));
  EXPECT_NO_THROW(mem.fill(mem.size(), 0xFF, 0));
  EXPECT_EQ(byte, 0x77);
  EXPECT_EQ(mem.materialized_pages(), 0u);
}

TEST(PhysMem, BulkOpPastEndThrowsAndLeavesMemoryUnchanged) {
  PhysMem mem(1 << 20);
  mem.fill(mem.size() - kPageSize, 0x33, kPageSize);
  const std::vector<u8> before = saved(mem);
  const std::vector<u8> data(2 * kPageSize, 0xCC);
  const u64 start = mem.size() - kPageSize - 16;
  EXPECT_THROW(mem.write_bytes(start, data.data(), data.size()), CheckError);
  EXPECT_THROW(mem.fill(start, 0xCC, data.size()), CheckError);
  EXPECT_THROW(mem.fill(start, 0, data.size()), CheckError);
  std::vector<u8> out(data.size(), 0xAB);
  EXPECT_THROW(mem.read_bytes(start, out.data(), out.size()), CheckError);
  EXPECT_EQ(out, std::vector<u8>(data.size(), 0xAB));
  EXPECT_THROW(mem.write_bytes(~u64{0}, data.data(), 2), CheckError);
  EXPECT_EQ(saved(mem), before);
  EXPECT_EQ(mem.materialized_pages(), 1u);
}

TEST(PhysMem, ConstructorChecksSize) {
  EXPECT_THROW(PhysMem(kPageSize + 1), CheckError);
  EXPECT_THROW(PhysMem(kMaxPhysBytes + kPageSize), CheckError);
  EXPECT_EQ(PhysMem(0).size(), 0u);
}

TEST(PhysMem, PagesAboveTheHighestWrittenOneReadZero) {
  // The page table only reaches the highest page written so far; every
  // access past its end must behave as on never-written memory.
  PhysMem mem(1 << 20);  // 256 pages
  mem.write_u32(3 * kPageSize, 3);
  EXPECT_EQ(mem.read_u64((1 << 20) - 8), 0u);
  std::vector<u8> buf(2 * kPageSize, 0xAA);
  mem.read_bytes(3 * kPageSize, buf.data(), buf.size());  // spans the end
  EXPECT_EQ(buf[0], 3u);
  EXPECT_EQ(buf[kPageSize], 0u);
  mem.fill(100 * kPageSize, 0, kPageSize);
  EXPECT_EQ(mem.materialized_pages(), 1u);

  mem.write_u8(200 * kPageSize, 7);  // grows the table
  EXPECT_EQ(mem.read_u32(3 * kPageSize), 3u);
  EXPECT_EQ(mem.read_u8(200 * kPageSize), 7u);
  const std::vector<u8> high = saved(mem);

  // Loading a lower blob drops every page past it ...
  PhysMem low(1 << 20);
  low.write_u8(kPageSize, 1);
  const std::vector<u8> low_blob = saved(low);
  ByteReader r(low_blob);
  mem.load_state(r);
  EXPECT_EQ(mem.read_u8(kPageSize), 1u);
  EXPECT_EQ(mem.read_u32(3 * kPageSize), 0u);
  EXPECT_EQ(mem.read_u8(200 * kPageSize), 0u);
  EXPECT_EQ(saved(mem), low_blob);
  // ... and loading a higher one grows the table again.
  ByteReader back(high);
  mem.load_state(back);
  EXPECT_EQ(mem.read_u8(200 * kPageSize), 7u);
  EXPECT_EQ(saved(mem), high);
}

// The hart keeps host pointers into pages while layout_epoch() stands
// still, so it must move whenever a page's storage appears or goes away,
// and only then.
TEST(PhysMem, LayoutEpochMovesWhenPageStorageAppearsOrGoesAway) {
  PhysMem mem(1 << 20);
  u64 epoch = mem.layout_epoch();
  auto moved = [&] {
    const bool changed = mem.layout_epoch() != epoch;
    epoch = mem.layout_epoch();
    return changed;
  };
  mem.fill(4 * kPageSize, 0, kPageSize);  // zero fill of an unwritten page
  EXPECT_FALSE(moved());
  EXPECT_EQ(mem.read_u32(4 * kPageSize), 0u);
  EXPECT_FALSE(moved());

  const u8* zero = mem.page_data(4 * kPageSize);
  mem.write_u32(4 * kPageSize + 8, 0x1234);  // first write to the page
  EXPECT_TRUE(moved());
  const u8* page = mem.page_data(4 * kPageSize);
  EXPECT_NE(page, zero);
  EXPECT_EQ(page[8], 0x34);

  mem.write_u64(4 * kPageSize + 16, 7);  // the page already exists
  mem.fill(4 * kPageSize, 0xAB, 4);
  mem.fill(4 * kPageSize + 32, 0, 8);
  EXPECT_FALSE(moved());
  EXPECT_EQ(mem.page_data(4 * kPageSize), page);
  EXPECT_EQ(page[0], 0xAB);  // the pointer shows the page's current bytes

  mem.write_bytes(6 * kPageSize, page, 4);  // a bulk write that materialises
  EXPECT_TRUE(moved());

  const std::vector<u8> blob = saved(mem);
  ByteReader r(blob);
  mem.load_state(r);
  EXPECT_TRUE(moved());
  EXPECT_EQ(mem.page_data(4 * kPageSize)[0], 0xAB);
}

// ---------------------------------------------------------------------------
// PTE codec.
// ---------------------------------------------------------------------------

TEST(Pte, MakeAndExtract) {
  const u64 entry =
      pte::make(0x12345, pte::kV | pte::kR | pte::kW | pte::kU, 0x3C1);
  EXPECT_EQ(pte::ppn_of(entry), 0x12345u);
  EXPECT_EQ(pte::pkey_of(entry), 0x3C1u);
  EXPECT_TRUE(pte::valid(entry));
  EXPECT_TRUE(pte::is_leaf(entry));
}

TEST(Pte, PkeyOccupiesReservedBits) {
  // §III-A: the pkey lives in PTE bits [63:54] — the Sv39 reserved range.
  const u64 entry = pte::make(0, pte::kV, 0x3FF);
  EXPECT_EQ(bits(entry, 63, 54), 0x3FFu);
  EXPECT_EQ(bits(entry, 53, 0), pte::kV);
}

TEST(Pte, MpkFlavourUsesFourBits) {
  const u64 entry = pte::make(0, pte::kV, 0xF, pte::kMpkPkeyBits);
  EXPECT_EQ(pte::pkey_of(entry, pte::kMpkPkeyBits), 0xFu);
  EXPECT_EQ(bits(entry, 63, 58), 0u);  // upper reserved bits untouched
}

TEST(Pte, WithPkeyPreservesRest) {
  u64 entry = pte::make(0x777, pte::kV | pte::kR | pte::kD, 5);
  entry = pte::with_pkey(entry, 900);
  EXPECT_EQ(pte::pkey_of(entry), 900u);
  EXPECT_EQ(pte::ppn_of(entry), 0x777u);
  EXPECT_TRUE((entry & pte::kD) != 0);
}

TEST(Pte, ReservedComboDetected) {
  EXPECT_TRUE(pte::reserved_perm_combo(pte::kV | pte::kW));
  EXPECT_FALSE(pte::reserved_perm_combo(pte::kV | pte::kR | pte::kW));
}

TEST(Sv39, VpnSlices) {
  const u64 vaddr = (u64{0x1A} << 30) | (u64{0x2B} << 21) | (u64{0x3C} << 12) |
                    0x123;
  EXPECT_EQ(sv39::vpn_slice(vaddr, 2), 0x1Au);
  EXPECT_EQ(sv39::vpn_slice(vaddr, 1), 0x2Bu);
  EXPECT_EQ(sv39::vpn_slice(vaddr, 0), 0x3Cu);
  EXPECT_EQ(sv39::page_offset(vaddr), 0x123u);
}

TEST(Sv39, Canonical) {
  EXPECT_TRUE(sv39::canonical(0));
  EXPECT_TRUE(sv39::canonical((u64{1} << 38) - 1));
  EXPECT_FALSE(sv39::canonical(u64{1} << 38));  // bit 38 set, upper clear
  EXPECT_TRUE(sv39::canonical(~u64{0}));        // all-ones is canonical
}

// ---------------------------------------------------------------------------
// Page-table walker.
// ---------------------------------------------------------------------------

class WalkerTest : public ::testing::Test {
 protected:
  WalkerTest() : mem_(16 << 20) {}

  // Installs a 3-level mapping vaddr -> ppn with `flags`.
  void map(u64 vaddr, u64 ppn, u64 flags, u32 pkey = 0) {
    u64 table = root_;
    for (int level = 2; level >= 1; --level) {
      const u64 slot = (table << kPageShift) +
                       sv39::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
      u64 entry = mem_.read_u64(slot);
      if (!pte::valid(entry)) {
        entry = pte::make(next_table_++, pte::kV);
        mem_.write_u64(slot, entry);
      }
      table = pte::ppn_of(entry);
    }
    const u64 slot =
        (table << kPageShift) + sv39::vpn_slice(vaddr, 0) * 8;
    mem_.write_u64(slot, pte::make(ppn, flags, pkey));
  }

  PhysMem mem_;
  u64 root_ = 1;
  u64 next_table_ = 2;
};

TEST_F(WalkerTest, TranslatesMappedPage) {
  map(0x4000'1000, 0x99, pte::kV | pte::kR | pte::kW | pte::kU, 77);
  const auto r = walk(mem_, root_, 0x4000'1234, Access::kLoad);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ppn, 0x99u);
  EXPECT_EQ(pte::pkey_of(r.pte), 77u);
  EXPECT_EQ(r.level, 0u);
  EXPECT_EQ(r.accesses, 3u);
}

TEST_F(WalkerTest, FaultsOnUnmapped) {
  EXPECT_FALSE(walk(mem_, root_, 0x5000'0000, Access::kLoad).ok);
}

TEST_F(WalkerTest, FaultsOnNonCanonical) {
  EXPECT_FALSE(walk(mem_, root_, u64{1} << 38, Access::kLoad).ok);
}

TEST_F(WalkerTest, FaultsOnReservedCombo) {
  map(0x4000'2000, 0x9A, pte::kV | pte::kW | pte::kU);  // W without R
  EXPECT_FALSE(walk(mem_, root_, 0x4000'2000, Access::kLoad).ok);
}

TEST_F(WalkerTest, UpdatesAccessedAndDirtyBits) {
  map(0x4000'3000, 0x9B, pte::kV | pte::kR | pte::kW | pte::kU);
  auto r = walk(mem_, root_, 0x4000'3000, Access::kLoad, true);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE((r.pte & pte::kA) != 0);
  EXPECT_TRUE((r.pte & pte::kD) == 0);
  r = walk(mem_, root_, 0x4000'3000, Access::kStore, true);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE((r.pte & pte::kD) != 0);
  // The update is persistent in memory.
  EXPECT_TRUE((mem_.read_u64(r.pte_addr) & pte::kD) != 0);
}

TEST_F(WalkerTest, ConstWalkLeavesAdAlone) {
  map(0x4000'4000, 0x9C, pte::kV | pte::kR | pte::kU);
  const auto r =
      walk(static_cast<const PhysMem&>(mem_), root_, 0x4000'4000,
           Access::kLoad);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE((mem_.read_u64(r.pte_addr) & pte::kA) == 0);
}

TEST_F(WalkerTest, MegapageResolvesTo4kGranularity) {
  // Install a 2 MiB leaf at level 1 directly.
  const u64 vaddr = 0x6000'0000;
  u64 table = root_;
  const u64 slot2 =
      (table << kPageShift) + sv39::vpn_slice(vaddr, 2) * 8;
  mem_.write_u64(slot2, pte::make(next_table_, pte::kV));
  const u64 slot1 = (next_table_ << kPageShift) +
                    sv39::vpn_slice(vaddr, 1) * 8;
  // Aligned superpage PPN (low 9 bits zero).
  mem_.write_u64(slot1,
                 pte::make(0x200, pte::kV | pte::kR | pte::kU, 0));
  const auto r = walk(mem_, root_, vaddr + 5 * kPageSize + 0x10,
                      Access::kLoad);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.level, 1u);
  EXPECT_EQ(r.ppn, 0x205u);  // base + vpn[0] splice
  EXPECT_EQ(r.accesses, 2u);
}

TEST_F(WalkerTest, MisalignedSuperpageFaults) {
  const u64 vaddr = 0x7000'0000;
  const u64 slot2 =
      (root_ << kPageShift) + sv39::vpn_slice(vaddr, 2) * 8;
  mem_.write_u64(slot2, pte::make(next_table_, pte::kV));
  const u64 slot1 = (next_table_ << kPageShift) +
                    sv39::vpn_slice(vaddr, 1) * 8;
  mem_.write_u64(slot1, pte::make(0x201, pte::kV | pte::kR | pte::kU));
  EXPECT_FALSE(walk(mem_, root_, vaddr, Access::kLoad).ok);
}

TEST_F(WalkerTest, NonLeafWithAdBitsFaults) {
  const u64 vaddr = 0x8000'0000;
  const u64 slot2 =
      (root_ << kPageShift) + sv39::vpn_slice(vaddr, 2) * 8;
  mem_.write_u64(slot2, pte::make(next_table_, pte::kV | pte::kA));
  EXPECT_FALSE(walk(mem_, root_, vaddr, Access::kLoad).ok);
}

// ---------------------------------------------------------------------------
// TLB.
// ---------------------------------------------------------------------------

TlbEntry entry_for(u64 vpn, u16 pkey = 0) {
  TlbEntry e;
  e.vpn = vpn;
  e.ppn = vpn + 100;
  e.r = e.w = e.user = true;
  e.pkey = pkey;
  return e;
}

TEST(Tlb, MissThenHit) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.lookup(1).has_value());
  tlb.insert(entry_for(1, 42));
  const auto hit = tlb.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pkey, 42);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, InsertReplacesSameVpn) {
  Tlb tlb(4);
  tlb.insert(entry_for(7, 1));
  tlb.insert(entry_for(7, 2));
  EXPECT_EQ(tlb.valid_count(), 1u);
  EXPECT_EQ(tlb.peek(7)->pkey, 2);
}

TEST(Tlb, EvictsRoundRobinWhenFull) {
  Tlb tlb(2);
  tlb.insert(entry_for(1));
  tlb.insert(entry_for(2));
  tlb.insert(entry_for(3));  // evicts slot 0 (vpn 1)
  EXPECT_FALSE(tlb.peek(1).has_value());
  EXPECT_TRUE(tlb.peek(2).has_value());
  EXPECT_TRUE(tlb.peek(3).has_value());
  EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(Tlb, GlobalFlushInvalidatesEverything) {
  Tlb tlb(8);
  for (u64 v = 0; v < 8; ++v) tlb.insert(entry_for(v));
  tlb.flush();
  EXPECT_EQ(tlb.valid_count(), 0u);
  EXPECT_EQ(tlb.stats().flushes, 1u);
}

TEST(Tlb, SingleVpnFlush) {
  Tlb tlb(8);
  tlb.insert(entry_for(5));
  tlb.insert(entry_for(6));
  tlb.flush_vpn(5);
  EXPECT_FALSE(tlb.peek(5).has_value());
  EXPECT_TRUE(tlb.peek(6).has_value());
}

// Each of the five slot mutators moves epoch(); lookups, peeks and
// credit_hit() leave it where it is.
TEST(Tlb, EpochMovesOnEverySlotMutatorAndNothingElse) {
  Tlb tlb(2);
  u64 epoch = tlb.epoch();
  auto moved = [&] {
    const bool changed = tlb.epoch() != epoch;
    epoch = tlb.epoch();
    return changed;
  };
  tlb.insert(entry_for(1));
  EXPECT_TRUE(moved());
  tlb.insert(entry_for(1, 3));  // replaces the same vpn
  EXPECT_TRUE(moved());

  tlb.lookup(1);
  tlb.lookup(9);  // a miss
  tlb.peek(1);
  tlb.peek_slot(0);
  tlb.peek_slot(1);
  tlb.credit_hit();
  EXPECT_FALSE(moved());
  EXPECT_EQ(tlb.stats().hits, 2u);
  EXPECT_EQ(tlb.stats().misses, 1u);

  EXPECT_TRUE(tlb.corrupt_slot(0, 1, 0, false));
  EXPECT_TRUE(moved());
  EXPECT_FALSE(tlb.corrupt_slot(1, 1, 0, false));  // empty slot: no change
  EXPECT_FALSE(moved());
  tlb.flush_vpn(1);
  EXPECT_TRUE(moved());
  tlb.flush();
  EXPECT_TRUE(moved());

  ByteWriter w;
  Save out(w);
  out(tlb);
  EXPECT_FALSE(moved());
  const std::vector<u8> blob = w.take();
  ByteReader r(blob);
  Load in(r);
  in(tlb);
  EXPECT_TRUE(moved());
}

TEST(Tlb, PropertyNeverExceedsCapacityAndFindsRecent) {
  Rng rng(11);
  Tlb tlb(16);
  for (int i = 0; i < 5000; ++i) {
    const u64 vpn = rng.below(64);
    tlb.insert(entry_for(vpn));
    EXPECT_LE(tlb.valid_count(), 16u);
    EXPECT_TRUE(tlb.peek(vpn).has_value());  // just-inserted always present
    if (rng.chance(0.05)) tlb.flush();
  }
}

}  // namespace
}  // namespace sealpk::mem
