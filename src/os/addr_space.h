// Per-process virtual address space: VMA bookkeeping plus real Sv39 page
// tables materialised in guest physical memory (so the hart's hardware
// walker exercises the same structures the Linux port would).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/bits.h"
#include "common/serial.h"
#include "mem/phys_mem.h"
#include "mem/pte.h"
#include "os/frame_alloc.h"

namespace sealpk::os {

struct Vma {
  u64 start = 0;  // page aligned, inclusive
  u64 end = 0;    // page aligned, exclusive
  u64 prot = 0;   // prot:: bits
  u32 pkey = 0;

  u64 pages() const { return (end - start) >> mem::kPageShift; }
};

class KeyManager;

// Callback used to keep the key manager's per-pkey page counters in sync:
// invoked once per (pkey, page-count) delta.
using PkeyPageDelta = std::function<void(u32 pkey, i64 pages)>;

class AddressSpace {
 public:
  // levels: 3 = Sv39 (the paper's platform), 4 = Sv48 (footnote 1).
  AddressSpace(mem::PhysMem& mem, FrameAllocator& frames,
               unsigned pkey_bits, unsigned levels = mem::sv39::kLevels);

  // Snapshot restore constructor: rebuilds the bookkeeping from a
  // serialized stream WITHOUT allocating a root table — the page tables
  // themselves live in PhysMem, which the snapshot layer restores
  // wholesale, and the frame allocator's state is restored separately.
  AddressSpace(mem::PhysMem& mem, FrameAllocator& frames, ByteReader& r);

  void save_state(ByteWriter& w) const;

  u64 root_ppn() const { return root_ppn_; }
  u64 satp() const;
  unsigned pkey_bits() const { return pkey_bits_; }
  unsigned levels() const { return levels_; }

  // Maps [addr, addr+len) anonymous zeroed memory. addr == 0 picks an
  // address from the mmap region. Returns the mapped address, or a
  // negative errno. `pages_touched` (optional) reports PTE writes for the
  // cycle model.
  i64 map(u64 addr, u64 len, u64 prot, u32 pkey = 0,
          const PkeyPageDelta& delta = nullptr);

  // Unmaps [addr, addr+len). Partial VMA coverage splits VMAs like Linux.
  i64 unmap(u64 addr, u64 len, const PkeyPageDelta& delta = nullptr);

  // mprotect: updates PTE permission bits, preserving each page's pkey.
  // Returns number of pages updated or negative errno. Both protect calls
  // are all-or-nothing: the seals on file in `keys` veto the whole call up
  // front, checked per VMA by the shared rule os::seal_veto (pkey_core.h).
  i64 protect(u64 addr, u64 len, u64 prot, const KeyManager& keys);

  // pkey_mprotect: updates permissions *and* assigns `pkey`; `delta`
  // maintains page counters. Returns pages updated or negative errno.
  i64 protect_pkey(u64 addr, u64 len, u64 prot, u32 pkey,
                   const KeyManager& keys, const PkeyPageDelta& delta);

  const Vma* find_vma(u64 addr) const;
  const std::map<u64, Vma>& vmas() const { return vmas_; }

  // Reads the pkey field straight out of the leaf PTE (test/debug aid).
  std::optional<u32> page_pkey(u64 vaddr) const;
  std::optional<u64> leaf_pte(u64 vaddr) const;

  // Physical address of the leaf PTE slot for `vaddr`, or 0 when the page
  // tables don't reach it. Fault-injection and audit port: lets callers
  // flip or inspect the raw PTE word in DRAM.
  u64 leaf_pte_addr(u64 vaddr) const { return lookup_pte_slot(vaddr); }

  // The leaf PTE bits `prot` should produce (V|U plus R/W/X with the
  // W-implies-R fixup). Exposed so the auditor can recompute a PTE's
  // expected permission bits from the owning VMA.
  static u64 leaf_flags_for_prot(u64 prot);

  // Recovery port: rewrite the leaf PTE for `vaddr` from the owning VMA
  // (the software source of truth), preserving the PPN and the A/D bits.
  // Returns true only when the stored PTE actually changed.
  bool repair_page(u64 vaddr);

  // Kernel copy helpers (loader, write(2), fault reporting).
  bool copy_out(u64 vaddr, const u8* src, u64 len);
  bool copy_in(u64 vaddr, u8* dst, u64 len) const;

  u64 pages_mapped() const { return pages_mapped_; }

 private:
  u64 pte_slot_addr(u64 vaddr, bool create);  // phys addr of leaf PTE slot
  u64 lookup_pte_slot(u64 vaddr) const;       // 0 if tables absent
  // Splits any VMA straddling `addr` so that `addr` becomes a boundary.
  void split_at(u64 addr);
  bool range_fully_mapped(u64 addr, u64 len) const;

  mem::PhysMem& mem_;
  FrameAllocator& frames_;
  unsigned pkey_bits_;
  unsigned levels_;
  u64 root_ppn_;
  std::map<u64, Vma> vmas_;  // keyed by start
  u64 mmap_next_;
  u64 pages_mapped_ = 0;
};

}  // namespace sealpk::os
