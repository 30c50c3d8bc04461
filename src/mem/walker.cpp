#include "mem/walker.h"

namespace sealpk::mem {

namespace {

WalkResult walk_impl(const PhysMem& mem, PhysMem* wmem, u64 root_ppn,
                     u64 vaddr, Access access, unsigned levels) {
  WalkResult result;
  if (!svxx::canonical(vaddr, levels)) return result;

  u64 table_ppn = root_ppn;
  for (int level = static_cast<int>(levels) - 1; level >= 0; --level) {
    const u64 pte_addr =
        (table_ppn << kPageShift) +
        svxx::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
    if (!mem.contains(pte_addr, 8)) return result;
    ++result.accesses;
    u64 entry = mem.read_u64(pte_addr);

    if (!pte::valid(entry) || pte::reserved_perm_combo(entry)) return result;

    if (pte::is_leaf(entry)) {
      // Superpage leaves must be aligned: low PPN slices must be zero.
      for (int l = 0; l < level; ++l) {
        if (bits(pte::ppn_of(entry), 9 * l + 8, 9 * l) != 0) return result;
      }
      if (wmem != nullptr) {
        u64 updated = entry | pte::kA;
        if (access == Access::kStore) updated |= pte::kD;
        if (updated != entry) {
          wmem->write_u64(pte_addr, updated);
          entry = updated;
        }
      }
      // Resolve to 4 KiB granularity: splice VPN low slices into the PPN.
      u64 ppn = pte::ppn_of(entry);
      for (int l = 0; l < level; ++l) {
        ppn = deposit(ppn, 9 * l + 8, 9 * l,
                      svxx::vpn_slice(vaddr, static_cast<unsigned>(l)));
      }
      result.ok = true;
      result.pte = entry;
      result.pte_addr = pte_addr;
      result.ppn = ppn;
      result.level = static_cast<unsigned>(level);
      return result;
    }

    // Non-leaf: U/A/D must be clear per the privileged spec; treat any set
    // bit as malformed.
    if ((entry & (pte::kU | pte::kA | pte::kD)) != 0) return result;
    table_ppn = pte::ppn_of(entry);
  }
  return result;  // level-0 non-leaf: fault
}

}  // namespace

WalkResult walk(const PhysMem& mem, u64 root_ppn, u64 vaddr, Access access,
                unsigned levels) {
  return walk_impl(mem, nullptr, root_ppn, vaddr, access, levels);
}

WalkResult walk(PhysMem& mem, u64 root_ppn, u64 vaddr, Access access,
                bool update_ad, unsigned levels) {
  return walk_impl(mem, update_ad ? &mem : nullptr, root_ppn, vaddr, access,
                   levels);
}

}  // namespace sealpk::mem
