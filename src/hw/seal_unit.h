// SealReg + PK-CAM — the permission-sealing hardware (paper §IV, Fig. 4).
//
// SealReg tracks which pkeys have sealed permissions (a 1024-bit one-time
// fuse map). PK-CAM is a 16-entry content-addressable cache of
// pkey -> [addr_start, addr_end] permissible ranges. Before executing a
// WRPKR that names a sealed pkey, the pipeline consults PK-CAM:
//   - hit and PC inside the range  -> the write proceeds;
//   - hit and PC outside the range -> hardware exception;
//   - miss                         -> trap to the OS to refill the CAM.
#pragma once

#include <array>
#include <bitset>
#include <optional>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"
#include "hw/pkr.h"

namespace sealpk::hw {

constexpr unsigned kPkCamEntries = 16;

struct CamEntry {
  u16 pkey = 0;
  u64 addr_start = 0;
  u64 addr_end = 0;  // inclusive, per Figure 4's hit condition
};

struct SealUnitStats {
  u64 checks = 0;
  u64 cam_hits = 0;
  u64 cam_misses = 0;
  u64 violations = 0;
  u64 refills = 0;
};

enum class SealCheck : u8 {
  kAllowed,    // pkey unsealed, or sealed with PC in range
  kViolation,  // sealed, CAM hit, PC outside the permissible range
  kMiss,       // sealed but range not cached: OS refill required
};

class SealUnit {
 public:
  // `active_cam_entries` bounds the FIFO replacement cursor, modelling a
  // down-scaled CAM (the model checker explores with 2 entries so eviction
  // and refill dynamics are reachable within a tiny state space). The
  // default is the paper's full 16-entry CAM; the snapshot format is
  // unaffected — the active count is a build parameter, not state.
  explicit SealUnit(unsigned active_cam_entries = kPkCamEntries)
      : active_cam_entries_(active_cam_entries) {
    SEALPK_CHECK(active_cam_entries >= 1 &&
                 active_cam_entries <= kPkCamEntries);
  }

  unsigned active_cam_entries() const { return active_cam_entries_; }

  bool sealed(u32 pkey) const {
    SEALPK_CHECK(pkey < kNumPkeys);
    return state_.seal_reg[pkey];
  }

  // Supervisor commit path (spk.seal). One-time fuse: re-sealing an
  // already-sealed key is a hardware no-op the kernel screens earlier.
  void set_sealed(u32 pkey) {
    SEALPK_CHECK(pkey < kNumPkeys);
    state_.seal_reg[pkey] = true;
  }

  // Evaluates Figure 4's hit condition for a WRPKR at `pc` naming `pkey`.
  SealCheck check_wrpkr(u32 pkey, u64 pc) {
    SEALPK_CHECK(pkey < kNumPkeys);
    ++stats_.checks;
    if (!state_.seal_reg[pkey]) return SealCheck::kAllowed;
    for (const auto& slot : state_.cam) {
      if (slot.valid && slot.entry.pkey == pkey) {
        ++stats_.cam_hits;
        if (pc >= slot.entry.addr_start && pc <= slot.entry.addr_end) {
          return SealCheck::kAllowed;
        }
        ++stats_.violations;
        return SealCheck::kViolation;
      }
    }
    ++stats_.cam_misses;
    return SealCheck::kMiss;
  }

  // OS refill path (the paper handles the CAM-miss interrupt in the kernel).
  // FIFO replacement across the 16 entries.
  void refill(u32 pkey, u64 addr_start, u64 addr_end) {
    SEALPK_CHECK(pkey < kNumPkeys);
    SEALPK_CHECK(addr_start <= addr_end);
    ++stats_.refills;
    for (auto& slot : state_.cam) {
      if (slot.valid && slot.entry.pkey == pkey) {
        slot.entry = {static_cast<u16>(pkey), addr_start, addr_end};
        return;
      }
    }
    state_.cam[state_.fifo_next] = {
        {static_cast<u16>(pkey), addr_start, addr_end}, true};
    state_.fifo_next = (state_.fifo_next + 1) % active_cam_entries_;
  }

  // Fault-model port: a refill that skips the replace-in-place scan and
  // unconditionally consumes the FIFO slot, leaving two CAM entries for the
  // same pkey. Models a glitched refill handshake. check_wrpkr matches the
  // first valid entry, so the stale duplicate shadows the fresh one until
  // clear_key or an eviction removes it.
  void refill_duplicate(u32 pkey, u64 addr_start, u64 addr_end) {
    SEALPK_CHECK(pkey < kNumPkeys);
    SEALPK_CHECK(addr_start <= addr_end);
    ++stats_.refills;
    state_.cam[state_.fifo_next] = {
        {static_cast<u16>(pkey), addr_start, addr_end}, true};
    state_.fifo_next = (state_.fifo_next + 1) % active_cam_entries_;
  }

  // Auditor port: count valid CAM entries naming `pkey` (> 1 after a
  // duplicated refill).
  size_t cam_count_of(u32 pkey) const {
    size_t n = 0;
    for (const auto& slot : state_.cam)
      if (slot.valid && slot.entry.pkey == pkey) ++n;
    return n;
  }

  // Kernel scrub path for duplicated refills: invalidate every entry for
  // `pkey` beyond the first (match order equals check_wrpkr's search order,
  // so behaviour is unchanged and the wasted slots are reclaimed). Returns
  // the number of entries dropped.
  size_t drop_duplicates(u32 pkey) {
    size_t dropped = 0;
    bool seen = false;
    for (auto& slot : state_.cam) {
      if (!slot.valid || slot.entry.pkey != pkey) continue;
      if (seen) {
        slot.valid = false;
        ++dropped;
      }
      seen = true;
    }
    return dropped;
  }

  // Kernel drain path: when a freed pkey's last page disappears, its seal
  // dissolves so a future owner of the key starts unsealed (§IV).
  void clear_key(u32 pkey) {
    SEALPK_CHECK(pkey < kNumPkeys);
    state_.seal_reg[pkey] = false;
    for (auto& slot : state_.cam) {
      if (slot.valid && slot.entry.pkey == pkey) slot.valid = false;
    }
  }

  // Auditor port: the valid entry in CAM slot `i`, or nullptr when empty.
  const CamEntry* cam_slot(size_t i) const {
    SEALPK_CHECK(i < kPkCamEntries);
    return state_.cam[i].valid ? &state_.cam[i].entry : nullptr;
  }

  std::optional<CamEntry> cam_lookup(u32 pkey) const {
    for (const auto& slot : state_.cam) {
      if (slot.valid && slot.entry.pkey == pkey) return slot.entry;
    }
    return std::nullopt;
  }

  size_t cam_valid_count() const {
    size_t n = 0;
    for (const auto& slot : state_.cam)
      if (slot.valid) ++n;
    return n;
  }

  // Context-switch support: SealReg and PK-CAM are per-process state the
  // kernel swaps (§IV "we modify the Linux kernel to maintain the SealReg
  // information as well as permissible range of each pkey during context
  // switches").
  struct Slot {
    CamEntry entry;
    bool valid = false;
  };
  struct Snapshot {
    std::bitset<kNumPkeys> seal_reg;
    std::array<Slot, kPkCamEntries> cam{};
    unsigned fifo_next = 0;

    // One field list for the unit's own SEAL section and the kernel's
    // per-process seal images. A cursor past the CAM would make the next
    // refill write outside it, so load rejects one.
    template <class Ar, class Self>
    static void io(Ar& ar, Self& s) {
      ar(s.seal_reg);
      for (auto& slot : s.cam) {
        ar(slot.entry.pkey, slot.entry.addr_start, slot.entry.addr_end,
           slot.valid);
      }
      ar(s.fifo_next);
      ar.below(s.fifo_next, kPkCamEntries, "PK-CAM FIFO cursor");
    }
  };

  // Canonical architectural state: SealReg, the CAM array, and the FIFO
  // cursor — exactly what context switches swap and the model checker
  // hashes. save() keeps its historical name for the kernel call sites.
  Snapshot canonical_state() const { return state_; }

  Snapshot save() const { return state_; }
  void restore(const Snapshot& s) { state_ = s; }

  void reset() {
    state_.seal_reg.reset();
    for (auto& slot : state_.cam) slot.valid = false;
    state_.fifo_next = 0;
  }

  const SealUnitStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Snapshot field list: everything save()/restore() covers plus the
  // stats, so a resumed run's counters match an uninterrupted one.
  template <class Ar, class Self>
  static void io(Ar& ar, Self& u) {
    ar(u.state_, u.stats_.checks, u.stats_.cam_hits, u.stats_.cam_misses,
       u.stats_.violations, u.stats_.refills);
  }

 private:
  unsigned active_cam_entries_ = kPkCamEntries;
  Snapshot state_;
  SealUnitStats stats_;
};

// WRPKR row-commit merge (§IV): a row write may only change the fields of
// unsealed keys plus the named key itself; every *other* sealed key in the
// row keeps its current 2-bit field. A row holds 32 keys, so without it a
// WRPKR naming an unsealed neighbour could clobber a sealed key's
// permissions (a gap the paper does not address; see DESIGN.md).
inline u64 merge_sealed_row(const SealUnit& unit, u64 old_row, u64 next,
                            u32 row, u32 pkey) {
  for (u32 slot = 0; slot < kKeysPerRow; ++slot) {
    const u32 other = row * kKeysPerRow + slot;
    if (other == pkey || !unit.sealed(other)) continue;
    next = deposit(next, 2 * slot + 1, 2 * slot,
                   bits(old_row, 2 * slot + 1, 2 * slot));
  }
  return next;
}

struct WrpkrCommit {
  SealCheck check = SealCheck::kAllowed;
  u64 old_row = 0;  // the named key's row before and after the write;
  u64 new_row = 0;  // both 0 unless check == kAllowed
};

// The write half of a WRPKR commit: merge, then write the named key's row.
inline WrpkrCommit write_pkr_row(Pkr& pkr, const SealUnit& unit, u32 pkey,
                                 u64 value) {
  const u32 row = pkr_row_of(pkey);
  const u64 old = pkr.peek_row(row);
  const u64 next = merge_sealed_row(unit, old, value, row, pkey);
  pkr.write_row(row, next);
  return {SealCheck::kAllowed, old, next};
}

// WRPKR row commit, shared by Hart::exec_custom and the model checker's
// harness so the two cannot diverge: the seal check first (a CAM miss or a
// range violation commits nothing), then the merge and the write.
inline WrpkrCommit commit_wrpkr(Pkr& pkr, SealUnit& unit, u32 pkey, u64 pc,
                                u64 value) {
  const SealCheck check = unit.check_wrpkr(pkey, pc);
  if (check != SealCheck::kAllowed) return {check};
  return write_pkr_row(pkr, unit, pkey, value);
}

}  // namespace sealpk::hw
