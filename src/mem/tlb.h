// Fully-associative TLB model with the SealPK per-entry pkey field.
//
// Figure 2 of the paper: each DTLB line gains a 10-bit pkey entry copied
// from the PTE on refill, so the effective-permission check reads the pkey
// permission (from PKR) in the same cycle as the page permission. The ITLB
// is unmodified — pkey checks apply to data accesses only — so instruction
// harts instantiate this class with pkey always zero.
#pragma once

#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"

namespace sealpk::mem {

struct TlbEntry {
  u64 vpn = 0;
  u64 ppn = 0;
  bool r = false, w = false, x = false, user = false;
  bool dirty = false;  // PTE D bit at refill time
  u16 pkey = 0;        // SealPK: 10 bits; MPK flavour: 4 bits
};

struct TlbStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 flushes = 0;
  u64 evictions = 0;
};

class Tlb {
 public:
  explicit Tlb(size_t num_entries = 32) : entries_(num_entries) {
    SEALPK_CHECK(num_entries > 0);
  }

  size_t capacity() const { return entries_.size(); }

  // Looks up `vpn`; counts a hit or miss.
  std::optional<TlbEntry> lookup(u64 vpn) {
    for (const auto& slot : entries_) {
      if (slot.valid && slot.entry.vpn == vpn) {
        ++stats_.hits;
        return slot.entry;
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }

  // Counts a hit for a lookup the caller answered itself. The hart's
  // fetch path serves a repeat of its last translation this way: while
  // epoch() is unchanged, lookup() of that vpn would hit the same entry,
  // and a hit changes no replacement state, so the counters stay exact.
  void credit_hit() { ++stats_.hits; }

  // Moves on every change to the slots (insert, flush, flush_vpn,
  // corrupt_slot, load_state) and on nothing else.
  u64 epoch() const { return epoch_; }

  // Peek without touching statistics (used by tests and debug dumps).
  std::optional<TlbEntry> peek(u64 vpn) const {
    for (const auto& slot : entries_) {
      if (slot.valid && slot.entry.vpn == vpn) return slot.entry;
    }
    return std::nullopt;
  }

  // Inserts after a miss; replaces an existing mapping for the same VPN,
  // otherwise evicts round-robin (Rocket's TLB uses a pseudo-random/rr
  // policy; round-robin keeps the model deterministic).
  void insert(const TlbEntry& entry) {
    ++epoch_;
    for (auto& slot : entries_) {
      if (slot.valid && slot.entry.vpn == entry.vpn) {
        slot.entry = entry;
        return;
      }
    }
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].valid) {
        entries_[i] = {entry, true};
        return;
      }
    }
    ++stats_.evictions;
    entries_[next_victim_] = {entry, true};
    next_victim_ = (next_victim_ + 1) % entries_.size();
  }

  // sfence.vma with rs1 = x0: global flush.
  void flush() {
    ++epoch_;
    for (auto& slot : entries_) slot.valid = false;
    ++stats_.flushes;
  }

  // sfence.vma with rs1 != x0: single-VPN invalidation.
  void flush_vpn(u64 vpn) {
    ++epoch_;
    for (auto& slot : entries_) {
      if (slot.valid && slot.entry.vpn == vpn) slot.valid = false;
    }
  }

  size_t valid_count() const {
    size_t n = 0;
    for (const auto& slot : entries_)
      if (slot.valid) ++n;
    return n;
  }

  // --- fault-model ports ---------------------------------------------------
  // Slot-indexed peek for the machine auditor (no stats side effects).
  const TlbEntry* peek_slot(size_t i) const {
    SEALPK_CHECK(i < entries_.size());
    return entries_[i].valid ? &entries_[i].entry : nullptr;
  }

  // XOR-corrupt a cached entry's pkey / permission / dirty bits in place,
  // modelling a soft error in the TLB array. PPN and VPN are left alone:
  // the fault model covers the SealPK-added fields and permission bits, not
  // wild translations. perm_xor bits: 1 = r, 2 = w, 4 = x, 8 = user.
  // Returns false if the slot is empty (nothing to corrupt).
  bool corrupt_slot(size_t i, u16 pkey_xor, u8 perm_xor, bool flip_dirty) {
    SEALPK_CHECK(i < entries_.size());
    if (!entries_[i].valid) return false;
    ++epoch_;
    TlbEntry& e = entries_[i].entry;
    e.pkey ^= pkey_xor;
    if (perm_xor & 1) e.r = !e.r;
    if (perm_xor & 2) e.w = !e.w;
    if (perm_xor & 4) e.x = !e.x;
    if (perm_xor & 8) e.user = !e.user;
    if (flip_dirty) e.dirty = !e.dirty;
    return true;
  }

  const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Snapshot port: slots verbatim (including any injector-corrupted entry),
  // the round-robin cursor, and the stats.
  void save_state(ByteWriter& w) const {
    w.put_u64(entries_.size());
    for (const auto& slot : entries_) {
      w.put_u64(slot.entry.vpn);
      w.put_u64(slot.entry.ppn);
      w.put_bool(slot.entry.r);
      w.put_bool(slot.entry.w);
      w.put_bool(slot.entry.x);
      w.put_bool(slot.entry.user);
      w.put_bool(slot.entry.dirty);
      w.put_u16(slot.entry.pkey);
      w.put_bool(slot.valid);
    }
    w.put_u64(next_victim_);
    w.put_u64(stats_.hits);
    w.put_u64(stats_.misses);
    w.put_u64(stats_.flushes);
    w.put_u64(stats_.evictions);
  }
  void load_state(ByteReader& r) {
    ++epoch_;
    const u64 n = r.get_u64();
    SEALPK_CHECK_MSG(n == entries_.size(),
                     "TLB capacity mismatch: snapshot has "
                         << n << " slots, machine has " << entries_.size());
    for (auto& slot : entries_) {
      slot.entry.vpn = r.get_u64();
      slot.entry.ppn = r.get_u64();
      slot.entry.r = r.get_bool();
      slot.entry.w = r.get_bool();
      slot.entry.x = r.get_bool();
      slot.entry.user = r.get_bool();
      slot.entry.dirty = r.get_bool();
      slot.entry.pkey = r.get_u16();
      slot.valid = r.get_bool();
    }
    const u64 next_victim = r.get_u64();
    SEALPK_CHECK_MSG(next_victim < entries_.size(),
                     "TLB victim cursor " << next_victim
                                          << " out of range for "
                                          << entries_.size() << " slots");
    next_victim_ = static_cast<size_t>(next_victim);
    stats_.hits = r.get_u64();
    stats_.misses = r.get_u64();
    stats_.flushes = r.get_u64();
    stats_.evictions = r.get_u64();
  }

 private:
  struct Slot {
    TlbEntry entry;
    bool valid = false;
  };
  std::vector<Slot> entries_;
  size_t next_victim_ = 0;
  TlbStats stats_;
  u64 epoch_ = 0;
};

}  // namespace sealpk::mem
