// Protection-key bookkeeping.
//
// KeyManager is the kernel-side state the paper adds for SealPK
// (§III-B.1): a 1024-bit allocation bitmap, a 1024-bit *dirty* map for lazy
// de-allocation, a per-key page counter map, and the sealed_domain /
// sealed_page maps of §IV. The Intel-MPK flavour (src/mpk) implements the
// same interface with Linux's eager-free semantics, preserving the pkey
// use-after-free bug for comparison.
#pragma once

#include <array>
#include <bitset>
#include <functional>
#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"
#include "hw/pkr.h"
#include "os/syscall_abi.h"

namespace sealpk::os {

struct SealRange {
  u64 start = 0;
  u64 end = 0;  // inclusive
};

class KeyManager {
 public:
  virtual ~KeyManager() = default;

  virtual unsigned num_keys() const = 0;
  // Returns a fresh pkey or a negative errno.
  virtual i64 alloc() = 0;
  virtual i64 free_key(u32 pkey) = 0;
  virtual bool allocated(u32 pkey) const = 0;
  // True if the key may be named by pkey_mprotect (allocated and, for
  // SealPK, not lazily de-allocated).
  virtual bool assignable(u32 pkey) const = 0;
  virtual bool dirty(u32 /*pkey*/) const { return false; }
  // Page-counter maintenance, driven by mmap/munmap/pkey_mprotect.
  virtual void page_delta(u32 pkey, i64 pages) = 0;
  virtual u64 page_count(u32 /*pkey*/) const { return 0; }
  // Recovery port: force a counter to the recomputed truth after detected
  // drift (the MachineAuditor's bitmap/counter cross-check). Flavours with
  // no counts ignore it.
  virtual void reconcile_page_count(u32 /*pkey*/, u64 /*pages*/) {}

  // --- sealing (SealPK only; the MPK flavour returns -ENOSYS) -------------
  virtual i64 seal(u32 /*pkey*/, bool /*domain*/, bool /*page*/) {
    return err::kNoSys;
  }
  virtual bool domain_sealed(u32 /*pkey*/) const { return false; }
  virtual bool pages_sealed(u32 /*pkey*/) const { return false; }
  virtual i64 set_perm_seal(u32 /*pkey*/, SealRange /*range*/) {
    return err::kNoSys;
  }
  virtual std::optional<SealRange> perm_seal_range(u32 /*pkey*/) const {
    return std::nullopt;
  }

  // --- snapshot ports ------------------------------------------------------
  // Each flavour serializes its own bookkeeping; the kernel re-installs any
  // hooks (they capture live pointers and never travel in a snapshot).
  virtual void save_state(ByteWriter& w) const = 0;
  virtual void load_state(ByteReader& r) = 0;
};

// The SealPK kernel state with lazy de-allocation.
class SealPkKeyManager : public KeyManager {
 public:
  using DrainedHook = std::function<void(u32 pkey)>;

  SealPkKeyManager() {
    alloc_.set(0);  // pkey 0 is the default domain, permanently allocated
  }

  // Invoked when a dirty key's page count drains to zero and the key
  // becomes allocatable again — the kernel uses it to scrub the per-process
  // hardware seal state.
  void set_drained_hook(DrainedHook hook) { drained_ = std::move(hook); }

  unsigned num_keys() const override { return hw::kNumPkeys; }

  i64 alloc() override {
    // A dirty key still has pages carrying it, so it must not be handed
    // out — this is exactly what kills the use-after-free (paper
    // §III-B.1).
    for (u32 k = 1; k < hw::kNumPkeys; ++k) {
      if (!alloc_[k] && !dirty_[k]) {
        alloc_.set(k);
        return k;
      }
    }
    return err::kNoSpc;
  }

  i64 free_key(u32 pkey) override {
    if (pkey == 0 || pkey >= hw::kNumPkeys || !alloc_[pkey]) {
      return err::kInval;
    }
    alloc_.reset(pkey);
    if (counter_[pkey] > 0) {
      dirty_.set(pkey);  // lazy de-allocation: quarantine until drained
    } else {
      scrub(pkey);
    }
    return 0;
  }

  bool allocated(u32 pkey) const override {
    return pkey < hw::kNumPkeys && alloc_[pkey];
  }

  bool assignable(u32 pkey) const override {
    return pkey < hw::kNumPkeys && alloc_[pkey] && !dirty_[pkey];
  }

  bool dirty(u32 pkey) const override {
    return pkey < hw::kNumPkeys && dirty_[pkey];
  }

  void page_delta(u32 pkey, i64 pages) override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    const i64 next = static_cast<i64>(counter_[pkey]) + pages;
    SEALPK_CHECK_MSG(next >= 0, "pkey page counter underflow");
    counter_[pkey] = static_cast<u64>(next);
    drain_if_empty(pkey);
  }

  u64 page_count(u32 pkey) const override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    return counter_[pkey];
  }

  void reconcile_page_count(u32 pkey, u64 pages) override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    counter_[pkey] = pages;
    drain_if_empty(pkey);  // the reconciled truth may complete a drain
  }

  i64 seal(u32 pkey, bool domain, bool page) override {
    if (!assignable(pkey)) return err::kInval;
    if (domain) sealed_domain_.set(pkey);
    if (page) sealed_page_.set(pkey);
    return 0;
  }

  bool domain_sealed(u32 pkey) const override {
    return pkey < hw::kNumPkeys && sealed_domain_[pkey];
  }

  bool pages_sealed(u32 pkey) const override {
    return pkey < hw::kNumPkeys && sealed_page_[pkey];
  }

  // One-time fuse per process (paper §IV): a second call fails.
  i64 set_perm_seal(u32 pkey, SealRange range) override {
    if (!assignable(pkey)) return err::kInval;
    if (perm_ranges_[pkey].has_value()) return err::kPerm;
    if (range.start > range.end || range.start == 0) return err::kInval;
    perm_ranges_[pkey] = range;
    return 0;
  }

  std::optional<SealRange> perm_seal_range(u32 pkey) const override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    return perm_ranges_[pkey];
  }

  // One key's complete bookkeeping.
  struct KeyRecord {
    bool allocated = false;
    bool dirty = false;
    bool sealed_domain = false;
    bool sealed_page = false;
    u64 pages = 0;
    std::optional<SealRange> perm_range;
  };

  // Installs `rec` as key `pkey`'s state verbatim, bypassing every rule and
  // hook: for callers that build a whole state from parts (the model
  // checker's harness).
  void set_key(u32 pkey, const KeyRecord& rec) {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    alloc_[pkey] = rec.allocated;
    dirty_[pkey] = rec.dirty;
    sealed_domain_[pkey] = rec.sealed_domain;
    sealed_page_[pkey] = rec.sealed_page;
    counter_[pkey] = rec.pages;
    perm_ranges_[pkey] = rec.perm_range;
  }

  void save_state(ByteWriter& w) const override {
    w.put_bitset(alloc_);
    w.put_bitset(dirty_);
    w.put_bitset(sealed_domain_);
    w.put_bitset(sealed_page_);
    for (u64 c : counter_) w.put_u64(c);
    for (const auto& range : perm_ranges_) {
      w.put_bool(range.has_value());
      w.put_u64(range ? range->start : 0);
      w.put_u64(range ? range->end : 0);
    }
  }
  void load_state(ByteReader& r) override {
    alloc_ = r.get_bitset<hw::kNumPkeys>();
    dirty_ = r.get_bitset<hw::kNumPkeys>();
    sealed_domain_ = r.get_bitset<hw::kNumPkeys>();
    sealed_page_ = r.get_bitset<hw::kNumPkeys>();
    for (u64& c : counter_) c = r.get_u64();
    for (auto& range : perm_ranges_) {
      const bool has = r.get_bool();
      const u64 start = r.get_u64();
      const u64 end = r.get_u64();
      range = has ? std::optional<SealRange>({start, end}) : std::nullopt;
    }
  }

 private:
  // Completes a lazy free once the quarantined key's last page is gone.
  void drain_if_empty(u32 pkey) {
    if (counter_[pkey] != 0 || !dirty_[pkey]) return;
    scrub(pkey);
    if (drained_) drained_(pkey);
  }

  // Full release: the key was freed and no page carries it any more, so
  // every seal attached to it dissolves (paper §IV: "the seal cannot be
  // broken unless the corresponding pkey and all its associated pages are
  // freed").
  void scrub(u32 pkey) {
    dirty_.reset(pkey);
    sealed_domain_.reset(pkey);
    sealed_page_.reset(pkey);
    perm_ranges_[pkey].reset();
  }

  std::bitset<hw::kNumPkeys> alloc_;
  std::bitset<hw::kNumPkeys> dirty_;
  std::bitset<hw::kNumPkeys> sealed_domain_;
  std::bitset<hw::kNumPkeys> sealed_page_;
  std::array<u64, hw::kNumPkeys> counter_{};
  std::array<std::optional<SealRange>, hw::kNumPkeys> perm_ranges_{};
  DrainedHook drained_;
};

}  // namespace sealpk::os
