// The pkey/seal syscall rules (paper §III-B.1, §IV), in one place.
//
// These free functions are the bodies of pkey_alloc, pkey_free and
// pkey_perm_seal, pkey_mprotect's admission rule and per-page seal veto,
// the PK-CAM miss refill and the lazy-free drain scrub. They act on the
// units alone — a KeyManager, the PKR (through PkrPort) and a
// hw::SealUnit — so the kernel (os/kernel.cpp) and the model checker
// (model/harness.cpp) run the same code. Argument decoding, cycle charging
// and tracing stay with the kernel. pkey_seal has no body here: its whole
// rule is KeyManager::seal, which both call directly.
#pragma once

#include <optional>

#include "hw/seal_unit.h"
#include "os/key_manager.h"

namespace sealpk::os {

// Where a kernel-path PKR field write lands — the one place the kernel and
// the bare units differ. The kernel also mirrors every write into the
// running thread's saved PKR (the scrub shadow) and fans pkey_free's
// revocation out to every sibling thread's saved PKR.
class PkrPort {
 public:
  virtual ~PkrPort() = default;
  // One key's 2-bit field in the running thread.
  virtual void set_perm(u32 pkey, u8 perm) = 0;
  // pkey_free: the key's field returns to (0,0) in every thread.
  virtual void revoke(u32 pkey) = 0;
};

// pkey_alloc: a fresh key (never a quarantined one) with `init_perm`
// installed. Returns the key or a negative errno.
inline i64 pkey_alloc(KeyManager& keys, PkrPort& pkr, u8 init_perm) {
  const i64 pkey = keys.alloc();
  if (pkey >= 0) pkr.set_perm(static_cast<u32>(pkey), init_perm);
  return pkey;
}

// pkey_free with lazy de-allocation (§III-B.1): the key's PKR field drops
// to (0,0) so the PTEs alone govern its orphan pages, and a key with pages
// left stays quarantined until they drain (see scrub_drained).
inline i64 pkey_free(KeyManager& keys, PkrPort& pkr, hw::SealUnit& seal,
                     u32 pkey) {
  const i64 rc = keys.free_key(pkey);
  if (rc != 0) return rc;
  pkr.revoke(pkey);
  // Immediate full release: with no page carrying the key, free_key()
  // scrubbed the bookkeeping without the quarantine, so the drained hook
  // never fires. Dissolve the hardware seal state here too, or the key's
  // next owner inherits the SealReg bit and PK-CAM range (found by the
  // model checker; replayed in tests/model_traces/).
  if (!keys.dirty(pkey)) seal.clear_key(pkey);
  return 0;
}

// pkey_perm_seal (§IV): record the one-time fuse and its permissible range,
// then commit both to the seal unit (spk.range + spk.seal) and warm the
// PK-CAM.
inline i64 pkey_perm_seal(KeyManager& keys, hw::SealUnit& seal, u32 pkey,
                          SealRange range) {
  const i64 rc = keys.set_perm_seal(pkey, range);
  if (rc != 0) return rc;
  seal.set_sealed(pkey);
  seal.refill(pkey, range.start, range.end);
  return 0;
}

// pkey_mprotect admission: only an allocated, non-quarantined key may be
// assigned to pages.
inline i64 pkey_mprotect_admit(const KeyManager& keys, u32 pkey) {
  return keys.assignable(pkey) ? 0 : err::kInval;
}

// The §IV seal veto for one page that carries `cur` and would carry `next`
// (next == cur for a plain mprotect): a sealed domain's pages keep their
// key and permissions, and a page-sealed domain admits no new pages.
inline i64 seal_veto(const KeyManager& keys, u32 cur, u32 next) {
  if (keys.domain_sealed(cur)) return err::kPerm;
  if (next != cur && keys.pages_sealed(next)) return err::kPerm;
  return 0;
}

// PK-CAM miss service: reload the key's range on file (FIFO replacement).
// Returns the range, or nullopt when none is on file — a sealed key with no
// range, which the kernel treats as a seal violation.
inline std::optional<SealRange> refill_cam(const KeyManager& keys,
                                           hw::SealUnit& seal, u32 pkey) {
  const std::optional<SealRange> range = keys.perm_seal_range(pkey);
  if (range.has_value()) seal.refill(pkey, range->start, range->end);
  return range;
}

// Lazy-free drain: a quarantined key's last page is gone, so its hardware
// seal state dissolves and its PKR field clears for the next owner (§IV:
// the seal breaks only once the key and all its pages are freed).
inline void scrub_drained(hw::SealUnit& seal, PkrPort& pkr, u32 pkey) {
  seal.clear_key(pkey);
  pkr.set_perm(pkey, 0);
}

}  // namespace sealpk::os
