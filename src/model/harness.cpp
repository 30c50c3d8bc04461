#include "model/harness.h"

#include "common/check.h"
#include "os/pkey_core.h"
#include "os/syscall_abi.h"

namespace sealpk::model {

namespace {

// The bare PKR of one hart running one thread: no saved contexts to mirror.
class BarePkrPort final : public os::PkrPort {
 public:
  explicit BarePkrPort(hw::Pkr& pkr) : pkr_(pkr) {}
  void set_perm(u32 pkey, u8 perm) override { pkr_.set_perm(pkey, perm); }
  void revoke(u32 pkey) override { pkr_.set_perm(pkey, 0); }

 private:
  hw::Pkr& pkr_;
};

Outcome result(i64 rc) {
  return {rc < 0 ? OpStatus::kError : OpStatus::kOk, rc};
}

}  // namespace

Harness::Harness(const ModelConfig& cfg)
    : cfg_(cfg), seal_(cfg.cam_entries), pages_(cfg.num_pages) {
  wire_drained_hook();
}

Harness::Harness(const Harness& other)
    : cfg_(other.cfg_),
      pkr_(other.pkr_),
      seal_(other.seal_),
      keys_(other.keys_),
      pages_(other.pages_) {
  wire_drained_hook();
}

void Harness::wire_drained_hook() {
  keys_.set_drained_hook([this](u32 pkey) {
    BarePkrPort pkr(pkr_);
    os::scrub_drained(seal_, pkr, pkey);
  });
}

void Harness::misrefill(u32 pkey) {
  if (cfg_.mutation != Mutation::kRefillWrongRange) return;
  // Replaces the entry the shared refill just installed, in place.
  const os::SealRange range = *keys_.perm_seal_range(pkey);
  seal_.refill(pkey, range.start + 4, range.end);
}

void Harness::install(const ModelState& s) {
  pkr_.reset();
  for (u32 k = 0; k < cfg_.num_pkeys; ++k) {
    pkr_.set_perm(k, s.keys[k].perm);
  }

  hw::SealUnit::Snapshot snap{};
  for (u32 k = 0; k < cfg_.num_pkeys; ++k) {
    if (s.keys[k].hw_sealed) snap.seal_reg.set(k);
  }
  for (unsigned i = 0; i < cfg_.cam_entries; ++i) {
    snap.cam_entries[i] = {static_cast<u16>(s.cam[i].pkey), s.cam[i].start,
                           s.cam[i].end};
    snap.cam_valid[i] = s.cam[i].valid;
  }
  snap.fifo_next = s.fifo_next;
  seal_.restore(snap);

  for (u32 k = 0; k < hw::kNumPkeys; ++k) {
    os::SealPkKeyManager::KeyRecord rec;
    if (k < cfg_.num_pkeys) {
      const KeyState& key = s.keys[k];
      rec.allocated = key.allocated;
      rec.dirty = key.dirty;
      rec.sealed_domain = key.sealed_domain;
      rec.sealed_page = key.sealed_page;
      rec.pages = key.pages;
      if (key.range != kNoRange) {
        rec.perm_range = os::SealRange{kModelRanges[key.range].start,
                                       kModelRanges[key.range].end};
      }
    }
    keys_.set_key(k, rec);
  }

  pages_ = s.pages;
}

ModelState Harness::extract() const {
  ModelState s;
  s.keys.resize(cfg_.num_pkeys);
  s.pages = pages_;
  s.cam.resize(cfg_.cam_entries);

  const hw::SealUnit::Snapshot snap = seal_.canonical_state();
  for (u32 k = 0; k < cfg_.num_pkeys; ++k) {
    auto& key = s.keys[k];
    key.allocated = keys_.allocated(k);
    key.dirty = keys_.dirty(k);
    key.sealed_domain = keys_.domain_sealed(k);
    key.sealed_page = keys_.pages_sealed(k);
    key.hw_sealed = snap.seal_reg[k];
    key.perm = pkr_.peek_perm(k);
    const u64 count = keys_.page_count(k);
    SEALPK_CHECK_MSG(count <= cfg_.num_pages, "page counter out of range");
    key.pages = static_cast<u8>(count);
    const auto range = keys_.perm_seal_range(k);
    if (range.has_value()) {
      key.range = kNoRange;
      for (unsigned r = 0; r < kModelNumRanges; ++r) {
        if (range->start == kModelRanges[r].start &&
            range->end == kModelRanges[r].end) {
          key.range = static_cast<u8>(r);
        }
      }
      SEALPK_CHECK_MSG(key.range != kNoRange,
                       "perm-seal range on file is off the model table");
    }
  }

  for (unsigned i = 0; i < hw::kPkCamEntries; ++i) {
    if (i < cfg_.cam_entries) {
      s.cam[i].valid = snap.cam_valid[i];
      s.cam[i].pkey = static_cast<u8>(snap.cam_entries[i].pkey);
      s.cam[i].start = snap.cam_entries[i].addr_start;
      s.cam[i].end = snap.cam_entries[i].addr_end;
      SEALPK_CHECK_MSG(!s.cam[i].valid || s.cam[i].pkey < cfg_.num_pkeys,
                       "CAM caches a key outside the model universe");
    } else {
      SEALPK_CHECK_MSG(!snap.cam_valid[i],
                       "CAM entry valid beyond the reduced CAM");
    }
  }
  SEALPK_CHECK(snap.fifo_next < cfg_.cam_entries);
  s.fifo_next = static_cast<u8>(snap.fifo_next);

  // Reduced-universe boundary: ops must never leak state onto keys outside
  // the model (the alloc mask below frees boundary keys immediately).
  for (u32 k = cfg_.num_pkeys; k < cfg_.num_pkeys + 2 && k < hw::kNumPkeys;
       ++k) {
    SEALPK_CHECK_MSG(!keys_.allocated(k) && !keys_.dirty(k) &&
                         !snap.seal_reg[k] && pkr_.peek_perm(k) == 0,
                     "state leaked onto out-of-model key " << k);
  }
  return s;
}

// Every rule below is the kernel's or the hart's own code (os/pkey_core.h,
// hw::commit_wrpkr). Mutations are injected here, and only here, by
// replacing one shared step or correcting the state it left.
Outcome Harness::apply(const Op& op) {
  BarePkrPort pkr(pkr_);
  const u32 k = op.pkey;
  // kSkipFreeClear and kSkipDrainScrub: the seal unit leaves the free (or
  // the mprotect whose drain would scrub it) as it entered.
  const bool keep_seal =
      (cfg_.mutation == Mutation::kSkipFreeClear && op.kind == OpKind::kFree) ||
      (cfg_.mutation == Mutation::kSkipDrainScrub &&
       op.kind == OpKind::kMprotect);
  const hw::SealUnit::Snapshot seal_before =
      keep_seal ? seal_.canonical_state() : hw::SealUnit::Snapshot{};
  Outcome out;

  switch (op.kind) {
    case OpKind::kAlloc:
      out = result(os::pkey_alloc(keys_, pkr, op.perm));
      if (out.rc >= static_cast<i64>(cfg_.num_pkeys)) {
        // Reduced-universe mask: the real manager found a key outside the
        // model, which means every model key is allocated or quarantined.
        // Free it again (it carries no pages, so nothing else changed) and
        // report exhaustion.
        SEALPK_CHECK(
            os::pkey_free(keys_, pkr, seal_, static_cast<u32>(out.rc)) == 0);
        out = result(os::err::kNoSpc);
      }
      break;

    case OpKind::kFree:
      out = result(os::pkey_free(keys_, pkr, seal_, k));
      if (out.rc != 0) break;
      if (cfg_.mutation == Mutation::kEagerFreeClear) seal_.clear_key(k);
      if (cfg_.mutation == Mutation::kForgetDirty && keys_.dirty(k)) {
        // Broken kernel: the quarantine evaporates while pages survive.
        ModelState s = extract();
        s.keys[k].dirty = false;
        install(s);
      }
      break;

    case OpKind::kMprotect: {
      // pkey_mprotect on one page: the kernel's admission rule and seal
      // veto, then the PTE rewrite and page-counter move of the model's
      // page table (AddressSpace::protect_pkey's per-VMA step).
      PageState& pg = pages_[op.page];
      out = result(os::pkey_mprotect_admit(keys_, k));
      if (out.rc == 0) out = result(os::seal_veto(keys_, pg.pkey, k));
      if (out.rc != 0) break;
      const u32 old = pg.pkey;
      pg = {static_cast<u8>(k), op.prot};
      if (old != k) {
        keys_.page_delta(old, -1);  // may complete a lazy-free drain
        keys_.page_delta(k, +1);
      }
      break;
    }

    case OpKind::kSeal:
      out = result(keys_.seal(k, op.seal_domain, op.seal_page));
      break;

    case OpKind::kPermSeal: {
      const PcRange range = kModelRanges[op.range];
      out = result(
          os::pkey_perm_seal(keys_, seal_, k, {range.start, range.end}));
      if (out.rc == 0) misrefill(k);
      break;
    }

    case OpKind::kWrpkr: {
      // The hart's WRPKR commit; a CAM miss traps to the kernel's refill
      // and the WRPKR re-executes.
      const u64 pc = kModelWrpkrPcs[op.pc];
      const u64 value = u64{op.perm} << (2 * hw::pkr_slot_of(k));
      hw::WrpkrCommit c = hw::commit_wrpkr(pkr_, seal_, k, pc, value);
      if (c.check == hw::SealCheck::kMiss) {
        if (!os::refill_cam(keys_, seal_, k)) return {OpStatus::kTrap, 0};
        misrefill(k);
        c = hw::commit_wrpkr(pkr_, seal_, k, pc, value);
      }
      if (c.check == hw::SealCheck::kViolation &&
          cfg_.mutation == Mutation::kIgnoreSealViolation) {
        c = hw::write_pkr_row(pkr_, seal_, k, value);
      }
      if (c.check != hw::SealCheck::kAllowed) return {OpStatus::kTrap, 0};
      if (cfg_.mutation == Mutation::kSkipSealedNeighbourMerge) {
        pkr_.write_row(hw::pkr_row_of(k), value);
      }
      break;
    }
  }
  if (keep_seal) seal_.restore(seal_before);
  return out;
}

bool Harness::access_allowed(unsigned page, bool is_store) {
  const PageState& pg = pages_[page];
  const bool pte_ok =
      is_store ? (pg.prot & 0b10) != 0 : (pg.prot & 0b01) != 0;
  if (cfg_.mutation == Mutation::kIgnorePkeyOnAccess) return pte_ok;
  // The hart's effective-permission check: PTE AND pkey (§III-A).
  const bool denied = is_store ? pkr_.write_disabled(pg.pkey)
                               : pkr_.read_disabled(pg.pkey);
  return pte_ok && !denied;
}

bool Harness::fetch_allowed(unsigned page) const {
  (void)page;
  return true;  // the fetch path never consults the Pkr (hart.cpp)
}

}  // namespace sealpk::model
