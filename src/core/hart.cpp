#include "core/hart.h"

#include <cstring>

namespace sealpk::core {

using isa::Inst;
using isa::Op;

const char* trap_cause_name(TrapCause cause) {
  switch (cause) {
    case TrapCause::kInstAddrMisaligned: return "instruction address misaligned";
    case TrapCause::kInstAccessFault: return "instruction access fault";
    case TrapCause::kIllegalInst: return "illegal instruction";
    case TrapCause::kBreakpoint: return "breakpoint";
    case TrapCause::kLoadAddrMisaligned: return "load address misaligned";
    case TrapCause::kLoadAccessFault: return "load access fault";
    case TrapCause::kStoreAddrMisaligned: return "store address misaligned";
    case TrapCause::kStoreAccessFault: return "store access fault";
    case TrapCause::kEcallFromU: return "ecall from U-mode";
    case TrapCause::kEcallFromS: return "ecall from S-mode";
    case TrapCause::kInstPageFault: return "instruction page fault";
    case TrapCause::kLoadPageFault: return "load page fault";
    case TrapCause::kStorePageFault: return "store page fault";
    case TrapCause::kSealViolation: return "sealed-pkey WRPKR violation";
    case TrapCause::kPkCamMiss: return "PK-CAM miss";
    case TrapCause::kMachineCheck:
      return "machine check (corrupted hardware state)";
  }
  return "unknown";
}

Hart::Hart(mem::PhysMem& mem, const HartConfig& config)
    : mem_(mem),
      config_(config),
      dtlb_(config.dtlb_entries),
      itlb_(config.itlb_entries) {}

u64 Hart::reg(unsigned idx) const {
  SEALPK_CHECK(idx < 32);
  return idx == 0 ? 0 : regs_[idx];
}

void Hart::set_reg(unsigned idx, u64 value) {
  SEALPK_CHECK(idx < 32);
  if (idx != 0) regs_[idx] = value;
}

unsigned Hart::paging_levels() const {
  if (priv_ != Priv::kUser) return 0;
  const u64 mode = csr::satp_mode(csrs_.satp);
  if (mode == csr::satp_mode(csr::kSatpModeSv39)) return mem::sv39::kLevels;
  if (mode == csr::satp_mode(csr::kSatpModeSv48)) return mem::sv48::kLevels;
  return 0;
}

unsigned Hart::pkey_bits() const {
  return config_.flavor == IsaFlavor::kSealPk ? mem::pte::kSealPkPkeyBits
                                              : mem::pte::kMpkPkeyBits;
}

void Hart::raise(TrapCause cause, u64 tval) {
  trapped_ = true;
  trap_cause_ = cause;
  ++stats_.traps;
  csrs_.scause = static_cast<u64>(cause);
  csrs_.sepc = pc_;
  csrs_.stval = tval;
  // Record the previous privilege in sstatus.SPP, as sret needs it.
  csrs_.sstatus = deposit(csrs_.sstatus, 8, 8,
                          priv_ == Priv::kSupervisor ? 1 : 0);
  priv_ = Priv::kSupervisor;
  next_pc_ = csrs_.stvec & ~u64{3};
  cycles_ += config_.timing.trap_enter_cycles;
  if (recorder_ != nullptr) {
    recorder_->emit(obs::EventKind::kTrap, instret_, cycles_, obs::kNoPkey,
                    static_cast<u64>(cause), tval);
  }
}

void Hart::inject_trap(TrapCause cause, u64 tval) {
  // raise() leaves the redirect in next_pc_ because in-pipeline traps are
  // committed at the end of step(); an injected trap happens between steps,
  // so commit the redirect here.
  raise(cause, tval);
  pc_ = next_pc_;
  trapped_ = false;
}

void Hart::flush_tlbs() {
  dtlb_.flush();
  itlb_.flush();
}

std::optional<u64> Hart::translate_debug(u64 vaddr,
                                         mem::Access access) const {
  const u64 mode = csr::satp_mode(csrs_.satp);
  unsigned levels;
  if (mode == csr::satp_mode(csr::kSatpModeSv39)) {
    levels = mem::sv39::kLevels;
  } else if (mode == csr::satp_mode(csr::kSatpModeSv48)) {
    levels = mem::sv48::kLevels;
  } else {
    return vaddr;  // bare
  }
  const auto result =
      mem::walk(static_cast<const mem::PhysMem&>(mem_),
                csr::satp_ppn(csrs_.satp), vaddr, access, levels);
  if (!result.ok) return std::nullopt;
  return (result.ppn << mem::kPageShift) | mem::sv39::page_offset(vaddr);
}

Hart::MemOutcome Hart::translate_fetch(u64 vaddr) {
  MemOutcome out;
  const unsigned levels = paging_levels();
  if (levels == 0) {
    if (!mem_.contains(vaddr, 4)) {
      out.cause = TrapCause::kInstAccessFault;
      out.tval = vaddr;
      return out;
    }
    out.ok = true;
    out.paddr = vaddr;
    return out;
  }
  const u64 vpn = mem::svxx::vpn_of(vaddr, levels);
  auto entry = itlb_.lookup(vpn);
  if (!entry) {
    const auto wr = mem::walk(mem_, csr::satp_ppn(csrs_.satp), vaddr,
                              mem::Access::kFetch, /*update_ad=*/true,
                              levels);
    cycles_ += config_.timing.ptw_cost(wr.accesses);
    if (!wr.ok) {
      out.cause = TrapCause::kInstPageFault;
      out.tval = vaddr;
      return out;
    }
    mem::TlbEntry fresh;
    fresh.vpn = vpn;
    fresh.ppn = wr.ppn;
    fresh.r = (wr.pte & mem::pte::kR) != 0;
    fresh.w = (wr.pte & mem::pte::kW) != 0;
    fresh.x = (wr.pte & mem::pte::kX) != 0;
    fresh.user = (wr.pte & mem::pte::kU) != 0;
    fresh.dirty = (wr.pte & mem::pte::kD) != 0;
    // The ITLB carries no pkey field (paper §III-A footnote: pkey checks
    // apply to data accesses only, so the ITLB is unmodified).
    itlb_.insert(fresh);
    entry = fresh;
  }
  if (!entry->x || !entry->user) {
    out.cause = TrapCause::kInstPageFault;
    out.tval = vaddr;
    return out;
  }
  out.ok = true;
  out.paddr =
      (entry->ppn << mem::kPageShift) | mem::sv39::page_offset(vaddr);
  return out;
}

bool Hart::data_access_allowed(const mem::TlbEntry& entry,
                               mem::Access access, bool* pkey_denied) {
  *pkey_denied = false;
  if (!entry.user) return false;
  const bool want_write = access == mem::Access::kStore;
  const bool pte_ok = want_write ? entry.w : entry.r;
  if (!pte_ok) return false;

  // Effective permission = PTE permission AND pkey permission (Figure 2).
  bool denied;
  if (config_.flavor == IsaFlavor::kSealPk) {
    denied = want_write ? pkr_.write_disabled(entry.pkey)
                        : pkr_.read_disabled(entry.pkey);
  } else {
    denied = pkru_.access_disabled(entry.pkey) ||
             (want_write && pkru_.write_disabled(entry.pkey));
  }
  if (denied) {
    *pkey_denied = true;
    return false;
  }
  return true;
}

Hart::MemOutcome Hart::translate_data(u64 vaddr, mem::Access access) {
  MemOutcome out;
  const bool is_store = access == mem::Access::kStore;
  const TrapCause fault =
      is_store ? TrapCause::kStorePageFault : TrapCause::kLoadPageFault;
  const unsigned levels = paging_levels();
  if (levels == 0) {
    if (!mem_.contains(vaddr, 1)) {
      out.cause = is_store ? TrapCause::kStoreAccessFault
                           : TrapCause::kLoadAccessFault;
      out.tval = vaddr;
      return out;
    }
    out.ok = true;
    out.paddr = vaddr;
    return out;
  }

  const u64 vpn = mem::svxx::vpn_of(vaddr, levels);
  auto entry = dtlb_.lookup(vpn);
  const bool need_dirty_walk =
      entry.has_value() && is_store && !entry->dirty;
  if (!entry || need_dirty_walk) {
    const auto wr = mem::walk(mem_, csr::satp_ppn(csrs_.satp), vaddr, access,
                              /*update_ad=*/true, levels);
    cycles_ += config_.timing.ptw_cost(wr.accesses);
    if (!wr.ok) {
      out.cause = fault;
      out.tval = vaddr;
      return out;
    }
    mem::TlbEntry fresh;
    fresh.vpn = vpn;
    fresh.ppn = wr.ppn;
    fresh.r = (wr.pte & mem::pte::kR) != 0;
    fresh.w = (wr.pte & mem::pte::kW) != 0;
    fresh.x = (wr.pte & mem::pte::kX) != 0;
    fresh.user = (wr.pte & mem::pte::kU) != 0;
    fresh.dirty = (wr.pte & mem::pte::kD) != 0;
    fresh.pkey = static_cast<u16>(mem::pte::pkey_of(wr.pte, pkey_bits()));
    dtlb_.insert(fresh);
    entry = fresh;
  }

  bool pkey_denied = false;
  if (!data_access_allowed(*entry, access, &pkey_denied)) {
    if (pkey_denied) {
      ++stats_.pkey_denials;
      // Hardware latches the denying pkey so the kernel can augment the
      // fault report (paper §III-B.2).
      csrs_.spkinfo = (u64{1} << 63) | entry->pkey;
      if (recorder_ != nullptr) {
        recorder_->emit(obs::EventKind::kPkeyDenial, instret_, cycles_,
                        entry->pkey, vaddr,
                        access == mem::Access::kStore ? 1 : 0);
      }
    } else {
      csrs_.spkinfo = 0;
    }
    out.cause = fault;
    out.tval = vaddr;
    return out;
  }
  out.ok = true;
  out.paddr =
      (entry->ppn << mem::kPageShift) | mem::sv39::page_offset(vaddr);
  return out;
}

const Inst* Hart::fetch() {
  FetchPage& page = fetch_page_;
  // Masking out bits 2..11 keeps the misalignment bits, so a misaligned pc
  // never matches a page base and takes the slow path, which raises.
  if ((pc_ & ~(mem::kPageSize - 4)) == page.base && csrs_.satp == page.satp &&
      priv_ == page.priv && itlb_.epoch() == page.itlb_epoch &&
      mem_.layout_epoch() == page.layout_epoch) {
    if (page.paged) itlb_.credit_hit();
  } else if (!refill_fetch_page()) {
    return nullptr;
  }
  const u64 offset = pc_ % mem::kPageSize;
  u32 word;
  std::memcpy(&word, page.bytes + offset, sizeof(word));
  Inst& slot = page.slots[offset / 4];
  if (slot.raw != word) slot = isa::decode(word);
  return &slot;
}

bool Hart::refill_fetch_page() {
  if ((pc_ & 3) != 0) {
    raise(TrapCause::kInstAddrMisaligned, pc_);
    return false;
  }
  const auto out = translate_fetch(pc_);
  if (!out.ok) {
    raise(out.cause, out.tval);
    return false;
  }
  auto& decoded =
      decoded_pages_[(out.paddr >> mem::kPageShift) % kDecodedPages];
  if (decoded == nullptr) decoded = std::make_unique<DecodedPage>();
  fetch_page_ = {.base = pc_ & ~(mem::kPageSize - 1),
                 .satp = csrs_.satp,
                 .priv = priv_,
                 .itlb_epoch = itlb_.epoch(),
                 .layout_epoch = mem_.layout_epoch(),
                 .paged = paging_levels() != 0,
                 .bytes = mem_.page_data(out.paddr),
                 .slots = decoded->data()};
  return true;
}

bool Hart::mem_load(u64 vaddr, unsigned size, bool sign_extend, u64* value) {
  if ((vaddr & (size - 1)) != 0) {
    raise(TrapCause::kLoadAddrMisaligned, vaddr);
    return false;
  }
  const auto out = translate_data(vaddr, mem::Access::kLoad);
  if (!out.ok) {
    raise(out.cause, out.tval);
    return false;
  }
  if (!mem_.contains(out.paddr, size)) {
    raise(TrapCause::kLoadAccessFault, vaddr);
    return false;
  }
  u64 raw = 0;
  switch (size) {
    case 1: raw = mem_.read_u8(out.paddr); break;
    case 2: raw = mem_.read_u16(out.paddr); break;
    case 4: raw = mem_.read_u32(out.paddr); break;
    case 8: raw = mem_.read_u64(out.paddr); break;
    default: SEALPK_CHECK(false);
  }
  *value = sign_extend ? static_cast<u64>(sext(raw, size * 8)) : raw;
  ++stats_.loads;
  cycles_ += config_.timing.mem_extra_cycles;
  return true;
}

bool Hart::mem_store(u64 vaddr, unsigned size, u64 value) {
  if ((vaddr & (size - 1)) != 0) {
    raise(TrapCause::kStoreAddrMisaligned, vaddr);
    return false;
  }
  const auto out = translate_data(vaddr, mem::Access::kStore);
  if (!out.ok) {
    raise(out.cause, out.tval);
    return false;
  }
  if (!mem_.contains(out.paddr, size)) {
    raise(TrapCause::kStoreAccessFault, vaddr);
    return false;
  }
  switch (size) {
    case 1: mem_.write_u8(out.paddr, static_cast<u8>(value)); break;
    case 2: mem_.write_u16(out.paddr, static_cast<u16>(value)); break;
    case 4: mem_.write_u32(out.paddr, static_cast<u32>(value)); break;
    case 8: mem_.write_u64(out.paddr, value); break;
    default: SEALPK_CHECK(false);
  }
  ++stats_.stores;
  cycles_ += config_.timing.mem_extra_cycles;
  return true;
}

StepResult Hart::step() { return run(1); }

StepResult Hart::run(u64 max_steps) {
  for (u64 i = 0; i < max_steps; ++i) {
    trapped_ = false;
    next_pc_ = pc_ + 4;
    cycles_ += config_.timing.base_cycles;

    if (const Inst* inst = fetch()) {
      if (inst->op == Op::kIllegal) {
        raise(TrapCause::kIllegalInst, inst->raw);
      } else {
        exec(*inst);
      }
    }

    if (trapped_) {
      pc_ = next_pc_;
      return {StepKind::kTrap, trap_cause_};
    }
    ++instret_;
    pc_ = next_pc_;
  }
  return {};
}

bool Hart::exec(const Inst& inst) {
  const u64 rs1 = reg(inst.rs1);
  const u64 rs2 = reg(inst.rs2);
  const auto& t = config_.timing;
  u64 value = 0;
  switch (inst.op) {
    // --- upper immediate / control flow -----------------------------------
    case Op::kLui:
      set_reg(inst.rd, static_cast<u64>(inst.imm));
      break;
    case Op::kAuipc:
      set_reg(inst.rd, pc_ + static_cast<u64>(inst.imm));
      break;
    case Op::kJal:
      if (inst.rd == isa::ra) ++stats_.calls;
      set_reg(inst.rd, pc_ + 4);
      next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kJalr: {
      if (inst.rd == isa::ra) ++stats_.calls;
      const u64 target = (rs1 + static_cast<u64>(inst.imm)) & ~u64{1};
      set_reg(inst.rd, pc_ + 4);
      next_pc_ = target;
      break;
    }
    case Op::kBeq:
      if (rs1 == rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBne:
      if (rs1 != rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBlt:
      if (static_cast<i64>(rs1) < static_cast<i64>(rs2))
        next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBge:
      if (static_cast<i64>(rs1) >= static_cast<i64>(rs2))
        next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBltu:
      if (rs1 < rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBgeu:
      if (rs1 >= rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;

    // --- loads / stores -----------------------------------------------------
    case Op::kLb:
      if (!mem_load(rs1 + inst.imm, 1, true, &value)) return false;
      set_reg(inst.rd, value);
      break;
    case Op::kLh:
      if (!mem_load(rs1 + inst.imm, 2, true, &value)) return false;
      set_reg(inst.rd, value);
      break;
    case Op::kLw:
      if (!mem_load(rs1 + inst.imm, 4, true, &value)) return false;
      set_reg(inst.rd, value);
      break;
    case Op::kLd:
      if (!mem_load(rs1 + inst.imm, 8, true, &value)) return false;
      set_reg(inst.rd, value);
      break;
    case Op::kLbu:
      if (!mem_load(rs1 + inst.imm, 1, false, &value)) return false;
      set_reg(inst.rd, value);
      break;
    case Op::kLhu:
      if (!mem_load(rs1 + inst.imm, 2, false, &value)) return false;
      set_reg(inst.rd, value);
      break;
    case Op::kLwu:
      if (!mem_load(rs1 + inst.imm, 4, false, &value)) return false;
      set_reg(inst.rd, value);
      break;
    case Op::kSb:
      return mem_store(rs1 + inst.imm, 1, rs2);
    case Op::kSh:
      return mem_store(rs1 + inst.imm, 2, rs2);
    case Op::kSw:
      return mem_store(rs1 + inst.imm, 4, rs2);
    case Op::kSd:
      return mem_store(rs1 + inst.imm, 8, rs2);

    // --- integer ALU --------------------------------------------------------
    case Op::kAddi: set_reg(inst.rd, rs1 + inst.imm); break;
    case Op::kSlti:
      set_reg(inst.rd, static_cast<i64>(rs1) < inst.imm ? 1 : 0);
      break;
    case Op::kSltiu:
      set_reg(inst.rd, rs1 < static_cast<u64>(inst.imm) ? 1 : 0);
      break;
    case Op::kXori: set_reg(inst.rd, rs1 ^ static_cast<u64>(inst.imm)); break;
    case Op::kOri: set_reg(inst.rd, rs1 | static_cast<u64>(inst.imm)); break;
    case Op::kAndi: set_reg(inst.rd, rs1 & static_cast<u64>(inst.imm)); break;
    case Op::kSlli: set_reg(inst.rd, rs1 << inst.imm); break;
    case Op::kSrli: set_reg(inst.rd, rs1 >> inst.imm); break;
    case Op::kSrai:
      set_reg(inst.rd, static_cast<u64>(static_cast<i64>(rs1) >> inst.imm));
      break;
    case Op::kAddiw:
      set_reg(inst.rd, static_cast<u64>(sext(rs1 + inst.imm, 32)));
      break;
    case Op::kSlliw:
      set_reg(inst.rd, static_cast<u64>(sext(rs1 << inst.imm, 32)));
      break;
    case Op::kSrliw:
      set_reg(inst.rd,
              static_cast<u64>(sext(zext(rs1, 32) >> inst.imm, 32)));
      break;
    case Op::kSraiw:
      set_reg(inst.rd, static_cast<u64>(
                           static_cast<i64>(sext(rs1, 32)) >> inst.imm));
      break;
    case Op::kAdd: set_reg(inst.rd, rs1 + rs2); break;
    case Op::kSub: set_reg(inst.rd, rs1 - rs2); break;
    case Op::kSll: set_reg(inst.rd, rs1 << (rs2 & 63)); break;
    case Op::kSlt:
      set_reg(inst.rd,
              static_cast<i64>(rs1) < static_cast<i64>(rs2) ? 1 : 0);
      break;
    case Op::kSltu: set_reg(inst.rd, rs1 < rs2 ? 1 : 0); break;
    case Op::kXor: set_reg(inst.rd, rs1 ^ rs2); break;
    case Op::kSrl: set_reg(inst.rd, rs1 >> (rs2 & 63)); break;
    case Op::kSra:
      set_reg(inst.rd,
              static_cast<u64>(static_cast<i64>(rs1) >> (rs2 & 63)));
      break;
    case Op::kOr: set_reg(inst.rd, rs1 | rs2); break;
    case Op::kAnd: set_reg(inst.rd, rs1 & rs2); break;
    case Op::kAddw:
      set_reg(inst.rd, static_cast<u64>(sext(rs1 + rs2, 32)));
      break;
    case Op::kSubw:
      set_reg(inst.rd, static_cast<u64>(sext(rs1 - rs2, 32)));
      break;
    case Op::kSllw:
      set_reg(inst.rd, static_cast<u64>(sext(rs1 << (rs2 & 31), 32)));
      break;
    case Op::kSrlw:
      set_reg(inst.rd,
              static_cast<u64>(sext(zext(rs1, 32) >> (rs2 & 31), 32)));
      break;
    case Op::kSraw:
      set_reg(inst.rd, static_cast<u64>(static_cast<i64>(sext(rs1, 32)) >>
                                        (rs2 & 31)));
      break;

    // --- M extension ----------------------------------------------------------
    case Op::kMul:
      cycles_ += t.mul_cycles;
      set_reg(inst.rd, rs1 * rs2);
      break;
    case Op::kMulh: {
      cycles_ += t.mul_cycles;
      const __int128 prod = static_cast<__int128>(static_cast<i64>(rs1)) *
                            static_cast<__int128>(static_cast<i64>(rs2));
      set_reg(inst.rd, static_cast<u64>(prod >> 64));
      break;
    }
    case Op::kMulhsu: {
      cycles_ += t.mul_cycles;
      const __int128 prod = static_cast<__int128>(static_cast<i64>(rs1)) *
                            static_cast<__int128>(rs2);
      set_reg(inst.rd, static_cast<u64>(prod >> 64));
      break;
    }
    case Op::kMulhu: {
      cycles_ += t.mul_cycles;
      const unsigned __int128 prod = static_cast<unsigned __int128>(rs1) *
                                     static_cast<unsigned __int128>(rs2);
      set_reg(inst.rd, static_cast<u64>(prod >> 64));
      break;
    }
    case Op::kDiv: {
      cycles_ += t.div_cycles;
      const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
      if (b == 0) {
        set_reg(inst.rd, ~u64{0});
      } else if (a == INT64_MIN && b == -1) {
        set_reg(inst.rd, static_cast<u64>(INT64_MIN));
      } else {
        set_reg(inst.rd, static_cast<u64>(a / b));
      }
      break;
    }
    case Op::kDivu:
      cycles_ += t.div_cycles;
      set_reg(inst.rd, rs2 == 0 ? ~u64{0} : rs1 / rs2);
      break;
    case Op::kRem: {
      cycles_ += t.div_cycles;
      const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
      if (b == 0) {
        set_reg(inst.rd, rs1);
      } else if (a == INT64_MIN && b == -1) {
        set_reg(inst.rd, 0);
      } else {
        set_reg(inst.rd, static_cast<u64>(a % b));
      }
      break;
    }
    case Op::kRemu:
      cycles_ += t.div_cycles;
      set_reg(inst.rd, rs2 == 0 ? rs1 : rs1 % rs2);
      break;
    case Op::kMulw:
      cycles_ += t.mul_cycles;
      set_reg(inst.rd, static_cast<u64>(sext(rs1 * rs2, 32)));
      break;
    case Op::kDivw: {
      cycles_ += t.div_cycles;
      const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
      i32 q;
      if (b == 0) {
        q = -1;
      } else if (a == INT32_MIN && b == -1) {
        q = INT32_MIN;
      } else {
        q = a / b;
      }
      set_reg(inst.rd, static_cast<u64>(static_cast<i64>(q)));
      break;
    }
    case Op::kDivuw: {
      cycles_ += t.div_cycles;
      const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
      const u32 q = b == 0 ? ~u32{0} : a / b;
      set_reg(inst.rd, static_cast<u64>(sext(q, 32)));
      break;
    }
    case Op::kRemw: {
      cycles_ += t.div_cycles;
      const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
      i32 r;
      if (b == 0) {
        r = a;
      } else if (a == INT32_MIN && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      set_reg(inst.rd, static_cast<u64>(static_cast<i64>(r)));
      break;
    }
    case Op::kRemuw: {
      cycles_ += t.div_cycles;
      const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
      const u32 r = b == 0 ? a : a % b;
      set_reg(inst.rd, static_cast<u64>(sext(r, 32)));
      break;
    }

    // --- system ---------------------------------------------------------------
    case Op::kFence:
    case Op::kFenceI:
    case Op::kWfi:
      break;
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kSret:
    case Op::kSfenceVma:
      return exec_system(inst);
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      return exec_csr(inst);

    // --- custom-0 ---------------------------------------------------------------
    case Op::kRdpkr:
    case Op::kWrpkr:
    case Op::kSealStart:
    case Op::kSealEnd:
    case Op::kSpkRange:
    case Op::kSpkSeal:
    case Op::kWrpkru:
    case Op::kRdpkru:
      return exec_custom(inst);

    case Op::kIllegal:
      raise(TrapCause::kIllegalInst, inst.raw);
      return false;
  }
  return !trapped_;
}

bool Hart::exec_system(const Inst& inst) {
  switch (inst.op) {
    case Op::kEcall:
      raise(priv_ == Priv::kUser ? TrapCause::kEcallFromU
                                 : TrapCause::kEcallFromS,
            0);
      return false;
    case Op::kEbreak:
      raise(TrapCause::kBreakpoint, pc_);
      return false;
    case Op::kSret: {
      if (priv_ != Priv::kSupervisor) {
        raise(TrapCause::kIllegalInst, inst.raw);
        return false;
      }
      next_pc_ = csrs_.sepc;
      priv_ = (csrs_.sstatus & csr::kSstatusSpp) != 0 ? Priv::kSupervisor
                                                      : Priv::kUser;
      csrs_.sstatus &= ~csr::kSstatusSpp;
      cycles_ += config_.timing.trap_return_cycles;
      return true;
    }
    case Op::kSfenceVma: {
      if (priv_ != Priv::kSupervisor) {
        raise(TrapCause::kIllegalInst, inst.raw);
        return false;
      }
      cycles_ += config_.timing.tlb_flush_cycles;
      if (inst.rs1 == 0) {
        flush_tlbs();
      } else {
        const u64 vpn = mem::sv39::vpn_of(reg(inst.rs1));
        dtlb_.flush_vpn(vpn);
        itlb_.flush_vpn(vpn);
      }
      return true;
    }
    default:
      raise(TrapCause::kIllegalInst, inst.raw);
      return false;
  }
}

bool Hart::exec_csr(const Inst& inst) {
  const u16 addr = inst.csr;
  if (priv_ == Priv::kUser && !CsrFile::user_readable(addr)) {
    raise(TrapCause::kIllegalInst, inst.raw);
    return false;
  }
  u64 old = 0;
  if (!csrs_.read(addr, cycles_, instret_, &old)) {
    raise(TrapCause::kIllegalInst, inst.raw);
    return false;
  }
  const bool is_imm = inst.op == Op::kCsrrwi || inst.op == Op::kCsrrsi ||
                      inst.op == Op::kCsrrci;
  const u64 operand = is_imm ? static_cast<u64>(inst.imm) : reg(inst.rs1);
  u64 next = old;
  bool do_write = true;
  switch (inst.op) {
    case Op::kCsrrw:
    case Op::kCsrrwi:
      next = operand;
      break;
    case Op::kCsrrs:
    case Op::kCsrrsi:
      next = old | operand;
      do_write = is_imm ? inst.imm != 0 : inst.rs1 != 0;
      break;
    case Op::kCsrrc:
    case Op::kCsrrci:
      next = old & ~operand;
      do_write = is_imm ? inst.imm != 0 : inst.rs1 != 0;
      break;
    default:
      SEALPK_CHECK(false);
  }
  if (do_write && !csrs_.write(addr, next)) {
    raise(TrapCause::kIllegalInst, inst.raw);
    return false;
  }
  set_reg(inst.rd, old);
  return true;
}

bool Hart::exec_custom(const Inst& inst) {
  const auto& t = config_.timing;
  const bool sealpk = config_.flavor == IsaFlavor::kSealPk;
  switch (inst.op) {
    case Op::kRdpkr: {
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      ++stats_.rdpkr_count;
      const u32 pkey = static_cast<u32>(reg(inst.rs1)) & (hw::kNumPkeys - 1);
      const u64 row_value = pkr_.read_row(hw::pkr_row_of(pkey));
      set_reg(inst.rd, row_value);
      if (recorder_ != nullptr) {
        recorder_->emit(obs::EventKind::kRdpkr, instret_, cycles_, pkey,
                        row_value, 0);
      }
      return true;
    }
    case Op::kWrpkr: {
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      const u32 pkey = static_cast<u32>(reg(inst.rs1)) & (hw::kNumPkeys - 1);
      const hw::WrpkrCommit c =
          hw::commit_wrpkr(pkr_, seal_unit_, pkey, pc_, reg(inst.rs2));
      if (c.check == hw::SealCheck::kViolation) {
        raise(TrapCause::kSealViolation, pkey);
        return false;
      }
      if (c.check == hw::SealCheck::kMiss) {
        raise(TrapCause::kPkCamMiss, pkey);
        return false;
      }
      ++stats_.wrpkr_count;
      if (pkr_write_hook_) pkr_write_hook_(hw::pkr_row_of(pkey), c.new_row);
      if (recorder_ != nullptr) {
        recorder_->emit(obs::EventKind::kWrpkr, instret_, cycles_, pkey,
                        c.old_row, c.new_row);
      }
      return true;
    }
    case Op::kSealStart:
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      csrs_.seal_start = pc_;
      return true;
    case Op::kSealEnd:
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      csrs_.seal_end = pc_;
      return true;
    case Op::kSpkRange:
      if (!sealpk || priv_ != Priv::kSupervisor) break;
      cycles_ += t.rocc_cycles;
      csrs_.seal_start = reg(inst.rs1);
      csrs_.seal_end = reg(inst.rs2);
      return true;
    case Op::kSpkSeal: {
      if (!sealpk || priv_ != Priv::kSupervisor) break;
      cycles_ += t.rocc_cycles;
      const u32 pkey = static_cast<u32>(reg(inst.rs1)) & (hw::kNumPkeys - 1);
      if (csrs_.seal_start > csrs_.seal_end || seal_unit_.sealed(pkey)) {
        break;  // malformed range or double-seal: illegal instruction
      }
      seal_unit_.set_sealed(pkey);
      seal_unit_.refill(pkey, csrs_.seal_start, csrs_.seal_end);
      return true;
    }
    case Op::kWrpkru:
      if (sealpk) break;
      cycles_ += t.rocc_cycles;
      ++stats_.wrpkru_count;
      pkru_.set(static_cast<u32>(reg(inst.rs1)));
      return true;
    case Op::kRdpkru:
      if (sealpk) break;
      cycles_ += t.rocc_cycles;
      set_reg(inst.rd, pkru_.value());
      return true;
    default:
      break;
  }
  raise(TrapCause::kIllegalInst, inst.raw);
  return false;
}

}  // namespace sealpk::core
