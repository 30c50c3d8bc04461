#include "isa/inst.h"

namespace sealpk::isa {

namespace {

i64 imm_i(u32 raw) { return sext(bits(raw, 31, 20), 12); }

i64 imm_s(u32 raw) {
  return sext((bits(raw, 31, 25) << 5) | bits(raw, 11, 7), 12);
}

i64 imm_b(u32 raw) {
  return sext((bit(raw, 31) << 12) | (bit(raw, 7) << 11) |
                  (bits(raw, 30, 25) << 5) | (bits(raw, 11, 8) << 1),
              13);
}

i64 imm_u(u32 raw) { return sext(raw & 0xFFFFF000u, 32); }

i64 imm_j(u32 raw) {
  return sext((bit(raw, 31) << 20) | (bits(raw, 19, 12) << 12) |
                  (bit(raw, 20) << 11) | (bits(raw, 30, 21) << 1),
              21);
}

Op decode_load(u32 f3) {
  switch (f3) {
    case 0: return Op::kLb;
    case 1: return Op::kLh;
    case 2: return Op::kLw;
    case 3: return Op::kLd;
    case 4: return Op::kLbu;
    case 5: return Op::kLhu;
    case 6: return Op::kLwu;
    default: return Op::kIllegal;
  }
}

Op decode_store(u32 f3) {
  switch (f3) {
    case 0: return Op::kSb;
    case 1: return Op::kSh;
    case 2: return Op::kSw;
    case 3: return Op::kSd;
    default: return Op::kIllegal;
  }
}

Op decode_branch(u32 f3) {
  switch (f3) {
    case 0: return Op::kBeq;
    case 1: return Op::kBne;
    case 4: return Op::kBlt;
    case 5: return Op::kBge;
    case 6: return Op::kBltu;
    case 7: return Op::kBgeu;
    default: return Op::kIllegal;
  }
}

Op decode_op_imm(u32 raw, u32 f3) {
  switch (f3) {
    case 0: return Op::kAddi;
    case 1: return bits(raw, 31, 26) == 0 ? Op::kSlli : Op::kIllegal;
    case 2: return Op::kSlti;
    case 3: return Op::kSltiu;
    case 4: return Op::kXori;
    case 5:
      if (bits(raw, 31, 26) == 0x00) return Op::kSrli;
      if (bits(raw, 31, 26) == 0x10) return Op::kSrai;
      return Op::kIllegal;
    case 6: return Op::kOri;
    case 7: return Op::kAndi;
    default: return Op::kIllegal;
  }
}

Op decode_op_imm32(u32 raw, u32 f3) {
  switch (f3) {
    case 0: return Op::kAddiw;
    case 1: return bits(raw, 31, 25) == 0 ? Op::kSlliw : Op::kIllegal;
    case 5:
      if (bits(raw, 31, 25) == 0x00) return Op::kSrliw;
      if (bits(raw, 31, 25) == 0x20) return Op::kSraiw;
      return Op::kIllegal;
    default: return Op::kIllegal;
  }
}

Op decode_op(u32 f3, u32 f7) {
  if (f7 == 0x01) {  // M extension
    switch (f3) {
      case 0: return Op::kMul;
      case 1: return Op::kMulh;
      case 2: return Op::kMulhsu;
      case 3: return Op::kMulhu;
      case 4: return Op::kDiv;
      case 5: return Op::kDivu;
      case 6: return Op::kRem;
      case 7: return Op::kRemu;
    }
  }
  switch (f3) {
    case 0: return f7 == 0 ? Op::kAdd : f7 == 0x20 ? Op::kSub : Op::kIllegal;
    case 1: return f7 == 0 ? Op::kSll : Op::kIllegal;
    case 2: return f7 == 0 ? Op::kSlt : Op::kIllegal;
    case 3: return f7 == 0 ? Op::kSltu : Op::kIllegal;
    case 4: return f7 == 0 ? Op::kXor : Op::kIllegal;
    case 5: return f7 == 0 ? Op::kSrl : f7 == 0x20 ? Op::kSra : Op::kIllegal;
    case 6: return f7 == 0 ? Op::kOr : Op::kIllegal;
    case 7: return f7 == 0 ? Op::kAnd : Op::kIllegal;
    default: return Op::kIllegal;
  }
}

Op decode_op32(u32 f3, u32 f7) {
  if (f7 == 0x01) {
    switch (f3) {
      case 0: return Op::kMulw;
      case 4: return Op::kDivw;
      case 5: return Op::kDivuw;
      case 6: return Op::kRemw;
      case 7: return Op::kRemuw;
      default: return Op::kIllegal;
    }
  }
  switch (f3) {
    case 0: return f7 == 0 ? Op::kAddw : f7 == 0x20 ? Op::kSubw : Op::kIllegal;
    case 1: return f7 == 0 ? Op::kSllw : Op::kIllegal;
    case 5: return f7 == 0 ? Op::kSrlw : f7 == 0x20 ? Op::kSraw : Op::kIllegal;
    default: return Op::kIllegal;
  }
}

// Custom-0 decode is table-driven (custom0_op in op.cpp): every
// (funct3, funct7) combination that does not name an op in SEALPK_OP_LIST
// yields kIllegal, so the decoder cannot desync from the op table.

}  // namespace

Inst decode(u32 raw) {
  Inst inst;
  inst.raw = raw;
  inst.rd = static_cast<u8>(bits(raw, 11, 7));
  inst.rs1 = static_cast<u8>(bits(raw, 19, 15));
  inst.rs2 = static_cast<u8>(bits(raw, 24, 20));
  const u32 opcode = bits(raw, 6, 0);
  const u32 f3 = bits(raw, 14, 12);
  const u32 f7 = bits(raw, 31, 25);

  switch (opcode) {
    case 0x37:
      inst.op = Op::kLui;
      inst.imm = imm_u(raw);
      break;
    case 0x17:
      inst.op = Op::kAuipc;
      inst.imm = imm_u(raw);
      break;
    case 0x6F:
      inst.op = Op::kJal;
      inst.imm = imm_j(raw);
      break;
    case 0x67:
      inst.op = f3 == 0 ? Op::kJalr : Op::kIllegal;
      inst.imm = imm_i(raw);
      break;
    case 0x63:
      inst.op = decode_branch(f3);
      inst.imm = imm_b(raw);
      break;
    case 0x03:
      inst.op = decode_load(f3);
      inst.imm = imm_i(raw);
      break;
    case 0x23:
      inst.op = decode_store(f3);
      inst.imm = imm_s(raw);
      break;
    case 0x13:
      inst.op = decode_op_imm(raw, f3);
      inst.imm = (inst.op == Op::kSlli || inst.op == Op::kSrli ||
                  inst.op == Op::kSrai)
                     ? static_cast<i64>(bits(raw, 25, 20))
                     : imm_i(raw);
      break;
    case 0x1B:
      inst.op = decode_op_imm32(raw, f3);
      inst.imm = inst.op == Op::kAddiw ? imm_i(raw)
                                       : static_cast<i64>(bits(raw, 24, 20));
      break;
    case 0x33:
      inst.op = decode_op(f3, f7);
      break;
    case 0x3B:
      inst.op = decode_op32(f3, f7);
      break;
    case 0x0F:
      inst.op = f3 == 0 ? Op::kFence : f3 == 1 ? Op::kFenceI : Op::kIllegal;
      inst.rd = inst.rs1 = inst.rs2 = 0;
      break;
    case 0x0B:
      inst.op = custom0_op(f3, f7);
      break;
    case 0x73:
      if (f3 == 0) {
        if (f7 == 0x09) {
          inst.op = Op::kSfenceVma;
        } else {
          const u32 funct12 = bits(raw, 31, 20);
          switch (funct12) {
            case 0x000: inst.op = Op::kEcall; break;
            case 0x001: inst.op = Op::kEbreak; break;
            case 0x102: inst.op = Op::kSret; break;
            case 0x105: inst.op = Op::kWfi; break;
            default: inst.op = Op::kIllegal; break;
          }
          inst.rd = inst.rs1 = inst.rs2 = 0;
        }
      } else {
        inst.csr = static_cast<u16>(bits(raw, 31, 20));
        switch (f3) {
          case 1: inst.op = Op::kCsrrw; break;
          case 2: inst.op = Op::kCsrrs; break;
          case 3: inst.op = Op::kCsrrc; break;
          case 5: inst.op = Op::kCsrrwi; break;
          case 6: inst.op = Op::kCsrrsi; break;
          case 7: inst.op = Op::kCsrrci; break;
          default: inst.op = Op::kIllegal; break;
        }
        if (f3 >= 5) {
          inst.imm = inst.rs1;  // uimm5 lives in the rs1 field
          inst.rs1 = 0;
        }
      }
      break;
    default:
      inst.op = Op::kIllegal;
      break;
  }
  if (inst.op == Op::kIllegal) {
    // Normalise so that all undecodable words compare equal in fields.
    inst.rd = inst.rs1 = inst.rs2 = 0;
    inst.imm = 0;
    inst.csr = 0;
    return inst;
  }
  // Clear register fields the format does not use, so decode(encode(i)) == i.
  switch (op_info(inst.op).format) {
    case Format::kI:
    case Format::kShift64:
    case Format::kShift32:
    case Format::kCsr:
    case Format::kCsrI:
      inst.rs2 = 0;
      break;
    case Format::kS:
    case Format::kB:
      inst.rd = 0;
      break;
    case Format::kU:
    case Format::kJ:
      inst.rs1 = inst.rs2 = 0;
      break;
    case Format::kR:
    case Format::kSys:
      break;
  }
  return inst;
}

}  // namespace sealpk::isa
