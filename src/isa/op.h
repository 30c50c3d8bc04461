// Instruction mnemonics and encoding metadata for the simulated ISA:
// RV64IM + Zicsr + the SealPK / Intel-MPK custom-0 extensions.
#pragma once

#include "common/bits.h"

namespace sealpk::isa {

// X-macro: mnemonic, format, opcode[6:0], funct3, funct7.
// funct3/funct7 are 0 where the format ignores them.
// clang-format off
#define SEALPK_OP_LIST(X)                                  \
  /* RV64I upper-immediate / jumps */                      \
  X(kLui,      "lui",        kU,      0x37, 0, 0x00)       \
  X(kAuipc,    "auipc",      kU,      0x17, 0, 0x00)       \
  X(kJal,      "jal",        kJ,      0x6F, 0, 0x00)       \
  X(kJalr,     "jalr",       kI,      0x67, 0, 0x00)       \
  /* branches */                                           \
  X(kBeq,      "beq",        kB,      0x63, 0, 0x00)       \
  X(kBne,      "bne",        kB,      0x63, 1, 0x00)       \
  X(kBlt,      "blt",        kB,      0x63, 4, 0x00)       \
  X(kBge,      "bge",        kB,      0x63, 5, 0x00)       \
  X(kBltu,     "bltu",       kB,      0x63, 6, 0x00)       \
  X(kBgeu,     "bgeu",       kB,      0x63, 7, 0x00)       \
  /* loads */                                              \
  X(kLb,       "lb",         kI,      0x03, 0, 0x00)       \
  X(kLh,       "lh",         kI,      0x03, 1, 0x00)       \
  X(kLw,       "lw",         kI,      0x03, 2, 0x00)       \
  X(kLd,       "ld",         kI,      0x03, 3, 0x00)       \
  X(kLbu,      "lbu",        kI,      0x03, 4, 0x00)       \
  X(kLhu,      "lhu",        kI,      0x03, 5, 0x00)       \
  X(kLwu,      "lwu",        kI,      0x03, 6, 0x00)       \
  /* stores */                                             \
  X(kSb,       "sb",         kS,      0x23, 0, 0x00)       \
  X(kSh,       "sh",         kS,      0x23, 1, 0x00)       \
  X(kSw,       "sw",         kS,      0x23, 2, 0x00)       \
  X(kSd,       "sd",         kS,      0x23, 3, 0x00)       \
  /* op-imm */                                             \
  X(kAddi,     "addi",       kI,      0x13, 0, 0x00)       \
  X(kSlti,     "slti",       kI,      0x13, 2, 0x00)       \
  X(kSltiu,    "sltiu",      kI,      0x13, 3, 0x00)       \
  X(kXori,     "xori",       kI,      0x13, 4, 0x00)       \
  X(kOri,      "ori",        kI,      0x13, 6, 0x00)       \
  X(kAndi,     "andi",       kI,      0x13, 7, 0x00)       \
  X(kSlli,     "slli",       kShift64, 0x13, 1, 0x00)      \
  X(kSrli,     "srli",       kShift64, 0x13, 5, 0x00)      \
  X(kSrai,     "srai",       kShift64, 0x13, 5, 0x20)      \
  /* op-imm-32 */                                          \
  X(kAddiw,    "addiw",      kI,      0x1B, 0, 0x00)       \
  X(kSlliw,    "slliw",      kShift32, 0x1B, 1, 0x00)      \
  X(kSrliw,    "srliw",      kShift32, 0x1B, 5, 0x00)      \
  X(kSraiw,    "sraiw",      kShift32, 0x1B, 5, 0x20)      \
  /* op */                                                 \
  X(kAdd,      "add",        kR,      0x33, 0, 0x00)       \
  X(kSub,      "sub",        kR,      0x33, 0, 0x20)       \
  X(kSll,      "sll",        kR,      0x33, 1, 0x00)       \
  X(kSlt,      "slt",        kR,      0x33, 2, 0x00)       \
  X(kSltu,     "sltu",       kR,      0x33, 3, 0x00)       \
  X(kXor,      "xor",        kR,      0x33, 4, 0x00)       \
  X(kSrl,      "srl",        kR,      0x33, 5, 0x00)       \
  X(kSra,      "sra",        kR,      0x33, 5, 0x20)       \
  X(kOr,       "or",         kR,      0x33, 6, 0x00)       \
  X(kAnd,      "and",        kR,      0x33, 7, 0x00)       \
  /* op-32 */                                              \
  X(kAddw,     "addw",       kR,      0x3B, 0, 0x00)       \
  X(kSubw,     "subw",       kR,      0x3B, 0, 0x20)       \
  X(kSllw,     "sllw",       kR,      0x3B, 1, 0x00)       \
  X(kSrlw,     "srlw",       kR,      0x3B, 5, 0x00)       \
  X(kSraw,     "sraw",       kR,      0x3B, 5, 0x20)       \
  /* M extension */                                        \
  X(kMul,      "mul",        kR,      0x33, 0, 0x01)       \
  X(kMulh,     "mulh",       kR,      0x33, 1, 0x01)       \
  X(kMulhsu,   "mulhsu",     kR,      0x33, 2, 0x01)       \
  X(kMulhu,    "mulhu",      kR,      0x33, 3, 0x01)       \
  X(kDiv,      "div",        kR,      0x33, 4, 0x01)       \
  X(kDivu,     "divu",       kR,      0x33, 5, 0x01)       \
  X(kRem,      "rem",        kR,      0x33, 6, 0x01)       \
  X(kRemu,     "remu",       kR,      0x33, 7, 0x01)       \
  X(kMulw,     "mulw",       kR,      0x3B, 0, 0x01)       \
  X(kDivw,     "divw",       kR,      0x3B, 4, 0x01)       \
  X(kDivuw,    "divuw",      kR,      0x3B, 5, 0x01)       \
  X(kRemw,     "remw",       kR,      0x3B, 6, 0x01)       \
  X(kRemuw,    "remuw",      kR,      0x3B, 7, 0x01)       \
  /* misc-mem / system */                                  \
  X(kFence,    "fence",      kSys,    0x0F, 0, 0x00)       \
  X(kFenceI,   "fence.i",    kSys,    0x0F, 1, 0x00)       \
  X(kEcall,    "ecall",      kSys,    0x73, 0, 0x00)       \
  X(kEbreak,   "ebreak",     kSys,    0x73, 0, 0x00)       \
  X(kSret,     "sret",       kSys,    0x73, 0, 0x08)       \
  X(kWfi,      "wfi",        kSys,    0x73, 0, 0x08)       \
  X(kSfenceVma,"sfence.vma", kR,      0x73, 0, 0x09)       \
  /* Zicsr */                                              \
  X(kCsrrw,    "csrrw",      kCsr,    0x73, 1, 0x00)       \
  X(kCsrrs,    "csrrs",      kCsr,    0x73, 2, 0x00)       \
  X(kCsrrc,    "csrrc",      kCsr,    0x73, 3, 0x00)       \
  X(kCsrrwi,   "csrrwi",     kCsrI,   0x73, 5, 0x00)       \
  X(kCsrrsi,   "csrrsi",     kCsrI,   0x73, 6, 0x00)       \
  X(kCsrrci,   "csrrci",     kCsrI,   0x73, 7, 0x00)       \
  /* SealPK custom-0 extension (RoCC-style) */             \
  X(kRdpkr,    "rdpkr",      kR,      0x0B, 0, 0x00)       \
  X(kWrpkr,    "wrpkr",      kR,      0x0B, 0, 0x01)       \
  X(kSealStart,"seal.start", kR,      0x0B, 0, 0x02)       \
  X(kSealEnd,  "seal.end",   kR,      0x0B, 0, 0x03)       \
  X(kSpkRange, "spk.range",  kR,      0x0B, 0, 0x04)       \
  X(kSpkSeal,  "spk.seal",   kR,      0x0B, 0, 0x05)       \
  /* Intel MPK compatibility flavour */                    \
  X(kWrpkru,   "wrpkru",     kR,      0x0B, 0, 0x10)       \
  X(kRdpkru,   "rdpkru",     kR,      0x0B, 0, 0x11)
// clang-format on

enum class Op : u16 {
#define SEALPK_OP_ENUM(op, name, fmt, opc, f3, f7) op,
  SEALPK_OP_LIST(SEALPK_OP_ENUM)
#undef SEALPK_OP_ENUM
      kIllegal,
};

enum class Format : u8 {
  kR,        // rd, rs1, rs2
  kI,        // rd, rs1, imm12
  kS,        // rs1, rs2, imm12
  kB,        // rs1, rs2, imm13 (branch offset)
  kU,        // rd, imm20 << 12
  kJ,        // rd, imm21 (jump offset)
  kShift64,  // rd, rs1, shamt6
  kShift32,  // rd, rs1, shamt5
  kCsr,      // rd, rs1, csr12
  kCsrI,     // rd, uimm5, csr12
  kSys,      // no register operands (fixed encoding)
};

struct OpInfo {
  const char* name;
  Format format;
  u8 opcode;  // bits [6:0]
  u8 funct3;
  u8 funct7;
};

// Metadata for `op`; valid for every Op except kIllegal.
const OpInfo& op_info(Op op);

constexpr unsigned kNumOps = static_cast<unsigned>(Op::kIllegal) + 1;

// The custom-0 (RoCC) major opcode carrying the SealPK / MPK extensions.
constexpr u8 kCustom0Opcode = 0x0B;

// Table-driven custom-0 decode: returns the unique op whose metadata matches
// (funct3, funct7), or kIllegal for every unknown combination. Derived from
// SEALPK_OP_LIST so a newly added custom instruction can never desync the
// decoder from the op table.
Op custom0_op(u32 funct3, u32 funct7);

// --- classification helpers (shared by the static verifier in ------------
// --- src/analysis/ and the model checker in src/model/) ------------------

// Instructions that (attempt to) rewrite pkey permissions — the gadget class
// ERIM-style binary inspection must confine to trusted call gates.
constexpr bool is_pkey_write(Op op) {
  return op == Op::kWrpkr || op == Op::kWrpkru;
}

constexpr bool is_pkey_read(Op op) {
  return op == Op::kRdpkr || op == Op::kRdpkru;
}

// seal.start / seal.end latch the permissible-WRPKR range CSRs; occurrences
// outside trusted gates can re-stage the range before pkey_perm_seal fires.
constexpr bool is_seal_marker(Op op) {
  return op == Op::kSealStart || op == Op::kSealEnd;
}

constexpr bool is_branch(Op op) {
  switch (op) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      return true;
    default:
      return false;
  }
}

constexpr bool is_load(Op op) {
  switch (op) {
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLd:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kLwu:
      return true;
    default:
      return false;
  }
}

constexpr bool is_store(Op op) {
  switch (op) {
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kSd:
      return true;
    default:
      return false;
  }
}

}  // namespace sealpk::isa
