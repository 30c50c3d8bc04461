// Decoded instruction representation and ABI register names.
#pragma once

#include <string>

#include "common/bits.h"
#include "isa/op.h"

namespace sealpk::isa {

// ABI register names (x0..x31).
enum Reg : u8 {
  zero = 0,
  ra = 1,
  sp = 2,
  gp = 3,
  tp = 4,
  t0 = 5,
  t1 = 6,
  t2 = 7,
  s0 = 8,
  s1 = 9,
  a0 = 10,
  a1 = 11,
  a2 = 12,
  a3 = 13,
  a4 = 14,
  a5 = 15,
  a6 = 16,
  a7 = 17,
  s2 = 18,
  s3 = 19,
  s4 = 20,
  s5 = 21,
  s6 = 22,
  s7 = 23,
  s8 = 24,
  s9 = 25,
  s10 = 26,  // reserved by our ABI for the shadow-stack pointer
  s11 = 27,  // reserved by our ABI for instrumentation scratch
  t3 = 28,
  t4 = 29,
  t5 = 30,
  t6 = 31,
};

const char* reg_name(u8 reg);

// A fully decoded instruction. `imm` is already sign-extended; for CSR ops
// `csr` holds the CSR address and `imm` the zero-extended uimm5 (kCsrI).
struct Inst {
  Op op = Op::kIllegal;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i64 imm = 0;
  u16 csr = 0;
  u32 raw = 0;

  bool operator==(const Inst&) const = default;
};

// Encodes `inst` into its 32-bit machine form. Throws CheckError if an
// operand does not fit the format (assembler bug in the caller).
u32 encode(const Inst& inst);

// Decodes a 32-bit word; unknown encodings yield op == kIllegal. The result
// keeps the word in `raw`, and Inst{} is decode(0): the hart's decoded
// pages tag each slot by its word on that basis.
Inst decode(u32 raw);

// Human-readable rendering, e.g. "addi a0, sp, -16".
std::string disassemble(const Inst& inst);

}  // namespace sealpk::isa
