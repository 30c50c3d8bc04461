#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "isa/inst.h"
#include "isa/program.h"

namespace sealpk::isa {
namespace {

// ---------------------------------------------------------------------------
// Encode/decode round-trip, parameterized over every opcode.
// ---------------------------------------------------------------------------

class RoundTripTest : public ::testing::TestWithParam<unsigned> {};

i64 random_imm_for(Format fmt, Rng& rng) {
  switch (fmt) {
    case Format::kI: return sext(rng.next(), 12);
    case Format::kS: return sext(rng.next(), 12);
    case Format::kB: return sext(rng.next(), 13) & ~i64{1};
    case Format::kU: return sext(rng.next(), 32) & ~i64{0xFFF};
    case Format::kJ: return sext(rng.next(), 21) & ~i64{1};
    case Format::kShift64: return static_cast<i64>(rng.below(64));
    case Format::kShift32: return static_cast<i64>(rng.below(32));
    case Format::kCsrI: return static_cast<i64>(rng.below(32));
    default: return 0;
  }
}

// A random well-formed instance of `op`: operands the format does not
// encode stay zero, so decode(encode(i)) == i.
Inst random_inst(Op op, Rng& rng) {
  const OpInfo& oi = op_info(op);
  Inst inst;
  inst.op = op;
  switch (oi.format) {
    case Format::kR:
      inst.rd = static_cast<u8>(rng.below(32));
      inst.rs1 = static_cast<u8>(rng.below(32));
      inst.rs2 = static_cast<u8>(rng.below(32));
      if (op == Op::kSfenceVma) inst.rd = 0;
      break;
    case Format::kI:
    case Format::kShift64:
    case Format::kShift32:
      inst.rd = static_cast<u8>(rng.below(32));
      inst.rs1 = static_cast<u8>(rng.below(32));
      inst.imm = random_imm_for(oi.format, rng);
      break;
    case Format::kS:
    case Format::kB:
      inst.rs1 = static_cast<u8>(rng.below(32));
      inst.rs2 = static_cast<u8>(rng.below(32));
      inst.imm = random_imm_for(oi.format, rng);
      break;
    case Format::kU:
    case Format::kJ:
      inst.rd = static_cast<u8>(rng.below(32));
      inst.imm = random_imm_for(oi.format, rng);
      break;
    case Format::kCsr:
      inst.rd = static_cast<u8>(rng.below(32));
      inst.rs1 = static_cast<u8>(rng.below(32));
      inst.csr = 0x100;  // an implemented CSR address
      break;
    case Format::kCsrI:
      inst.rd = static_cast<u8>(rng.below(32));
      inst.imm = random_imm_for(oi.format, rng);
      inst.csr = 0x141;
      break;
    case Format::kSys:
      break;
  }
  return inst;
}

TEST_P(RoundTripTest, EncodeDecodeIdentity) {
  const Op op = static_cast<Op>(GetParam());
  const OpInfo& oi = op_info(op);
  Rng rng(GetParam() * 977 + 1);
  for (int trial = 0; trial < 50; ++trial) {
    const Inst inst = random_inst(op, rng);
    const u32 word = encode(inst);
    Inst decoded = decode(word);
    decoded.raw = 0;  // raw is informational only
    EXPECT_EQ(decoded, inst) << oi.name << " trial " << trial << " word 0x"
                             << std::hex << word;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, RoundTripTest,
    ::testing::Range(0u, static_cast<unsigned>(Op::kIllegal)),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      std::string name = op_info(static_cast<Op>(info.param)).name;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Decoder details.
// ---------------------------------------------------------------------------

// The hart's decoded pages (src/core/hart.h) tag each slot by its word and
// start from value-initialised slots; both rest on these properties.
TEST(Decode, ValueInitialisedInstIsDecodeOfZero) {
  EXPECT_EQ(Inst{}, decode(0));
}

TEST(Decode, KeepsTheWordOfRandomWords) {
  Rng rng(0xDEC0DE);
  for (int i = 0; i < 1'000'000; ++i) {
    const u32 word = static_cast<u32>(rng.next());
    const Inst inst = decode(word);
    ASSERT_EQ(inst.raw, word);
    ASSERT_EQ(decode(word), inst) << std::hex << word;
  }
}

TEST(Decode, KeepsTheWordOfEveryEncodedOp) {
  Rng rng(41);
  for (unsigned idx = 0; idx < static_cast<unsigned>(Op::kIllegal); ++idx) {
    const Op op = static_cast<Op>(idx);
    for (int trial = 0; trial < 20; ++trial) {
      const u32 word = encode(random_inst(op, rng));
      const Inst inst = decode(word);
      ASSERT_EQ(inst.raw, word) << op_info(op).name;
      ASSERT_EQ(inst.op, op) << op_info(op).name << " 0x" << std::hex << word;
    }
  }
}

TEST(Decode, IllegalWordsNormalise) {
  const Inst a = decode(0);
  const Inst b = decode(0xFFFFFFFF);
  EXPECT_EQ(a.op, Op::kIllegal);
  EXPECT_EQ(b.op, Op::kIllegal);
  EXPECT_EQ(a.rd, 0);
  EXPECT_EQ(a.imm, 0);
}

TEST(Decode, KnownEncodings) {
  // addi a0, sp, -16 == 0xFF010513
  const Inst inst = decode(0xFF010513);
  EXPECT_EQ(inst.op, Op::kAddi);
  EXPECT_EQ(inst.rd, a0);
  EXPECT_EQ(inst.rs1, sp);
  EXPECT_EQ(inst.imm, -16);
  // ret == jalr zero, ra, 0 == 0x00008067
  const Inst ret = decode(0x00008067);
  EXPECT_EQ(ret.op, Op::kJalr);
  EXPECT_EQ(ret.rd, zero);
  EXPECT_EQ(ret.rs1, ra);
  // ecall
  EXPECT_EQ(decode(0x00000073).op, Op::kEcall);
  // sret
  EXPECT_EQ(decode(0x10200073).op, Op::kSret);
}

TEST(Decode, CustomZeroExtension) {
  const u32 rdpkr = encode(Inst{.op = Op::kRdpkr, .rd = a0, .rs1 = a1});
  EXPECT_EQ(bits(rdpkr, 6, 0), 0x0Bu);
  EXPECT_EQ(decode(rdpkr).op, Op::kRdpkr);
  const u32 wrpkr = encode(Inst{.op = Op::kWrpkr, .rs1 = a0, .rs2 = a1});
  EXPECT_EQ(decode(wrpkr).op, Op::kWrpkr);
  // Unknown funct7 in custom-0 space decodes as illegal.
  const u32 bogus = deposit(wrpkr, 31, 25, 0x3F);
  EXPECT_EQ(decode(static_cast<u32>(bogus)).op, Op::kIllegal);
}

// Every (funct3, funct7) point of the custom-0 space decodes to exactly the
// op the SEALPK_OP_LIST table claims — and everything else to kIllegal. This
// pins the table-driven decoder: adding a custom instruction to the op list
// without a distinct (funct3, funct7) pair, or decoding a stale pair, fails
// here rather than silently aliasing.
TEST(Decode, CustomZeroExhaustive) {
  for (u32 f3 = 0; f3 < 8; ++f3) {
    for (u32 f7 = 0; f7 < 128; ++f7) {
      u32 word = kCustom0Opcode;
      word = static_cast<u32>(deposit(word, 11, 7, a0));   // rd
      word = static_cast<u32>(deposit(word, 14, 12, f3));
      word = static_cast<u32>(deposit(word, 19, 15, a1));  // rs1
      word = static_cast<u32>(deposit(word, 24, 20, a2));  // rs2
      word = static_cast<u32>(deposit(word, 31, 25, f7));
      const Op expected = custom0_op(f3, f7);
      const Inst decoded = decode(word);
      ASSERT_EQ(decoded.op, expected)
          << "f3=" << f3 << " f7=" << f7 << " word 0x" << std::hex << word;
      if (expected != Op::kIllegal) {
        // The decode agrees with the op's own metadata.
        const OpInfo& oi = op_info(expected);
        EXPECT_EQ(oi.opcode, kCustom0Opcode);
        EXPECT_EQ(oi.funct3, f3);
        EXPECT_EQ(oi.funct7, f7);
        EXPECT_EQ(decoded.rd, a0);
        EXPECT_EQ(decoded.rs1, a1);
        EXPECT_EQ(decoded.rs2, a2);
      } else {
        // Illegal decodes are fully normalised (no operand leakage).
        EXPECT_EQ(decoded.rd, 0);
        EXPECT_EQ(decoded.rs1, 0);
        EXPECT_EQ(decoded.rs2, 0);
      }
    }
  }
}

// Encode -> decode -> disassemble over every custom-0 op in the table.
TEST(Decode, CustomZeroRoundTripAllOps) {
  size_t custom_ops = 0;
  for (unsigned idx = 0; idx < static_cast<unsigned>(Op::kIllegal); ++idx) {
    const Op op = static_cast<Op>(idx);
    const OpInfo& oi = op_info(op);
    if (oi.opcode != kCustom0Opcode) continue;
    ++custom_ops;
    SCOPED_TRACE(oi.name);
    // custom0_op is the inverse of the table row.
    EXPECT_EQ(custom0_op(oi.funct3, oi.funct7), op);
    Inst inst;
    inst.op = op;
    inst.rd = t0;
    inst.rs1 = s1;
    inst.rs2 = t1;
    Inst decoded = decode(encode(inst));
    decoded.raw = 0;
    EXPECT_EQ(decoded, inst);
    // The disassembly leads with the table mnemonic.
    EXPECT_EQ(disassemble(decoded).rfind(oi.name, 0), 0u);
  }
  // All eight SealPK/MPK custom instructions are present: rdpkr, wrpkr,
  // seal.start, seal.end, spk.range, spk.seal, wrpkru, rdpkru.
  EXPECT_EQ(custom_ops, 8u);
}

TEST(Encode, RejectsOutOfRangeImmediates) {
  EXPECT_THROW(
      encode(Inst{.op = Op::kAddi, .rd = 1, .rs1 = 1, .imm = 5000}),
      CheckError);
  EXPECT_THROW(encode(Inst{.op = Op::kJal, .rd = 1, .imm = 3}), CheckError);
  EXPECT_THROW(encode(Inst{.op = Op::kLui, .rd = 1, .imm = 0x123}),
               CheckError);
}

TEST(Disasm, RendersOperands) {
  EXPECT_EQ(disassemble(decode(0xFF010513)), "addi a0, sp, -16");
  EXPECT_EQ(disassemble(Inst{.op = Op::kEcall}), "ecall");
  EXPECT_EQ(disassemble(Inst{.op = Op::kWrpkr, .rs1 = a0, .rs2 = a1}),
            "wrpkr zero, a0, a1");
  EXPECT_EQ(disassemble(decode(0)), "illegal");
}

// ---------------------------------------------------------------------------
// Program builder / linker.
// ---------------------------------------------------------------------------

std::vector<Inst> decode_text(const Image& image) {
  const Segment& text = image.segments.at(0);
  std::vector<Inst> out;
  for (size_t i = 0; i + 4 <= text.bytes.size(); i += 4) {
    u32 w = 0;
    for (int b = 3; b >= 0; --b) w = (w << 8) | text.bytes[i + b];
    out.push_back(decode(w));
  }
  return out;
}

TEST(Program, LinksSimpleFunction) {
  Program prog;
  Function& f = prog.add_function("main");
  f.li(a0, 42);
  f.ret();
  const Image image = prog.link();
  EXPECT_EQ(image.symbols.at("main"), image.text_base);
  const auto insts = decode_text(image);
  ASSERT_EQ(insts.size(), 2u);
  EXPECT_EQ(insts[0].op, Op::kAddi);
  EXPECT_EQ(insts[0].imm, 42);
  EXPECT_EQ(insts[1].op, Op::kJalr);
}

TEST(Program, BranchTargetsResolve) {
  Program prog;
  Function& f = prog.add_function("main");
  const Label loop = f.new_label();
  f.li(t0, 3);
  f.bind(loop);
  f.addi(t0, t0, -1);
  f.bnez(t0, loop);
  f.ret();
  const auto insts = decode_text(prog.link());
  ASSERT_EQ(insts.size(), 4u);
  EXPECT_EQ(insts[2].op, Op::kBne);
  EXPECT_EQ(insts[2].imm, -4);  // back to the addi
}

TEST(Program, ForwardBranch) {
  Program prog;
  Function& f = prog.add_function("main");
  const Label done = f.new_label();
  f.beqz(a0, done);
  f.li(a0, 1);
  f.bind(done);
  f.ret();
  const auto insts = decode_text(prog.link());
  EXPECT_EQ(insts[0].op, Op::kBeq);
  EXPECT_EQ(insts[0].imm, 8);
}

TEST(Program, CallEncodesJalRa) {
  Program prog;
  Function& f = prog.add_function("main");
  f.call("helper");
  f.ret();
  Function& g = prog.add_function("helper");
  g.ret();
  const Image image = prog.link();
  const auto insts = decode_text(image);
  EXPECT_EQ(insts[0].op, Op::kJal);
  EXPECT_EQ(insts[0].rd, ra);
  EXPECT_EQ(image.text_base + static_cast<u64>(insts[0].imm),
            image.symbols.at("helper"));
}

TEST(Program, UndefinedSymbolThrows) {
  Program prog;
  prog.add_function("main").call("missing").ret();
  EXPECT_THROW(prog.link(), CheckError);
}

TEST(Program, UnboundLabelThrows) {
  Program prog;
  Function& f = prog.add_function("main");
  const Label l = f.new_label();
  f.beqz(a0, l);
  f.ret();
  EXPECT_THROW(prog.link(), CheckError);
}

TEST(Program, DuplicateFunctionThrows) {
  Program prog;
  prog.add_function("main");
  EXPECT_THROW(prog.add_function("main"), CheckError);
}

TEST(Program, DataSegmentsSplitByWritability) {
  Program prog;
  prog.add_function("main").ret();
  prog.add_rodata("consts", {1, 2, 3, 4});
  prog.add_data("vars", {5, 6});
  prog.add_zero("bss", 4096);
  const Image image = prog.link();
  ASSERT_EQ(image.segments.size(), 3u);  // text, rodata, rw
  EXPECT_FALSE(image.segments[1].write);
  EXPECT_TRUE(image.segments[2].write);
  EXPECT_EQ(image.segments[1].bytes[0], 1);
  EXPECT_EQ(image.segments[2].bytes[0], 5);
  // ro and rw live on different pages so they can get different PTEs.
  EXPECT_NE(image.symbols.at("consts") >> 12, image.symbols.at("vars") >> 12);
}

TEST(Program, LaResolvesDataAddress) {
  Program prog;
  Function& f = prog.add_function("main");
  f.la(a0, "blob");
  f.ret();
  prog.add_data("blob", {0xAA});
  const Image image = prog.link();
  const auto insts = decode_text(image);
  ASSERT_GE(insts.size(), 3u);
  EXPECT_EQ(insts[0].op, Op::kAuipc);
  EXPECT_EQ(insts[1].op, Op::kAddi);
  const u64 resolved = image.text_base + static_cast<u64>(insts[0].imm) +
                       static_cast<u64>(insts[1].imm);
  EXPECT_EQ(resolved, image.symbols.at("blob"));
}

TEST(Program, FuncRangesCoverText) {
  Program prog;
  prog.add_function("a").nop().nop().ret();
  prog.add_function("b").ret();
  const Image image = prog.link();
  const auto [a_start, a_end] = image.func_ranges.at("a");
  const auto [b_start, b_end] = image.func_ranges.at("b");
  EXPECT_EQ(a_end - a_start, 12u);
  EXPECT_EQ(a_end, b_start);
  EXPECT_EQ(b_end, image.text_end);
}

TEST(Program, EntrySymbolSelectsStart) {
  Program prog;
  prog.add_function("main").ret();
  prog.add_function("_start").ret();
  const Image image = prog.link();
  EXPECT_EQ(image.entry, image.symbols.at("_start"));
}


TEST(Program, CallToDataSymbolThrows) {
  Program prog;
  prog.add_function("main").call("blob").ret();
  prog.add_data("blob", {1, 2, 3});
  EXPECT_THROW(prog.link(), CheckError);
}

TEST(Program, DuplicateDataThrows) {
  Program prog;
  prog.add_function("main").ret();
  prog.add_data("x", {1});
  EXPECT_THROW(prog.add_data("x", {2}), CheckError);
}

TEST(Program, FunctionAndDataNameCollisionThrows) {
  Program prog;
  prog.add_function("x").ret();
  prog.add_data("x", {1});
  EXPECT_THROW(prog.link(), CheckError);
}

TEST(Program, EmptyProgramThrows) {
  Program prog;
  EXPECT_THROW(prog.link(), CheckError);
}

TEST(Program, ZeroBlobsAreZeroFilled) {
  Program prog;
  Function& f = prog.add_function("main");
  f.la(a0, "z");
  f.ret();
  prog.add_zero("z", 64);
  const Image image = prog.link();
  const Segment& rw = image.segments.back();
  for (const u8 byte : rw.bytes) EXPECT_EQ(byte, 0);
}

TEST(Program, LiExpandsWithinBudget) {
  Program prog;
  Function& f = prog.add_function("main");
  for (const i64 v :
       {i64{0}, i64{1}, i64{-1}, i64{2047}, i64{-2048}, i64{0x7FFFFFFF},
        i64{INT64_MIN}, i64{INT64_MAX}, i64{0x123456789ABCDEF0}}) {
    f.li(a0, v);
  }
  f.ret();
  EXPECT_NO_THROW(prog.link());  // all expansions encode
}

}  // namespace
}  // namespace sealpk::isa
