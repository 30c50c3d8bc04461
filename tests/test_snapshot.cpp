// Checkpoint/restore tests: serialization primitives, whole-machine
// snapshot round trips (bit-exact resume across ≥5 workloads, with and
// without fault injection), snapshot-rollback recovery, malformed-blob
// rejection, and the committed golden-file format-compatibility check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/serial.h"
#include "guest_test_util.h"
#include "mem/phys_mem.h"
#include "mpk/vkey_table.h"
#include "os/addr_space.h"
#include "passes/shadow_stack.h"
#include "snapshot/snapshot.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(Serial, GetCountIsBoundedByRemainingBytes) {
  ByteWriter w;
  w.put_u64(3);
  for (int i = 0; i < 3; ++i) w.put_u32(7);
  const std::vector<u8> buf = w.take();
  {
    ByteReader r(buf);
    EXPECT_EQ(r.get_count(4), 3u);  // exactly fills the rest
  }
  {
    ByteReader r(buf);
    EXPECT_THROW(r.get_count(5), CheckError);  // 15 bytes > 12 left
  }
  ByteWriter huge;
  huge.put_u64(~u64{0});
  ByteReader r(huge.buffer());
  EXPECT_THROW(r.get_count(1), CheckError);
}

TEST(Serial, RoundTripsEveryPrimitive) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_bool(true);
  w.put_bool(false);
  w.put_f64(3.25);
  const std::string with_nul("hello\0world", 11);  // strings may carry NULs
  w.put_str(with_nul);
  std::bitset<128> bits;
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(127);
  w.put_bitset(bits);

  ByteReader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_str(), with_nul);
  EXPECT_EQ(r.get_bitset<128>(), bits);
  EXPECT_TRUE(r.done());
}

TEST(Serial, ReaderRejectsTruncatedStream) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.buffer());
  r.get_u16();
  r.get_u16();
  EXPECT_THROW(r.get_u8(), CheckError);
}

TEST(Serial, SkipIsBoundsChecked) {
  const std::vector<u8> buf(10, 0);
  ByteReader r(buf);
  r.skip(6);
  EXPECT_EQ(r.position(), 6u);
  EXPECT_THROW(r.skip(5), CheckError);
  r.skip(4);
  EXPECT_TRUE(r.done());
}

TEST(Serial, ArchiveRoundTripsOptionalsAndNarrowBitsets) {
  std::optional<os::SealRange> some = os::SealRange{0x100, 0x1ff};
  std::optional<os::SealRange> none;
  std::bitset<16> bits;
  bits.set(3);
  bits.set(15);
  ByteWriter w;
  Save save(w);
  save(some, none, bits);
  // Each optional is a presence byte and both bounds; the bitset one word.
  EXPECT_EQ(w.size(), 2 * (1 + 16) + 8u);

  std::optional<os::SealRange> some_back, none_back = os::SealRange{1, 2};
  std::bitset<16> bits_back;
  ByteReader r(w.buffer());
  Load load(r);
  load(some_back, none_back, bits_back);
  EXPECT_TRUE(r.done());
  ASSERT_TRUE(some_back.has_value());
  EXPECT_EQ(some_back->end, 0x1ffu);
  EXPECT_FALSE(none_back.has_value());
  EXPECT_EQ(bits_back, bits);
}

TEST(Serial, ArchiveRejectsPaddingBitsAndUnknownEnumBytes) {
  ByteWriter w;
  w.put_u64(u64{1} << 16);  // bit 16 of a 16-bit set
  w.put_u8(2);              // Priv has values 0 and 1
  ByteReader r(w.buffer());
  Load load(r);
  std::bitset<16> bits;
  EXPECT_THROW(load(bits), CheckError);
  core::Priv priv = core::Priv::kUser;
  EXPECT_THROW(load.enum_field(priv, core::Priv::kSupervisor), CheckError);
}

TEST(Serial, ArchiveMapRejectsDuplicateKeys) {
  ByteWriter w;
  w.put_u64(2);
  for (const u64 value : {1, 2}) {
    w.put_u64(5);  // the same key twice
    w.put_u64(value);
  }
  ByteReader r(w.buffer());
  Load load(r);
  std::map<u64, u64> m;
  EXPECT_THROW(load.map(m, 16, [](Load& ar, u64& k, u64& v) { ar(k, v); }),
               CheckError);
}

TEST(Serial, AddressSpaceRejectsDuplicateVmaStart) {
  // Two VMAs that start at one address: a second emplace once dropped the
  // later one without a word.
  ByteWriter w;
  w.put_u32(10);  // pkey bits
  w.put_u32(3);   // Sv39 levels
  w.put_u64(0x80);       // root ppn
  w.put_u64(0x4000'0000);  // mmap cursor
  w.put_u64(2);          // pages mapped
  w.put_u64(2);          // VMA count
  for (const u64 end : {0x2000, 0x3000}) {
    w.put_u64(0x1000);
    w.put_u64(end);
    w.put_u64(1);  // prot
    w.put_u32(0);  // pkey
  }
  mem::PhysMem mem(1 << 20);
  os::FrameAllocator frames(0x1000, 0x8000);
  os::AddressSpace aspace(mem, frames);
  ByteReader r(w.buffer());
  Load load(r);
  try {
    load(aspace);
    FAIL() << "a duplicate VMA start was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(Rng, StateRoundTripResumesIdentically) {
  Rng a(1234);
  for (int i = 0; i < 100; ++i) a.next();
  const u64 mid = a.state();
  std::vector<u64> expect;
  for (int i = 0; i < 64; ++i) expect.push_back(a.next());

  Rng b(999);  // different seed: state() must fully override it
  b.set_state(mid);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(b.next(), expect[i]);
  EXPECT_EQ(a.state(), b.state());
}

TEST(Checksum, MatchesKnownFnv1aVector) {
  // FNV-1a 64 of "a" is a published test vector.
  const u8 a = 'a';
  EXPECT_EQ(checksum64(&a, 1), 0xAF63DC4C8601EC8Cull);
  Checksum64 inc;
  inc.update(&a, 1);
  EXPECT_EQ(inc.value(), 0xAF63DC4C8601EC8Cull);
}

// ---------------------------------------------------------------------------
// Whole-machine round trips.
// ---------------------------------------------------------------------------

const wl::Workload& workload_named(const std::string& name) {
  for (const auto& w : wl::all_workloads()) {
    if (name == w.name) return w;
  }
  ADD_FAILURE() << "unknown workload " << name;
  return wl::all_workloads().front();
}

// Runs `image` to `at`, snapshots, finishes, and checks that a second
// machine resumed from the snapshot reaches a bit-identical final state.
void expect_bit_exact_resume(const isa::Image& image,
                             const sim::MachineConfig& config, u64 at) {
  sim::Machine first(config);
  ASSERT_NE(first.load(image), sim::Machine::kLoadRefused);
  first.run(at);
  const std::vector<u8> mid = snapshot::save(first);

  // Canonical encoding: restoring a snapshot and re-saving immediately must
  // reproduce the blob byte for byte.
  sim::Machine probe(snapshot::config_from(mid));
  snapshot::restore(probe, mid);
  EXPECT_EQ(snapshot::save(probe), mid);

  ASSERT_TRUE(first.run(400'000'000).completed);
  const std::vector<u8> final_first = snapshot::save(first);

  sim::Machine resumed(snapshot::config_from(mid));
  snapshot::restore(resumed, mid);
  ASSERT_TRUE(resumed.run(400'000'000).completed);
  const std::vector<u8> final_resumed = snapshot::save(resumed);

  EXPECT_EQ(final_first, final_resumed)
      << "resumed execution diverged; first difference:\n"
      << (snapshot::diff(final_first, final_resumed).empty()
              ? std::string("(none)")
              : snapshot::diff(final_first, final_resumed).front());
}

TEST(SnapshotRoundTrip, FiveWorkloadsResumeBitExact) {
  for (const char* name :
       {"qsort", "sha", "bitcount", "dijkstra", "patricia"}) {
    SCOPED_TRACE(name);
    const wl::Workload& w = workload_named(name);
    expect_bit_exact_resume(w.build(w.test_scale).link(),
                            sim::MachineConfig{}, 50'000);
  }
}

TEST(SnapshotRoundTrip, MultiProcessPreemptedMachineResumesBitExact) {
  const wl::Workload& w = workload_named("qsort");
  const isa::Image image = w.build(w.test_scale).link();
  sim::MachineConfig config;
  config.preempt_quantum = 1'000;

  sim::Machine first(config);
  first.load(image);
  first.load(image);  // two tenants sharing the machine
  first.run(30'000);
  const std::vector<u8> mid = snapshot::save(first);
  ASSERT_TRUE(first.run(400'000'000).completed);
  const std::vector<u8> final_first = snapshot::save(first);

  sim::Machine resumed(snapshot::config_from(mid));
  snapshot::restore(resumed, mid);
  ASSERT_TRUE(resumed.run(400'000'000).completed);
  EXPECT_EQ(snapshot::save(resumed), final_first);
}

TEST(SnapshotRoundTrip, ChaosRunResumesBitExact) {
  // The injector's RNG stream, fire schedule and event log travel in the
  // snapshot, so even a fault-injected run must resume bit-identically.
  const wl::Workload& w = workload_named("sha");
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 9;
  config.fault_plan.rate = 5e-5;
  expect_bit_exact_resume(w.build(w.test_scale).link(), config, 50'000);
}

TEST(SnapshotRoundTrip, SealedShadowStackResumesBitExact) {
  const wl::Workload& w = workload_named("sha");
  isa::Program prog = w.build(w.test_scale);
  passes::ShadowStackOptions ss;
  ss.kind = passes::ShadowStackKind::kSealPkWr;
  ss.perm_seal = true;
  passes::apply_shadow_stack(prog, ss);
  expect_bit_exact_resume(prog.link(), sim::MachineConfig{}, 50'000);
}

TEST(Snapshot, ConfigRoundTripsThroughBlob) {
  sim::MachineConfig config;
  config.preempt_quantum = 123;
  config.checkpoint_interval = 7'000;
  config.max_rollbacks = 9;
  config.kernel.save_pkr_on_switch = false;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 77;
  config.fault_plan.rate = 1e-6;
  config.fault_plan.cam_rate = 0.25;
  config.fault_plan.max_faults = 5;
  config.fault_plan.kinds = kind_bit(fault::FaultKind::kPkrBitFlip);
  sim::Machine machine(config);
  const std::vector<u8> blob = snapshot::save(machine);

  const sim::MachineConfig back = snapshot::config_from(blob);
  EXPECT_EQ(back.preempt_quantum, 123u);
  EXPECT_EQ(back.checkpoint_interval, 7'000u);
  EXPECT_EQ(back.max_rollbacks, 9u);
  EXPECT_FALSE(back.kernel.save_pkr_on_switch);
  EXPECT_TRUE(back.fault_plan.enabled);
  EXPECT_EQ(back.fault_plan.seed, 77u);
  EXPECT_EQ(back.fault_plan.rate, 1e-6);
  EXPECT_EQ(back.fault_plan.cam_rate, 0.25);
  EXPECT_EQ(back.fault_plan.max_faults, 5u);
  EXPECT_EQ(back.fault_plan.kinds, kind_bit(fault::FaultKind::kPkrBitFlip));
}

TEST(Snapshot, CheckpointingItselfIsInvisibleToTheGuest) {
  // Checkpoints are taken with peek-only serialization, so enabling them
  // must not change a single guest-visible bit or cycle.
  const wl::Workload& w = workload_named("qsort");
  const isa::Image image = w.build(w.test_scale).link();

  sim::Machine plain{sim::MachineConfig{}};
  const int plain_pid = plain.load(image);
  ASSERT_TRUE(plain.run(400'000'000).completed);

  sim::MachineConfig ckpt_config;
  ckpt_config.checkpoint_interval = 5'000;
  sim::Machine ckpt(ckpt_config);
  const int ckpt_pid = ckpt.load(image);
  ASSERT_TRUE(ckpt.run(400'000'000).completed);

  EXPECT_GE(ckpt.checkpoints_taken(), 2u);
  EXPECT_EQ(ckpt.exit_code(ckpt_pid), plain.exit_code(plain_pid));
  EXPECT_EQ(ckpt.kernel().console(), plain.kernel().console());
  EXPECT_EQ(ckpt.kernel().reports(), plain.kernel().reports());
  EXPECT_EQ(ckpt.hart().instret(), plain.hart().instret());
  EXPECT_EQ(ckpt.hart().cycles(), plain.hart().cycles());
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

std::vector<u8> small_snapshot() {
  sim::Machine machine{sim::MachineConfig{}};
  return snapshot::save(machine);
}

TEST(SnapshotValidation, RejectsCorruptedPayload) {
  std::vector<u8> blob = small_snapshot();
  blob[blob.size() / 2] ^= 0x40;
  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
  EXPECT_THROW(snapshot::info(blob), snapshot::SnapshotError);
}

TEST(SnapshotValidation, RejectsTruncation) {
  std::vector<u8> blob = small_snapshot();
  blob.resize(blob.size() - 7);
  sim::Machine machine{sim::MachineConfig{}};
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
  blob.resize(4);  // shorter than the header
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
}

TEST(SnapshotValidation, RejectsBadMagicAndUnknownVersion) {
  std::vector<u8> blob = small_snapshot();
  {
    std::vector<u8> bad = blob;
    bad[0] = 'X';
    EXPECT_THROW(snapshot::info(bad), snapshot::SnapshotError);
  }
  {
    std::vector<u8> bad = blob;
    bad[8] = 0xFF;  // version field
    EXPECT_THROW(snapshot::info(bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsConfigMismatch) {
  std::vector<u8> blob = small_snapshot();
  sim::MachineConfig other;
  other.preempt_quantum = 1;  // differs from the default used in the blob
  sim::Machine machine(other);
  EXPECT_THROW(snapshot::restore(machine, blob), snapshot::SnapshotError);
}

// Crafted-blob helpers: a snapshot is a 28-byte header (magic, version,
// payload length, payload checksum) followed by sections, each a fourcc, a
// u64 body length and the body.
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 8;
constexpr size_t kChecksumAt = 8 + 4 + 8;

u64 get_u64_at(const std::vector<u8>& blob, size_t at) {
  u64 v = 0;
  for (unsigned i = 0; i < 8; ++i) v |= u64{blob.at(at + i)} << (8 * i);
  return v;
}

void put_u64_at(std::vector<u8>& blob, size_t at, u64 v) {
  for (unsigned i = 0; i < 8; ++i) {
    blob.at(at + i) = static_cast<u8>(v >> (8 * i));
  }
}

// Offset of the body of section `name` (e.g. "DTLB", "CFG ").
size_t section_body(const std::vector<u8>& blob, const char* name) {
  u32 want = 0;
  for (unsigned i = 0; i < 4; ++i) {
    want |= u32{static_cast<u8>(name[i])} << (8 * i);
  }
  for (size_t at = kHeaderBytes; at + 12 <= blob.size();) {
    const u32 cc = static_cast<u32>(get_u64_at(blob, at) & 0xFFFFFFFFu);
    const u64 len = get_u64_at(blob, at + 4);
    if (cc == want) return at + 12;
    at += 12 + static_cast<size_t>(len);
  }
  ADD_FAILURE() << "no section " << name;
  return 0;
}

// Recomputes the payload checksum so a patched blob passes the header check
// and reaches the section decoders.
void reseal(std::vector<u8>& blob) {
  put_u64_at(blob, kChecksumAt, checksum64(blob.data() + kHeaderBytes,
                                          blob.size() - kHeaderBytes));
}

TEST(SnapshotValidation, RejectsTlbVictimCursorOutOfRange) {
  const std::vector<u8> blob = small_snapshot();
  // DTLB body: slot count, then 24 bytes a slot, then the victim cursor.
  const size_t body = section_body(blob, "DTLB");
  const u64 slots = get_u64_at(blob, body);
  ASSERT_GT(slots, 0u);
  const size_t cursor_at = body + 8 + static_cast<size_t>(slots) * 24;

  std::vector<u8> last = blob;  // the largest valid cursor restores
  put_u64_at(last, cursor_at, slots - 1);
  reseal(last);
  sim::Machine ok_machine(snapshot::config_from(last));
  EXPECT_NO_THROW(snapshot::restore(ok_machine, last));

  for (u64 cursor : {slots, slots + 1000, ~u64{0}}) {
    SCOPED_TRACE(cursor);
    std::vector<u8> bad = blob;
    put_u64_at(bad, cursor_at, cursor);
    reseal(bad);
    sim::Machine machine(snapshot::config_from(bad));
    EXPECT_THROW(snapshot::restore(machine, bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsBadMemBytesBeforeBuildingAMachine) {
  // A distinctive size, so the CFG field can be found by value.
  sim::MachineConfig config;
  config.mem_bytes = 0x0ABC'D000;
  sim::Machine machine(config);
  const std::vector<u8> blob = snapshot::save(machine);
  const u64 mem_bytes = config.mem_bytes;
  const size_t body = section_body(blob, "CFG ");
  const size_t body_len = static_cast<size_t>(get_u64_at(blob, body - 8));
  std::vector<size_t> hits;
  for (size_t at = body; at + 8 <= body + body_len; ++at) {
    if (get_u64_at(blob, at) == mem_bytes) hits.push_back(at);
  }
  ASSERT_EQ(hits.size(), 1u);

  for (u64 bad_size : {u64{0}, mem_bytes + 1,
                       mem::kMaxPhysBytes + mem::kPageSize}) {
    SCOPED_TRACE(bad_size);
    std::vector<u8> bad = blob;
    put_u64_at(bad, hits[0], bad_size);
    reseal(bad);
    EXPECT_THROW(snapshot::config_from(bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsHostileConfigFieldsBeforeBuildingAMachine) {
  const std::vector<u8> golden = snapshot::read_file(
      std::string(SEALPK_SOURCE_DIR) + "/tests/golden/qsort_mid.spksnap");
  // CFG body: the u8 ISA flavor, the DTLB and ITLB sizes, 18 u64 timing
  // costs, the save-PKR bool, then the stack size in pages.
  const size_t dtlb_at = section_body(golden, "CFG ") + 1;
  const size_t itlb_at = dtlb_at + 8;
  const size_t stack_at = itlb_at + 8 + 18 * 8 + 1;
  const sim::MachineConfig defaults;
  ASSERT_EQ(get_u64_at(golden, dtlb_at), defaults.hart.dtlb_entries);
  ASSERT_EQ(get_u64_at(golden, itlb_at), defaults.hart.itlb_entries);
  ASSERT_EQ(get_u64_at(golden, stack_at), defaults.kernel.stack_pages);

  // 2^60 entries or pages: a config that reached a Machine would try to
  // allocate them.
  for (const size_t at : {dtlb_at, itlb_at, stack_at}) {
    SCOPED_TRACE(at);
    std::vector<u8> bad = golden;
    put_u64_at(bad, at, u64{1} << 60);
    reseal(bad);
    EXPECT_THROW(snapshot::config_from(bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsHugeCountBeforeAllocating) {
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 5;
  sim::Machine machine(config);
  std::vector<u8> blob = snapshot::save(machine);
  // FINJ body: RNG state, next fire, suppress count, then the event count.
  const size_t count_at = section_body(blob, "FINJ") + 24;
  ASSERT_EQ(get_u64_at(blob, count_at), 0u);
  const u64 huge = u64{1} << 40;
  put_u64_at(blob, count_at, huge);
  reseal(blob);

  sim::Machine target(snapshot::config_from(blob));
  try {
    snapshot::restore(target, blob);
    FAIL() << "restore accepted an event count of " << huge;
  } catch (const snapshot::SnapshotError& e) {
    // Rejected by the count check, not by an allocation or a truncated
    // read after one.
    EXPECT_NE(std::string(e.what()).find("count " + std::to_string(huge)),
              std::string::npos)
        << e.what();
  }
}

std::vector<u8> golden_named(const char* name) {
  return snapshot::read_file(std::string(SEALPK_SOURCE_DIR) +
                             "/tests/golden/" + name);
}

// Restores `blob` into a machine built from its own config.
void restore_fresh(const std::vector<u8>& blob) {
  sim::Machine machine(snapshot::config_from(blob));
  snapshot::restore(machine, blob);
}

TEST(SnapshotValidation, RejectsOutOfRangePrivilege) {
  const std::vector<u8> golden = golden_named("qsort_mid.spksnap");
  // HART body: 32 registers and the pc, then the privilege byte.
  const size_t priv_at = section_body(golden, "HART") + 33 * 8;
  ASSERT_LE(golden.at(priv_at), 1u);
  for (const u8 priv : {2, 7, 255}) {
    SCOPED_TRACE(unsigned{priv});
    std::vector<u8> bad = golden;
    bad.at(priv_at) = priv;
    reseal(bad);
    // Once accepted: the run "completed" with exit -2.
    EXPECT_THROW(restore_fresh(bad), snapshot::SnapshotError);
    EXPECT_THROW(snapshot::info(bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsNonZeroX0) {
  std::vector<u8> blob = small_snapshot();
  put_u64_at(blob, section_body(blob, "HART"), 1);
  reseal(blob);
  EXPECT_THROW(restore_fresh(blob), snapshot::SnapshotError);
}

TEST(SnapshotValidation, RejectsCamFifoCursorOutOfRange) {
  const std::vector<u8> golden = golden_named("qsort_mid.spksnap");
  // SEAL body: the 1024-bit SealReg, 16 CAM slots of 19 bytes, then the
  // u32 FIFO cursor the next refill writes through.
  const size_t cursor_at = section_body(golden, "SEAL") + 128 + 16 * 19;
  auto with_cursor = [&](u32 cursor) {
    std::vector<u8> blob = golden;
    for (unsigned i = 0; i < 4; ++i) {
      blob.at(cursor_at + i) = static_cast<u8>(cursor >> (8 * i));
    }
    reseal(blob);
    return blob;
  };
  EXPECT_NO_THROW(restore_fresh(with_cursor(hw::kPkCamEntries - 1)));
  for (const u32 cursor : {hw::kPkCamEntries, 17u, ~u32{0}}) {
    SCOPED_TRACE(cursor);
    EXPECT_THROW(restore_fresh(with_cursor(cursor)), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsUnknownFaultKindAndResolution) {
  const std::vector<u8> golden = golden_named("sha_chaos_v2.spksnap");
  // FINJ body: RNG state, next fire, suppress count, event count, then
  // 26-byte events: kind u8, instret, two details, resolution u8.
  const size_t events_at = section_body(golden, "FINJ") + 4 * 8;
  ASSERT_GT(get_u64_at(golden, events_at - 8), 0u);
  const size_t kind_at = events_at;
  const size_t resolution_at = events_at + 1 + 3 * 8;
  for (const auto& [at, byte] :
       {std::pair<size_t, u8>{kind_at, 9}, {kind_at, 255},
        {resolution_at, 4}, {resolution_at, 255}}) {
    SCOPED_TRACE(at);
    std::vector<u8> bad = golden;
    bad.at(at) = byte;
    reseal(bad);
    EXPECT_THROW(restore_fresh(bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsTrailingSectionBytes) {
  std::vector<u8> blob = small_snapshot();
  // Grow the RUNS body by 8 bytes its field list never reads, then fix the
  // section length, the payload length and the checksum.
  const size_t body = section_body(blob, "RUNS");
  const u64 len = get_u64_at(blob, body - 8);
  blob.insert(blob.begin() + static_cast<std::ptrdiff_t>(body + len), 8, 0);
  put_u64_at(blob, body - 8, len + 8);
  put_u64_at(blob, 8 + 4, blob.size() - kHeaderBytes);
  reseal(blob);
  try {
    restore_fresh(blob);
    FAIL() << "restore accepted trailing section bytes";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("RUNS"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotValidation, RejectsUnknownVkeyState) {
  const std::vector<u8> golden = golden_named("session_vkey_v2.spksnap");
  // VKEY body: process count, then the one process's pid and table flag,
  // then its table: MRU slots, lazy flag, next vkey, park key, entry count,
  // and the first entry's vkey and state byte.
  const size_t body = section_body(golden, "VKEY");
  ASSERT_EQ(get_u64_at(golden, body), 1u);
  ASSERT_EQ(golden.at(body + 8 + 4), 1u);
  const size_t entries_at = body + 8 + 4 + 1 + 4 + 1 + 8 + 4;
  ASSERT_GT(get_u64_at(golden, entries_at), 0u);
  ASSERT_GE(get_u64_at(golden, entries_at + 8), mpk::kVkeyBase);
  const size_t state_at = entries_at + 8 + 8;
  ASSERT_LE(golden.at(state_at), 2u);
  for (const u8 state : {3, 255}) {
    SCOPED_TRACE(unsigned{state});
    std::vector<u8> bad = golden;
    bad.at(state_at) = state;
    reseal(bad);
    EXPECT_THROW(restore_fresh(bad), snapshot::SnapshotError);
  }
}

TEST(SnapshotValidation, RejectsUnknownTrapCauseInTheFaultLog) {
  // A machine whose fault log holds one record: a store to an unmapped
  // page, delivered to no handler.
  const isa::Program prog =
      testutil::make_main_program([](isa::Program&, isa::Function& f) {
        f.li(isa::t0, 0x7000'0000);
        f.sd(isa::zero, 0, isa::t0);
      });
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(prog.link());
  ASSERT_TRUE(machine.run(1'000'000).completed);
  ASSERT_EQ(machine.kernel().faults().size(), 1u);
  const os::FaultRecord& rec = machine.kernel().faults()[0];
  const std::vector<u8> blob = snapshot::save(machine);

  // Find the record by its bytes: pid, tid, cause, stval, sepc.
  ByteWriter pattern;
  pattern.put_u32(static_cast<u32>(rec.pid));
  pattern.put_u32(static_cast<u32>(rec.tid));
  pattern.put_u8(static_cast<u8>(rec.cause));
  pattern.put_u64(rec.addr);
  pattern.put_u64(rec.pc);
  const auto hit = std::search(
      blob.begin() + static_cast<std::ptrdiff_t>(section_body(blob, "KERN")),
      blob.end(), pattern.buffer().begin(), pattern.buffer().end());
  ASSERT_NE(hit, blob.end());
  const size_t cause_at = static_cast<size_t>(hit - blob.begin()) + 8;

  for (const u8 cause : {27, 255}) {
    SCOPED_TRACE(unsigned{cause});
    std::vector<u8> bad = blob;
    bad.at(cause_at) = cause;
    reseal(bad);
    EXPECT_THROW(restore_fresh(bad), snapshot::SnapshotError);
  }
}

TEST(Snapshot, InfoAndDiffReportSections) {
  const wl::Workload& w = workload_named("qsort");
  sim::Machine machine{sim::MachineConfig{}};
  machine.load(w.build(w.test_scale).link());
  machine.run(10'000);
  const std::vector<u8> a = snapshot::save(machine);
  machine.run(10'000);
  const std::vector<u8> b = snapshot::save(machine);

  const snapshot::Info info = snapshot::info(a);
  EXPECT_EQ(info.version, snapshot::kFormatVersion);
  EXPECT_TRUE(info.checksum_ok);
  EXPECT_GE(info.instret, 10'000u);
  ASSERT_GE(info.sections.size(), 10u);
  EXPECT_EQ(info.sections.front().name, "CFG");
  EXPECT_EQ(info.sections[1].name, "HART");

  EXPECT_TRUE(snapshot::diff(a, a).empty());
  const std::vector<std::string> d = snapshot::diff(a, b);
  EXPECT_FALSE(d.empty());  // 10k more instructions: HART must differ
  bool saw_hart = false;
  for (const auto& line : d) saw_hart |= line.rfind("HART", 0) == 0;
  EXPECT_TRUE(saw_hart);
}

TEST(Snapshot, FileRoundTrip) {
  const std::vector<u8> blob = small_snapshot();
  const std::string path = ::testing::TempDir() + "sealpk_test.spksnap";
  snapshot::write_file(path, blob);
  EXPECT_EQ(snapshot::read_file(path), blob);
  std::remove(path.c_str());
  EXPECT_THROW(snapshot::read_file(path), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Rollback recovery.
// ---------------------------------------------------------------------------

struct RollbackRun {
  bool completed = false;
  i64 exit_code = 0;
  std::string console;
  std::vector<u64> reports;
  u64 rollbacks = 0;
  u64 rollback_failures = 0;
  u64 checkpoints = 0;
};

RollbackRun run_pkr_chaos(const isa::Image& image, u64 checkpoint_interval,
                          u64 max_rollbacks, double rate, u64 max_faults) {
  sim::MachineConfig config;
  // No trusted PKR shadow: a parity-bad row cannot be scrubbed, so every
  // PKR flip escalates to an unrecoverable machine check.
  config.kernel.save_pkr_on_switch = false;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 7;
  config.fault_plan.rate = rate;
  config.fault_plan.max_faults = max_faults;
  config.fault_plan.kinds = kind_bit(fault::FaultKind::kPkrBitFlip);
  config.checkpoint_interval = checkpoint_interval;
  config.max_rollbacks = max_rollbacks;
  sim::Machine machine(config);
  const int pid = machine.load(image);
  RollbackRun out;
  out.completed = machine.run(400'000'000).completed;
  out.exit_code = machine.exit_code(pid);
  out.console = machine.kernel().console();
  out.reports = machine.kernel().reports();
  out.rollbacks = machine.rollbacks();
  out.rollback_failures = machine.rollback_failures();
  out.checkpoints = machine.checkpoints_taken();
  return out;
}

RollbackRun run_clean(const isa::Image& image) {
  sim::Machine machine{sim::MachineConfig{}};
  const int pid = machine.load(image);
  RollbackRun out;
  out.completed = machine.run(400'000'000).completed;
  out.exit_code = machine.exit_code(pid);
  out.console = machine.kernel().console();
  out.reports = machine.kernel().reports();
  return out;
}

TEST(Rollback, ConvertsMachineCheckKillIntoCleanCompletion) {
  const wl::Workload& w = workload_named("sha");
  const isa::Image image = w.build(w.test_scale).link();
  const RollbackRun clean = run_clean(image);
  ASSERT_TRUE(clean.completed);

  // Baseline: one PKR flip with no trusted shadow and no checkpointing is
  // an unrecoverable machine check — the process dies.
  const RollbackRun killed = run_pkr_chaos(image, /*checkpoint_interval=*/0,
                                           /*max_rollbacks=*/3,
                                           /*rate=*/1e-4, /*max_faults=*/1);
  ASSERT_TRUE(killed.completed);  // the kill ends the (only) process
  ASSERT_EQ(killed.exit_code, os::kExitMachineCheck);
  EXPECT_EQ(killed.rollbacks, 0u);

  // Same plan with periodic checkpoints: the machine restores the last
  // known-good snapshot, suppresses the injection, and the re-executed run
  // finishes with output identical to the clean one.
  const RollbackRun rolled = run_pkr_chaos(image, /*checkpoint_interval=*/5'000,
                                           /*max_rollbacks=*/3,
                                           /*rate=*/1e-4, /*max_faults=*/1);
  ASSERT_TRUE(rolled.completed);
  EXPECT_GE(rolled.rollbacks, 1u);
  EXPECT_EQ(rolled.exit_code, clean.exit_code);
  EXPECT_EQ(rolled.console, clean.console);
  EXPECT_EQ(rolled.reports, clean.reports);
}

TEST(Rollback, RetryCapContainsPermanentlyCorruptingPlan) {
  const wl::Workload& w = workload_named("sha");
  const isa::Image image = w.build(w.test_scale).link();

  // Unlimited PKR flips at a hot rate: every rollback re-executes into
  // fresh corruption. The cap must stop the retry loop and let the machine
  // check kill stand.
  const RollbackRun run = run_pkr_chaos(image, /*checkpoint_interval=*/5'000,
                                        /*max_rollbacks=*/2,
                                        /*rate=*/1e-3, /*max_faults=*/0);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.exit_code, os::kExitMachineCheck);
  EXPECT_EQ(run.rollbacks, 2u);
  EXPECT_GE(run.rollback_failures, 1u);
}

TEST(Rollback, CorruptionInFlightAtCheckpointTimeKeepsPreviousKnownGood) {
  // A machine check brewing *during* the periodic checkpoint window must
  // never be frozen into the "known-good" blob: take_checkpoint's peek-only
  // audit sees the latent PKR flip, skips the save (keeping the previous
  // checkpoint), and the eventual machine check rolls back to that
  // pre-fault state and completes clean.
  const wl::Workload& w = workload_named("sha");
  const isa::Image image = w.build(w.test_scale).link();
  const RollbackRun clean = run_clean(image);
  ASSERT_TRUE(clean.completed);

  sim::MachineConfig config;
  config.kernel.save_pkr_on_switch = false;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 7;
  config.fault_plan.rate = 1e-4;
  config.fault_plan.max_faults = 1;
  config.fault_plan.kinds = kind_bit(fault::FaultKind::kPkrBitFlip);
  config.checkpoint_interval = 1'000;
  config.max_rollbacks = 3;
  // Escalating audits far apart: between injection and escalation the only
  // audits are the peek-only ones inside take_checkpoint, so several
  // checkpoint deadlines pass while the corruption is in flight.
  config.audit_interval = 50'000;
  sim::Machine machine(config);
  const int pid = machine.load(image);
  ASSERT_GE(pid, 0);

  bool completed = false;
  bool saw_injection = false;
  u64 ckpts_at_injection = 0;
  u64 instret_at_injection = 0;
  u64 latent_instret = 0;  // furthest point reached while corrupted
  for (int slice = 0; slice < 4'000 && !completed; ++slice) {
    completed = machine.run(500).completed;
    if (!saw_injection && machine.injector()->total_injected() == 1) {
      saw_injection = true;
      ckpts_at_injection = machine.checkpoints_taken();
      instret_at_injection = machine.hart().instret();
    }
    if (saw_injection && machine.rollbacks() == 0) {
      if (machine.hart().instret() > latent_instret) {
        latent_instret = machine.hart().instret();
      }
      EXPECT_EQ(machine.checkpoints_taken(), ckpts_at_injection)
          << "checkpoint taken while corruption was in flight";
    }
  }
  ASSERT_TRUE(completed);
  ASSERT_TRUE(saw_injection);
  // The latent window spanned several checkpoint deadlines — each one was
  // skipped — and the rollback then used the kept pre-fault checkpoint.
  EXPECT_GE(latent_instret,
            instret_at_injection + 2 * config.checkpoint_interval);
  EXPECT_GE(machine.rollbacks(), 1u);
  EXPECT_EQ(machine.rollback_failures(), 0u);
  EXPECT_GT(machine.checkpoints_taken(), ckpts_at_injection);
  EXPECT_EQ(machine.exit_code(pid), clean.exit_code);
  EXPECT_EQ(machine.kernel().console(), clean.console);
  EXPECT_EQ(machine.kernel().reports(), clean.reports);
}

// ---------------------------------------------------------------------------
// Golden-file format compatibility.
// ---------------------------------------------------------------------------

TEST(SnapshotGolden, CommittedV1SnapshotStillRestoresAndCompletes) {
  // tests/golden/qsort_mid.spksnap is a committed v1 snapshot (qsort at
  // instret 20'000, mid-run). Any encoding change that breaks old files must
  // show up here — bump kFormatVersion and regenerate deliberately, never
  // silently:
  //   sealpk-snapshot save qsort --at=20000 --out=tests/golden/qsort_mid.spksnap
  const std::string path =
      std::string(SEALPK_SOURCE_DIR) + "/tests/golden/qsort_mid.spksnap";
  const std::vector<u8> blob = snapshot::read_file(path);

  const snapshot::Info info = snapshot::info(blob);
  EXPECT_EQ(info.version, 1u);  // committed blob predates the v2 VKEY bump
  EXPECT_EQ(info.instret, 20'000u);

  sim::Machine machine(snapshot::config_from(blob));
  snapshot::restore(machine, blob);
  ASSERT_TRUE(machine.run(400'000'000).completed);
  ASSERT_TRUE(machine.has_process(1));
  EXPECT_EQ(machine.exit_code(1), 0);
}

TEST(SnapshotGolden, CommittedV2ChaosSnapshotIsResavedByteForByte) {
  // tests/golden/sha_chaos_v2.spksnap pins the v2 encoding with a FINJ
  // section:
  //   sealpk-snapshot save sha --at=77777 --chaos-seed=3 --chaos-rate=0.001
  // Saving that run again, and saving a machine restored from the file,
  // must both reproduce it byte for byte.
  const std::vector<u8> golden = snapshot::read_file(
      std::string(SEALPK_SOURCE_DIR) + "/tests/golden/sha_chaos_v2.spksnap");
  ASSERT_EQ(golden.size(), 70434u);
  sim::MachineConfig config;
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 3;
  config.fault_plan.rate = 0.001;
  const wl::Workload& w = workload_named("sha");
  sim::Machine machine(config);
  machine.load(w.build(w.test_scale).link());
  machine.run(77'777);
  EXPECT_EQ(snapshot::save(machine), golden);

  const snapshot::Info info = snapshot::info(golden);
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.instret, 77'777u);
  sim::Machine restored(snapshot::config_from(golden));
  snapshot::restore(restored, golden);
  EXPECT_EQ(snapshot::save(restored), golden);
  ASSERT_TRUE(restored.run(400'000'000).completed);
  ASSERT_TRUE(restored.has_process(1));
  EXPECT_EQ(restored.exit_code(1), 0);
}

TEST(SnapshotGolden, TracingDoesNotPerturbGoldenReplay) {
  // Zero-perturbation contract for the committed v1 snapshot: restoring it
  // into a machine with the event recorder enabled must replay exactly the
  // run the untraced machine replays — same outcome, same console, and the
  // same final serialized state (trace config and recorder state live
  // outside the snapshot format on purpose).
  const std::string path =
      std::string(SEALPK_SOURCE_DIR) + "/tests/golden/qsort_mid.spksnap";
  const std::vector<u8> blob = snapshot::read_file(path);

  sim::Machine plain(snapshot::config_from(blob));
  snapshot::restore(plain, blob);
  ASSERT_TRUE(plain.run(400'000'000).completed);

  sim::MachineConfig traced_config = snapshot::config_from(blob);
  traced_config.trace.enabled = true;
  traced_config.trace.sample_interval = 512;
  sim::Machine traced(traced_config);
  snapshot::restore(traced, blob);
  ASSERT_TRUE(traced.run(400'000'000).completed);

  EXPECT_EQ(plain.exit_code(1), traced.exit_code(1));
  EXPECT_EQ(plain.kernel().console(), traced.kernel().console());
  EXPECT_EQ(plain.kernel().reports(), traced.kernel().reports());
  EXPECT_EQ(snapshot::save(plain), snapshot::save(traced));
  ASSERT_NE(traced.recorder(), nullptr);
  EXPECT_GT(traced.recorder()->events().size(), 0u);
}

}  // namespace
}  // namespace sealpk
