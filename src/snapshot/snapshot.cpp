#include "snapshot/snapshot.h"

#include <array>
#include <fstream>
#include <sstream>
#include <string>

#include "common/checksum.h"
#include "common/serial.h"
#include "fault/fault.h"

namespace sealpk::snapshot {

namespace {

constexpr char kMagic[8] = {'S', 'P', 'K', 'S', 'N', 'A', 'P', '1'};

constexpr u32 fourcc(char a, char b, char c, char d) {
  return static_cast<u32>(static_cast<u8>(a)) |
         (static_cast<u32>(static_cast<u8>(b)) << 8) |
         (static_cast<u32>(static_cast<u8>(c)) << 16) |
         (static_cast<u32>(static_cast<u8>(d)) << 24);
}

constexpr u32 kSecConfig = fourcc('C', 'F', 'G', ' ');
constexpr u32 kSecHart = fourcc('H', 'A', 'R', 'T');
constexpr u32 kSecPkr = fourcc('P', 'K', 'R', ' ');
constexpr u32 kSecSeal = fourcc('S', 'E', 'A', 'L');
constexpr u32 kSecPkru = fourcc('P', 'K', 'R', 'U');
constexpr u32 kSecDtlb = fourcc('D', 'T', 'L', 'B');
constexpr u32 kSecItlb = fourcc('I', 'T', 'L', 'B');
constexpr u32 kSecMem = fourcc('M', 'E', 'M', ' ');
constexpr u32 kSecKernel = fourcc('K', 'E', 'R', 'N');
constexpr u32 kSecRunLoop = fourcc('R', 'U', 'N', 'S');
constexpr u32 kSecVkey = fourcc('V', 'K', 'E', 'Y');
constexpr u32 kSecInjector = fourcc('F', 'I', 'N', 'J');

std::string fourcc_name(u32 cc) {
  std::string s(4, ' ');
  for (int i = 0; i < 4; ++i) s[i] = static_cast<char>((cc >> (8 * i)) & 0xFF);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

[[noreturn]] void fail(const std::string& what) { throw SnapshotError(what); }

// --- field lists -------------------------------------------------------------
// Only execution-relevant config fields serialize: hooks cannot, and the
// loader verify policy only matters at image-admission time, before any
// snapshot exists. Restore demands the target machine's serialized config
// be byte-identical, so every field below is a compatibility axis.

template <class Ar, class Config>
void config_io(Ar& ar, Config& cfg, u32 version) {
  ar.enum_field(cfg.hart.flavor, core::IsaFlavor::kIntelMpkCompat);
  ar(cfg.hart.dtlb_entries, cfg.hart.itlb_entries);
  auto& t = cfg.hart.timing;
  ar(t.base_cycles, t.mul_cycles, t.div_cycles, t.mem_extra_cycles,
     t.tlb_miss_per_access, t.rocc_cycles, t.trap_enter_cycles,
     t.trap_return_cycles, t.syscall_dispatch_cycles, t.vma_lookup_cycles,
     t.pte_update_cycles, t.mprotect_rss_cycles_per_page, t.tlb_flush_cycles,
     t.pkey_bookkeeping_cycles, t.fault_handler_cycles,
     t.cam_refill_handler_cycles, t.context_switch_cycles,
     t.pkr_row_swap_cycles);
  ar(cfg.kernel.save_pkr_on_switch, cfg.kernel.stack_pages, cfg.kernel.sv48,
     cfg.mem_bytes, cfg.preempt_quantum);
  auto& f = cfg.fault_plan;
  ar(f.enabled, f.seed, f.rate, f.cam_rate, f.max_faults, f.kinds);
  ar(cfg.audit_interval, cfg.watchdog_trap_storm, cfg.watchdog_livelock,
     cfg.checkpoint_interval, cfg.max_rollbacks);
  if (version >= 2) ar(cfg.kernel.vkey_mru_slots, cfg.kernel.vkey_lazy_sync);
}

std::vector<u8> config_bytes(const sim::MachineConfig& cfg, u32 version) {
  ByteWriter w;
  Save ar(w);
  config_io(ar, cfg, version);
  return w.take();
}

template <class Ar, class RunLoop>
void runloop_io(Ar& ar, RunLoop& rl) {
  ar(rl.since_switch, rl.trap_streak, rl.last_trap_pc, rl.stall_streak,
     rl.next_audit, rl.next_checkpoint);
}

// --- section plumbing --------------------------------------------------------

struct Section {
  u32 cc = 0;
  const u8* data = nullptr;
  u64 len = 0;

  ByteReader reader() const { return {data, static_cast<size_t>(len)}; }
};

// Validates the header (magic, version, length, checksum) and splits the
// payload into its section table. `version_out` (optional) receives the
// blob's format version — readers accept every version in
// [kMinFormatVersion, kFormatVersion] and decode version-dependent parts
// accordingly.
std::vector<Section> parse(const std::vector<u8>& blob,
                           u32* version_out = nullptr) {
  constexpr size_t kHeader = sizeof(kMagic) + 4 + 8 + 8;
  if (blob.size() < kHeader) fail("snapshot too short for header");
  ByteReader hdr(blob);
  char magic[8];
  hdr.get_bytes(reinterpret_cast<u8*>(magic), sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    fail("bad snapshot magic");
  }
  const u32 version = hdr.get_u32();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    std::ostringstream os;
    os << "unsupported snapshot version " << version << " (supported "
       << kMinFormatVersion << ".." << kFormatVersion << ")";
    fail(os.str());
  }
  if (version_out != nullptr) *version_out = version;
  const u64 payload_len = hdr.get_u64();
  const u64 want_sum = hdr.get_u64();
  if (payload_len != blob.size() - kHeader) {
    fail("snapshot payload length mismatch (truncated or trailing bytes)");
  }
  const u8* payload = blob.data() + kHeader;
  if (checksum64(payload, static_cast<size_t>(payload_len)) != want_sum) {
    fail("snapshot checksum mismatch (corrupted file)");
  }

  std::vector<Section> sections;
  ByteReader r(payload, static_cast<size_t>(payload_len));
  while (!r.done()) {
    if (r.remaining() < 12) fail("truncated section header");
    Section sec;
    sec.cc = r.get_u32();
    sec.len = r.get_u64();
    if (sec.len > r.remaining()) fail("section overruns payload");
    sec.data = payload + r.position();
    r.skip(sec.len);
    sections.push_back(sec);
  }
  return sections;
}

const Section* find(const std::vector<Section>& sections, u32 cc) {
  for (const auto& sec : sections) {
    if (sec.cc == cc) return &sec;
  }
  return nullptr;
}

const Section& need(const std::vector<Section>& sections, u32 cc) {
  const Section* sec = find(sections, cc);
  if (sec == nullptr) fail("snapshot missing section " + fourcc_name(cc));
  return *sec;
}

// Runs a section's field list into a fresh body appended to the payload.
struct SavePort {
  ByteWriter payload;

  template <class Fn>
  void operator()(u32 cc, Fn fn) {
    ByteWriter body;
    Save ar(body);
    fn(ar);
    payload.put_u32(cc);
    payload.put_u64(body.size());
    payload.put_bytes(body.buffer().data(), body.size());
  }
};

// Runs a section's field list over that section of a parsed blob, which
// must consume it exactly.
struct LoadPort {
  const std::vector<Section>& sections;

  template <class Fn>
  void operator()(u32 cc, Fn fn) {
    ByteReader r = need(sections, cc).reader();
    Load ar(r);
    fn(ar);
    if (!r.done()) {
      fail("snapshot section " + fourcc_name(cc) + " has " +
           std::to_string(r.remaining()) + " trailing bytes");
    }
  }
};

// Every section after CFG, in blob order: save and restore run this one
// list. v1 blobs predate the VKEY section; their kernel load leaves every
// process's vkey table null, which is exactly the pre-v2 state.
template <class Port>
void state_sections(Port& port, sim::Machine& m, u32 version) {
  core::Hart& hart = m.hart();
  port(kSecHart, [&](auto& ar) { ar(hart); });
  port(kSecPkr, [&](auto& ar) { ar(hart.pkr()); });
  port(kSecSeal, [&](auto& ar) { ar(hart.seal_unit()); });
  port(kSecPkru, [&](auto& ar) { ar(hart.pkru()); });
  port(kSecDtlb, [&](auto& ar) { ar(hart.dtlb()); });
  port(kSecItlb, [&](auto& ar) { ar(hart.itlb()); });
  port(kSecMem, [&](auto& ar) { ar(m.mem()); });
  port(kSecKernel, [&](auto& ar) { ar(m.kernel()); });
  port(kSecRunLoop, [&](auto& ar) { runloop_io(ar, m.runloop()); });
  if (version >= 2) {
    port(kSecVkey, [&](auto& ar) { os::Kernel::vkey_io(ar, m.kernel()); });
  }
  if (m.injector() != nullptr) {
    port(kSecInjector, [&](auto& ar) { ar(*m.injector()); });
  }
}

// The HART section's head (regs, pc, priv, cycles, instret), read through
// the hart's own field list.
struct HartHead {
  std::array<u64, 32> regs{};
  u64 pc = 0;
  core::Priv priv = core::Priv::kSupervisor;
  u64 cycles = 0;
  u64 instret = 0;
};

HartHead read_head(const Section& sec) {
  try {
    ByteReader r = sec.reader();
    Load ar(r);
    HartHead h;
    core::Hart::head_io(ar, h.regs, h.pc, h.priv, h.cycles, h.instret);
    return h;
  } catch (const std::exception& e) {
    fail(std::string("snapshot HART section decode failed: ") + e.what());
  }
}

}  // namespace

std::vector<u8> save(sim::Machine& machine) {
  SavePort port;
  port(kSecConfig,
       [&](Save& ar) { config_io(ar, machine.config(), kFormatVersion); });
  state_sections(port, machine, kFormatVersion);

  ByteWriter out;
  out.put_bytes(reinterpret_cast<const u8*>(kMagic), sizeof(kMagic));
  out.put_u32(kFormatVersion);
  out.put_u64(port.payload.size());
  out.put_u64(checksum64(port.payload.buffer()));
  out.put_bytes(port.payload.buffer().data(), port.payload.size());
  return out.take();
}

void restore(sim::Machine& machine, const std::vector<u8>& blob) {
  u32 version = 0;
  const std::vector<Section> sections = parse(blob, &version);
  try {
    // Config compatibility: the restoring machine must serialize to the
    // exact CFG bytes of the snapshot — the state sections are only
    // meaningful against identical geometry, flavour and timing. The
    // compare runs at the blob's version; a v1 blob predates the vkey
    // knobs, so the restoring machine must still carry their defaults.
    {
      const Section& sec = need(sections, kSecConfig);
      const std::vector<u8> mine = config_bytes(machine.config(), version);
      if (mine.size() != sec.len ||
          std::memcmp(mine.data(), sec.data, mine.size()) != 0) {
        fail(
            "snapshot was taken under a different machine config "
            "(construct the machine with snapshot::config_from)");
      }
      if (version < 2) {
        const os::KernelConfig defaults;
        if (machine.config().kernel.vkey_mru_slots !=
                defaults.vkey_mru_slots ||
            machine.config().kernel.vkey_lazy_sync !=
                defaults.vkey_lazy_sync) {
          fail(
              "v1 snapshot predates vkey virtualization but the machine "
              "carries non-default vkey knobs");
        }
      }
    }
    if ((machine.injector() != nullptr) !=
        (find(sections, kSecInjector) != nullptr)) {
      fail("snapshot and machine disagree about fault injection");
    }

    LoadPort port{sections};
    state_sections(port, machine, version);
    // Tracing state travels outside snapshots; re-seed the recorder's
    // pid/tid stamping context from the just-restored scheduler so events
    // published after this point stamp exactly as in an uninterrupted run.
    machine.reseed_recorder();
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    fail(std::string("snapshot decode failed: ") + e.what());
  }
}

sim::MachineConfig config_from(const std::vector<u8>& blob) {
  u32 version = 0;
  const std::vector<Section> sections = parse(blob, &version);
  try {
    ByteReader r = need(sections, kSecConfig).reader();
    Load ar(r);
    sim::MachineConfig cfg;
    config_io(ar, cfg, version);
    // Checked before any Machine exists: these fields size its allocations.
    sim::validate(cfg);
    return cfg;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    fail(std::string("snapshot config rejected: ") + e.what());
  }
}

Info info(const std::vector<u8>& blob) {
  Info out;
  const std::vector<Section> sections = parse(blob);
  constexpr size_t kHeader = sizeof(kMagic) + 4 + 8 + 8;
  ByteReader hdr(blob.data() + sizeof(kMagic), kHeader - sizeof(kMagic));
  out.version = hdr.get_u32();
  out.payload_len = hdr.get_u64();
  out.checksum = hdr.get_u64();
  out.checksum_ok = true;  // parse() already validated it
  for (const auto& sec : sections) {
    out.sections.push_back({fourcc_name(sec.cc), sec.len});
  }
  const HartHead head = read_head(need(sections, kSecHart));
  out.pc = head.pc;
  out.cycles = head.cycles;
  out.instret = head.instret;
  return out;
}

std::vector<std::string> diff(const std::vector<u8>& a,
                              const std::vector<u8>& b) {
  const std::vector<Section> sa = parse(a);
  const std::vector<Section> sb = parse(b);
  std::vector<std::string> lines;

  auto describe = [&](const Section& x, const Section& y) {
    std::ostringstream os;
    os << fourcc_name(x.cc) << ": differs (" << x.len << " vs " << y.len
       << " bytes)";
    if (x.len == y.len) {
      for (u64 i = 0; i < x.len; ++i) {
        if (x.data[i] != y.data[i]) {
          os << "; first at byte " << i;
          break;
        }
      }
    }
    if (x.cc == kSecHart && x.len == y.len) {
      const HartHead hx = read_head(x);
      const HartHead hy = read_head(y);
      for (unsigned i = 0; i < 32; ++i) {
        if (hx.regs[i] != hy.regs[i]) {
          os << "; x" << i << "=0x" << std::hex << hx.regs[i] << "/0x"
             << hy.regs[i] << std::dec;
        }
      }
      if (hx.pc != hy.pc) {
        os << "; pc=0x" << std::hex << hx.pc << "/0x" << hy.pc << std::dec;
      }
      if (hx.cycles != hy.cycles) {
        os << "; cycles=" << hx.cycles << "/" << hy.cycles;
      }
      if (hx.instret != hy.instret) {
        os << "; instret=" << hx.instret << "/" << hy.instret;
      }
    }
    if (x.cc == kSecMem) {
      ByteReader rx = x.reader();
      ByteReader ry = y.reader();
      rx.get_u64();
      ry.get_u64();  // size
      os << "; resident pages " << rx.get_u64() << "/" << ry.get_u64();
    }
    return os.str();
  };

  for (const auto& sec : sa) {
    const Section* other = find(sb, sec.cc);
    if (other == nullptr) {
      lines.push_back(fourcc_name(sec.cc) + ": only in first snapshot");
      continue;
    }
    if (sec.len != other->len ||
        std::memcmp(sec.data, other->data, static_cast<size_t>(sec.len)) !=
            0) {
      lines.push_back(describe(sec, *other));
    }
  }
  for (const auto& sec : sb) {
    if (find(sa, sec.cc) == nullptr) {
      lines.push_back(fourcc_name(sec.cc) + ": only in second snapshot");
    }
  }
  return lines;
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open snapshot file: " + path);
  std::vector<u8> blob((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) fail("read failed: " + path);
  return blob;
}

void write_file(const std::string& path, const std::vector<u8>& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot create snapshot file: " + path);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) fail("write failed: " + path);
}

}  // namespace sealpk::snapshot
