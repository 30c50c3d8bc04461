// Layer probes for the traced run and the helpers the workloads share.
#include <cstring>
#include <sstream>

#include "bench.h"
#include "isa/inst.h"
#include "mem/tlb.h"
#include "mem/walker.h"
#include "obs/span.h"
#include "snapshot/snapshot.h"

namespace sealpk::perfbench {

namespace {

// Keeps probe loops from being optimised away.
volatile u64 g_sink = 0;

// Cap on pages walked per VMA (the RSS ballast maps large cold blobs).
constexpr u64 kMaxVmaPages = u64{1} << 16;
// PhysMem probe stride: one u64 and one u32 access per 64-byte line.
constexpr u64 kLine = 64;
constexpr int kTlbPasses = 4;

struct Page {
  u64 vpn = 0;
  u64 ppn = 0;
};

// mem::walk over every page of every VMA of `pid`; returns the pages that
// translate.
std::vector<Page> walk_pages(Tracer& t, sim::Machine& m, int pid) {
  const os::AddressSpace& as = *m.kernel().process(pid).aspace;
  const mem::PhysMem& phys = m.mem();
  std::vector<Page> pages;
  auto s = t.span("mem.walk");
  u64 walked = 0;
  for (const auto& [start, vma] : as.vmas()) {
    const u64 n = std::min(vma.pages(), kMaxVmaPages);
    for (u64 i = 0; i < n; ++i) {
      const u64 va = start + i * mem::kPageSize;
      const mem::WalkResult w = mem::walk(phys, as.root_ppn(), va,
                                          mem::Access::kLoad, as.levels());
      ++walked;
      if (w.ok) pages.push_back({va >> mem::kPageShift, w.ppn});
    }
  }
  s.count(walked);
  return pages;
}

void probe_phys(Tracer& t, mem::PhysMem& phys, const std::vector<Page>& pages) {
  std::vector<u64> words;
  words.reserve(pages.size() * (mem::kPageSize / kLine) * 2);
  {
    auto s = t.span("mem.phys_read");
    u64 acc = 0;
    for (const Page& p : pages) {
      const u64 base = p.ppn << mem::kPageShift;
      for (u64 off = 0; off < mem::kPageSize; off += kLine) {
        words.push_back(phys.read_u64(base + off));
        words.push_back(phys.read_u32(base + off + 8));
        acc += 2;
      }
    }
    s.count(acc);
  }
  // Writes back what was read, so the machine's contents do not change.
  auto s = t.span("mem.phys_write");
  size_t w = 0;
  for (const Page& p : pages) {
    const u64 base = p.ppn << mem::kPageShift;
    for (u64 off = 0; off < mem::kPageSize; off += kLine) {
      phys.write_u64(base + off, words[w++]);
      phys.write_u32(base + off + 8, static_cast<u32>(words[w++]));
    }
  }
  s.count(w);
}

void probe_tlb(Tracer& t, size_t entries, const std::vector<Page>& pages) {
  mem::Tlb tlb(entries);
  auto s = t.span("mem.tlb_lookup");
  u64 lookups = 0;
  for (int pass = 0; pass < kTlbPasses; ++pass) {
    for (const Page& p : pages) {
      if (!tlb.lookup(p.vpn)) {
        mem::TlbEntry e;
        e.vpn = p.vpn;
        e.ppn = p.ppn;
        e.r = true;
        tlb.insert(e);
      }
      ++lookups;
    }
  }
  s.count(lookups);
  g_sink = g_sink + tlb.stats().hits;
}

void probe_snapshot(Tracer& t, sim::Machine& m, Probes& p) {
  std::vector<u8> blob;
  {
    auto s = t.span("snapshot.save");
    blob = snapshot::save(m);
  }
  sim::Machine restored(snapshot::config_from(blob));
  {
    auto s = t.span("snapshot.restore");
    snapshot::restore(restored, blob);
  }
  // The encoding is canonical, so an exact round trip re-saves to the
  // same bytes.
  p.check(snapshot::save(restored) == blob,
          "snapshot round trip changed the blob");
  p.blob_bytes += blob.size();
  ++p.blobs;
}

}  // namespace

std::string stats_record(const sim::MachineStats& s) {
  std::ostringstream os;
  os << "instructions=" << s.instructions << " cycles=" << s.cycles
     << " loads=" << s.loads << " stores=" << s.stores
     << " wrpkr=" << s.wrpkr << " rdpkr=" << s.rdpkr
     << " dtlb=" << s.dtlb.hits << "/" << s.dtlb.misses
     << " itlb=" << s.itlb.hits << "/" << s.itlb.misses
     << " cam_misses=" << s.seal.cam_misses
     << " cam_refills=" << s.cam_refills << " syscalls=" << s.syscalls
     << " context_switches=" << s.context_switches
     << " pte_pages_updated=" << s.pte_pages_updated
     << " checkpoints=" << s.checkpoints;
  return os.str();
}

sim::MachineStats traced_stats(Tracer& t, sim::Machine& m) {
  auto s = t.span("sim.collect_stats");
  return sim::collect_stats(m);
}

MachineRun run_image(Tracer& t, const sim::MachineConfig& cfg,
                     const isa::Image& image, u64 budget,
                     const char* run_span) {
  MachineRun r;
  {
    auto s = t.span("sim.machine_new");
    r.machine = std::make_unique<sim::Machine>(cfg);
  }
  {
    auto s = t.span("sim.load");
    r.pid = r.machine->load(image);
  }
  if (r.pid < 0) return r;
  auto s = t.span(run_span);
  const Clock::time_point t0 = Clock::now();
  r.outcome = r.machine->run(budget);
  r.run_s = seconds_since(t0);
  s.count(r.outcome.instructions);
  return r;
}

bool same_image(const isa::Image& a, const isa::Image& b) {
  if (a.entry != b.entry || a.text_base != b.text_base ||
      a.text_end != b.text_end || a.data_base != b.data_base ||
      a.data_end != b.data_end || a.segments.size() != b.segments.size() ||
      a.symbols != b.symbols || a.func_ranges != b.func_ranges) {
    return false;
  }
  for (size_t i = 0; i < a.segments.size(); ++i) {
    const isa::Segment& x = a.segments[i];
    const isa::Segment& y = b.segments[i];
    if (x.addr != y.addr || x.bytes != y.bytes || x.read != y.read ||
        x.write != y.write || x.exec != y.exec) {
      return false;
    }
  }
  return true;
}

void probe_decode(Tracer& t, const isa::Image& image) {
  auto s = t.span("isa.decode");
  u64 words = 0;
  u64 acc = 0;
  for (const isa::Segment& seg : image.segments) {
    if (!seg.exec) continue;
    for (size_t off = 0; off + 4 <= seg.bytes.size(); off += 4) {
      u32 raw = 0;
      std::memcpy(&raw, seg.bytes.data() + off, sizeof(raw));
      acc += static_cast<u64>(isa::decode(raw).op);
      ++words;
    }
  }
  s.count(words);
  g_sink = g_sink + acc;
}

void probe_machine_layers(Tracer& t, const sim::MachineConfig& cfg,
                          const isa::Image& image, u64 budget, Probes& p) {
  MachineRun off = run_image(t, cfg, image, budget);
  sim::MachineConfig traced_cfg = cfg;
  traced_cfg.trace.enabled = true;
  MachineRun on = run_image(t, traced_cfg, image, budget, "obs.recorded_run");
  if (off.pid < 0 || on.pid < 0) {
    p.check(false, "probe load refused");
    return;
  }
  p.recorder_off_s += off.run_s;
  p.recorder_on_s += on.run_s;
  p.check(stats_record(sim::collect_stats(*off.machine)) ==
              stats_record(sim::collect_stats(*on.machine)),
          "recording changed the modelled counters");
  {
    auto s = t.span("obs.span_fold");
    const obs::SpanSet set = obs::build_spans(on.machine->recorder()->trace());
    s.count(set.spans.size());
  }
  probe_snapshot(t, *off.machine, p);
  p.materialised_pages += off.machine->mem().materialized_pages();
  const std::vector<Page> pages = walk_pages(t, *off.machine, off.pid);
  probe_tlb(t, cfg.hart.dtlb_entries, pages);
  probe_phys(t, off.machine->mem(), pages);
}

}  // namespace sealpk::perfbench
