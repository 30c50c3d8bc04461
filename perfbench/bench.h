// Shared types of perfbench: the workload interface, per-op
// results checked against the committed reference, and the layer probes
// the traced run adds.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.h"
#include "mpk/vkey_table.h"
#include "sim/machine.h"
#include "sim/stats.h"
#include "trace.h"

namespace sealpk::perfbench {

// Input sets per seeded workload: --seed n selects set n % kInputSets, and
// the reference holds the canonical records of every set.
inline constexpr u64 kInputSets = 16;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};
using Metrics = std::vector<Metric>;

// One benchmark operation's outcome. `record` is the workload's canonical
// record followed by a tab and stats_record() of the machine(s) it ran;
// it must equal the reference line stored under `key`.
struct OpResult {
  std::string key;
  std::string record;
  u64 ops = 0;           // workload operations this result stands for
  u64 failed = 0;        // of those, failed by the workload's own checks
  u64 instructions = 0;  // guest instructions retired on the timed path
  sim::MachineStats stats;  // modelled counters (exact metrics)
  mpk::VkeyStats vstats;
};

// Traced-run extras that are not spans.
struct Probes {
  u64 blob_bytes = 0;
  u64 blobs = 0;
  u64 materialised_pages = 0;  // PhysMem pages of the probed machines
  double recorder_off_s = 0.0;  // run() seconds, MachineConfig::trace off
  double recorder_on_s = 0.0;   // the same runs with it on
  u64 checks = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One set-up pass: image build, instrument and link, Machine
  // construction and Machine::load for every op. Timed as setup_s.
  virtual void setup(Tracer& t) = 0;
  // A round is every op once, in order, on the last set-up pass's images.
  virtual size_t ops() const = 0;
  virtual OpResult run_op(Tracer& t, size_t i) = 0;
  // Workload-specific exact metrics of the last round.
  virtual void headline(Metrics& out) const = 0;
  // Layer probes for the traced run.
  virtual void probe(Tracer& t, Probes& p) = 0;
  // Canonical records of the same ops through the library's own runners,
  // keyed like run_op(); the reference is only written when they agree.
  virtual std::vector<std::pair<std::string, std::string>>
  library_records() = 0;
  // Image-cache counters of the last set-up pass and round (fig5_matrix
  // only).
  virtual u64 image_builds() const { return 0; }
  virtual u64 image_cache_hits() const { return 0; }
};

std::unique_ptr<Workload> make_fig5_matrix();
std::unique_ptr<Workload> make_keychurn(u64 set);
std::unique_ptr<Workload> make_vault_crashsweep(u64 set);

// --- helpers (probes.cpp) ---------------------------------------------------

// The exact modelled counters a record pins beyond its canonical part.
std::string stats_record(const sim::MachineStats& s);

// Runs collect_stats under a sim.collect_stats span.
sim::MachineStats traced_stats(Tracer& t, sim::Machine& m);

// A fresh machine with `image` loaded and run under sim.* spans.
struct MachineRun {
  std::unique_ptr<sim::Machine> machine;
  int pid = -1;
  sim::RunOutcome outcome;
  double run_s = 0.0;
};
MachineRun run_image(Tracer& t, const sim::MachineConfig& cfg,
                     const isa::Image& image, u64 budget,
                     const char* run_span = "sim.run");

bool same_image(const isa::Image& a, const isa::Image& b);

// isa::decode over every text word of `image`.
void probe_decode(Tracer& t, const isa::Image& image);

// Runs the image with the recorder off and on (checking the modelled
// counters agree), folds the recorded trace into spans, then probes the
// finished machine: page walks, PhysMem and TLB accesses over its pages,
// and a snapshot save/restore round trip.
void probe_machine_layers(Tracer& t, const sim::MachineConfig& cfg,
                          const isa::Image& image, u64 budget, Probes& p);

}  // namespace sealpk::perfbench
