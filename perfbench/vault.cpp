// vault_crashsweep: vault::run_sweep on the default spec (every 4th crash
// point resumed from its checkpoint), the seed picking the spec's payload
// seed. Bound by Machine set-up and snapshots, with little interpretation.
// The sweep runs as one library call; the traced run re-enacts a sample of
// its crash points call by call to time the layers inside.
#include <algorithm>
#include <optional>

#include "bench.h"
#include "snapshot/snapshot.h"
#include "vault/format.h"
#include "vault/sweep.h"

namespace sealpk::perfbench {

namespace {

// The sweep's own run budget and checkpoint cadence (SweepConfig default).
constexpr u64 kRunBudget = 400'000'000ULL;
// The traced run re-enacts every kProbeStride-th crash point.
constexpr size_t kProbeStride = 5;

// Multi-line canonical text as one reference line.
std::string one_line(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

class VaultCrashsweep : public Workload {
 public:
  explicit VaultCrashsweep(u64 set) : set_(set) {
    cfg_.spec.seed = 1 + set;  // set 0 is the default spec
    mc_.checkpoint_interval = cfg_.checkpoint_interval;
    // The uninterrupted run the crash points cut short: its modelled
    // counters are the workload's exact metrics.
    built_.emplace(vault::build_vault(cfg_.spec));
    Tracer off;
    MachineRun run = run_image(off, mc_, built_->image, kRunBudget);
    SEALPK_CHECK(run.pid >= 0 && run.outcome.completed);
    clean_ = sim::collect_stats(*run.machine);
  }

  void setup(Tracer& t) override {
    {
      auto s = t.span("vault.build");
      built_.emplace(vault::build_vault(cfg_.spec));
    }
    std::optional<sim::Machine> m;
    {
      auto s = t.span("sim.machine_new");
      m.emplace(mc_);
    }
    auto s = t.span("sim.load");
    SEALPK_CHECK(m->load(built_->image) >= 0);
  }

  size_t ops() const override { return 1; }

  OpResult run_op(Tracer& t, size_t) override {
    auto op = t.op("bench.vault_sweep", OpKind::kRound);
    {
      auto s = t.span("vault.run_sweep");
      sweep_ = vault::run_sweep(cfg_);
      s.count(sweep_.points);
    }
    OpResult o;
    o.key = "set=" + std::to_string(set_);
    o.record = one_line(sweep_.canonical) + "\t" + stats_record(clean_);
    o.ops = sweep_.points;
    o.failed = sweep_.ok ? sweep_.failures : std::max<u64>(1, sweep_.failures);
    // Guest instructions of the crash legs (a fresh machine retires exactly
    // `instret` before each kill); the sweep does not report how many its
    // resume legs retire, so they are left out.
    for (const vault::PointVerdict& v : sweep_.verdicts) {
      o.instructions += v.instret;
    }
    o.stats = clean_;
    return o;
  }

  void headline(Metrics& out) const override {
    out.push_back({"vault.resume_points", "count",
                   static_cast<double>(sweep_.resume_points)});
  }

  void probe(Tracer& t, Probes& p) override {
    {
      auto op = t.op("bench.probe", OpKind::kProbe);
      probe_decode(t, built_->image);
      probe_machine_layers(t, mc_, built_->image, kRunBudget, p);
    }
    for (size_t i = 0; i < sweep_.verdicts.size(); i += kProbeStride) {
      auto op = t.op("bench.probe", OpKind::kProbe);
      reenact_point(t, sweep_.verdicts[i], p);
    }
  }

  std::vector<std::pair<std::string, std::string>> library_records() override {
    // run_op() already goes through the library's runner.
    return {{"set=" + std::to_string(set_), one_line(sweep_.canonical)}};
  }

 private:
  // The ledger of the vault region of `pid`, replayed from a dump.
  std::optional<vault::Ledger> ledger_of(Tracer& t, sim::Machine& m, int pid) {
    const os::AddressSpace& as = *m.kernel().process(pid).aspace;
    const std::optional<vault::VaultLocation> loc = vault::find_vault(as);
    if (!loc.has_value()) return vault::Ledger{};
    std::vector<u8> region(loc->geo.total_len());
    {
      auto s = t.span("os.copy_in");
      if (!as.copy_in(loc->base, region.data(), region.size())) {
        return std::nullopt;
      }
    }
    auto s = t.span("vault.replay");
    return vault::replay(region.data(), region.size());
  }

  // One crash point of the sweep, call by call: kill a fresh machine at
  // the point's instret, replay the vault from its memory, and (for points
  // the sweep resumed) save, restore and finish from its checkpoint. The
  // replayed ledger must match the sweep's verdict for the point.
  void reenact_point(Tracer& t, const vault::PointVerdict& v, Probes& p) {
    const std::string at = " at instret " + std::to_string(v.instret);
    MachineRun crash = run_image(t, mc_, built_->image, v.instret);
    if (crash.pid < 0) {
      p.check(false, "load refused" + at);
      return;
    }
    const std::optional<vault::Ledger> ledger =
        ledger_of(t, *crash.machine, crash.pid);
    p.check(ledger.has_value() && ledger->live.size() == v.live &&
                ledger->commits_seen == v.commits &&
                ledger->torn_or_corrupt == v.torn,
            "crash ledger differs from the sweep's verdict" + at);
    if (!v.resumed) return;
    if (!crash.machine->has_checkpoint()) {
      p.check(false, "resumed point without a checkpoint" + at);
      return;
    }
    {
      auto s = t.span("snapshot.save");
      std::vector<u8> blob = snapshot::save(*crash.machine);
      p.blob_bytes += blob.size();
      ++p.blobs;
    }
    const std::vector<u8>& ckpt = crash.machine->checkpoint_blob();
    std::optional<sim::Machine> resumed;
    {
      auto s = t.span("sim.machine_new");
      resumed.emplace(snapshot::config_from(ckpt));
    }
    {
      auto s = t.span("snapshot.restore");
      snapshot::restore(*resumed, ckpt);
    }
    sim::RunOutcome out;
    {
      auto s = t.span("sim.run");
      out = resumed->run(kRunBudget);
      s.count(out.instructions);
    }
    const std::optional<vault::Ledger> final_ledger =
        ledger_of(t, *resumed, crash.pid);
    p.check(out.completed && resumed->exit_code(crash.pid) == 0 &&
                final_ledger.has_value() &&
                vault::ledger_string(*final_ledger) == built_->expected_ledger,
            "resumed run missed the expected ledger" + at);
  }

  u64 set_;
  vault::SweepConfig cfg_;
  sim::MachineConfig mc_;
  std::optional<vault::BuiltVault> built_;
  sim::MachineStats clean_;
  vault::SweepResult sweep_;
};

}  // namespace

std::unique_ptr<Workload> make_vault_crashsweep(u64 set) {
  return std::make_unique<VaultCrashsweep>(set);
}

}  // namespace sealpk::perfbench
