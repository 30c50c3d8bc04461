// keychurn: virtualized session-server cells (eager and lazy vkey sync)
// with more live sessions than the 1023 physical keys, so eviction and
// re-keying never stop. Kernel- and mpk-bound. The seed picks the churn
// schedule. Each cell is mpk::run_session_server taken apart into its
// layer calls; the reference pins that the parts add up to the library's
// own runner.
#include <algorithm>
#include <optional>

#include "bench.h"
#include "mpk/session.h"
#include "workloads/workload.h"

namespace sealpk::perfbench {

namespace {

constexpr u64 kSessions[] = {1536, 2048};

struct Cell {
  mpk::SessionConfig cfg;
  wl::SessionShape shape;
  sim::MachineConfig mc;
  u64 expected = 0;  // golden checksum
  wl::SessionSchedule sched;
  u64 churn_ops = 0;
  std::optional<isa::Image> image;
  u64 cycles = 0;  // modelled cycles of the last run
};

std::string cell_key(u64 set, const mpk::SessionConfig& cfg) {
  return "set=" + std::to_string(set) +
         " mode=" + (cfg.lazy_sync ? "lazy" : "eager") +
         " sessions=" + std::to_string(cfg.sessions);
}

class Keychurn : public Workload {
 public:
  explicit Keychurn(u64 set) : set_(set) {
    for (const u64 sessions : kSessions) {
      for (const bool lazy : {false, true}) {
        Cell c;
        c.cfg.sessions = sessions;
        c.cfg.ops = 2 * sessions;
        c.cfg.seed = wl::kWorkloadSeed + set;
        c.cfg.lazy_sync = lazy;
        c.shape = {.sessions = c.cfg.sessions,
                   .ops = c.cfg.ops,
                   .seed = c.cfg.seed,
                   .raw = c.cfg.raw};
        // The machine mpk::run_session_server wires for this config.
        c.mc.hart.flavor = core::IsaFlavor::kSealPk;
        c.mc.kernel.vkey_mru_slots = c.cfg.mru_slots;
        c.mc.kernel.vkey_lazy_sync = c.cfg.lazy_sync;
        const u64 arena = c.cfg.sessions * mem::kPageSize;
        c.mc.mem_bytes = std::max<u64>(
            c.mc.mem_bytes,
            align_up(arena + arena / 64 + (96ULL << 20), mem::kPageSize));
        c.expected = wl::golden_session_sum(c.shape);
        c.sched = wl::session_schedule(c.shape);
        c.churn_ops =
            4 * c.sched.connects + c.sched.reconnects + 2 * c.sched.touches;
        cells_.push_back(std::move(c));
      }
    }
  }

  void setup(Tracer& t) override {
    for (Cell& c : cells_) {
      std::optional<isa::Program> prog;
      {
        auto s = t.span("workloads.build");
        prog.emplace(wl::build_session_prog(c.shape));
      }
      {
        auto s = t.span("isa.link");
        c.image.emplace(prog->link());
      }
      std::optional<sim::Machine> m;
      {
        auto s = t.span("sim.machine_new");
        m.emplace(c.mc);
      }
      auto s = t.span("sim.load");
      SEALPK_CHECK(m->load(*c.image) >= 0);
    }
  }

  size_t ops() const override { return cells_.size(); }

  OpResult run_op(Tracer& t, size_t i) override {
    Cell& c = cells_[i];
    auto op = t.op("bench.keychurn_cell", OpKind::kRound);
    op.count(c.churn_ops);
    MachineRun run = run_image(t, c.mc, *c.image, c.cfg.max_instructions);
    OpResult o;
    o.key = cell_key(set_, c.cfg);
    o.ops = c.churn_ops;
    c.cycles = 0;
    if (run.pid < 0) {
      o.failed = o.ops;
      return o;
    }
    const mpk::SessionResult r = session_result(c, run);
    o.stats = traced_stats(t, *run.machine);
    o.record = record(c.cfg, r) + "\t" + stats_record(o.stats);
    o.failed = r.ok() ? 0 : o.ops;
    o.instructions = r.instructions;
    o.vstats = r.vstats;
    c.cycles = r.cycles;
    return o;
  }

  void headline(Metrics& out) const override {
    // Churn operations per modelled second at the board's 50 MHz, over
    // every cell of the round.
    u64 churn_ops = 0;
    u64 cycles = 0;
    for (const Cell& c : cells_) {
      churn_ops += c.churn_ops;
      cycles += c.cycles;
    }
    out.push_back({"churn_per_sec", "1/s_50MHz",
                   cycles == 0 ? 0.0
                               : static_cast<double>(churn_ops) *
                                     static_cast<double>(
                                         mpk::kSessionNominalHz) /
                                     static_cast<double>(cycles)});
  }

  void probe(Tracer& t, Probes& p) override {
    for (const Cell& c : cells_) {
      auto op = t.op("bench.probe", OpKind::kProbe);
      probe_decode(t, *c.image);
      probe_machine_layers(t, c.mc, *c.image, c.cfg.max_instructions, p);
    }
  }

  std::vector<std::pair<std::string, std::string>> library_records() override {
    std::vector<std::pair<std::string, std::string>> out;
    for (const Cell& c : cells_) {
      out.emplace_back(cell_key(set_, c.cfg),
                       record(c.cfg, mpk::run_session_server(c.cfg)));
    }
    return out;
  }

 private:
  // session_record without its trailing newline.
  static std::string record(const mpk::SessionConfig& cfg,
                            const mpk::SessionResult& r) {
    std::string s = mpk::session_record(cfg, r);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    return s;
  }

  // The SessionResult mpk::run_session_server folds from a finished run.
  static mpk::SessionResult session_result(const Cell& c, MachineRun& run) {
    sim::Machine& m = *run.machine;
    mpk::SessionResult r;
    r.completed = run.outcome.completed;
    r.instructions = run.outcome.instructions;
    r.cycles = run.outcome.cycles;
    r.exit_code = m.exit_code(run.pid);
    r.expected = c.expected;
    const auto& reports = m.kernel().reports();
    r.checksum = reports.empty() ? 0 : reports.front();
    r.checksum_ok = r.completed && r.checksum == r.expected;
    r.connects = c.sched.connects;
    r.reconnects = c.sched.reconnects;
    r.touches = c.sched.touches;
    r.churn_ops = c.churn_ops;
    const os::Process& proc = m.kernel().process(run.pid);
    if (proc.vkeys) {
      r.vstats = proc.vkeys->stats();
      r.live = proc.vkeys->live();
      r.mapped = proc.vkeys->mapped();
    }
    return r;
  }

  u64 set_;
  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> make_keychurn(u64 set) {
  return std::make_unique<Keychurn>(set);
}

}  // namespace sealpk::perfbench
