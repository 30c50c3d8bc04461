// fig5_matrix: the Figure-5 shadow-stack matrix on a fixed subset of the
// proxies — every suite and all seven instrumentation variants — at each
// proxy's bench_scale, one fresh Machine per job, images through
// fleet::ImageCache. Interpreter-bound: Machine::run dominates.
#include <cmath>
#include <optional>

#include "bench.h"
#include "fleet/engine.h"
#include "fleet/image_cache.h"
#include "fleet/report.h"

namespace sealpk::perfbench {

namespace {

using passes::ShadowStackKind;

struct Variant {
  ShadowStackKind ss;
  bool perm_seal;
};

// The matrix's instrumentation axis ("sealed" = SealPK-WR with the WRPKR
// permission seal).
constexpr Variant kVariants[] = {
    {ShadowStackKind::kNone, false},     {ShadowStackKind::kInline, false},
    {ShadowStackKind::kFunc, false},     {ShadowStackKind::kSealPkWr, false},
    {ShadowStackKind::kSealPkRdWr, false}, {ShadowStackKind::kMprotect, false},
    {ShadowStackKind::kSealPkWr, true},
};

// The proxy subset: the full 119-job matrix takes ~20 s serially, which is
// too long for repeated rounds inside one run. One or more proxies from
// each suite keep the per-suite geomeans defined.
struct Proxy {
  wl::Suite suite;
  const char* name;
};
constexpr Proxy kProxies[] = {
    {wl::Suite::kSpec2000, "gzip"},    {wl::Suite::kSpec2006, "libquantum"},
    {wl::Suite::kMiBench, "sha"},      {wl::Suite::kMiBench, "dijkstra"},
    {wl::Suite::kMiBench, "FFT"},      {wl::Suite::kMiBench, "qsort"},
};

constexpr wl::Suite kSuites[] = {wl::Suite::kSpec2000, wl::Suite::kSpec2006,
                                 wl::Suite::kMiBench};

class Fig5Matrix : public Workload {
 public:
  Fig5Matrix() {
    for (const Proxy& proxy : kProxies) {
      const wl::Workload* w = wl::find_workload(proxy.suite, proxy.name);
      SEALPK_CHECK_MSG(w != nullptr, "unknown proxy " << proxy.name);
      for (const Variant& v : kVariants) {
        fleet::JobSpec spec;
        spec.id = static_cast<u32>(specs_.size());
        spec.workload = w;
        spec.ss = v.ss;
        spec.perm_seal = v.perm_seal;
        spec.scale = w->bench_scale;
        specs_.push_back(spec);
        golden_.push_back(w->golden(spec.scale));
      }
    }
    results_.resize(specs_.size());
  }

  void setup(Tracer& t) override {
    cache_ = std::make_unique<fleet::ImageCache>();
    for (const fleet::JobSpec& spec : specs_) {
      fleet::ImageCache::ImagePtr image;
      {
        auto s = t.span("fleet.image_get");
        image = cache_->get(spec);
      }
      std::optional<sim::Machine> m;
      {
        auto s = t.span("sim.machine_new");
        m.emplace(spec.config);
      }
      auto s = t.span("sim.load");
      SEALPK_CHECK(m->load(*image) >= 0);
    }
    builds_ = cache_->builds();
  }

  size_t ops() const override { return specs_.size(); }

  OpResult run_op(Tracer& t, size_t i) override {
    auto op = t.op("bench.fig5_job", OpKind::kRound);
    const fleet::JobSpec& spec = specs_[i];
    if (i == 0) hits_ = 0;
    const u64 builds = cache_->builds();
    fleet::ImageCache::ImagePtr image;
    {
      auto s = t.span("fleet.image_get");
      image = cache_->get(spec);
    }
    if (cache_->builds() == builds) ++hits_;
    MachineRun run = run_image(t, spec.config, *image, spec.budget);
    fleet::JobResult& r = results_[i];
    r = job_result(t, spec, golden_[i], run);
    OpResult o;
    o.key = r.label;
    o.record = fleet::canonical_record(r) + "\t" + stats_record(r.stats);
    o.ops = 1;
    o.failed = r.ok ? 0 : 1;
    o.instructions = r.instructions;
    o.stats = r.stats;
    return o;
  }

  void headline(Metrics& out) const override {
    // Completed, checksum-verified jobs only: a failed job never enters a
    // geomean (it shows in failed_share instead).
    std::vector<fleet::JobResult> ok;
    for (const fleet::JobResult& r : results_) {
      if (r.ok) ok.push_back(r);
    }
    double log_ratio = 0.0;
    double log_rdwr = 0.0;
    bool defined = true;
    for (const wl::Suite suite : kSuites) {
      const double rdwr =
          fleet::gmean_overhead(ok, suite, ShadowStackKind::kSealPkRdWr);
      const double mprot =
          fleet::gmean_overhead(ok, suite, ShadowStackKind::kMprotect);
      if (rdwr <= 0.0 || mprot <= 0.0) {
        defined = false;
        break;
      }
      log_ratio += std::log(mprot / rdwr);
      log_rdwr += std::log(rdwr);
    }
    const double n = static_cast<double>(std::size(kSuites));
    out.push_back({"fig5_mprotect_speedup_x", "x",
                   defined ? std::exp(log_ratio / n) : 0.0});
    out.push_back({"fig5_sealpk_rdwr_overhead_pct", "%",
                   defined ? std::exp(log_rdwr / n) : 0.0});
  }

  void probe(Tracer& t, Probes& p) override {
    for (const fleet::JobSpec& spec : specs_) {
      auto op = t.op("bench.probe", OpKind::kProbe);
      // The cache's build, decomposed: each stage timed on its own, and the
      // result must be the image the cache holds.
      std::optional<isa::Program> prog;
      {
        auto s = t.span("workloads.build");
        prog.emplace(spec.workload->build(spec.scale));
      }
      if (spec.ss != ShadowStackKind::kNone) {
        passes::ShadowStackOptions opts;
        opts.kind = spec.ss;
        opts.perm_seal = spec.perm_seal;
        auto s = t.span("passes.instrument");
        passes::apply_shadow_stack(*prog, opts);
      }
      std::optional<isa::Image> image;
      {
        auto s = t.span("isa.link");
        image.emplace(prog->link());
      }
      p.check(same_image(*image, *cache_->get(spec)),
              "decomposed build differs from the cached image: " +
                  spec.label());
      probe_decode(t, *image);
      probe_machine_layers(t, spec.config, *image, spec.budget, p);
    }
  }

  std::vector<std::pair<std::string, std::string>> library_records() override {
    fleet::ImageCache cache;
    std::vector<std::pair<std::string, std::string>> out;
    for (const fleet::JobResult& r : fleet::run_jobs(specs_, cache)) {
      out.emplace_back(r.label, fleet::canonical_record(r));
    }
    return out;
  }

  u64 image_builds() const override { return builds_; }
  u64 image_cache_hits() const override { return hits_; }

 private:
  // The JobResult fleet::execute_job would fill for a kRun job.
  static fleet::JobResult job_result(Tracer& t, const fleet::JobSpec& spec,
                                     u64 golden, MachineRun& run) {
    fleet::JobResult r;
    r.id = spec.id;
    r.label = spec.label();
    r.workload = spec.workload;
    r.ss = spec.ss;
    r.perm_seal = spec.perm_seal;
    r.kind = spec.kind;
    if (run.pid < 0) {
      r.exit_code = sim::Machine::kNoExitCode;
      r.verdict = "load refused";
      return r;
    }
    sim::Machine& m = *run.machine;
    r.ran = true;
    r.completed = run.outcome.completed;
    r.exit_code = m.exit_code(run.pid);
    r.instructions = run.outcome.instructions;
    r.cycles = run.outcome.cycles;
    r.calls = m.hart().stats().calls;
    r.pages_mapped = m.kernel().process(run.pid).aspace->pages_mapped();
    r.reports = m.kernel().reports();
    r.stats = traced_stats(t, m);
    if (!r.completed) {
      r.verdict = "timeout: instruction budget exhausted";
    } else if (r.exit_code != 0) {
      r.verdict = "exit " + std::to_string(r.exit_code);
    } else if (r.reports.size() != 1 || r.reports[0] != golden) {
      r.verdict = "checksum mismatch vs golden model";
    } else {
      r.ok = true;
      r.verdict = "ok";
    }
    return r;
  }

  std::vector<fleet::JobSpec> specs_;
  std::vector<u64> golden_;
  std::unique_ptr<fleet::ImageCache> cache_;
  std::vector<fleet::JobResult> results_;
  u64 builds_ = 0;
  u64 hits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fig5_matrix() {
  return std::make_unique<Fig5Matrix>();
}

}  // namespace sealpk::perfbench
