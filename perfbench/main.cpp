// perfbench: host-speed benchmark of the simulator.
//
//   perfbench --workload <fig5_matrix|keychurn|vault_crashsweep> --seed <n>
//             --seconds <s> --trace <0|1> --reference <dir>
//             [--spans-out <file>]
//   perfbench --write-reference <dir>
//
// Untraced (--trace 0): set-up passes are timed (at least five of them),
// then rounds of the workload's ops run until --seconds would be exceeded;
// every op's record is checked against the committed reference. Host times
// are calibrated against a fixed kernel timed between ops (calibrate.h).
// The last stdout line is the result JSON with the end-to-end metrics.
// Traced (--trace 1): rounds alternate with and without span recording (the
// difference is the tracing overhead), then the layer probes run; the
// result carries the per-layer metrics. See README.md for the definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "calibrate.h"
#include "common/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace sealpk::perfbench {

namespace {

// Calibration kernel samples per timed phase (a set-up pass or a round).
constexpr size_t kPhaseSamples = 10;
// Set-up passes: at least kMinSetups and kSetupSeconds (a pass of the
// smaller workloads takes milliseconds, and more passes steady the median),
// at most kMaxSetups.
constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 2.0;
constexpr int kMaxSetups = 200;

constexpr const char* kWorkloads[] = {"fig5_matrix", "keychurn",
                                      "vault_crashsweep"};

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string spans_out;
  std::string write_reference;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --reference <dir> [--spans-out <file>]\n"
            << "       perfbench --write-reference <dir>\n";
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    usage("bad value for " + flag + ": '" + s + "'");
  }
  try {
    return std::stoull(s);
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": '" + s + "'");
  }
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--reference") {
      o.reference = v;
    } else if (flag == "--spans-out") {
      o.spans_out = v;
    } else if (flag == "--write-reference") {
      o.write_reference = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!o.write_reference.empty()) return o;
  if (!have_workload ||
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return o.workload == w; }) ==
          std::end(kWorkloads)) {
    usage("--workload must be one of fig5_matrix, keychurn, vault_crashsweep");
  }
  if (o.reference.empty()) usage("--reference is required");
  if (o.seconds < 1) usage("--seconds must be at least 1");
  return o;
}

// fig5_matrix's inputs are pinned by the proxies' golden models, so it has
// a single input set; the seed is recorded but not used.
bool seeded(const std::string& workload) { return workload != "fig5_matrix"; }

std::unique_ptr<Workload> make_workload(const std::string& name, u64 set) {
  if (name == "fig5_matrix") return make_fig5_matrix();
  if (name == "keychurn") return make_keychurn(set);
  return make_vault_crashsweep(set);
}

// --- host context ------------------------------------------------------------

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

bool optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string context_json(const Options& o, u64 set) {
  std::ostringstream os;
  os << "{\"context\": {\"workload\": \"" << o.workload
     << "\", \"seed\": " << o.seed << ", \"input_set\": ";
  if (seeded(o.workload)) {
    os << set;
  } else {
    os << "null";
  }
  os << ", \"seconds\": " << o.seconds << ", \"trace\": " << o.trace
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << json_escape(compiler())
     << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\", \"sanitized\": " << (sanitized() ? "true" : "false")
     << ", \"optimized\": " << (optimized() ? "true" : "false") << "}}";
  return os.str();
}

// --- reference ---------------------------------------------------------------

using Reference = std::map<std::string, std::string>;

bool load_reference(const std::string& path, Reference& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    out[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return !out.empty();
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

u64 peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<u64>(ru.ru_maxrss);
}

// Modelled-clock metrics of one round: a pure fold over deterministic
// counters, so every round (and the traced run) must agree bit for bit.
Metrics exact_metrics(const Workload& w, const std::vector<OpResult>& ops) {
  sim::MachineStats s;
  mpk::VkeyStats v;
  for (const OpResult& o : ops) {
    const sim::MachineStats& x = o.stats;
    s.instructions += x.instructions;
    s.cycles += x.cycles;
    s.wrpkr += x.wrpkr;
    s.rdpkr += x.rdpkr;
    s.dtlb.hits += x.dtlb.hits;
    s.dtlb.misses += x.dtlb.misses;
    s.itlb.hits += x.itlb.hits;
    s.itlb.misses += x.itlb.misses;
    s.seal.cam_misses += x.seal.cam_misses;
    s.cam_refills += x.cam_refills;
    s.syscalls += x.syscalls;
    s.context_switches += x.context_switches;
    s.pte_pages_updated += x.pte_pages_updated;
    s.checkpoints += x.checkpoints;
    v.evictions += o.vstats.evictions;
    v.pte_rekeys += o.vstats.pte_rekeys;
    v.tlb_flushes += o.vstats.tlb_flushes;
    v.revivals += o.vstats.revivals;
    v.mru_hits += o.vstats.mru_hits;
    v.sets += o.vstats.sets;
  }
  const auto count = [](u64 n) { return static_cast<double>(n); };
  Metrics m = {
      {"modelled_cycles", "cycles", count(s.cycles)},
      {"core.instructions", "count", count(s.instructions)},
      {"core.cycles", "cycles", count(s.cycles)},
      {"core.ipc", "ratio", s.ipc()},
      {"mem.dtlb_hit_ratio", "ratio", s.dtlb_hit_rate()},
      {"mem.itlb_hit_ratio", "ratio", s.itlb_hit_rate()},
      {"hw.wrpkr", "count", count(s.wrpkr)},
      {"hw.rdpkr", "count", count(s.rdpkr)},
      {"hw.cam_misses", "count", count(s.seal.cam_misses)},
      {"hw.cam_refills", "count", count(s.cam_refills)},
      {"os.syscalls", "count", count(s.syscalls)},
      {"os.context_switches", "count", count(s.context_switches)},
      {"os.pte_pages_updated", "count", count(s.pte_pages_updated)},
      {"mpk.evictions", "count", count(v.evictions)},
      {"mpk.pte_rekeys", "count", count(v.pte_rekeys)},
      {"mpk.tlb_flushes", "count", count(v.tlb_flushes)},
      {"mpk.revivals", "count", count(v.revivals)},
      {"mpk.mru_hit_ratio", "ratio", ratio(v.mru_hits, v.sets)},
      {"snapshot.checkpoints", "count", count(s.checkpoints)},
  };
  w.headline(m);
  return m;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + number(m[i].value) +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  return out + "}";
}

// The per-layer metrics every traced run prints, in order. A metric whose
// layer the workload does not exercise reads 0.
struct Declared {
  const char* name;
  const char* unit;
};
constexpr Declared kPerLayer[] = {
    {"failed_share", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"bench.self_pct", "%"},
    {"fleet.self_pct", "%"},
    {"workloads.self_pct", "%"},
    {"isa.self_pct", "%"},
    {"sim.self_pct", "%"},
    {"vault.self_pct", "%"},
    {"workloads.build_ms", "ms"},
    {"passes.instrument_ms", "ms"},
    {"isa.link_ms", "ms"},
    {"fleet.image_builds", "count"},
    {"fleet.image_cache_hits", "count"},
    {"isa.decode_ns", "ns"},
    {"sim.machine_new_ms", "ms"},
    {"sim.load_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.run_ns_per_instr", "ns"},
    {"mem.phys_read_ns", "ns"},
    {"mem.phys_write_ns", "ns"},
    {"mem.tlb_lookup_ns", "ns"},
    {"mem.walk_ns", "ns"},
    {"mem.materialised_pages", "count"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.blob_kb", "KB"},
    {"mpk.host_us_per_churn_op", "us"},
    {"vault.replay_us", "us"},
    {"obs.recorder_overhead_pct", "%"},
    {"obs.span_fold_ms", "ms"},
    {"core.instructions", "count"},
    {"core.cycles", "cycles"},
    {"core.ipc", "ratio"},
    {"mem.dtlb_hit_ratio", "ratio"},
    {"mem.itlb_hit_ratio", "ratio"},
    {"hw.wrpkr", "count"},
    {"hw.rdpkr", "count"},
    {"hw.cam_misses", "count"},
    {"hw.cam_refills", "count"},
    {"os.syscalls", "count"},
    {"os.context_switches", "count"},
    {"os.pte_pages_updated", "count"},
    {"mpk.evictions", "count"},
    {"mpk.pte_rekeys", "count"},
    {"mpk.tlb_flushes", "count"},
    {"mpk.revivals", "count"},
    {"mpk.mru_hit_ratio", "ratio"},
    {"snapshot.checkpoints", "count"},
    {"vault.resume_points", "count"},
    {"fig5_mprotect_speedup_x", "x"},
    {"fig5_sealpk_rdwr_overhead_pct", "%"},
    {"churn_per_sec", "1/s_50MHz"},
};
constexpr const char* kShareLayers[] = {"bench", "fleet", "workloads",
                                        "isa",   "sim",   "vault"};

// Span totals per name: calls, nanoseconds and counts.
struct SpanTotal {
  u64 calls = 0;
  u64 ns = 0;
  u64 count = 0;
};

struct SpanSummary {
  std::map<std::string, SpanTotal> by_name;
  std::map<std::string, u64> self_ns;  // per layer, set-up and round ops
  u64 self_total_ns = 0;
  u64 self_violations = 0;  // ops whose self times exceed their wall time
};

SpanSummary summarize(const Tracer& t) {
  SpanSummary out;
  const std::vector<SpanRecord>& spans = t.spans();
  std::vector<u64> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<u32, i64> op_self;  // per op: wall minus summed self times
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const u64 dur = s.end_ns - s.start_ns;
    SpanTotal& total = out.by_name[s.name];
    ++total.calls;
    total.ns += dur;
    total.count += s.count;
    // Children that overrun their parent leave it no self time; the
    // overrun then shows as self times summing past the op's wall time.
    const u64 self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    if (s.parent < 0) op_self[s.op] += static_cast<i64>(dur);
    op_self[s.op] -= static_cast<i64>(self);
    if (t.op_kind(s.op) != OpKind::kProbe) {
      out.self_ns[layer_of(s.name)] += self;
      out.self_total_ns += self;
    }
  }
  for (const auto& [op, slack] : op_self) {
    if (slack < 0) ++out.self_violations;
  }
  return out;
}

void write_spans(const std::string& path, const Tracer& t) {
  std::ofstream os(path);
  const std::vector<SpanRecord>& spans = t.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const OpKind kind = t.op_kind(s.op);
    os << "{\"id\": " << i << ", \"op\": " << s.op
       << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
       << "\", \"kind\": \""
       << (kind == OpKind::kSetup   ? "setup"
           : kind == OpKind::kRound ? "round"
                                    : "probe")
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"count\": " << s.count << "}\n";
  }
}

// --- the run ---------------------------------------------------------------

int write_reference(const std::string& dir) {
  for (const char* name : kWorkloads) {
    const std::string path = dir + "/" + name + ".ref";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 4;
    }
    const u64 sets = seeded(name) ? kInputSets : 1;
    for (u64 set = 0; set < sets; ++set) {
      std::unique_ptr<Workload> w = make_workload(name, set);
      Tracer off;
      w->setup(off);
      std::vector<OpResult> ops;
      for (size_t i = 0; i < w->ops(); ++i) ops.push_back(w->run_op(off, i));
      const auto lib = w->library_records();
      if (lib.size() != ops.size()) {
        std::cerr << "perfbench: " << name << ": op count differs from the "
                  << "library runner\n";
        return 1;
      }
      for (size_t i = 0; i < ops.size(); ++i) {
        const std::string canonical =
            ops[i].record.substr(0, ops[i].record.find('\t'));
        if (ops[i].key != lib[i].first || canonical != lib[i].second ||
            ops[i].failed != 0) {
          std::cerr << "perfbench: " << name << " " << ops[i].key
                    << ": benchmark path disagrees with the library runner\n"
                    << "  bench:   " << canonical << "\n"
                    << "  library: " << lib[i].second << "\n";
          return 1;
        }
        os << ops[i].key << "\t" << ops[i].record << "\n";
      }
      std::cerr << "perfbench: " << name << " set " << set << ": "
                << ops.size() << " records\n";
    }
  }
  return 0;
}

int run(const Options& o) {
  const u64 set = seeded(o.workload) ? o.seed % kInputSets : 0;
  std::cout << context_json(o, set) << std::endl;
  if (!optimized() || sanitized()) {
    std::cerr << "perfbench: refusing to measure an "
              << (optimized() ? "sanitized" : "unoptimised")
              << " build; configure with CMAKE_BUILD_TYPE=RelWithDebInfo "
                 "(or Release) and no sanitizers\n";
    return 3;
  }
  Reference ref;
  const std::string ref_path = o.reference + "/" + o.workload + ".ref";
  if (!load_reference(ref_path, ref)) {
    std::cerr << "perfbench: cannot read reference " << ref_path << "\n";
    return 4;
  }

  std::unique_ptr<Workload> w = make_workload(o.workload, set);
  Tracer t;
  t.set_on(o.trace);
  Calibrator cal;
  std::vector<double> cal_s;  // every kernel sample of the run
  // Kernel samples in `gaps` gaps, at least kPhaseSamples per phase; the
  // returned factor turns the phase's seconds into reference seconds.
  std::vector<double> phase;
  const auto gap = [&](size_t gaps) {
    for (size_t k = 0; k < (kPhaseSamples + gaps - 1) / gaps; ++k) {
      phase.push_back(cal.sample());
      cal_s.push_back(phase.back());
    }
  };
  const auto end_phase = [&] {
    const double factor = Calibrator::kReferenceS / median(phase);
    phase.clear();
    return factor;
  };

  std::vector<double> setup_s, setup_raw_s;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0;
       i < kMinSetups ||
       (i < kMaxSetups && seconds_since(setup_start) < kSetupSeconds);
       ++i) {
    gap(2);
    const Clock::time_point t0 = Clock::now();
    {
      auto op = t.op("bench.setup", OpKind::kSetup);
      w->setup(t);
    }
    setup_raw_s.push_back(seconds_since(t0));
    gap(2);
    setup_s.push_back(setup_raw_s.back() * end_phase());
  }
  const u64 image_builds = w->image_builds();

  u64 attempted = 0;
  u64 failed = 0;
  int mismatches_shown = 0;
  std::vector<double> round_wall_s, untraced_s, traced_s;
  std::vector<double> ops_rate, mips, raw_rate;
  Metrics exact;
  bool exact_stable = true;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    // Traced and untraced rounds in ABBA order, so drift and a cold first
    // round fall on both sides.
    const bool traced = o.trace && (i % 4 == 1 || i % 4 == 2);
    t.set_on(traced);
    const Clock::time_point round_start = Clock::now();
    const size_t n = w->ops();
    std::vector<OpResult> ops;
    double dt = 0.0;
    gap(n + 1);
    for (size_t k = 0; k < n; ++k) {
      const Clock::time_point t0 = Clock::now();
      ops.push_back(w->run_op(t, k));
      dt += seconds_since(t0);
      gap(n + 1);
    }
    const double cal_dt = dt * end_phase();
    u64 round_ops = 0;
    u64 round_instr = 0;
    for (const OpResult& op : ops) {
      attempted += op.ops;
      round_ops += op.ops;
      round_instr += op.instructions;
      const auto it = ref.find(op.key);
      const bool matches = it != ref.end() && it->second == op.record;
      if (!matches && mismatches_shown++ < 3) {
        std::cerr << "perfbench: " << op.key << " differs from the reference\n"
                  << "  expected: "
                  << (it == ref.end() ? "(no record)" : it->second) << "\n"
                  << "  got:      " << op.record << "\n";
      }
      failed += matches ? op.failed : op.ops;
    }
    const Metrics m = exact_metrics(*w, ops);
    if (exact.empty()) {
      exact = m;
    } else {
      for (size_t k = 0; k < m.size(); ++k) {
        exact_stable =
            exact_stable && number(m[k].value) == number(exact[k].value);
      }
    }
    std::cerr << "perfbench: round " << i << (traced ? " (traced)" : "")
              << ": " << round_ops << " ops in " << dt << " s ("
              << cal_dt << " s calibrated)\n";
    round_wall_s.push_back(seconds_since(round_start));
    if (traced) {
      traced_s.push_back(cal_dt);
    } else {
      untraced_s.push_back(cal_dt);
      ops_rate.push_back(static_cast<double>(round_ops) / cal_dt);
      mips.push_back(static_cast<double>(round_instr) / cal_dt / 1e6);
      raw_rate.push_back(static_cast<double>(round_ops) / dt);
    }
    const size_t min_rounds = o.trace ? 2 : 1;
    if (i + 1 >= min_rounds &&
        seconds_since(start) + median(round_wall_s) > o.seconds) {
      break;
    }
  }
  if (!exact_stable) {
    std::cerr << "perfbench: modelled metrics differ between rounds\n";
  }

  Metrics result;
  Probes probes;
  if (!o.trace) {
    result = {
        {"ops_per_s", "1/s", median(ops_rate)},
        {"host_mips", "MIPS", median(mips)},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MB", static_cast<double>(peak_rss_kb()) / 1024.0},
        {"modelled_cycles", "cycles", exact.front().value},
    };
    // Every other metric of the run, by name and unit, ahead of the result.
    Metrics info = exact;
    info.push_back({"failed_share", "ratio", ratio(failed, attempted)});
    info.push_back({"raw_ops_per_s", "1/s", median(raw_rate)});
    info.push_back({"raw_setup_s", "s", median(setup_raw_s)});
    info.push_back({"calibration_ms", "ms", 1e3 * median(cal_s)});
    std::cout << "{\"exact\": " << metrics_json(info) << "}" << std::endl;
  } else {
    t.set_on(true);
    w->probe(t, probes);
    const SpanSummary sum = summarize(t);
    probes.check(sum.self_violations == 0,
                 "an op's self times exceed its wall time");
    std::map<std::string, double> v;
    for (const Metric& m : exact) v[m.name] = m.value;
    const auto per_call = [&](const char* name, double scale) {
      const auto it = sum.by_name.find(name);
      return it == sum.by_name.end() || it->second.calls == 0
                 ? 0.0
                 : static_cast<double>(it->second.ns) / scale /
                       static_cast<double>(it->second.calls);
    };
    const auto per_count = [&](const char* name, double scale) {
      const auto it = sum.by_name.find(name);
      return it == sum.by_name.end() || it->second.count == 0
                 ? 0.0
                 : static_cast<double>(it->second.ns) / scale /
                       static_cast<double>(it->second.count);
    };
    v["trace.overhead_pct"] =
        100.0 * (median(traced_s) / median(untraced_s) - 1.0);
    v["trace.spans"] = static_cast<double>(t.spans().size());
    for (const char* layer : kShareLayers) {
      const auto it = sum.self_ns.find(layer);
      v[std::string(layer) + ".self_pct"] =
          it == sum.self_ns.end()
              ? 0.0
              : 100.0 * ratio(it->second, sum.self_total_ns);
    }
    v["workloads.build_ms"] = per_call("workloads.build", 1e6);
    v["passes.instrument_ms"] = per_call("passes.instrument", 1e6);
    v["isa.link_ms"] = per_call("isa.link", 1e6);
    v["fleet.image_builds"] = static_cast<double>(image_builds);
    v["fleet.image_cache_hits"] = static_cast<double>(w->image_cache_hits());
    v["isa.decode_ns"] = per_count("isa.decode", 1.0);
    v["sim.machine_new_ms"] = per_call("sim.machine_new", 1e6);
    v["sim.load_ms"] = per_call("sim.load", 1e6);
    v["sim.run_ms"] = per_call("sim.run", 1e6);
    v["sim.run_ns_per_instr"] = per_count("sim.run", 1.0);
    v["mem.phys_read_ns"] = per_count("mem.phys_read", 1.0);
    v["mem.phys_write_ns"] = per_count("mem.phys_write", 1.0);
    v["mem.tlb_lookup_ns"] = per_count("mem.tlb_lookup", 1.0);
    v["mem.walk_ns"] = per_count("mem.walk", 1.0);
    v["mem.materialised_pages"] =
        static_cast<double>(probes.materialised_pages);
    v["snapshot.save_ms"] = per_call("snapshot.save", 1e6);
    v["snapshot.restore_ms"] = per_call("snapshot.restore", 1e6);
    v["snapshot.blob_kb"] =
        probes.blobs == 0 ? 0.0
                          : static_cast<double>(probes.blob_bytes) / 1024.0 /
                                static_cast<double>(probes.blobs);
    v["mpk.host_us_per_churn_op"] = per_count("bench.keychurn_cell", 1e3);
    v["vault.replay_us"] = per_call("vault.replay", 1e3);
    v["obs.recorder_overhead_pct"] =
        probes.recorder_off_s == 0.0
            ? 0.0
            : 100.0 * (probes.recorder_on_s / probes.recorder_off_s - 1.0);
    v["obs.span_fold_ms"] = per_call("obs.span_fold", 1e6);
    attempted += probes.checks;
    failed += probes.failures.size();
    for (const std::string& f : probes.failures) {
      std::cerr << "perfbench: probe check failed: " << f << "\n";
    }
    v["failed_share"] = ratio(failed, attempted);
    for (const Declared& d : kPerLayer) {
      result.push_back({d.name, d.unit, v[d.name]});
    }
    if (!o.spans_out.empty()) write_spans(o.spans_out, t);
  }

  const bool correct = failed == 0 && exact_stable;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(result) << "}" << std::endl;
  return 0;
}

}  // namespace

}  // namespace sealpk::perfbench

int main(int argc, char** argv) {
  using namespace sealpk::perfbench;
  try {
    const Options o = parse(argc, argv);
    if (!o.write_reference.empty()) return write_reference(o.write_reference);
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
