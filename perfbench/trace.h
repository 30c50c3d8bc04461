// In-memory span recorder for the perfbench traced run.
//
// One span per call into a layer's public function, recorded from the
// benchmark's own code (the simulator itself carries no host-time
// instrumentation). Spans of one benchmark operation share an op id; each
// span names its parent, so a layer's self time is its duration minus the
// part covered by its children. A span may carry a count (instructions,
// pages, words...) recorded at the same boundary, so per-unit costs are
// measured where the work happens. Spans stay in memory until the run ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/check.h"

namespace sealpk::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// What an op was doing, so self-time shares can leave out the traced run's
// own layer probes.
enum class OpKind : u8 { kSetup, kRound, kProbe };

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", a string literal
  u32 op = 0;
  i32 parent = -1;  // index into spans(), -1 for an op's root
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 count = 0;
};

class Tracer {
 public:
  // RAII span; inert when the tracer is off (no clock reads).
  class Scope {
   public:
    Scope(Tracer* tracer, i32 index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ >= 0) tracer_->close(index_);
    }
    void count(u64 n) {
      if (index_ >= 0) tracer_->spans_[static_cast<size_t>(index_)].count += n;
    }

   private:
    Tracer* tracer_;
    i32 index_;
  };

  void set_on(bool on) { on_ = on; }

  // Opens the root span of a new op (ops do not nest).
  Scope op(const char* name, OpKind kind) {
    if (!on_) return Scope(this, -1);
    SEALPK_CHECK(stack_.empty());
    kinds_.push_back(kind);
    return Scope(this, open(name, static_cast<u32>(kinds_.size() - 1)));
  }
  // Opens a child of the innermost open span (of the current op).
  Scope span(const char* name) {
    if (!on_ || stack_.empty()) return Scope(this, -1);
    const SpanRecord& parent = spans_[static_cast<size_t>(stack_.back())];
    return Scope(this, open(name, parent.op));
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  OpKind op_kind(u32 op) const { return kinds_[op]; }

 private:
  u64 now_ns() const {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }
  i32 open(const char* name, u32 op) {
    SpanRecord s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<i32>(spans_.size() - 1));
    return stack_.back();
  }
  void close(i32 index) {
    spans_[static_cast<size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<i32> stack_;
  std::vector<OpKind> kinds_;
};

// "<layer>" of a "<layer>.<call>" span name.
inline std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace sealpk::perfbench
