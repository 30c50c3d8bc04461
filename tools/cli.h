// cli.h — the argument parser and checked file I/O shared by the sealpk-*
// tools.
//
// Arguments are switches (--name), valued flags (--name=<value>) and
// positional words. Values are strict:
//   - integers are decimal digits only: no 0x prefix, no exponent, no sign
//     (a leading '-' only for signed fields), nothing trailing, and the
//     number must fit the field it lands in;
//   - reals must parse in full and be finite;
//   - paths, names and list items must be non-empty.
// An unknown argument or a malformed value prints one stderr line naming
// it and exits 2, the usage status of every tool. So does a file that
// cannot be read or written.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "fault/fault.h"
#include "passes/shadow_stack.h"

namespace sealpk::cli {

// --- value parsers: on success set *out and return true -------------------

template <std::integral T>
bool parse(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T v{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

inline bool parse(std::string_view text, double* out) {
  const char* end = text.data() + text.size();
  double v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

inline bool parse(std::string_view text, std::string* out) {
  if (text.empty()) return false;
  *out = text;
  return true;
}

// Comma-separated list; every item must parse (so none may be empty).
template <class T>
bool parse(std::string_view text, std::vector<T>* out) {
  std::vector<T> items;
  for (;;) {
    const size_t comma = text.find(',');
    T item{};
    if (!parse(text.substr(0, comma), &item)) return false;
    items.push_back(std::move(item));
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  *out = std::move(items);
  return true;
}

struct ShadowStackName {
  const char* name;
  passes::ShadowStackKind kind;
};

// The --ss= spellings, one per instrumentation variant.
inline constexpr ShadowStackName kShadowStackNames[] = {
    {"none", passes::ShadowStackKind::kNone},
    {"inline", passes::ShadowStackKind::kInline},
    {"func", passes::ShadowStackKind::kFunc},
    {"sealpk-wr", passes::ShadowStackKind::kSealPkWr},
    {"sealpk-rdwr", passes::ShadowStackKind::kSealPkRdWr},
    {"mprotect", passes::ShadowStackKind::kMprotect},
};

inline bool parse_ss_kind(std::string_view text,
                          passes::ShadowStackKind* out) {
  for (const ShadowStackName& e : kShadowStackNames) {
    if (text == e.name) {
      *out = e.kind;
      return true;
    }
  }
  return false;
}

struct FaultKindName {
  const char* name;
  u32 mask;
};

// The --kinds= spellings; "all" is the default six-kind mask.
inline constexpr FaultKindName kFaultKindNames[] = {
    {"pkr", fault::kind_bit(fault::FaultKind::kPkrBitFlip)},
    {"tlb", fault::kind_bit(fault::FaultKind::kTlbCorrupt)},
    {"pte", fault::kind_bit(fault::FaultKind::kPteCorrupt)},
    {"cam-drop", fault::kind_bit(fault::FaultKind::kCamDropRefill)},
    {"cam-dup", fault::kind_bit(fault::FaultKind::kCamDupRefill)},
    {"trap", fault::kind_bit(fault::FaultKind::kSpuriousTrap)},
    {"all", fault::kAllFaultKinds},
};

// Comma-separated fault-kind list, OR'd into a kind mask.
inline bool parse_fault_kinds(std::string_view text, u32* out) {
  std::vector<std::string> items;
  if (!parse(text, &items)) return false;
  u32 mask = 0;
  for (const std::string& item : items) {
    const FaultKindName* hit = nullptr;
    for (const FaultKindName& e : kFaultKindNames) {
      if (item == e.name) hit = &e;
    }
    if (hit == nullptr) return false;
    mask |= hit->mask;
  }
  *out = mask;
  return true;
}

// --- the argument loop ----------------------------------------------------

// Walks argv one argument at a time. Each matcher returns true when it
// consumed the current argument; a tool tries its matchers in turn and
// calls reject() when none applies:
//
//   for (cli::Args a("sealpk-x", argc, argv); a.next();) {
//     if (a.flag("--seal", &seal) || a.value("--threads", &threads)) continue;
//     if (a.positional()) names.push_back(a.arg());
//     else a.reject();
//   }
//
// A tool with subcommands keeps `a` past the loop and calls only() with the
// flags the chosen subcommand reads.
class Args {
 public:
  Args(const char* tool, int argc, char** argv, int first = 1)
      : tool_(tool), argc_(argc), argv_(argv), next_(first) {}

  bool next() {
    if (next_ >= argc_) return false;
    arg_ = argv_[next_++];
    return true;
  }

  const std::string& arg() const { return arg_; }
  bool is(std::string_view word) const { return arg_ == word; }
  bool positional() const { return arg_.empty() || arg_[0] != '-'; }

  bool flag(std::string_view name, bool* on) {
    if (!is(name)) return false;
    *on = true;
    seen_.push_back({std::string(name), arg_});
    return true;
  }

  // --name=<value>, read by `parse_fn(text, out)`. A bare --name or a value
  // the parser refuses exits 2.
  template <class T, class Parse>
  bool value(std::string_view name, T* out, Parse parse_fn) {
    if (std::string_view(arg_).substr(0, name.size()) != name) return false;
    std::string_view rest = std::string_view(arg_).substr(name.size());
    if (rest.empty()) fail("missing value for " + std::string(name));
    if (rest[0] != '=') return false;  // a longer name sharing the prefix
    rest.remove_prefix(1);
    if (!parse_fn(rest, out)) {
      fail("bad value for " + std::string(name) + ": '" + std::string(rest) +
           "'");
    }
    seen_.push_back({std::string(name) + "=", arg_});
    return true;
  }

  template <class T>
  bool value(std::string_view name, T* out) {
    return value(name, out,
                 [](std::string_view text, T* v) { return parse(text, v); });
  }

  // The --json[=<path>] pair: bare --json selects stdout, --json=<path> a
  // file; either sets *on.
  bool json(bool* on, std::string* path) {
    if (!flag("--json", on) && !value("--json", path)) return false;
    *on = true;
    return true;
  }

  [[noreturn]] void reject() const {
    fail("unknown argument '" + arg_ + "'");
  }

  // Exits 2 unless every flag matched so far is one that `command` takes,
  // spelled "--x" for a switch and "--x=" for a valued flag.
  void only(std::string_view command,
            std::initializer_list<std::string_view> takes) const {
    for (const auto& [spelling, arg] : seen_) {
      if (std::find(takes.begin(), takes.end(), spelling) == takes.end()) {
        fail(std::string(command) + " does not take '" + arg + "'");
      }
    }
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", tool_, message.c_str());
    std::exit(2);
  }

  const char* tool_;
  int argc_;
  char** argv_;
  int next_;
  std::string arg_;
  // Every matched flag: its spelling ("--x" or "--x=") and the argument.
  std::vector<std::pair<std::string, std::string>> seen_;
};

// --chaos-seed/--chaos-rate/--cam-rate/--max-faults into a fault plan. Each
// tool sets its own defaults first. A seed or rate flag also arms the plan,
// which is how sealpk-snapshot turns injection on; --max-faults only caps it.
inline bool fault_plan_flag(Args& a, fault::FaultPlan* plan) {
  if (a.value("--chaos-seed", &plan->seed) ||
      a.value("--chaos-rate", &plan->rate) ||
      a.value("--cam-rate", &plan->cam_rate)) {
    plan->enabled = true;
    return true;
  }
  return a.value("--max-faults", &plan->max_faults);
}

// --- files ----------------------------------------------------------------

// Replaces `path` with `bytes`, then flushes and checks the stream: a file
// that cannot be opened or fully written prints "cannot write <path>" and
// exits 2.
inline void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

inline void write_file(const std::string& path, const std::vector<u8>& bytes) {
  write_file(path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                    bytes.size()));
}

// Output of a --json[=<path>] pair: stdout when `path` is empty.
inline void emit(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    write_file(path, text);
  }
}

// The whole of `path`; one that cannot be opened prints "cannot read
// <path>" and exits 2.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace sealpk::cli
