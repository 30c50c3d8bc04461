// Unit tests for tools/cli.h: the strict value parsers, the argument loop
// and the checked file I/O shared by the sealpk-* tools.
#include "cli.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace {

using namespace sealpk;

// A mutable argv for cli::Args.
class Argv {
 public:
  Argv(std::initializer_list<const char*> args)
      : store_(args.begin(), args.end()) {
    for (std::string& s : store_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> store_;
  std::vector<char*> ptrs_;
};

TEST(CliParse, IntegersAreDecimalDigitsOnly) {
  struct Case {
    const char* text;
    bool ok;
    u64 value;
  };
  const Case cases[] = {
      {"0", true, 0},
      {"42", true, 42},
      {"010", true, 10},
      {"18446744073709551615", true, std::numeric_limits<u64>::max()},
      {"18446744073709551616", false, 0},
      {"99999999999999999999", false, 0},
      {"12abc", false, 0},
      {"xyz", false, 0},
      {"1e9", false, 0},
      {"5e4", false, 0},
      {"0x", false, 0},
      {"0x10", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {"", false, 0},
      {" 1", false, 0},
      {"1 ", false, 0},
  };
  for (const Case& c : cases) {
    u64 v = 7;
    EXPECT_EQ(cli::parse(c.text, &v), c.ok) << "'" << c.text << "'";
    // A rejected value leaves the field untouched.
    EXPECT_EQ(v, c.ok ? c.value : 7u) << "'" << c.text << "'";
  }
}

TEST(CliParse, IntegersMustFitTheirField) {
  u32 v32 = 0;
  EXPECT_TRUE(cli::parse("4294967295", &v32));
  EXPECT_EQ(v32, 4294967295u);
  EXPECT_FALSE(cli::parse("4294967296", &v32));
  EXPECT_FALSE(cli::parse("4294967297", &v32));

  unsigned threads = 0;
  EXPECT_TRUE(cli::parse("4294967295", &threads));
  EXPECT_FALSE(cli::parse("4294967296", &threads));

  // Signed fields (--expect-exit) take a leading '-' and nothing else.
  i64 code = 0;
  EXPECT_TRUE(cli::parse("-120", &code));
  EXPECT_EQ(code, -120);
  EXPECT_FALSE(cli::parse("+1", &code));
  EXPECT_FALSE(cli::parse("-", &code));
  EXPECT_FALSE(cli::parse("9223372036854775808", &code));
}

TEST(CliParse, RealsParseInFullAndAreFinite) {
  for (const auto& [text, value] :
       {std::pair<const char*, double>{"2e-5", 2e-5}, {"1e-4", 1e-4},
        {"0.3", 0.3}, {"5e-5", 5e-5}, {"1", 1.0}}) {
    double v = -1;
    EXPECT_TRUE(cli::parse(text, &v)) << text;
    EXPECT_EQ(v, value) << text;
  }
  for (const char* bad :
       {"nan", "inf", "-inf", "1e", "1e999", "", "0.3x", " 1", "0x1p3"}) {
    double v = -1;
    EXPECT_FALSE(cli::parse(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, -1) << "'" << bad << "'";
  }
}

TEST(CliParse, PathsAreNonEmpty) {
  std::string path = "keep";
  EXPECT_FALSE(cli::parse("", &path));
  EXPECT_EQ(path, "keep");
  EXPECT_TRUE(cli::parse("out.json", &path));
  EXPECT_EQ(path, "out.json");
}

TEST(CliParse, ListsRejectEmptyItems) {
  std::vector<std::string> items;
  EXPECT_TRUE(cli::parse("none,sealpk-wr,sealed", &items));
  EXPECT_EQ(items, (std::vector<std::string>{"none", "sealpk-wr", "sealed"}));
  EXPECT_TRUE(cli::parse("MiBench/*", &items));
  EXPECT_EQ(items, std::vector<std::string>{"MiBench/*"});
  for (const char* bad : {"", ",", "a,", ",a", "a,,b"}) {
    EXPECT_FALSE(cli::parse(bad, &items)) << "'" << bad << "'";
  }

  std::vector<u64> scales;
  EXPECT_TRUE(cli::parse("192,640", &scales));
  EXPECT_EQ(scales, (std::vector<u64>{192, 640}));
  for (const char* bad : {"192,,640", "192,", "192,x", "0x10", "1e3"}) {
    EXPECT_FALSE(cli::parse(bad, &scales)) << "'" << bad << "'";
  }
  EXPECT_EQ(scales, (std::vector<u64>{192, 640}));
}

TEST(CliNames, ShadowStackSpellingsRoundTrip) {
  // Every instrumentation variant has exactly one spelling, and each
  // spelling parses back to its variant.
  EXPECT_EQ(std::size(cli::kShadowStackNames), 6u);
  for (const cli::ShadowStackName& e : cli::kShadowStackNames) {
    passes::ShadowStackKind kind = passes::ShadowStackKind::kNone;
    EXPECT_TRUE(cli::parse_ss_kind(e.name, &kind)) << e.name;
    EXPECT_EQ(kind, e.kind) << e.name;
    int spellings = 0;
    for (const cli::ShadowStackName& other : cli::kShadowStackNames) {
      spellings += other.kind == e.kind ? 1 : 0;
    }
    EXPECT_EQ(spellings, 1) << e.name;
  }
  passes::ShadowStackKind kind = passes::ShadowStackKind::kFunc;
  for (const char* bad : {"", "SealPK-WR", "sealpk", "none,func"}) {
    EXPECT_FALSE(cli::parse_ss_kind(bad, &kind)) << "'" << bad << "'";
  }
  EXPECT_EQ(kind, passes::ShadowStackKind::kFunc);
}

TEST(CliNames, FaultKindSpellingsRoundTrip) {
  u32 union_of_single_kinds = 0;
  for (const cli::FaultKindName& e : cli::kFaultKindNames) {
    u32 mask = 0;
    EXPECT_TRUE(cli::parse_fault_kinds(e.name, &mask)) << e.name;
    EXPECT_EQ(mask, e.mask) << e.name;
    int spellings = 0;
    for (const cli::FaultKindName& other : cli::kFaultKindNames) {
      spellings += other.mask == e.mask ? 1 : 0;
    }
    EXPECT_EQ(spellings, 1) << e.name;
    if (std::string(e.name) != "all") union_of_single_kinds |= e.mask;
  }
  EXPECT_EQ(union_of_single_kinds, fault::kAllFaultKinds);

  u32 mask = 0;
  EXPECT_TRUE(cli::parse_fault_kinds("pkr,cam-dup", &mask));
  EXPECT_EQ(mask, fault::kind_bit(fault::FaultKind::kPkrBitFlip) |
                      fault::kind_bit(fault::FaultKind::kCamDupRefill));
  for (const char* bad : {"", "pkr,,tlb", "pkr,", "bogus", "pkr-bit-flip"}) {
    u32 keep = 5;
    EXPECT_FALSE(cli::parse_fault_kinds(bad, &keep)) << "'" << bad << "'";
    EXPECT_EQ(keep, 5u);
  }
}

TEST(CliArgs, JsonFlagForms) {
  Argv av{"tool", "--json", "--json=out.json", "--jsonx"};
  cli::Args a("tool", av.argc(), av.argv());
  bool json = false;
  std::string path;

  ASSERT_TRUE(a.next());
  EXPECT_TRUE(a.json(&json, &path));
  EXPECT_TRUE(json);
  EXPECT_EQ(path, "");

  json = false;
  ASSERT_TRUE(a.next());
  EXPECT_TRUE(a.json(&json, &path));
  EXPECT_TRUE(json);
  EXPECT_EQ(path, "out.json");

  json = false;
  ASSERT_TRUE(a.next());
  EXPECT_FALSE(a.json(&json, &path));
  EXPECT_FALSE(json);
  EXPECT_FALSE(a.next());
}

TEST(CliArgs, MatchersConsumeOnlyTheirOwnFlag) {
  Argv av{"tool", "--chaos", "--chaos-seed=3", "qsort", "--max-faults=4"};
  cli::Args a("tool", av.argc(), av.argv());
  bool chaos = false;
  u64 seed = 0;
  ASSERT_TRUE(a.next());
  EXPECT_FALSE(a.value("--chaos-seed", &seed));
  EXPECT_TRUE(a.flag("--chaos", &chaos));
  ASSERT_TRUE(a.next());
  EXPECT_FALSE(a.flag("--chaos", &chaos));
  EXPECT_TRUE(a.value("--chaos-seed", &seed));
  EXPECT_EQ(seed, 3u);
  ASSERT_TRUE(a.next());
  EXPECT_TRUE(a.positional());
  EXPECT_EQ(a.arg(), "qsort");

  // --max-faults caps the plan without arming it; a seed or rate arms it.
  fault::FaultPlan plan;
  ASSERT_TRUE(a.next());
  EXPECT_TRUE(cli::fault_plan_flag(a, &plan));
  EXPECT_EQ(plan.max_faults, 4u);
  EXPECT_FALSE(plan.enabled);
  Argv rate{"tool", "--chaos-rate=1e-4"};
  cli::Args b("tool", rate.argc(), rate.argv());
  ASSERT_TRUE(b.next());
  EXPECT_TRUE(cli::fault_plan_flag(b, &plan));
  EXPECT_TRUE(plan.enabled);
  EXPECT_EQ(plan.rate, 1e-4);
}

// Runs one argument through `match` in a child; the child must exit 2 with
// the given diagnostic.
template <class Match>
void expect_usage_exit(const char* arg, Match match, const std::string& diag) {
  const auto run = [&] {
    Argv av{"sealpk-x", arg};
    cli::Args a("sealpk-x", av.argc(), av.argv());
    a.next();
    match(a);
  };
  EXPECT_EXIT(run(), ::testing::ExitedWithCode(2), diag);
}

TEST(CliArgsDeathTest, MalformedArgumentsExitTwoNamingFlagAndValue) {
  unsigned threads = 0;
  std::string path;
  bool json = false;
  const auto threads_flag = [&](cli::Args& a) {
    a.value("--threads", &threads);
  };
  expect_usage_exit("--threads=two", threads_flag,
                    "^sealpk-x: bad value for --threads: 'two'\n$");
  expect_usage_exit("--threads=4294967296", threads_flag,
                    "bad value for --threads: '4294967296'");
  expect_usage_exit("--threads", threads_flag,
                    "^sealpk-x: missing value for --threads\n$");
  expect_usage_exit(
      "--json=", [&](cli::Args& a) { a.json(&json, &path); },
      "^sealpk-x: bad value for --json: ''\n$");
  expect_usage_exit(
      "--bogus", [](cli::Args& a) { a.reject(); },
      "^sealpk-x: unknown argument '--bogus'\n$");
}

TEST(CliFiles, WriteThenReadRoundTrips) {
  const std::string path = ::testing::TempDir() + "cli_round_trip.bin";
  const std::string bytes("line one\n\0binary tail", 21);
  cli::write_file(path, bytes);
  EXPECT_EQ(cli::read_file(path), bytes);
  cli::write_file(path, std::vector<u8>{1, 2, 3});
  EXPECT_EQ(cli::read_file(path), std::string("\x01\x02\x03"));
}

TEST(CliFilesDeathTest, FailedWritesAndReadsExitTwo) {
  // /dev/full accepts the open and fails the flush.
  EXPECT_EXIT(cli::write_file("/dev/full", std::string(100, 'x')),
              ::testing::ExitedWithCode(2), "^cannot write /dev/full\n$");
  EXPECT_EXIT(cli::write_file("/nonexistent-dir/out.json", "x"),
              ::testing::ExitedWithCode(2),
              "cannot write /nonexistent-dir/out.json");
  EXPECT_EXIT(cli::read_file("/nonexistent-dir/in.json"),
              ::testing::ExitedWithCode(2),
              "cannot read /nonexistent-dir/in.json");
}

}  // namespace
