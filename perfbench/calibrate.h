// Host-speed calibration.
//
// The box this benchmark runs on is shared: its speed drifts by tens of
// percent over tens of seconds as other tenants load the machine, and the
// simulator slows with it. A fixed kernel — hash-map probes into a small
// table plus random reads over a table the size of a large guest's page
// set, the access patterns that dominate the interpreter — is timed between
// the ops of every round. Dividing a round's time by the kernel's median
// time in it (times the kernel's time at the reference speed) cancels the
// drift, so a host-time metric reads in seconds of a reference-speed host.
// The kernel is part of the benchmark and must not change between the
// commits compared.
#pragma once

#include <unordered_map>
#include <vector>

#include "trace.h"

namespace sealpk::perfbench {

class Calibrator {
 public:
  // One kernel run at the reference speed: the median on the 4-core Xeon
  // VM the benchmark was defined on (gcc 12, RelWithDebInfo).
  static constexpr double kReferenceS = 1.3e-3;

  Calibrator() : table_(kTableWords) {
    for (u64 k = 0; k < kMapKeys; ++k) map_[k * kSpread] = k;
    for (u64 i = 0; i < kTableWords; ++i) table_[i] = i * kSpread;
  }

  // One kernel run, in seconds, after an untimed run that brings the
  // kernel's tables back into cache: what the op before evicted must not
  // count, or a change to the op's footprint would move the calibration.
  double sample() {
    run();
    const Clock::time_point t0 = Clock::now();
    run();
    return seconds_since(t0);
  }

 private:
  static constexpr u64 kMapKeys = 4096;
  static constexpr u64 kTableWords = u64{1} << 19;  // 4 MiB
  static constexpr u64 kSpread = 2654435761u;
  static constexpr int kSteps = 100000;

  void run() {
    u64 x = state_;
    u64 acc = 0;
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += map_.find((x % kMapKeys) * kSpread)->second;
      if (acc & 1) acc += 3;
      acc += table_[x & (kTableWords - 1)]++;
    }
    state_ = x ^ acc;
  }

  std::unordered_map<u64, u64> map_;
  std::vector<u64> table_;
  u64 state_ = 0x9E3779B97F4A7C15ULL;
};

}  // namespace sealpk::perfbench
