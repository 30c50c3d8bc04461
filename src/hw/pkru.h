// PKRU — the Intel MPK baseline register (paper §II-A).
//
// One 32-bit register per logical core holding 2 bits per pkey for 16 keys:
// bit 2i = AD (access disable), bit 2i+1 = WD (write disable) — Intel SDM
// encoding. WRPKRU replaces the whole register in one shot; there is no
// sealing, which is exactly the attack surface SealPK's permission sealing
// closes.
#pragma once

#include "common/bits.h"
#include "common/check.h"

namespace sealpk::hw {

constexpr unsigned kMpkNumPkeys = 16;

class Pkru {
 public:
  u32 value() const { return value_; }
  void set(u32 v) { value_ = v; }

  bool access_disabled(u32 pkey) const {
    SEALPK_CHECK(pkey < kMpkNumPkeys);
    return bit(value_, 2 * pkey) != 0;
  }

  bool write_disabled(u32 pkey) const {
    SEALPK_CHECK(pkey < kMpkNumPkeys);
    return bit(value_, 2 * pkey + 1) != 0;
  }

  void set_perm(u32 pkey, bool access_disable, bool write_disable) {
    SEALPK_CHECK(pkey < kMpkNumPkeys);
    value_ = static_cast<u32>(
        deposit(deposit(value_, 2 * pkey, 2 * pkey, access_disable ? 1 : 0),
                2 * pkey + 1, 2 * pkey + 1, write_disable ? 1 : 0));
  }

  void reset() { value_ = 0; }

  template <class Ar, class Self>
  static void io(Ar& ar, Self& p) {
    ar(p.value_);
  }

 private:
  u32 value_ = 0;
};

}  // namespace sealpk::hw
