// The concrete machine under test.
//
// A Harness owns the *real* implementation units — hw::Pkr, hw::SealUnit
// (built with the reduced CAM size) and os::SealPkKeyManager — plus a tiny
// page table, and steps them with the code that ships: the kernel's pkey
// syscall cores and drained-hook scrub (os/pkey_core.h) and the hart's
// WRPKR commit (hw::commit_wrpkr). apply() adds only the reduced-universe
// ENOSPC mask, the WRPKR -> CAM-miss refill -> retry composition of hart
// and kernel, and the mutation injections. install() and extract() convert
// to/from the abstract ModelState through the units' official ports
// (canonical_state, restore, set_key), so the checker observes exactly what
// context switches and snapshots observe.
#pragma once

#include <vector>

#include "hw/pkr.h"
#include "hw/seal_unit.h"
#include "model/op.h"
#include "model/state.h"
#include "os/key_manager.h"

namespace sealpk::model {

class Harness {
 public:
  explicit Harness(const ModelConfig& cfg);
  // Copies duplicate all unit state, then re-wire the drained hook (the
  // copied std::function would still point into the source harness).
  Harness(const Harness& other);
  Harness& operator=(const Harness&) = delete;

  void install(const ModelState& s);
  ModelState extract() const;

  // Applies one op through the kernel/hart logic. May throw CheckError if
  // a unit's own internal checks fire (reported as a counterexample).
  Outcome apply(const Op& op);

  // Effective data-access permission for `page`, consulting the real Pkr
  // through the accessors Hart::data_access_allowed uses.
  bool access_allowed(unsigned page, bool is_store);
  // Fetches never consult the Pkr, like the hart's fetch path.
  bool fetch_allowed(unsigned page) const;

 private:
  void wire_drained_hook();
  // kRefillWrongRange: shifts the key's fresh CAM entry off its range.
  void misrefill(u32 pkey);

  ModelConfig cfg_;
  hw::Pkr pkr_;
  hw::SealUnit seal_;
  os::SealPkKeyManager keys_;
  std::vector<PageState> pages_;
};

}  // namespace sealpk::model
