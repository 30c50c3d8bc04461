// libmpk-style software virtualisation of protection keys (Park et al.,
// ATC'19), used as the paper's comparison point for scaling beyond the
// physical key count (§VI: "libmpk suffers from large overheads due to
// expensive PTE updates").
//
// Model: V virtual domains share P physical keys. Using a domain whose
// virtual key is not currently mapped evicts the least-recently-used
// mapped domain and re-keys BOTH domains' pages (PTE rewrites + TLB
// flush) — that PTE traffic is precisely libmpk's scaling cost. The class
// is a host-level cost model driven by TimingModel constants, so it can
// wrap either hardware flavour (16 physical keys for Intel MPK, 1024 for
// SealPK).
#pragma once

#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "core/timing.h"

namespace sealpk::mpk {

struct VirtStats {
  u64 uses = 0;
  u64 hits = 0;
  u64 evictions = 0;
  u64 pte_rewrites = 0;
  u64 cycles = 0;  // total modelled cost of all use() calls
};

class KeyVirtualizer {
 public:
  // physical_keys: usable keys (excluding key 0); e.g. 15 for Intel MPK,
  // 1023 for SealPK.
  KeyVirtualizer(unsigned physical_keys, const core::TimingModel& timing)
      : physical_keys_(physical_keys), timing_(timing) {
    SEALPK_CHECK(physical_keys > 0);
  }

  // Registers a virtual domain covering `pages` pages. Returns its id.
  u64 create_domain(u64 pages) {
    domains_.push_back({pages, std::nullopt});
    return domains_.size() - 1;
  }

  // Models one permission update on `domain` (the pkey_set / WRPKRU the
  // application performs). Returns the modelled cycle cost of this use.
  u64 use(u64 domain) {
    SEALPK_CHECK(domain < domains_.size());
    ++stats_.uses;
    u64 cost = timing_.rocc_cycles + timing_.base_cycles;  // the write itself
    Domain& d = domains_[domain];
    if (d.physical.has_value()) {
      ++stats_.hits;
      touch(domain);
    } else {
      // Miss: grab a free physical key or evict the LRU mapping.
      cost += timing_.syscall_dispatch_cycles;  // libmpk trap into its lib
      if (mapped_.size() < physical_keys_) {
        d.physical = static_cast<unsigned>(mapped_.size() + 1);
      } else {
        const u64 victim = lru_.back();
        lru_.pop_back();
        mapped_.erase(victim);
        Domain& v = domains_[victim];
        d.physical = v.physical;
        v.physical.reset();
        ++stats_.evictions;
        // Re-key the victim's pages AND this domain's pages: the PTE
        // rewrite storm libmpk pays.
        const u64 pages = v.pages + d.pages;
        stats_.pte_rewrites += pages;
        cost += pages * timing_.pte_update_cycles + timing_.tlb_flush_cycles;
      }
      mapped_[domain] = lru_.insert(lru_.begin(), domain);
    }
    stats_.cycles += cost;
    return cost;
  }

  const VirtStats& stats() const { return stats_; }

 private:
  struct Domain {
    u64 pages = 0;
    std::optional<unsigned> physical;
  };

  void touch(u64 domain) {
    auto it = mapped_.find(domain);
    SEALPK_CHECK(it != mapped_.end());
    lru_.erase(it->second);
    it->second = lru_.insert(lru_.begin(), domain);
  }

  unsigned physical_keys_;
  core::TimingModel timing_;
  std::vector<Domain> domains_;
  std::list<u64> lru_;  // front = most recent
  std::unordered_map<u64, std::list<u64>::iterator> mapped_;
  VirtStats stats_;
};

}  // namespace sealpk::mpk
