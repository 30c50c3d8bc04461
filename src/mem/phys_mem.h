// Sparse simulated physical memory (the FPGA board's DRAM).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"

namespace sealpk::mem {

constexpr u64 kPageSize = 4096;
constexpr unsigned kPageShift = 12;

// Largest physical memory a PhysMem may model: 16 GiB, i.e. a page table of
// at most 32 MiB of pointers. Snapshot blobs carry the memory size, so the
// cap keeps a hostile blob from sizing an unbounded host allocation.
constexpr u64 kMaxPhysBytes = u64{16} << 30;

// Word accesses copy the host representation straight into the guest's
// little-endian memory.
static_assert(std::endian::native == std::endian::little,
              "PhysMem assumes a little-endian host");

// Physical memory, page-granular and lazily materialised. Reads of
// never-written pages return zero, like freshly initialised DRAM in the
// simulator. All accesses are bounds-checked against the configured size
// (the Zedboard used in the paper has 256 MiB).
//
// The page table is direct-indexed (one slot per physical page, null until
// the page is first written), so finding a page is an index and a null
// check. The table only reaches up to the highest page written so far: the
// frame allocator hands out low frames first, so building, snapshotting
// and tearing down a machine walks the pages in use, not the whole of DRAM.
// Word accesses inside one page are a single memcpy; bulk ops work in page
// chunks and check their whole range up front.
class PhysMem {
 public:
  explicit PhysMem(u64 size_bytes = 256 * 1024 * 1024)
      : size_(checked_size(size_bytes)) {}

  u64 size() const { return size_; }

  u8 read_u8(u64 addr) const { return page_at(addr)[addr % kPageSize]; }

  void write_u8(u64 addr, u8 value) {
    mutable_page(addr)[addr % kPageSize] = value;
  }

  u16 read_u16(u64 addr) const { return read_le<u16>(addr); }
  u32 read_u32(u64 addr) const { return read_le<u32>(addr); }
  u64 read_u64(u64 addr) const { return read_le<u64>(addr); }
  void write_u16(u64 addr, u16 v) { write_le(addr, v); }
  void write_u32(u64 addr, u32 v) { write_le(addr, v); }
  void write_u64(u64 addr, u64 v) { write_le(addr, v); }

  void read_bytes(u64 addr, u8* out, u64 len) const {
    check_range(addr, len, "read");
    for_each_chunk(addr, len, [&](u64 index, u64 off, u64 done, u64 chunk) {
      const Page* page = find(index);
      std::memcpy(out + done, (page ? page : &kZeroPage)->data() + off, chunk);
    });
  }

  void write_bytes(u64 addr, const u8* in, u64 len) {
    check_range(addr, len, "write");
    for_each_chunk(addr, len, [&](u64 index, u64 off, u64 done, u64 chunk) {
      std::memcpy(materialize(index).data() + off, in + done, chunk);
    });
  }

  // Zero-filling a never-written page leaves it unmaterialised: it already
  // reads zero.
  void fill(u64 addr, u8 value, u64 len) {
    check_range(addr, len, "write");
    for_each_chunk(addr, len, [&](u64 index, u64 off, u64, u64 chunk) {
      if (value == 0 && find(index) == nullptr) return;
      std::memset(materialize(index).data() + off, value, chunk);
    });
  }

  bool contains(u64 addr, u64 len = 1) const {
    return addr < size_ && len <= size_ - addr;
  }

  size_t materialized_pages() const { return materialized_; }

  // The host bytes of the page holding `addr`: a shared zero page while the
  // page was never written. The pointer stays valid, and keeps showing the
  // page's current contents, until layout_epoch() moves.
  const u8* page_data(u64 addr) const { return page_at(addr).data(); }

  // Moves whenever a page's host storage appears (its first write) or goes
  // away (load_state).
  u64 layout_epoch() const { return layout_epoch_; }

  // Snapshot port. Pages are emitted in ascending index order and all-zero
  // pages are elided, so the encoding is canonical: two memories with equal
  // contents produce byte-identical streams regardless of materialisation
  // history. That property is what lets tests compare whole snapshots.
  void save_state(ByteWriter& w) const {
    w.put_u64(size_);
    std::vector<u64> indices;
    indices.reserve(materialized_);
    for (u64 index = 0; index < pages_.size(); ++index) {
      const Page* page = pages_[index].get();
      if (page != nullptr && *page != kZeroPage) indices.push_back(index);
    }
    w.put_u64(indices.size());
    for (u64 index : indices) {
      w.put_u64(index);
      w.put_bytes(pages_[index]->data(), kPageSize);
    }
  }
  void load_state(ByteReader& r) {
    const u64 size = r.get_u64();
    SEALPK_CHECK_MSG(size == size_, "phys size mismatch: snapshot has "
                                        << size << ", machine has " << size_);
    pages_.clear();
    materialized_ = 0;
    ++layout_epoch_;
    const u64 count = r.get_u64();
    for (u64 i = 0; i < count; ++i) {
      const u64 index = r.get_u64();
      SEALPK_CHECK_MSG(index < size_ >> kPageShift,
                       "snapshot page index out of range: " << index);
      SEALPK_CHECK_MSG(find(index) == nullptr,
                       "duplicate snapshot page index: " << index);
      r.get_bytes(materialize(index).data(), kPageSize);
    }
  }

 private:
  using Page = std::array<u8, kPageSize>;
  static inline const Page kZeroPage{};

  static u64 checked_size(u64 size_bytes) {
    SEALPK_CHECK(size_bytes % kPageSize == 0);
    SEALPK_CHECK_MSG(size_bytes <= kMaxPhysBytes,
                     "phys size 0x" << std::hex << size_bytes
                                    << " exceeds the cap 0x" << kMaxPhysBytes);
    return size_bytes;
  }

  // The page at `index`, or null when it was never written.
  const Page* find(u64 index) const {
    return index < pages_.size() ? pages_[index].get() : nullptr;
  }

  const Page& page_at(u64 addr) const {
    SEALPK_CHECK_MSG(contains(addr), "phys read out of range 0x" << std::hex
                                                                 << addr);
    const Page* page = find(addr >> kPageShift);
    return page == nullptr ? kZeroPage : *page;
  }

  Page& mutable_page(u64 addr) {
    SEALPK_CHECK_MSG(contains(addr), "phys write out of range 0x" << std::hex
                                                                  << addr);
    return materialize(addr >> kPageShift);
  }

  Page& materialize(u64 index) {
    if (index >= pages_.size()) pages_.resize(index + 1);
    auto& slot = pages_[index];
    if (slot == nullptr) {
      slot = std::make_unique<Page>();
      ++materialized_;
      ++layout_epoch_;
    }
    return *slot;
  }

  // Bulk ops check their whole range before touching memory, so one that
  // runs past the end throws and leaves memory unchanged. A zero-length op
  // is a no-op wherever it points.
  void check_range(u64 addr, u64 len, const char* what) const {
    SEALPK_CHECK_MSG(len == 0 || contains(addr, len),
                     "phys " << what << " out of range 0x" << std::hex << addr
                             << "+0x" << len);
  }

  // Calls fn(page index, offset in page, bytes done so far, chunk length)
  // for each page-bounded chunk of [addr, addr + len).
  template <typename Fn>
  static void for_each_chunk(u64 addr, u64 len, Fn&& fn) {
    for (u64 done = 0; done < len;) {
      const u64 at = addr + done;
      const u64 off = at % kPageSize;
      const u64 chunk = std::min(len - done, kPageSize - off);
      fn(at >> kPageShift, off, done, chunk);
      done += chunk;
    }
  }

  template <typename T>
  T read_le(u64 addr) const {
    const u64 off = addr % kPageSize;
    T v{};
    if (off <= kPageSize - sizeof(T)) {
      std::memcpy(&v, page_at(addr).data() + off, sizeof(T));
      return v;
    }
    // Accesses in the simulated machine may be misaligned across pages;
    // assemble byte-wise (the hart enforces its own alignment policy).
    for (unsigned i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<T>(read_u8(addr + i)) << (8 * i));
    return v;
  }

  template <typename T>
  void write_le(u64 addr, T v) {
    const u64 off = addr % kPageSize;
    if (off <= kPageSize - sizeof(T)) {
      std::memcpy(mutable_page(addr).data() + off, &v, sizeof(T));
      return;
    }
    for (unsigned i = 0; i < sizeof(T); ++i)
      write_u8(addr + i, static_cast<u8>(v >> (8 * i)));
  }

  u64 size_;
  std::vector<std::unique_ptr<Page>> pages_;  // up to the highest page written
  size_t materialized_ = 0;
  u64 layout_epoch_ = 0;
};

}  // namespace sealpk::mem
