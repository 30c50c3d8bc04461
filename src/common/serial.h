// Little-endian byte-stream serialization used by the snapshot layer.
//
// ByteWriter appends into a growable buffer; ByteReader consumes a borrowed
// span with bounds checks (a truncated or over-read stream throws
// CheckError, which snapshot restore converts into a typed SnapshotError).
// The encoding is fixed little-endian regardless of host order so snapshot
// files are portable, and every multi-byte value goes through one pair of
// primitives so the format has no padding or alignment holes.
#pragma once

#include <bitset>
#include <cstring>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/check.h"

namespace sealpk {

class ByteWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  // Doubles travel as their IEEE-754 bit pattern (bit-exact round trip).
  void put_f64(double v) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_bytes(const u8* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  // Length-prefixed string / byte vector.
  void put_str(const std::string& s) {
    put_u64(s.size());
    put_bytes(reinterpret_cast<const u8*>(s.data()), s.size());
  }
  void put_blob(const std::vector<u8>& v) {
    put_u64(v.size());
    put_bytes(v.data(), v.size());
  }

  template <size_t N>
  void put_bitset(const std::bitset<N>& bits) {
    static_assert(N % 64 == 0, "bitset size must pack into u64 words");
    for (size_t word = 0; word < N / 64; ++word) {
      u64 w = 0;
      for (size_t i = 0; i < 64; ++i) {
        if (bits[word * 64 + i]) w |= u64{1} << i;
      }
      put_u64(w);
    }
  }

  size_t size() const { return buf_.size(); }
  const std::vector<u8>& buffer() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (unsigned i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<u8>(v >> (8 * i)));
    }
  }

  std::vector<u8> buf_;
};

class ByteReader {
 public:
  ByteReader(const u8* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<u8>& buf)
      : data_(buf.data()), len_(buf.size()) {}

  u8 get_u8() { return need(1), data_[pos_++]; }
  u16 get_u16() { return get_le<u16>(); }
  u32 get_u32() { return get_le<u32>(); }
  u64 get_u64() { return get_le<u64>(); }
  i64 get_i64() { return static_cast<i64>(get_le<u64>()); }
  bool get_bool() { return get_u8() != 0; }

  double get_f64() {
    const u64 bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  void get_bytes(u8* out, size_t len) {
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }

  std::string get_str() {
    const u64 len = get_u64();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return s;
  }
  std::vector<u8> get_blob() {
    const u64 len = get_u64();
    need(len);
    std::vector<u8> v(data_ + pos_, data_ + pos_ + len);
    pos_ += static_cast<size_t>(len);
    return v;
  }

  // An element count for a following sequence whose elements take at least
  // `min_elem_bytes` (> 0) each. A count the remaining bytes cannot hold is
  // rejected here, before the caller sizes a container by it.
  size_t get_count(size_t min_elem_bytes) {
    const u64 count = get_u64();
    SEALPK_CHECK_MSG(count <= remaining() / min_elem_bytes,
                     "serialized count " << count << " of " << min_elem_bytes
                                         << "-byte elements exceeds the "
                                         << remaining()
                                         << " bytes left at " << pos_);
    return static_cast<size_t>(count);
  }

  template <size_t N>
  std::bitset<N> get_bitset() {
    static_assert(N % 64 == 0, "bitset size must pack into u64 words");
    std::bitset<N> bits;
    for (size_t word = 0; word < N / 64; ++word) {
      const u64 w = get_u64();
      for (size_t i = 0; i < 64; ++i) {
        if ((w >> i) & 1) bits.set(word * 64 + i);
      }
    }
    return bits;
  }

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  bool done() const { return pos_ == len_; }

 private:
  void need(u64 len) {
    SEALPK_CHECK_MSG(len <= len_ - pos_,
                     "serialized stream truncated: need " << len << " at "
                                                          << pos_);
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v{};
    for (unsigned i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const u8* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace sealpk
