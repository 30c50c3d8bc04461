// Little-endian byte-stream serialization used by the snapshot layer.
//
// ByteWriter appends into a growable buffer; ByteReader consumes a borrowed
// span with bounds checks (a truncated or over-read stream throws
// CheckError, which snapshot restore converts into a typed SnapshotError).
// The encoding is fixed little-endian regardless of host order so snapshot
// files are portable, and every multi-byte value goes through one pair of
// primitives so the format has no padding or alignment holes.
//
// Save and Load (below) run one field list per serialized type in both
// directions, so a type's byte layout is written down exactly once.
#pragma once

#include <array>
#include <bitset>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
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

  // Length-prefixed string.
  void put_str(const std::string& s) {
    put_u64(s.size());
    put_bytes(reinterpret_cast<const u8*>(s.data()), s.size());
  }

  // Packed into u64 words, bit 0 first; the last word is zero-padded.
  template <size_t N>
  void put_bitset(const std::bitset<N>& bits) {
    for (size_t word = 0; word < (N + 63) / 64; ++word) {
      u64 w = 0;
      for (size_t i = 0; i < 64 && word * 64 + i < N; ++i) {
        if (bits[word * 64 + i]) w |= u64{1} << i;
      }
      put_u64(w);
    }
  }

  size_t size() const { return buf_.size(); }
  const std::vector<u8>& buffer() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  // One append per value, not one per byte.
  template <typename T>
  void put_le(T v) {
    u8 bytes[sizeof(T)];
    for (unsigned i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<u8>(v >> (8 * i));
    }
    put_bytes(bytes, sizeof(T));
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

  // A set padding bit is rejected.
  template <size_t N>
  std::bitset<N> get_bitset() {
    std::bitset<N> bits;
    for (size_t word = 0; word < (N + 63) / 64; ++word) {
      const u64 w = get_u64();
      for (size_t i = 0; i < 64; ++i) {
        if (((w >> i) & 1) == 0) continue;
        SEALPK_CHECK_MSG(word * 64 + i < N, "serialized " << N
                                                << "-bit set has bit "
                                                << word * 64 + i);
        bits.set(word * 64 + i);
      }
    }
    return bits;
  }

  void skip(u64 len) {
    need(len);
    pos_ += static_cast<size_t>(len);
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

// --- symmetric archives --------------------------------------------------
// A serialized type lists its fields once,
//
//   template <class Ar, class Self>
//   static void io(Ar& ar, Self& self) { ar(self.a, self.b); ... }
//
// and Save (over a ByteWriter; Self deduces const) and Load (over a
// ByteReader) both run that list, so the two directions cannot drift.
// ar(...) takes u8, u16, u32, u64, i64, bool, double, std::string,
// std::bitset, std::array and std::optional of these (a presence bool,
// then the value, or T{} when absent), as<W>(v) for a value whose wire
// type differs from its host type, and any type with its own io. Load also
// rejects hostile input with a CheckError: seq and map counts are bounded
// by the bytes left, map keys must be unique, an enum byte must not exceed
// the enum's last value, and below() and expect_eq() check a field just
// read. On Save those checks do nothing.

// `v` travels as a `Wire` (e.g. an int pid as a u32).
template <class W, class T>
struct As {
  using Wire = W;
  T& v;
};
template <class Wire, class T>
As<Wire, T> as(T& v) {
  return {v};
}

namespace archive_detail {
template <class T>
struct IsBitset : std::false_type {};
template <size_t N>
struct IsBitset<std::bitset<N>> : std::true_type {};
template <class T>
struct IsArray : std::false_type {};
template <class T, size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};
template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};
template <class T>
struct IsAs : std::false_type {};
template <class Wire, class T>
struct IsAs<As<Wire, T>> : std::true_type {};
}  // namespace archive_detail

class Save {
 public:
  static constexpr bool kLoading = false;

  explicit Save(ByteWriter& w) : w_(w) {}

  template <class... T>
  void operator()(const T&... fields) {
    (field(fields), ...);
  }

  template <class E>
  void enum_field(const E& e, E /*last*/) {
    w_.put_u8(static_cast<u8>(e));
  }

  // Bits packed into one byte, the first argument in bit 0.
  template <class... B>
  void flags(const B&... bits) {
    unsigned i = 0;
    u8 packed = 0;
    ((packed |= static_cast<u8>((bits ? 1u : 0u) << i++)), ...);
    w_.put_u8(packed);
  }

  // A u64 count, then fn(ar, element) for each element (or ar(element)).
  template <class C, class Fn>
  void seq(const C& c, size_t /*min_elem_bytes*/, Fn fn) {
    w_.put_u64(c.size());
    for (const auto& e : c) fn(*this, e);
  }
  template <class C>
  void seq(const C& c, size_t min_elem_bytes) {
    seq(c, min_elem_bytes, [](Save& ar, const auto& e) { ar(e); });
  }

  // A u64 count, then fn(ar, key, value) per entry in key order.
  template <class M, class Fn>
  void map(const M& m, size_t /*min_elem_bytes*/, Fn fn) {
    w_.put_u64(m.size());
    for (const auto& [key, value] : m) fn(*this, key, value);
  }

  template <class T, class L>
  void below(const T&, const L&, const char*) {}
  template <class T, class W>
  void expect_eq(const T&, const W&, const char*) {}

  ByteWriter& writer() { return w_; }

 private:
  template <class T>
  void field(const T& v) {
    using namespace archive_detail;
    if constexpr (std::is_same_v<T, bool>) {
      w_.put_bool(v);
    } else if constexpr (std::is_same_v<T, u8>) {
      w_.put_u8(v);
    } else if constexpr (std::is_same_v<T, u16>) {
      w_.put_u16(v);
    } else if constexpr (std::is_same_v<T, u32>) {
      w_.put_u32(v);
    } else if constexpr (std::is_same_v<T, u64>) {
      w_.put_u64(v);
    } else if constexpr (std::is_same_v<T, i64>) {
      w_.put_i64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      w_.put_f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.put_str(v);
    } else if constexpr (IsBitset<T>::value) {
      w_.put_bitset(v);
    } else if constexpr (IsArray<T>::value) {
      for (const auto& e : v) field(e);
    } else if constexpr (IsOptional<T>::value) {
      field(v.has_value());
      field(v.value_or(typename T::value_type{}));
    } else if constexpr (IsAs<T>::value) {
      field(static_cast<typename T::Wire>(v.v));
    } else {
      T::io(*this, v);
    }
  }

  ByteWriter& w_;
};

class Load {
 public:
  static constexpr bool kLoading = true;

  explicit Load(ByteReader& r) : r_(r) {}

  template <class... T>
  void operator()(T&&... fields) {
    (field(fields), ...);
  }

  template <class E>
  void enum_field(E& e, E last) {
    const u8 byte = r_.get_u8();
    SEALPK_CHECK_MSG(byte <= static_cast<u64>(last),
                     "serialized enum byte " << unsigned{byte}
                                             << " is above its last value "
                                             << static_cast<u64>(last));
    e = static_cast<E>(byte);
  }

  template <class... B>
  void flags(B&... bits) {
    const u8 packed = r_.get_u8();
    unsigned i = 0;
    ((bits = ((packed >> i++) & 1) != 0), ...);
  }

  template <class C, class Fn>
  void seq(C& c, size_t min_elem_bytes, Fn fn) {
    c.resize(r_.get_count(min_elem_bytes));
    for (auto& e : c) fn(*this, e);
  }
  template <class C>
  void seq(C& c, size_t min_elem_bytes) {
    seq(c, min_elem_bytes, [](Load& ar, auto& e) { ar(e); });
  }

  // Replaces `m`'s contents; a key seen twice is rejected.
  template <class M, class Fn>
  void map(M& m, size_t min_elem_bytes, Fn fn) {
    m.clear();
    const size_t n = r_.get_count(min_elem_bytes);
    for (size_t i = 0; i < n; ++i) {
      typename M::key_type key{};
      typename M::mapped_type value{};
      fn(*this, key, value);
      const bool fresh = m.try_emplace(key, std::move(value)).second;
      SEALPK_CHECK_MSG(fresh, "duplicate serialized key " << key);
    }
  }

  template <class T, class L>
  void below(const T& v, const L& limit, const char* what) {
    SEALPK_CHECK_MSG(v < limit, what << " " << v << " out of range (must be "
                                     << "below " << limit << ")");
  }
  template <class T, class W>
  void expect_eq(const T& v, const W& want, const char* what) {
    SEALPK_CHECK_MSG(v == want, what << " mismatch: stream has " << v
                                     << ", this machine has " << want);
  }

  ByteReader& reader() { return r_; }

 private:
  template <class T>
  void field(T& v) {
    using namespace archive_detail;
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.get_bool();
    } else if constexpr (std::is_same_v<T, u8>) {
      v = r_.get_u8();
    } else if constexpr (std::is_same_v<T, u16>) {
      v = r_.get_u16();
    } else if constexpr (std::is_same_v<T, u32>) {
      v = r_.get_u32();
    } else if constexpr (std::is_same_v<T, u64>) {
      v = r_.get_u64();
    } else if constexpr (std::is_same_v<T, i64>) {
      v = r_.get_i64();
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.get_f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.get_str();
    } else if constexpr (IsBitset<T>::value) {
      v = r_.get_bitset<T{}.size()>();
    } else if constexpr (IsArray<T>::value) {
      for (auto& e : v) field(e);
    } else if constexpr (IsOptional<T>::value) {
      bool present = false;
      typename T::value_type value{};
      field(present);
      field(value);
      v = present ? std::optional(value) : std::nullopt;
    } else if constexpr (IsAs<T>::value) {
      typename T::Wire w{};
      field(w);
      v.v = static_cast<std::remove_reference_t<decltype(v.v)>>(w);
    } else {
      T::io(*this, v);
    }
  }

  ByteReader& r_;
};

}  // namespace sealpk
