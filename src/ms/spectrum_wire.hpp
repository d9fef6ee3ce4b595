// Field-list codec for the CRC-framed byte layouts: the network protocol's
// frame bodies (net/protocol.cpp) and the journal's records
// (serve/journal.cpp). Both carry spectra in one layout, so a batch that
// went over the wire is byte-identical to the same batch journaled locally.
//
// Each body type states its layout once, as `wire<T>::fields(v, t)`: one
// call `v(field, ...)` listing the fields in wire order. Three visitors run
// that list:
//
//   - wire_sizer adds up the exact body bytes;
//   - wire_writer writes through a raw-pointer cursor into a buffer sized
//     by the sizer (the ingest hot path writes one journal record per
//     applied batch, two fields per peak);
//   - wire_reader reads through a bounds-checked cursor and *reports*
//     failure instead of throwing: a short read is a torn journal tail or
//     a malformed frame, and both callers classify it themselves.
//
// A field is one of:
//
//   - an arithmetic value other than bool, or a fixed-size array, copied
//     as is;
//   - `as<W>(x)`, sent as wire type W (bool as u8, size_t as u64, an enum
//     as its code);
//   - `counted<C>(list)`, a std::vector or std::string preceded by its
//     element count as C; a plain std::string is `counted<u32>`;
//   - any type with its own `wire<T>`.
//
// Before the reader allocates a counted list, it caps the count at (bytes
// left) ÷ (the element's minimum wire size, the sizer's size of a default
// element). A lying count is therefore refused before anything is
// allocated, and no list can make the reader allocate more than a small
// multiple of the bytes it was handed.
//
// All integers and floats are little-endian (util/endian.hpp). A spectrum
// is laid out as
//
//   u32 title_len, title bytes
//   u32 scan, f64 precursor_mz, i32 precursor_charge, f64 retention_time,
//   i32 label, u64 peak_count, then per peak: f64 mz, f32 intensity
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "ms/spectrum.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace spechd::ms {

/// Bounds-checked read cursor over a byte buffer. Running off the end is
/// reported, not thrown (torn journal tails are expected; malformed
/// network frames get a typed error response).
struct byte_cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  template <typename T>
  bool read(T& v) {
    if (size - pos < sizeof(T)) return false;
    std::memcpy(&v, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool read_bytes(void* out, std::size_t n) {
    if (size - pos < n) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
};

/// Raw-pointer write cursor into an exactly-pre-sized buffer.
struct wire_cursor {
  char* p;

  template <typename T>
  void put(const T& v) {
    std::memcpy(p, &v, sizeof(T));
    p += sizeof(T);
  }

  void put_bytes(const void* data, std::size_t n) {
    std::memcpy(p, data, n);
    p += n;
  }
};

// --- field-list codec --------------------------------------------------------

/// Specialise with `template <typename V, typename R> static bool
/// fields(V& v, R& r)` returning `v(field, ...)`; R is `const T` when
/// sizing or writing and `T` when reading.
template <typename T>
struct wire;

template <typename W, typename T>
struct as_field {
  T& value;
};

/// Field `value`, sent as wire type W.
template <typename W, typename T>
as_field<W, T> as(T& value) {
  return {value};
}

template <typename C, typename L>
struct counted_field {
  L& list;
};

/// A std::vector or std::string preceded by its element count, sent as C.
template <typename C, typename L>
counted_field<C, L> counted(L& list) {
  return {list};
}

template <typename T>
inline constexpr bool is_as_field = false;
template <typename W, typename T>
inline constexpr bool is_as_field<as_field<W, T>> = true;
template <typename T>
inline constexpr bool is_counted_field = false;
template <typename C, typename L>
inline constexpr bool is_counted_field<counted_field<C, L>> = true;
template <typename L>
inline constexpr bool is_string = std::is_same_v<std::remove_const_t<L>, std::string>;

/// Runs one field of any kind through visitor `v`.
template <typename V, typename F>
bool visit_field(V& v, F& field) {
  using T = std::remove_const_t<F>;
  if constexpr (is_as_field<T>) {
    return v.convert(field);
  } else if constexpr (is_counted_field<T>) {
    return v.list(field);
  } else if constexpr (is_string<T>) {
    return v.list(counted<std::uint32_t>(field));
  } else if constexpr ((std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) ||
                       std::is_array_v<T>) {
    // A bool needs as<u8>: copying an arbitrary byte into one is undefined.
    return v.scalar(field);
  } else {
    return wire<T>::fields(v, field);
  }
}

/// Adds up the exact wire bytes of the fields it visits.
struct wire_sizer {
  std::size_t bytes = 0;

  template <typename... F>
  bool operator()(F&&... fields) {
    return (visit_field(*this, fields) && ...);
  }
  bool valid(bool) { return true; }

  template <typename T>
  bool scalar(const T&) {
    bytes += sizeof(T);
    return true;
  }
  template <typename W, typename T>
  bool convert(as_field<W, T>) {
    bytes += sizeof(W);
    return true;
  }
  template <typename C, typename L>
  bool list(counted_field<C, L> f) {
    bytes += sizeof(C);
    if constexpr (is_string<L>) {
      bytes += f.list.size();
    } else {
      for (const auto& e : f.list) visit_field(*this, e);
    }
    return true;
  }
};

/// Writes the fields it visits at a cursor sized by wire_sizer.
struct wire_writer {
  wire_cursor out;

  template <typename... F>
  bool operator()(F&&... fields) {
    return (visit_field(*this, fields) && ...);
  }
  bool valid(bool) { return true; }

  template <typename T>
  bool scalar(const T& v) {
    out.put(v);
    return true;
  }
  template <typename W, typename T>
  bool convert(as_field<W, T> f) {
    out.put(static_cast<W>(f.value));
    return true;
  }
  template <typename C, typename L>
  bool list(counted_field<C, L> f) {
    out.put(static_cast<C>(f.list.size()));
    if constexpr (is_string<L>) {
      out.put_bytes(f.list.data(), f.list.size());
    } else {
      for (const auto& e : f.list) visit_field(*this, e);
    }
    return true;
  }
};

/// Reads the fields it visits; false when the bytes run out, a count
/// exceeds what the bytes left can hold, or a `valid` check fails.
struct wire_reader {
  byte_cursor in;

  template <typename... F>
  bool operator()(F&&... fields) {
    return (visit_field(*this, fields) && ...);
  }
  bool valid(bool ok) { return ok; }
  /// True once every byte was read: no body carries trailing bytes.
  bool done() const { return in.pos == in.size; }

  template <typename T>
  bool scalar(T& v) {
    return in.read(v);
  }
  template <typename W, typename T>
  bool convert(as_field<W, T> f) {
    W raw{};
    if (!in.read(raw)) return false;
    f.value = static_cast<T>(raw);
    return true;
  }
  template <typename C, typename L>
  bool list(counted_field<C, L> f) {
    C count{};
    if (!in.read(count)) return false;
    // Cap the count before allocating: every element takes at least the
    // wire bytes of a default one.
    wire_sizer smallest;
    smallest(typename L::value_type{});
    if (count > (in.size - in.pos) / smallest.bytes) return false;
    f.list.resize(count);
    if constexpr (is_string<L>) {
      return in.read_bytes(f.list.data(), count);
    } else {
      for (auto& e : f.list) {
        if (!visit_field(*this, e)) return false;
      }
      return true;
    }
  }
};

/// Appends one CRC frame to `out`: u32 payload_bytes, u32 CRC-32(payload),
/// then the payload that `body(v)` lists (sized exactly, then written in
/// place).
template <typename Body>
void append_crc_frame(std::string& out, const Body& body) {
  constexpr std::size_t head = 2 * sizeof(std::uint32_t);
  wire_sizer size;
  body(size);
  const std::size_t start = out.size();
  out.resize(start + head + size.bytes);
  wire_writer writer{{out.data() + start + head}};
  body(writer);
  SPECHD_EXPECTS(writer.out.p == out.data() + out.size());
  const auto payload_bytes = static_cast<std::uint32_t>(size.bytes);
  const std::uint32_t crc = crc32(out.data() + start + head, payload_bytes);
  std::memcpy(out.data() + start, &payload_bytes, sizeof(payload_bytes));
  std::memcpy(out.data() + start + sizeof(payload_bytes), &crc, sizeof(crc));
}

template <>
struct wire<peak> {
  template <typename V, typename R>
  static bool fields(V& v, R& p) {
    return v(p.mz, p.intensity);
  }
};

template <>
struct wire<spectrum> {
  template <typename V, typename R>
  static bool fields(V& v, R& s) {
    return v(s.title, s.scan, s.precursor_mz, as<std::int32_t>(s.precursor_charge),
             s.retention_time, s.label, counted<std::uint64_t>(s.peaks));
  }
};

}  // namespace spechd::ms
