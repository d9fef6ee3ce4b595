// Field-list codec for every byte layout SpecHD sends or persists:
//
//   - the network protocol's frame bodies (net/protocol.cpp);
//   - the journal's records and its file header (serve/journal.cpp);
//   - the .sphsnap snapshot: its identity block, and per shard an
//     hv_store and a bucket table (serve/snapshot.hpp);
//   - the .sphlib spectral library (serve/search.cpp);
//   - the .sphv hypervector store (hdc/hv_store.hpp);
//   - the bytes pipeline_digest hashes and canonical_state compares.
//
// Wire bodies and journal records carry spectra in one layout, so a batch
// that went over the wire is byte-identical to the same batch journaled
// locally.
//
// Each layout is stated once, as `wire<T>::fields(v, t)` (or a function of
// that shape): one call `v(field, ...)` listing the fields in order. Three
// visitors run that list:
//
//   - wire_sizer adds up the exact bytes;
//   - wire_writer, the same template with writes switched on, copies them
//     into a buffer sized by the sizer (the ingest hot path writes one
//     journal record per applied batch, two fields per peak);
//   - wire_reader reads through a bounds-checked cursor and *reports*
//     failure instead of throwing: a short read is a torn journal tail, a
//     malformed frame or a corrupt file, and each caller classifies it.
//
// Only the reader sets `reads`. A field list that must allocate before it
// reads tests that flag, never the constness of its argument: the reader's
// count cap runs the sizer over a non-const default element.
//
// A field is one of:
//
//   - an arithmetic value other than bool, or a fixed-size array, copied
//     as is;
//   - `as<W>(x)`, sent as wire type W (bool as u8, size_t as u64, an enum
//     as its code);
//   - `counted<C>(list)`, a std::vector or std::string preceded by its
//     element count as C; a plain std::string is `counted<u32>`;
//   - `given(n, list)`, a list whose count `n` an earlier field carried;
//     `given(n, list, each)` lists each element's fields through
//     `each(v, element)` where they need context (a store's dimension);
//   - `words(data, n)`, n u64 words in place with no count (a
//     hypervector's words; the reader fills storage the field list
//     allocated once the count cap vouched for it);
//   - any type with its own `wire<T>`.
//
// A list of arithmetic elements (a string's bytes, a bucket's member
// indices) is copied as one block.
//
// Before the reader allocates a list, it caps the count at (bytes left) ÷
// (the element's minimum size, the sizer's size of a default element). A
// lying count is therefore refused before anything is allocated, and no
// list can make the reader allocate more than a small multiple of the
// bytes it was handed.
//
// A file wraps its payload in one frame (append_file_frame,
// read_file_frame): magic(4), u32 version, payload length (u64; u32 in a
// journal header), payload, u32 CRC-32(payload). The one frame reader
// checks the magic, the version (naming a byte-swapped one as a big-endian
// writer), the length bound, truncation, the CRC and trailing bytes, and
// tells a truncated frame from a corrupt one.
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
#include <utility>

#include "ms/spectrum.hpp"
#include "util/crc32.hpp"
#include "util/endian.hpp"
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
    if (n != 0) std::memcpy(out, data + pos, n);  // an empty vector's data() may be null
    pos += n;
    return true;
  }
};

// --- field-list codec --------------------------------------------------------

/// Specialise with `template <typename V, typename R> static bool
/// fields(V& v, R& r)` returning `v(field, ...)`. R is `const T` when
/// writing (and sizing what is written) and `T` when reading (and sizing
/// the default element a read count is capped by).
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
  using count_type = C;
  L& list;
};

/// A std::vector or std::string preceded by its element count, sent as C.
template <typename C, typename L>
counted_field<C, L> counted(L& list) {
  return {list};
}

/// An element laid out as its own field.
struct element_field {
  template <typename V, typename E>
  bool operator()(V& v, E& element) const {
    return v(element);
  }
};

template <typename N, typename L, typename Each>
struct given_field {
  N& count;
  L& list;
  Each each;
};

/// A list whose element count `count` an earlier field carried; `each(v,
/// element)` lists one element's fields.
template <typename N, typename L, typename Each = element_field>
given_field<N, L, Each> given(N& count, L& list, Each each = {}) {
  return {count, list, each};
}

template <typename W>
struct words_field {
  W* data;
  std::size_t count;
};

/// `count` u64 words at `data`, in place and with no count on the wire.
template <typename W>
words_field<W> words(W* data, std::size_t count) {
  return {data, count};
}

/// True when T is an instance of the field template Field.
template <typename T, template <typename...> class Field>
inline constexpr bool is_field = false;
template <template <typename...> class Field, typename... A>
inline constexpr bool is_field<Field<A...>, Field> = true;
template <typename T>
inline constexpr bool is_plain =
    (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) || std::is_array_v<T>;

/// True for a list copied as one block of its arithmetic elements.
template <typename F>
inline constexpr bool is_block_list = false;
template <typename N, typename L>
inline constexpr bool is_block_list<given_field<N, L, element_field>> =
    is_plain<typename std::remove_const_t<L>::value_type>;

/// Runs one field of any kind through visitor `v`.
template <typename V, typename F>
bool visit_field(V& v, F& field) {
  using T = std::remove_const_t<F>;
  if constexpr (is_field<T, as_field>) {
    return v.convert(field);
  } else if constexpr (is_field<T, counted_field>) {
    auto count = static_cast<typename T::count_type>(field.list.size());
    return v.scalar(count) && v.list(given(count, field.list));
  } else if constexpr (std::is_same_v<T, std::string>) {
    auto list = counted<std::uint32_t>(field);
    return visit_field(v, list);
  } else if constexpr (is_field<T, given_field>) {
    return v.list(field);
  } else if constexpr (is_field<T, words_field>) {
    return v.block(field.data, field.count * sizeof(std::uint64_t));
  } else if constexpr (is_plain<T>) {
    // A bool needs as<u8>: copying an arbitrary byte into one is undefined.
    return v.scalar(field);
  } else {
    return wire<T>::fields(v, field);
  }
}

/// Writes the fields it visits at `out`, a buffer sized by a first pass
/// that only counts their `bytes` (wire_sizer).
template <bool Write>
struct basic_writer {
  static constexpr bool reads = false;
  char* out = nullptr;
  std::size_t bytes = 0;

  template <typename... F>
  bool operator()(F&&... fields) {
    return (visit_field(*this, fields) && ...);
  }
  template <typename... Why>
  bool valid(bool, const Why&...) {
    return true;
  }

  bool block(const void* data, std::size_t n) {
    // An empty vector's data() may be null, which memcpy must not see.
    if (Write && n != 0) std::memcpy(out + bytes, data, n);
    bytes += n;
    return true;
  }
  template <typename T>
  bool scalar(const T& v) {
    return block(&v, sizeof(T));
  }
  template <typename W, typename T>
  bool convert(as_field<W, T> f) {
    return scalar(static_cast<W>(f.value));
  }
  template <typename F>
  bool list(F f) {
    if constexpr (is_block_list<F>) {
      block(f.list.data(), f.list.size() * sizeof(f.list[0]));
    } else {
      for (auto& e : f.list) f.each(*this, e);
    }
    return true;
  }
};

/// Adds up the exact bytes of the fields it visits.
using wire_sizer = basic_writer<false>;
using wire_writer = basic_writer<true>;

/// Reads the fields it visits; false when the bytes run out, a count
/// exceeds what the bytes left can hold, or a `valid` check fails.
struct wire_reader {
  static constexpr bool reads = true;
  byte_cursor in;
  /// Where a failed `valid` check writes its message, when set (the file
  /// loaders set it; the wire and journal hot paths need only the bool).
  std::string* error = nullptr;

  template <typename... F>
  bool operator()(F&&... fields) {
    return (visit_field(*this, fields) && ...);
  }
  bool valid(bool ok) { return ok; }
  /// `why` is the message, or a callable building it on failure.
  template <typename Why>
  bool valid(bool ok, const Why& why) {
    if (!ok && error != nullptr) {
      if constexpr (std::is_invocable_v<const Why&>) {
        *error = why();
      } else {
        *error = why;
      }
    }
    return ok;
  }
  /// True once every byte was read: no body carries trailing bytes.
  bool done() const { return in.pos == in.size; }
  /// True when `count` elements of at least `each` bytes fit in the bytes
  /// left: the check before allocating for a count read off the wire.
  bool fits(std::uint64_t count, std::size_t each) const {
    return count <= (in.size - in.pos) / each;
  }

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
  bool block(void* data, std::size_t n) { return in.read_bytes(data, n); }
  template <typename F>
  bool list(F f) {
    using E = typename std::remove_reference_t<decltype(f.list)>::value_type;
    // Cap the count before allocating: every element takes at least the
    // bytes of a default one.
    wire_sizer smallest;
    {
      E prototype{};
      f.each(smallest, prototype);
    }
    if (!fits(f.count, smallest.bytes)) return false;
    f.list.resize(static_cast<std::size_t>(f.count));
    if constexpr (is_block_list<F>) {
      return in.read_bytes(f.list.data(), f.list.size() * sizeof(E));
    } else {
      for (auto& e : f.list) {
        if (!f.each(*this, e)) return false;
      }
      return true;
    }
  }
};

/// Appends the bytes `body(v)` lists to `out`, sized exactly and then
/// written in place; returns where they start.
template <typename Body>
std::size_t append_fields(std::string& out, const Body& body) {
  wire_sizer size;
  body(size);
  const std::size_t start = out.size();
  out.resize(start + size.bytes);
  wire_writer writer{out.data() + start};
  body(writer);
  SPECHD_EXPECTS(writer.bytes == size.bytes);
  return start;
}

/// The bytes `body(v)` lists.
template <typename Body>
std::string encode_fields(const Body& body) {
  std::string out;
  append_fields(out, body);
  return out;
}

/// Appends one CRC frame to `out`: u32 payload_bytes, u32 CRC-32(payload),
/// then the payload that `body(v)` lists.
template <typename Body>
void append_crc_frame(std::string& out, const Body& body) {
  const std::size_t head = out.size();
  out.resize(head + 2 * sizeof(std::uint32_t));
  const std::size_t start = append_fields(out, body);
  const auto payload_bytes = static_cast<std::uint32_t>(out.size() - start);
  const std::uint32_t crc = crc32(out.data() + start, payload_bytes);
  std::memcpy(out.data() + head, &payload_bytes, sizeof(payload_bytes));
  std::memcpy(out.data() + head + sizeof(payload_bytes), &crc, sizeof(crc));
}

// --- file frames -------------------------------------------------------------

/// How one kind of file frames its payload.
struct file_format {
  char magic[4];
  std::uint32_t version;
  const char* kind;       ///< the format in messages: "snapshot"
  const char* extension;  ///< ".sphsnap"
  bool short_length;      ///< a u32 payload length (the journal header), not u64
  /// Longer payloads are refused as corrupt rather than read as truncated.
  std::uint64_t max_payload;
};

/// Appends `body(v)` to `out` as one file frame.
template <typename Body>
void append_file_frame(std::string& out, const file_format& format, const Body& body) {
  const std::size_t head = out.size();
  const std::size_t length_bytes = format.short_length ? 4 : 8;
  out.resize(head + 8 + length_bytes);
  const std::size_t start = append_fields(out, body);
  const std::uint64_t payload_bytes = out.size() - start;
  SPECHD_EXPECTS(payload_bytes <= format.max_payload);
  const std::uint32_t crc = crc32(out.data() + start, payload_bytes);
  std::memcpy(out.data() + head, format.magic, 4);
  std::memcpy(out.data() + head + 4, &format.version, 4);
  std::memcpy(out.data() + head + 8, &payload_bytes, length_bytes);  // little-endian
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

enum class frame_status { ok, truncated, corrupt };

struct frame_result {
  frame_status status = frame_status::ok;
  std::string why;  ///< what is wrong, when not ok
};

/// Reads one file frame at `in` and its payload through `body(reader)`,
/// which must consume the payload exactly. On success `in` ends past the
/// frame. A frame the bytes end inside is `truncated`; anything else
/// wrong is `corrupt`. No payload field is read before the CRC matched.
template <typename Body>
frame_result read_file_frame(byte_cursor& in, const file_format& format, const Body& body) {
  const std::string kind = format.kind;
  const auto truncated = [&] {
    return frame_result{frame_status::truncated, "truncated " + kind};
  };
  const auto corrupt = [](std::string why) {
    return frame_result{frame_status::corrupt, std::move(why)};
  };
  char magic[4];
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  if (!in.read(magic)) return truncated();
  if (std::memcmp(magic, format.magic, 4) != 0) {
    return corrupt("not a " + std::string(format.extension) + " " + kind + " (bad magic)");
  }
  if (!in.read(version)) return truncated();
  if (version != format.version) {
    // A byte-reversed version is a file copied from a big-endian host:
    // name that instead of a nonsense version number.
    if (version == util::byteswap32(format.version)) {
      return corrupt(kind +
                     " was written by a big-endian host; spechd on-disk formats are "
                     "little-endian and cannot be read here");
    }
    return corrupt("unsupported " + kind + " version " + std::to_string(version));
  }
  if (!in.read_bytes(&payload_bytes, format.short_length ? 4 : 8)) return truncated();
  if (payload_bytes > format.max_payload) {
    return corrupt("implausible " + kind + " payload size");
  }
  std::uint32_t stored_crc = 0;
  if (in.size - in.pos < payload_bytes + sizeof(stored_crc)) return truncated();
  const char* payload = in.data + in.pos;
  std::memcpy(&stored_crc, payload + payload_bytes, sizeof(stored_crc));
  if (stored_crc != crc32(payload, payload_bytes)) {
    return corrupt(kind + " CRC mismatch (corrupted file)");
  }
  std::string why;
  wire_reader reader{{payload, payload_bytes}, &why};
  if (!body(reader)) {
    return corrupt(why.empty() ? kind + " payload is malformed (a count or length runs "
                                        "past its bytes)"
                               : why);
  }
  if (!reader.done()) return corrupt(kind + " payload has trailing bytes");
  in.pos += payload_bytes + sizeof(stored_crc);
  return {};
}

/// Reads `bytes`, a whole file of one frame, through `body`; throws
/// parse_error naming `source` on any fault, trailing bytes included.
template <typename Body>
void read_framed_file(const std::string& bytes, const file_format& format,
                      const std::string& source, const Body& body) {
  byte_cursor in{bytes.data(), bytes.size()};
  const auto result = read_file_frame(in, format, body);
  if (result.status != frame_status::ok) throw parse_error(source, 0, result.why);
  if (in.pos != in.size) {
    throw parse_error(source, 0,
                      "trailing bytes after the " + std::string(format.kind) + " frame");
  }
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
