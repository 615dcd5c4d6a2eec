// codec.h — one field list per record, walked by one writer and one reader.
//
// Every structured value the PPM puts on a circuit or in its journal is
// described once, by a Fields() overload that ties the value's members
// in encoding order:
//
//   inline auto Fields(GPid& g) { return std::tie(g.host, g.pid); }
//
// codec::Put walks that list to encode and codec::Get walks the same
// list to decode, so the two directions cannot drift apart.  Leaves
// follow the rules of util/bytes.h: integers little-endian at their C++
// width (an enum at the width of its underlying type, bool as one byte),
// strings as a u32 length plus bytes, vectors and maps as a u32 count
// plus elements, pairs as their two members.
//
// This header holds the lists of the core/types.h records, which the
// wire codec (core/wire.cc) and the durable store (store/lpm_store.cc)
// share.  It is header-only, so the store still does not link ppm_core.
// The wire messages' own lists stay private to wire.cc, and the store's
// own records' lists to lpm_store.cc; both are found by argument-
// dependent lookup, like any Fields() overload in the namespace of its
// type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.h"

namespace ppm::core {

// --- field lists of the shared records ------------------------------------

inline auto Fields(GPid& g) { return std::tie(g.host, g.pid); }

inline auto Fields(ProcRecord& r) {
  return std::tie(r.gpid, r.logical_parent, r.uid, r.command, r.state, r.exited, r.start_time,
                  r.end_time, r.cpu_time);
}

inline auto Fields(host::Rusage& u) {
  return std::tie(u.cpu_time, u.messages_sent, u.messages_received, u.files_opened,
                  u.max_rss_kb, u.forks);
}

inline auto Fields(RusageRecord& r) {
  return std::tie(r.gpid, r.command, r.exit_status, r.killed_by_signal, r.death_signal,
                  r.start_time, r.end_time, r.rusage);
}

inline auto Fields(HistEvent& e) {
  return std::tie(e.at, e.kind, e.pid, e.other, e.sig, e.status, e.detail);
}

inline auto Fields(TriggerSpec& s) {
  return std::tie(s.event_kind, s.subject_pid, s.action, s.action_signal, s.action_target,
                  s.migrate_dest, s.spawn_command, s.group);
}

namespace codec {

// Bounds-checked cursor over a borrowed byte window, which must outlive
// it.  Nothing is copied out except into the values Get() decodes into.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : pos_(data), end_(data + len) {}

  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  bool AtEnd() const { return pos_ == end_; }

  // Consumes the next `n` bytes and returns their start, or returns
  // nullptr and consumes nothing when fewer remain.
  const uint8_t* Take(size_t n) {
    if (remaining() < n) return nullptr;
    const uint8_t* at = pos_;
    pos_ += n;
    return at;
  }

 private:
  const uint8_t* pos_;
  const uint8_t* end_;
};

template <class T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;

// A type with a Fields() overload: encoded as its listed members in order.
template <class T>
concept Record = requires(T& v) { Fields(v); };

// Put(w, v) appends v to any sink with U8/U16/U32/U64/Str (WireBuffer,
// util::ByteWriter).  Get(r, v) decodes into v and returns false on
// underflow or a value out of range; v is then partly written and must
// be discarded.  Declared together first so each may nest the others.
template <class W, Scalar T>
void Put(W& w, T v);
template <class W>
void Put(W& w, const std::string& s);
template <class W, class T>
void Put(W& w, const std::vector<T>& v);
template <class W, class K, class V>
void Put(W& w, const std::map<K, V>& m);
template <class W, class A, class B>
void Put(W& w, const std::pair<A, B>& p);
template <class W, Record T>
void Put(W& w, const T& v);

template <Scalar T>
bool Get(Reader& r, T& v);
inline bool Get(Reader& r, TriggerAction& a);
inline bool Get(Reader& r, std::string& s);
template <class T>
bool Get(Reader& r, std::vector<T>& v);
template <class K, class V>
bool Get(Reader& r, std::map<K, V>& m);
template <class A, class B>
bool Get(Reader& r, std::pair<A, B>& p);
template <Record T>
bool Get(Reader& r, T& v);

// Several values in a row.
template <class W, class... T>
void PutAll(W& w, const T&... v) {
  (Put(w, v), ...);
}
template <class... T>
bool GetAll(Reader& r, T&... v) {
  return (Get(r, v) && ...);
}

template <class W, Scalar T>
void Put(W& w, T v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.U8(v ? 1 : 0);
  } else if constexpr (sizeof(T) == 1) {
    w.U8(static_cast<uint8_t>(v));
  } else if constexpr (sizeof(T) == 2) {
    w.U16(static_cast<uint16_t>(v));
  } else if constexpr (sizeof(T) == 4) {
    w.U32(static_cast<uint32_t>(v));
  } else {
    static_assert(sizeof(T) == 8);
    w.U64(static_cast<uint64_t>(v));
  }
}

template <class W>
void Put(W& w, const std::string& s) {
  w.Str(s);
}

template <class W, class T>
void Put(W& w, const std::vector<T>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const T& e : v) Put(w, e);
}

template <class W, class K, class V>
void Put(W& w, const std::map<K, V>& m) {
  w.U32(static_cast<uint32_t>(m.size()));
  for (const auto& [k, v] : m) PutAll(w, k, v);
}

template <class W, class A, class B>
void Put(W& w, const std::pair<A, B>& p) {
  PutAll(w, p.first, p.second);
}

template <class W, Record T>
void Put(W& w, const T& v) {
  // Fields() ties mutable references; the writer only reads through them.
  std::apply([&w](const auto&... f) { PutAll(w, f...); }, Fields(const_cast<T&>(v)));
}

template <Scalar T>
bool Get(Reader& r, T& v) {
  const uint8_t* p = r.Take(sizeof(T));
  if (!p) return false;
  uint64_t u = 0;
  for (size_t i = 0; i < sizeof(T); ++i) u |= static_cast<uint64_t>(p[i]) << (8 * i);
  if constexpr (std::is_same_v<T, bool>) {
    v = u != 0;
  } else {
    v = static_cast<T>(u);
  }
  return true;
}

// TriggerAction has three values; a larger byte is refused wherever a
// TriggerSpec is decoded, in wire frames and journal records alike.
inline bool Get(Reader& r, TriggerAction& a) {
  uint8_t v = 0;
  if (!Get(r, v) || v > static_cast<uint8_t>(TriggerAction::kSpawn)) return false;
  a = static_cast<TriggerAction>(v);
  return true;
}

inline bool Get(Reader& r, std::string& s) {
  uint32_t n = 0;
  if (!Get(r, n)) return false;
  const uint8_t* p = r.Take(n);
  if (!p) return false;
  s.assign(reinterpret_cast<const char*>(p), n);
  return true;
}

// Every element costs at least one byte, so a count larger than the
// remaining bytes is corrupt: it is refused before reserve() could turn
// it into a giant allocation.
template <class T>
bool Get(Reader& r, std::vector<T>& v) {
  uint32_t n = 0;
  if (!Get(r, n) || n > r.remaining()) return false;
  v.clear();
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!Get(r, v.emplace_back())) return false;
  }
  return true;
}

template <class K, class V>
bool Get(Reader& r, std::map<K, V>& m) {
  uint32_t n = 0;
  if (!Get(r, n) || n > r.remaining()) return false;
  m.clear();
  for (uint32_t i = 0; i < n; ++i) {
    K k{};
    if (!Get(r, k) || !Get(r, m[std::move(k)])) return false;
  }
  return true;
}

template <class A, class B>
bool Get(Reader& r, std::pair<A, B>& p) {
  return GetAll(r, p.first, p.second);
}

template <Record T>
bool Get(Reader& r, T& v) {
  return std::apply([&r](auto&... f) { return GetAll(r, f...); }, Fields(v));
}

}  // namespace codec
}  // namespace ppm::core
