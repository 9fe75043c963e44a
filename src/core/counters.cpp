#include "core/counters.hpp"

#include <iterator>

#include "core/mutex.hpp"

namespace legw::core {

namespace {

// Open addressing with linear probing over a fixed table: slots never move
// and are never freed, so a published slot's reference stays valid forever.
constexpr std::size_t kCapacity = 512;  // power of two; ~40 names in use

// One cache line per slot, so counters bumped from different threads do not
// share a line.
struct alignas(64) Slot {
  std::atomic<i64> value{0};
  std::atomic<bool> published{false};
  std::string name;  // written once, before `published` is released
};

struct Registry {
  Mutex mu;  // serialises registration; lookups and bumps never take it
  std::size_t size LEGW_GUARDED_BY(mu) = 0;
  Slot slots[kCapacity];
};

Registry& registry() {
  static Registry r;
  return r;
}

// The slot holding `name`, or else the free slot that ends its probe chain
// (names are only ever appended to a chain, and one slot is always free).
Slot& probe(Registry& r, std::string_view name) {
  u64 h = 1469598103934665603ULL;  // FNV-1a
  for (const char ch : name) {
    h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
  }
  for (;; ++h) {
    Slot& s = r.slots[h & (kCapacity - 1)];
    if (!s.published.load(std::memory_order_acquire) || s.name == name) {
      return s;
    }
  }
}

}  // namespace

std::atomic<i64>& counter(std::string_view name) {
  Registry& r = registry();
  Slot* s = &probe(r, name);
  // Re-check the name: a free slot may be claimed by another name meanwhile.
  if (s->published.load(std::memory_order_acquire) && s->name == name) {
    return s->value;
  }
  MutexLock lock(r.mu);
  s = &probe(r, name);  // a racing registration may have published `name`
  if (!s->published.load(std::memory_order_acquire)) {
    LEGW_CHECK(++r.size < kCapacity,
               "counter registry full at '" + std::string(name) + "'");
    s->name = name;
    s->published.store(true, std::memory_order_release);
  }
  return s->value;
}

std::map<std::string, i64> counter_snapshot() {
  std::map<std::string, i64> out;
  for (const Slot& s : registry().slots) {
    if (!s.published.load(std::memory_order_acquire)) continue;
    const i64 v = s.value.load(std::memory_order_relaxed);
    if (v != 0) out[s.name] = v;
  }
  return out;
}

void reset_counters() {
  for (Slot& s : registry().slots) s.value.store(0, std::memory_order_relaxed);
}

namespace {

std::atomic<i64>& dispatch_slot(DispatchCounter c) {
  static std::atomic<i64>* const slots[] = {
      &counter("dispatch.gemm.ref"), &counter("dispatch.gemm.blocked"),
      &counter("dispatch.lstm_cell.forward"),
      &counter("dispatch.lstm_cell.backward")};
  static_assert(std::size(slots) ==
                static_cast<std::size_t>(DispatchCounter::kCount));
  return *slots[static_cast<int>(c)];
}

}  // namespace

void bump_dispatch(DispatchCounter c) {
  dispatch_slot(c).fetch_add(1, std::memory_order_relaxed);
}

i64 dispatch_count(DispatchCounter c) {
  return dispatch_slot(c).load(std::memory_order_relaxed);
}

void reset_dispatch_counters() {
  for (int i = 0; i < static_cast<int>(DispatchCounter::kCount); ++i) {
    dispatch_slot(static_cast<DispatchCounter>(i))
        .store(0, std::memory_order_relaxed);
  }
}

}  // namespace legw::core
