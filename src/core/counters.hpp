// The one registry of always-on named counters: kernel dispatches, steps,
// checkpoint and dist traffic, guard events, serve requests. Each counter is
// a relaxed atomic in a slot that never moves; a name is registered under a
// lock the first time it is seen, and every later lookup is lock-free. It
// lives in core, the bottom of the link order, so the kernels count into it
// directly; obs::TraceRecorder exports it in every counter view and zeroes
// it on clear() (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <string_view>

#include "core/common.hpp"

namespace legw::core {

// The slot of counter `name` (registered at zero on first sight). It is
// valid for the whole process, so a hot site may look it up once.
std::atomic<i64>& counter(std::string_view name);

// Adds `delta` to counter `name`; safe from any thread.
inline void count(std::string_view name, i64 delta) {
  counter(name).fetch_add(delta, std::memory_order_relaxed);
}

// Name -> value of every non-zero counter. Safe while other threads count
// and register: it lists only fully registered names.
std::map<std::string, i64> counter_snapshot();

// Zeroes every counter in the registry.
void reset_counters();

// The kernel dispatch counters: registry names whose slots are resolved
// once, so the kernels pay no lookup per call.
enum class DispatchCounter {
  kGemmRef = 0,      // "dispatch.gemm.ref": core::gemm on the scalar kernel
  kGemmBlocked,      // "dispatch.gemm.blocked": the blocked/tiled kernel
  kLstmCellForward,  // "dispatch.lstm_cell.forward": fused forward calls
  kLstmCellBackward, // "dispatch.lstm_cell.backward": fused backward calls
  kCount
};

void bump_dispatch(DispatchCounter c);
i64 dispatch_count(DispatchCounter c);
// Zeroes only the dispatch counters.
void reset_dispatch_counters();

}  // namespace legw::core
