// Concurrency contract of the core counter registry (core/counters.hpp):
// registering a name is idempotent and thread-safe against other
// registrations, against bumps and against snapshots taken while
// registration is still in flight.
//
// Rides in legw_concurrency_tests (label tier1-concurrency), so the tsan
// preset replays these races under ThreadSanitizer.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/counters.hpp"

namespace legw {
namespace {

constexpr int kThreads = 8;

// Runs body(t) on kThreads threads released together, so the first
// registrations of a name really race.
template <typename Body>
void race(Body body) {
  std::atomic<bool> go{false};
  // lint-allow: raw-thread — the test *is* about cross-thread registration;
  // pool tasks would serialise behind parallel_for's submit lock.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go, &body, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      body(t);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
}

TEST(CounterRegistry, RacingRegistrationOfOneNameSumsExactly) {
  constexpr int kBumps = 2000;
  const std::string name = "test.registry.shared";
  std::vector<const std::atomic<i64>*> slots(kThreads, nullptr);
  race([&](int t) {
    slots[static_cast<std::size_t>(t)] = &core::counter(name);
    for (int i = 0; i < kBumps; ++i) core::count(name, 1);
  });
  // N racing registrations collapsed to one slot...
  for (const auto* slot : slots) EXPECT_EQ(slot, &core::counter(name));
  // ...holding the exact sum, listed once.
  const auto snap = core::counter_snapshot();
  ASSERT_EQ(snap.count(name), 1u);
  EXPECT_EQ(snap.at(name), i64{kThreads} * kBumps);
  core::counter(name).store(0, std::memory_order_relaxed);
}

TEST(CounterRegistry, DistinctNamesRegisteredConcurrentlyAllAppear) {
  constexpr int kNamesPerThread = 16;
  const auto name_of = [](int t, int i) {
    return "test.registry.distinct." + std::to_string(t) + "." +
           std::to_string(i);
  };
  race([&](int t) {
    for (int i = 0; i < kNamesPerThread; ++i) {
      core::count(name_of(t, i), 1 + t * kNamesPerThread + i);
    }
  });
  const auto snap = core::counter_snapshot();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kNamesPerThread; ++i) {
      const std::string name = name_of(t, i);
      ASSERT_EQ(snap.count(name), 1u) << name << " missing";
      EXPECT_EQ(snap.at(name), 1 + t * kNamesPerThread + i) << name;
      core::counter(name).store(0, std::memory_order_relaxed);
    }
  }
}

TEST(CounterRegistry, SnapshotsDuringRegistrationShowOnlyCompleteEntries) {
  // Half the threads register fresh names, each bumped once to a value
  // derived from its index; the other half snapshot meanwhile. A listed
  // entry must carry a whole name from the set and that name's value.
  constexpr int kNames = 64;
  const std::string prefix = "test.registry.snapshot.";
  std::atomic<int> torn{0};
  race([&](int t) {
    if (t % 2 == 0) {
      for (int i = t / 2; i < kNames; i += kThreads / 2) {
        core::count(prefix + std::to_string(i), 100 + i);
      }
      return;
    }
    for (int round = 0; round < 32; ++round) {
      for (const auto& [name, value] : core::counter_snapshot()) {
        if (name.empty()) torn.fetch_add(1, std::memory_order_relaxed);
        if (name.rfind(prefix, 0) != 0) continue;
        const std::string index = name.substr(prefix.size());
        const bool whole = !index.empty() && index.size() <= 2 &&
                           index.find_first_not_of("0123456789") ==
                               std::string::npos &&
                           std::stoi(index) < kNames;
        if (!whole || value != 100 + std::stoi(index)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(torn.load(), 0);
  const auto snap = core::counter_snapshot();
  for (int i = 0; i < kNames; ++i) {
    const std::string name = prefix + std::to_string(i);
    ASSERT_EQ(snap.count(name), 1u) << name << " missing";
    EXPECT_EQ(snap.at(name), 100 + i);
    core::counter(name).store(0, std::memory_order_relaxed);
  }
}

TEST(CounterRegistry, ResetZeroesEveryCounterAndSnapshotsOmitZeros) {
  core::count("test.registry.reset.a", 3);
  core::bump_dispatch(core::DispatchCounter::kGemmRef);
  ASSERT_EQ(core::counter_snapshot().count("test.registry.reset.a"), 1u);
  ASSERT_EQ(core::counter_snapshot().count("dispatch.gemm.ref"), 1u);
  core::reset_counters();
  EXPECT_TRUE(core::counter_snapshot().empty());
  EXPECT_EQ(core::dispatch_count(core::DispatchCounter::kGemmRef), 0);
  // The slot survives the reset: counting again reuses it.
  const std::atomic<i64>* slot = &core::counter("test.registry.reset.a");
  core::count("test.registry.reset.a", 2);
  EXPECT_EQ(&core::counter("test.registry.reset.a"), slot);
  EXPECT_EQ(core::counter_snapshot().at("test.registry.reset.a"), 2);
  core::reset_counters();
}

}  // namespace
}  // namespace legw
