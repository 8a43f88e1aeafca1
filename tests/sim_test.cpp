// Unit tests for the discrete-event simulation kernel and RNG.
#include <gtest/gtest.h>

#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace spire::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, FifoWithinSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  Time fired_at = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilAdvancesClockPastQuietPeriods) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(1000, [&] { ++fired; });
  sim.run_until(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(2000);
  EXPECT_EQ(fired, 2);
}

// Regression pin for the run_until deadline edge: an event executing
// inside the window that schedules work at *exactly* the deadline must
// see that work run in the same call — the deadline is inclusive for
// events that materialize mid-run, not only for events already queued
// when run_until was entered.
TEST(Simulator, RunUntilRunsEventsScheduledAtExactlyDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(50, [&] {
    order.push_back(1);
    sim.schedule_at(100, [&] { order.push_back(2); });  // exactly deadline
  });
  // An event at the deadline itself spawning more deadline work: both
  // the parent and the child run in this call, FIFO at t=100.
  sim.schedule_at(100, [&] {
    order.push_back(3);
    sim.schedule_after(0, [&] { order.push_back(4); });
  });
  EXPECT_EQ(sim.run_until(100), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 4}));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsScheduledInPastClampToNow) {
  Simulator sim;
  Time fired_at = 999;
  sim.schedule_at(100, [&] {
    sim.schedule_at(5, [&] { fired_at = sim.now(); });  // "in the past"
  });
  sim.run();
  EXPECT_EQ(fired_at, 100u);
}

TEST(Simulator, SelfReschedulingEventRespectsLimit) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule_after(10, tick);
  };
  sim.schedule_after(10, tick);
  sim.run(100);
  EXPECT_EQ(count, 100);
}

// Golden-sequence determinism: interleaved equal-timestamp events, some
// cancelled mid-run, driven through run_until. The execution order and
// clock trace must match the documented (timestamp, schedule-order)
// total order — the exact semantics of the original std::map-based
// scheduler — and be bit-identical across runs.
TEST(Simulator, GoldenSequenceDeterminism) {
  // One run of the scenario, returning the "(label@now)" trace.
  const auto run_scenario = [] {
    Simulator sim;
    std::vector<std::pair<int, Time>> trace;
    const auto note = [&](int label) {
      return [&trace, label, &sim] { trace.emplace_back(label, sim.now()); };
    };
    // Equal timestamps interleaved with distinct ones, scheduled out of
    // time order so heap layout differs from schedule order.
    sim.schedule_at(20, note(1));
    sim.schedule_at(10, note(2));
    const EventId doomed1 = sim.schedule_at(10, note(3));
    sim.schedule_at(10, note(4));
    sim.schedule_at(30, note(5));
    const EventId doomed2 = sim.schedule_at(20, note(6));
    sim.schedule_at(20, note(7));
    // Mid-run mutation: the first event at t=10 cancels one t=10 peer
    // (already surfaced ordering must hold) and one t=20 event, then
    // schedules a new equal-timestamp event at t=20 (fires after all
    // previously scheduled t=20 events, FIFO).
    sim.schedule_at(5, [&] {
      EXPECT_TRUE(sim.cancel(doomed1));
      EXPECT_TRUE(sim.cancel(doomed2));
      sim.schedule_at(20, note(8));
    });
    EXPECT_EQ(sim.run_until(15), 3u);  // t=5 lambda, then 2 and 4 at t=10
    EXPECT_EQ(sim.now(), 15u);         // clock advances to the deadline
    sim.run_until(100);
    EXPECT_EQ(sim.now(), 100u);
    return trace;
  };

  const auto trace = run_scenario();
  // Golden order: by (timestamp, schedule order) with 3 and 6 cancelled.
  const std::vector<std::pair<int, Time>> golden{
      {2, 10}, {4, 10}, {1, 20}, {7, 20}, {8, 20}, {5, 30}};
  EXPECT_EQ(trace, golden);
  // Bit-identical across runs.
  EXPECT_EQ(run_scenario(), trace);
}

// Cancel spec: already-fired, unknown, and double-cancelled ids all
// return false, and none of them may corrupt the queue.
TEST(Simulator, CancelEdgeCasesLeaveQueueIntact) {
  Simulator sim;
  std::vector<int> order;
  const EventId fired = sim.schedule_at(1, [&] { order.push_back(1); });
  const EventId live = sim.schedule_at(2, [&] { order.push_back(2); });
  const EventId cancelled = sim.schedule_at(3, [&] { order.push_back(3); });
  sim.run(1);  // fires event 1

  EXPECT_FALSE(sim.cancel(fired));            // already ran
  EXPECT_FALSE(sim.cancel(EventId{0}));       // id 0 is never issued
  EXPECT_FALSE(sim.cancel(EventId{999999}));  // never scheduled
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_FALSE(sim.cancel(cancelled));        // double cancel
  EXPECT_EQ(sim.pending(), 1u);

  // Cancelling the currently-executing event from inside its own
  // callback must also fail (it is no longer pending).
  EventId self = 0;
  self = sim.schedule_at(4, [&] {
    EXPECT_FALSE(sim.cancel(self));
    order.push_back(4);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(sim.pending(), 0u);
}

// Cancel-heavy churn: enough tombstones to trigger heap compaction and
// slot trimming, with survivors still firing in exact FIFO order.
TEST(Simulator, MassCancellationPreservesSurvivorOrder) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventId> ids;
  constexpr int kEvents = 3000;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(sim.schedule_at(100, [&fired, i] { fired.push_back(i); }));
  }
  // Cancel a scattered ~6/7 of the events, visiting ids in a shuffled
  // order so tombstones land throughout the heap, not just at one end.
  std::vector<int> survivors;
  std::vector<bool> dead(kEvents, false);
  for (int i = 0; i < kEvents; ++i) {
    const int victim = (i * 1103) % kEvents;
    if (victim % 7 != 0 && !dead[static_cast<std::size_t>(victim)]) {
      EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(victim)]));
      dead[static_cast<std::size_t>(victim)] = true;
    }
  }
  for (int i = 0; i < kEvents; ++i) {
    if (!dead[static_cast<std::size_t>(i)]) survivors.push_back(i);
  }
  EXPECT_EQ(sim.pending(), survivors.size());
  sim.run();
  // Survivors fire in schedule (FIFO) order at the shared timestamp.
  EXPECT_EQ(fired, survivors);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), 100u);
}

// ---- conservative-parallel kernel ---------------------------------------

// Events stay on the shard that scheduled them (ShardScope at build
// time, executing shard at run time), and per-shard (time, FIFO) order
// holds. Cross-shard interleaving within a window is unobservable by
// construction — shards share no state — so the assertion is on the
// per-shard traces, the only order the kernel guarantees.
TEST(SimulatorParallel, ShardAffinityAndFifo) {
  Simulator sim;
  const ShardId a = sim.register_shard("a");
  const ShardId b = sim.register_shard("b");
  EXPECT_EQ(sim.shard_count(), 3u);
  EXPECT_EQ(sim.shard_name(a), "a");
  std::vector<std::pair<int, Time>> trace_a;
  std::vector<std::pair<int, Time>> trace_b;
  {
    ShardScope scope(sim, a);
    EXPECT_EQ(sim.current_shard(), a);
    sim.schedule_at(10, [&] {
      EXPECT_EQ(sim.current_shard(), a);
      trace_a.emplace_back(1, sim.now());
      // Rescheduling from inside an event stays on the event's shard.
      sim.schedule_after(5, [&] {
        EXPECT_EQ(sim.current_shard(), a);
        trace_a.emplace_back(2, sim.now());
      });
    });
    sim.schedule_at(10, [&] { trace_a.emplace_back(3, sim.now()); });
  }
  EXPECT_EQ(sim.current_shard(), kMainShard);
  {
    ShardScope scope(sim, b);
    sim.schedule_at(12, [&] {
      EXPECT_EQ(sim.current_shard(), b);
      trace_b.emplace_back(4, sim.now());
    });
  }
  sim.run();
  const std::vector<std::pair<int, Time>> golden_a{{1, 10}, {3, 10}, {2, 15}};
  const std::vector<std::pair<int, Time>> golden_b{{4, 12}};
  EXPECT_EQ(trace_a, golden_a);
  EXPECT_EQ(trace_b, golden_b);
  EXPECT_EQ(sim.now(), 15u);
}

// Cross-shard sends merge in (arrival time, source shard, source
// program order), interleaved FIFO with the destination's own events.
TEST(SimulatorParallel, MailboxMergeOrderIsCanonical) {
  Simulator sim;
  const ShardId a = sim.register_shard("a");
  const ShardId b = sim.register_shard("b");
  const ShardId c = sim.register_shard("c");
  sim.note_link_latency(10);
  std::vector<int> seen;
  {
    // Both sources mail shard c for the same arrival time; source shard
    // a must deliver before source shard b regardless of send order.
    ShardScope scope(sim, b);
    sim.schedule_at(5, [&] {
      sim.send_to(c, 15, [&] { seen.push_back(20); });  // arrives t=20
      sim.send_to(c, 10, [&] { seen.push_back(15); });  // arrives t=15
    });
  }
  {
    ShardScope scope(sim, a);
    sim.schedule_at(5, [&] {
      sim.send_to(c, 15, [&] { seen.push_back(10); });  // arrives t=20 too
    });
  }
  {
    ShardScope scope(sim, c);
    sim.schedule_at(20, [&] { seen.push_back(1); });  // queued first at t=20
  }
  sim.run();
  // t=15 mail, then at t=20: c's own earlier-queued event was scheduled
  // before the mails merged, and mail from shard a precedes shard b.
  EXPECT_EQ(seen, (std::vector<int>{15, 1, 10, 20}));
  EXPECT_EQ(sim.kernel_stats().mails_routed, 3u);
}

// The same sharded workload must produce bit-identical results at every
// worker count: identical trace, clocks, and kernel event counts.
TEST(SimulatorParallel, DeterministicAcrossWorkerCounts) {
  struct Result {
    std::vector<std::uint64_t> trace;  // encoded (shard, label, time)
    Time final_now = 0;
    std::uint64_t executed = 0;
  };
  const auto run_scenario = [](unsigned workers) {
    Simulator sim;
    sim.set_workers(workers);
    constexpr int kShards = 7;
    std::vector<ShardId> shards;
    for (int i = 0; i < kShards; ++i) {
      shards.push_back(sim.register_shard("s" + std::to_string(i)));
    }
    sim.note_link_latency(40);
    Result r;
    // Per-shard traces, concatenated deterministically afterwards (a
    // shared trace vector would itself be a cross-shard race).
    std::vector<std::vector<std::uint64_t>> traces(kShards);
    // Token-ring handlers: hop i runs on shard i, records into shard
    // i's own trace, and forwards to shard i+1's handler — everything a
    // shard touches is its own.
    auto hops = std::make_shared<std::vector<std::function<void(int)>>>(
        static_cast<std::size_t>(kShards));
    for (int i = 0; i < kShards; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto next_idx = static_cast<std::size_t>((i + 1) % kShards);
      auto* trace = &traces[idx];
      const ShardId next = shards[next_idx];
      // Stored hops hold the table weakly (a strong capture is a cycle
      // that leaks); the in-flight token's strong copy keeps it alive.
      (*hops)[idx] = [&sim, trace, i, next, next_idx,
                      table = std::weak_ptr(hops)](int count) {
        trace->push_back((static_cast<std::uint64_t>(i) << 48) |
                         (static_cast<std::uint64_t>(count) << 32) |
                         sim.now());
        if (count > 0) {
          sim.send_to(next, 45, [hops = table.lock(), next_idx, count] {
            (*hops)[next_idx](count - 1);
          });
        }
      };
    }
    for (int i = 0; i < kShards; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      ShardScope scope(sim, shards[idx]);
      // Self-rescheduling local timer with shard-dependent period.
      auto tick = std::make_shared<std::function<void()>>();
      const Time period = 7 + static_cast<Time>(i);
      auto* trace = &traces[idx];
      *tick = [&sim, trace, i, period, self = std::weak_ptr(tick)] {
        trace->push_back((static_cast<std::uint64_t>(i) << 32) | sim.now());
        sim.schedule_after(period, [tick = self.lock()] { (*tick)(); });
      };
      sim.schedule_after(period, [tick] { (*tick)(); });
      // Kick the token into the ring from each shard.
      const auto next_idx = static_cast<std::size_t>((i + 1) % kShards);
      const ShardId next = shards[next_idx];
      sim.schedule_at(3, [&sim, next, next_idx, hops] {
        sim.send_to(next, 45, [hops, next_idx] { (*hops)[next_idx](12); });
      });
    }
    r.executed = sim.run_until(1500);
    r.final_now = sim.now();
    for (auto& t : traces) {
      r.trace.insert(r.trace.end(), t.begin(), t.end());
    }
    const KernelStats st = sim.kernel_stats();
    EXPECT_EQ(st.lookahead_violations, 0u) << "workers=" << workers;
    EXPECT_EQ(st.lookahead, 40u);
    return r;
  };
  const Result base = run_scenario(1);
  EXPECT_GT(base.executed, 1000u);
  EXPECT_EQ(base.final_now, 1500u);
  for (const unsigned workers : {2u, 4u, 8u}) {
    const Result r = run_scenario(workers);
    EXPECT_EQ(r.trace, base.trace) << "workers=" << workers;
    EXPECT_EQ(r.executed, base.executed) << "workers=" << workers;
    EXPECT_EQ(r.final_now, base.final_now) << "workers=" << workers;
  }
}

// A cross-shard send below the lookahead is clamped to the window
// horizon — deterministically — and counted, never lost or reordered
// behind already-executed time.
TEST(SimulatorParallel, LookaheadViolationClampsToHorizon) {
  const auto run_scenario = [](unsigned workers) {
    Simulator sim;
    sim.set_workers(workers);
    const ShardId a = sim.register_shard("a");
    const ShardId b = sim.register_shard("b");
    sim.note_link_latency(100);
    std::vector<Time> arrivals;
    {
      ShardScope scope(sim, b);
      // Keep shard b busy through the window so a too-early delivery
      // could otherwise land in its past.
      for (Time t = 10; t <= 90; t += 10) sim.schedule_at(t, [] {});
    }
    {
      ShardScope scope(sim, a);
      sim.schedule_at(10, [&] {
        sim.send_to(b, 5, [&] { arrivals.push_back(sim.now()); });  // < 100
      });
    }
    sim.run();
    EXPECT_EQ(sim.kernel_stats().lookahead_violations, 1u);
    return arrivals;
  };
  const auto base = run_scenario(1);
  ASSERT_EQ(base.size(), 1u);
  EXPECT_GE(base[0], 15u);  // never before the nominal arrival
  EXPECT_EQ(run_scenario(4), base);
}

// run_until must advance every shard's clock to the deadline, and
// driver-context scheduling afterwards lands at the right times.
TEST(SimulatorParallel, RunUntilAdvancesAllShardClocks) {
  Simulator sim;
  const ShardId a = sim.register_shard("a");
  sim.register_shard("b");
  {
    ShardScope scope(sim, a);
    sim.schedule_at(50, [] {});
  }
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000u);
  Time fired_at = 0;
  {
    ShardScope scope(sim, a);
    sim.schedule_after(10, [&] { fired_at = sim.now(); });
  }
  sim.run_until(2000);
  EXPECT_EQ(fired_at, 1010u);
}

// Cancellation works across the encoded id space: shard-local ids from
// any shard, from driver context, including ids from shard 0.
TEST(SimulatorParallel, CancelAcrossShards) {
  Simulator sim;
  const ShardId a = sim.register_shard("a");
  bool fired_a = false;
  bool fired_main = false;
  EventId id_a = 0;
  {
    ShardScope scope(sim, a);
    id_a = sim.schedule_at(10, [&] { fired_a = true; });
  }
  const EventId id_main = sim.schedule_at(10, [&] { fired_main = true; });
  EXPECT_NE(id_a, id_main);
  EXPECT_TRUE(sim.cancel(id_a));
  EXPECT_FALSE(sim.cancel(id_a));
  EXPECT_TRUE(sim.cancel(id_main));
  sim.run();
  EXPECT_FALSE(fired_a);
  EXPECT_FALSE(fired_main);
  EXPECT_EQ(sim.pending(), 0u);
}

// Shard 0 may interact with parallel shards freely (it runs
// exclusively), and the equal-time tiebreak is canonical: shard 0
// first, then shards in id order.
TEST(SimulatorParallel, MainShardCoordinatesParallelShards) {
  Simulator sim;
  const ShardId a = sim.register_shard("a");
  std::vector<int> order;
  // Shard-0 control event at t=100 ties with a shard-a event at t=100:
  // shard 0 wins.
  {
    ShardScope scope(sim, a);
    sim.schedule_at(100, [&] { order.push_back(2); });
  }
  sim.schedule_at(100, [&] {
    order.push_back(1);
    // Control-plane send needs no lookahead: it lands mid-window-free.
    sim.send_to(a, 1, [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  const KernelStats st = sim.kernel_stats();
  EXPECT_EQ(st.lookahead_violations, 0u);
  EXPECT_GE(st.exclusive_batches, 1u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng b(42);
  b.fork();
  // Parent stream continues deterministically after fork.
  EXPECT_EQ(a.next(), b.next());
  // Child differs from parent.
  Rng a2(42);
  EXPECT_NE(child.next(), a2.next());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(99);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto reshuffled = v;
  std::sort(reshuffled.begin(), reshuffled.end());
  EXPECT_EQ(reshuffled, sorted);
}

}  // namespace
}  // namespace spire::sim
