#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spire::sim {
namespace {

/// Saturating add so kNever propagates as "infinity".
constexpr Time sat_add(Time a, Time b) {
  return (b != kNever && a <= kNever - b) ? a + b : kNever;
}

/// Polite spin: tells the core we are in a wait loop.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause");
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Spins this many iterations before degrading to yield(), so a window
/// barrier costs nanoseconds when shards are balanced but does not
/// starve an oversubscribed machine.
constexpr unsigned kSpinBudget = 4096;

/// When nothing bounds a parallel window — no shard-0 event, no
/// deadline, no finite lookahead — windows fall back to this fixed
/// span of simulated time so run(limit) still observes its budget at
/// boundaries. Fixed, so window placement (and therefore any
/// lookahead-violation clamping) never depends on the limit argument.
constexpr Time kFallbackWindow = kSecond;

}  // namespace

constinit thread_local Simulator::ExecContext Simulator::tls_exec_;

Simulator::Simulator() {
  auto s = std::make_unique<Shard>();
  s->id = kMainShard;
  s->name = "main";
  main_shard_ = s.get();
  shards_.push_back(std::move(s));
}

Simulator::~Simulator() { stop_pool(); }

// ---- per-shard queue (the pre-shard kernel's exact algorithm) -----------

EventId Simulator::Shard::schedule_local(Time at, std::function<void()> fn) {
  const EventId seq = next_seq++;
  slots.push_back(std::move(fn));
  ++live;
  heap.push_back(Entry{at, seq});
  std::push_heap(heap.begin(), heap.end(), later);
  maybe_trim_slots();
  return seq;
}

bool Simulator::Shard::cancel_local(EventId seq) {
  if (!is_live(seq)) return false;  // already ran, cancelled, or unknown
  slots[seq - base] = nullptr;
  --live;
  // Lazy cancellation leaves a tombstone in the heap; rebuild once
  // tombstones dominate so cancel-heavy workloads stay bounded.
  if (heap.size() > 64 && heap.size() > 2 * live) compact_heap();
  return true;
}

void Simulator::Shard::compact_heap() {
  std::erase_if(heap, [this](const Entry& e) { return !is_live(e.seq); });
  std::make_heap(heap.begin(), heap.end(), later);
}

void Simulator::Shard::prune_dead() {
  while (!heap.empty() && !is_live(heap.front().seq)) {
    std::pop_heap(heap.begin(), heap.end(), later);
    heap.pop_back();
  }
}

void Simulator::Shard::maybe_trim_slots() {
  if (slots.size() < next_trim) return;
  if (live == 0) {
    slots.clear();
    base = next_seq;
  } else {
    // Seqs below every pending event form a dead prefix; drop it. (Dead
    // holes above the first live seq cannot be dropped without
    // remapping ids, so a long-lived event pins at most its own tail.)
    std::size_t first_live = 0;
    while (!slots[first_live]) ++first_live;
    slots.erase(slots.begin(),
                slots.begin() + static_cast<std::ptrdiff_t>(first_live));
    base += first_live;
  }
  next_trim = std::max<std::size_t>(1024, slots.size() * 2);
}

// ---- scheduling ---------------------------------------------------------

Simulator::Shard& Simulator::scheduling_shard() const {
  const ExecContext ctx = tls_exec_;
  if (ctx.sim == this) return *ctx.shard;
  return *shards_[ambient_shard_];
}

EventId Simulator::schedule_at(Time at, std::function<void()> fn) {
  Shard& s = scheduling_shard();
  // Clamp "in the past" to the shard-local clock — or, from driver
  // context, to the global clock as well (a shard created mid-run must
  // not accept events behind the simulation).
  const Time floor = tls_exec_.sim == this ? s.now : std::max(s.now, now_);
  if (at < floor) at = floor;
  return encode_id(s.id, s.schedule_local(at, std::move(fn)));
}

EventId Simulator::schedule_after(Time delay, std::function<void()> fn) {
  return schedule_at(sat_add(now(), delay), std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const auto shard = static_cast<ShardId>(id >> kSeqBits);
  if (shard >= shards_.size()) return false;
  return shards_[shard]->cancel_local(id & kSeqMask);
}

// ---- sharding -----------------------------------------------------------

ShardId Simulator::register_shard(std::string name) {
  if (shards_.size() >= (std::size_t{1} << (64 - kSeqBits))) {
    throw std::length_error("sim: shard id space exhausted");
  }
  auto s = std::make_unique<Shard>();
  s->id = static_cast<ShardId>(shards_.size());
  s->name = std::move(name);
  s->now = now_;  // a shard registered mid-simulation starts at now
  const ShardId id = s->id;
  shards_.push_back(std::move(s));
  return id;
}

const std::string& Simulator::shard_name(ShardId shard) const {
  return shards_.at(shard)->name;
}

ShardId Simulator::current_shard() const {
  const ExecContext ctx = tls_exec_;
  return ctx.sim == this ? ctx.shard->id : ambient_shard_;
}

void Simulator::note_link_latency(Time latency) {
  lookahead_ = std::min(lookahead_, latency);
}

void Simulator::set_workers(unsigned workers) {
  if (workers == 0) workers = 1;
  if (workers == workers_) return;
  stop_pool();
  workers_ = workers;
}

void Simulator::send_to(ShardId dst, Time delay, std::function<void()> fn) {
  const ExecContext ctx = tls_exec_;
  const Time base = ctx.sim == this ? ctx.shard->now : now_;
  post_at(dst, sat_add(base, delay), std::move(fn));
}

void Simulator::post_at(ShardId dst, Time at, std::function<void()> fn) {
  const ExecContext ctx = tls_exec_;
  Shard& d = *shards_.at(dst);
  if (ctx.sim != this) {
    // Driver context: the queues are quiescent, insert directly.
    d.schedule_local(std::max({at, d.now, now_}), std::move(fn));
    return;
  }
  Shard& src = *ctx.shard;
  if (src.id == dst) {
    // Same-shard send degrades to an ordinary local event.
    src.schedule_local(std::max(at, src.now), std::move(fn));
    return;
  }
  Time arrival = std::max(at, src.now);
  // Conservative safety: a parallel shard's cross-shard send must land
  // outside the current window (its peers may already have executed up
  // to the horizon). A send that breaks the lookahead contract is
  // clamped to the horizon — which is a pure function of queue state,
  // so even the violation is deterministic — and counted. Shard 0 is
  // exempt: it only runs while every other shard is idle at an earlier
  // or equal time, so any future-dated delivery from it is safe.
  if (src.id != kMainShard && arrival < window_horizon_) {
    arrival = window_horizon_;
    ++src.lookahead_violations;
  }
  src.outbox.push_back(Mail{dst, arrival, std::move(fn)});
}

void Simulator::merge_mailboxes() {
  scratch_mail_.clear();
  for (auto& sp : shards_) {
    if (sp->outbox.empty()) continue;
    for (auto& m : sp->outbox) scratch_mail_.push_back(std::move(m));
    sp->outbox.clear();
  }
  if (scratch_mail_.empty()) return;
  // Canonical merge order: (destination, arrival time, source shard,
  // source program order). Outboxes were drained in shard-id order with
  // each one already in program order, so a stable sort on (dst, at)
  // yields exactly that order without carrying source keys in the Mail.
  std::stable_sort(scratch_mail_.begin(), scratch_mail_.end(),
                   [](const Mail& a, const Mail& b) {
                     return a.dst != b.dst ? a.dst < b.dst : a.at < b.at;
                   });
  mails_routed_ += scratch_mail_.size();
  for (auto& m : scratch_mail_) {
    Shard& d = *shards_[m.dst];
    d.schedule_local(std::max(m.at, d.now), std::move(m.fn));
  }
  scratch_mail_.clear();
}

// ---- single-shard execution (bit-exact pre-shard fast path) -------------

bool Simulator::step_single() {
  Shard& s = *main_shard_;
  s.prune_dead();
  if (s.heap.empty()) return false;
  std::pop_heap(s.heap.begin(), s.heap.end(), later);
  const Entry ev = s.heap.back();
  s.heap.pop_back();
  std::function<void()> fn = std::move(s.slots[ev.seq - s.base]);
  s.slots[ev.seq - s.base] = nullptr;
  --s.live;
  now_ = ev.at;
  s.now = ev.at;
  ++s.executed;
  fn();
  return true;
}

std::size_t Simulator::run_until_single(Time deadline) {
  Shard& s = *main_shard_;
  std::size_t n = 0;
  while (true) {
    s.prune_dead();
    if (s.heap.empty() || s.heap.front().at > deadline) break;
    step_single();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  s.now = now_;
  return n;
}

// ---- multi-shard execution ----------------------------------------------

bool Simulator::step() {
  if (shards_.size() == 1) return step_single();
  // Serial stepping runs the canonically next event across all shards:
  // min (time, shard id, seq). No window is open, so cross-shard sends
  // need no horizon clamp.
  window_horizon_ = 0;
  merge_mailboxes();
  Shard* best = nullptr;
  for (auto& sp : shards_) {
    const Time t = sp->next_at();
    if (t == kNever) continue;
    if (best == nullptr || t < best->heap.front().at) best = sp.get();
  }
  if (best == nullptr) return false;
  Shard& s = *best;
  std::pop_heap(s.heap.begin(), s.heap.end(), later);
  const Entry ev = s.heap.back();
  s.heap.pop_back();
  std::function<void()> fn = std::move(s.slots[ev.seq - s.base]);
  s.slots[ev.seq - s.base] = nullptr;
  --s.live;
  s.now = ev.at;
  now_ = std::max(now_, ev.at);
  ++s.executed;
  const ExecContext saved = tls_exec_;
  tls_exec_ = ExecContext{this, &s};
  fn();
  tls_exec_ = saved;
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  if (shards_.size() == 1) {
    std::size_t n = 0;
    while (n < limit && step_single()) ++n;
    return n;
  }
  return run_multi(kNever, limit);
}

std::size_t Simulator::run_until(Time deadline) {
  if (shards_.size() == 1) return run_until_single(deadline);
  return run_multi(deadline, SIZE_MAX);
}

std::size_t Simulator::run_exclusive(Shard& s0, Time cap, std::size_t budget) {
  // Shard 0 runs alone while it holds the earliest event, so its events
  // may touch any shard's components. Its cross-shard posts cap the
  // batch dynamically: once it mails a delivery for time A, it may only
  // keep running events at <= A (at == A is fine — shard 0 wins the
  // equal-time tiebreak), otherwise the canonical time order between
  // shard 0 and the destination shard would invert.
  const ExecContext saved = tls_exec_;
  tls_exec_ = ExecContext{this, &s0};
  std::size_t n = 0;
  std::size_t seen_outbox = s0.outbox.size();
  while (n < budget) {
    s0.prune_dead();
    if (s0.heap.empty() || s0.heap.front().at > cap) break;
    std::pop_heap(s0.heap.begin(), s0.heap.end(), later);
    const Entry ev = s0.heap.back();
    s0.heap.pop_back();
    std::function<void()> fn = std::move(s0.slots[ev.seq - s0.base]);
    s0.slots[ev.seq - s0.base] = nullptr;
    --s0.live;
    s0.now = ev.at;
    ++s0.executed;
    fn();
    ++n;
    for (; seen_outbox < s0.outbox.size(); ++seen_outbox) {
      cap = std::min(cap, s0.outbox[seen_outbox].at);
    }
  }
  tls_exec_ = saved;
  return n;
}

std::size_t Simulator::run_shard_window(Shard& s, Time horizon) {
  const ExecContext saved = tls_exec_;
  tls_exec_ = ExecContext{this, &s};
  std::size_t n = 0;
  while (true) {
    s.prune_dead();
    if (s.heap.empty() || s.heap.front().at >= horizon) break;
    std::pop_heap(s.heap.begin(), s.heap.end(), later);
    const Entry ev = s.heap.back();
    s.heap.pop_back();
    std::function<void()> fn = std::move(s.slots[ev.seq - s.base]);
    s.slots[ev.seq - s.base] = nullptr;
    --s.live;
    s.now = ev.at;
    ++s.executed;
    fn();
    ++n;
  }
  tls_exec_ = saved;
  return n;
}

std::size_t Simulator::run_multi(Time deadline, std::size_t limit) {
  ensure_pool();
  const bool pooled = !threads_.empty();
  if (pooled) activate_pool();
  Shard& s0 = *main_shard_;
  std::size_t total = 0;
  while (total < limit) {
    merge_mailboxes();
    const Time t0 = s0.next_at();
    Time tmin_rest = kNever;
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      tmin_rest = std::min(tmin_rest, shards_[i]->next_at());
    }
    const Time tmin = std::min(t0, tmin_rest);
    if (tmin == kNever || tmin > deadline) break;
    if (t0 <= tmin_rest) {
      // Exclusive phase: shard 0 holds the earliest event (winning the
      // equal-time tiebreak), so it runs serially until the parallel
      // shards catch up in priority.
      total += run_exclusive(s0, std::min(tmin_rest, deadline), limit - total);
      ++exclusive_batches_;
      continue;
    }
    // Parallel window: every shard may run its events with timestamp
    // strictly below the horizon — no cross-shard delivery can land
    // inside it (in-flight mail was merged above; new mail from a
    // parallel shard must clear the horizon; shard 0 is not running).
    Time horizon = sat_add(tmin_rest, lookahead_);
    horizon = std::min(horizon, t0);
    if (deadline != kNever) horizon = std::min(horizon, deadline + 1);
    if (horizon == kNever) horizon = sat_add(tmin_rest, kFallbackWindow);
    window_horizon_ = horizon;
    const std::uint64_t before = events_executed();
    if (pooled) {
      pending_workers_.store(workers_ - 1, std::memory_order_relaxed);
      epoch_.fetch_add(1, std::memory_order_release);
      run_slice(0);
      unsigned spins = 0;
      while (pending_workers_.load(std::memory_order_acquire) != 0) {
        if (++spins < kSpinBudget) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
      }
    } else {
      for (std::size_t i = 1; i < shards_.size(); ++i) {
        run_shard_window(*shards_[i], window_horizon_);
      }
    }
    ++parallel_windows_;
    total += events_executed() - before;
  }
  if (pooled) deactivate_pool();
  finish_run(deadline);
  return total;
}

void Simulator::finish_run(Time deadline) {
  Time max_now = now_;
  for (auto& sp : shards_) max_now = std::max(max_now, sp->now);
  if (deadline != kNever) {
    max_now = std::max(max_now, deadline);
    // run_until semantics: every shard's clock advances to the deadline
    // even across quiet queues.
    for (auto& sp : shards_) sp->now = std::max(sp->now, deadline);
  }
  now_ = max_now;
}

// ---- worker pool --------------------------------------------------------

void Simulator::ensure_pool() {
  if (!pool_wanted()) {
    stop_pool();
    return;
  }
  const std::size_t want = workers_ - 1;
  if (threads_.size() == want) return;
  stop_pool();
  threads_.reserve(want);
  for (std::size_t t = 0; t < want; ++t) {
    // Main thread takes slice 0; worker t takes slice t+1.
    threads_.emplace_back(
        [this, t] { worker_main(static_cast<unsigned>(t) + 1); });
  }
}

void Simulator::stop_pool() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_shutdown_ = true;
    pool_active_.store(false, std::memory_order_relaxed);
  }
  pool_cv_.notify_all();
  for (auto& th : threads_) th.join();
  threads_.clear();
  pool_shutdown_ = false;
}

void Simulator::activate_pool() {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_active_.store(true, std::memory_order_relaxed);
  }
  pool_cv_.notify_all();
}

void Simulator::deactivate_pool() {
  // Workers drain out of the spin loop and park on the condvar; the
  // last window's completion was already synchronized via
  // pending_workers_, so no worker is mid-slice here.
  pool_active_.store(false, std::memory_order_release);
}

void Simulator::run_slice(unsigned slice) {
  // Static shard->slice assignment keeps the work partition a pure
  // function of the topology.
  const Time horizon = window_horizon_;
  const unsigned stride = workers_;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    if ((i - 1) % stride == slice) run_shard_window(*shards_[i], horizon);
  }
}

void Simulator::worker_main(unsigned slice) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk, [this] {
        return pool_shutdown_ || pool_active_.load(std::memory_order_relaxed);
      });
      if (pool_shutdown_) return;
    }
    unsigned spins = 0;
    while (pool_active_.load(std::memory_order_acquire)) {
      const std::uint64_t e = epoch_.load(std::memory_order_acquire);
      if (e == seen_epoch) {
        if (++spins < kSpinBudget) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
        continue;
      }
      seen_epoch = e;
      spins = 0;
      run_slice(slice);
      pending_workers_.fetch_sub(1, std::memory_order_release);
    }
  }
}

// ---- introspection ------------------------------------------------------

std::size_t Simulator::pending() const {
  std::size_t n = 0;
  for (const auto& sp : shards_) n += sp->live + sp->outbox.size();
  return n;
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& sp : shards_) n += sp->executed;
  return n;
}

KernelStats Simulator::kernel_stats() const {
  KernelStats st;
  st.parallel_windows = parallel_windows_;
  st.exclusive_batches = exclusive_batches_;
  st.mails_routed = mails_routed_;
  st.events_executed = events_executed();
  for (const auto& sp : shards_) {
    st.lookahead_violations += sp->lookahead_violations;
  }
  st.shards = static_cast<std::uint32_t>(shards_.size());
  st.workers = workers_;
  st.lookahead = lookahead_;
  return st;
}

}  // namespace spire::sim
