// Google-benchmark microbenchmarks for the substrate data structures:
// the SWMR skip-list / time-travel index against the unsorted-buffer
// strategy Key-OIJ uses, plus the node arena and the SPSC queue.
// These quantify the constant factors behind the figure-level results.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/spsc_queue.h"
#include "ebr/epoch_manager.h"
#include "mem/node_arena.h"
#include "skiplist/time_travel_index.h"

namespace oij {
namespace {

void BM_SkipListInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    NodeArena arena;
    SwmrSkipList<Timestamp, Tuple> list(arena);
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      list.Insert(i, Tuple{i, 0, 1.0});
    }
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// Element-count args honor OIJ_BENCH_SCALE (bench::ScaledArg); x-axis
// parameters — batch sizes, allocation byte widths, feed chunk sizes —
// stay fixed, since scaling them would change what the figure measures.
BENCHMARK(BM_SkipListInsert)
    ->Arg(bench::ScaledArg(1000))
    ->Arg(bench::ScaledArg(10000));

void BM_SkipListSeek(benchmark::State& state) {
  const int64_t n = state.range(0);
  NodeArena arena;
  SwmrSkipList<Timestamp, Tuple> list(arena);
  for (int64_t i = 0; i < n; ++i) list.Insert(i, Tuple{i, 0, 1.0});
  Rng rng(1);
  for (auto _ : state) {
    const auto it =
        list.SeekGE(static_cast<Timestamp>(rng.NextBelow(n)));
    benchmark::DoNotOptimize(it.Valid());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkipListSeek)
    ->Arg(bench::ScaledArg(1000))
    ->Arg(bench::ScaledArg(100000));

/// The core asymmetry of the paper: window lookup via index seek+scan vs
/// full scan of an unsorted buffer with a filter. `range(0)` is the
/// buffer population, window fixed at 100 tuples.
void BM_WindowLookup_TimeTravelIndex(benchmark::State& state) {
  const int64_t n = state.range(0);
  NodeArena arena;
  TimeTravelIndex index(arena);
  for (int64_t i = 0; i < n; ++i) index.Insert(Tuple{i, 7, 1.0});
  Rng rng(2);
  for (auto _ : state) {
    const Timestamp start =
        static_cast<Timestamp>(rng.NextBelow(n - 100));
    double sum = 0;
    index.ForEachInRange(7, start, start + 99,
                         [&](const Tuple& t) { sum += t.payload; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
// Floor of 1000 keeps the population safely above the fixed 100-tuple
// lookup window even at tiny OIJ_BENCH_SCALE values.
BENCHMARK(BM_WindowLookup_TimeTravelIndex)
    ->Arg(bench::ScaledArg(1000, 1000))
    ->Arg(bench::ScaledArg(10000, 1000))
    ->Arg(bench::ScaledArg(100000, 1000));

void BM_WindowLookup_UnsortedScan(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<Tuple> buffer;
  Rng shuffle_rng(3);
  for (int64_t i = 0; i < n; ++i) buffer.push_back(Tuple{i, 7, 1.0});
  // Shuffle to model out-of-order arrival.
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(buffer[i],
              buffer[shuffle_rng.NextBelow(static_cast<uint64_t>(i) + 1)]);
  }
  Rng rng(4);
  for (auto _ : state) {
    const Timestamp start =
        static_cast<Timestamp>(rng.NextBelow(n - 100));
    const Timestamp end = start + 99;
    double sum = 0;
    for (const Tuple& t : buffer) {
      if (t.ts >= start && t.ts <= end) sum += t.payload;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WindowLookup_UnsortedScan)
    ->Arg(bench::ScaledArg(1000, 1000))
    ->Arg(bench::ScaledArg(10000, 1000))
    ->Arg(bench::ScaledArg(100000, 1000));

/// The allocation hot path: steady-state churn of a time-travel index
/// under EBR, interleaved Insert + EvictBefore at a fixed window
/// population — exactly the regime a joiner sits in once its window
/// fills (slab arena + one RetireBatch per eviction run). range(0) is the
/// window population. items/s = inserts/s.
void BM_ChurnInsertEvict(benchmark::State& state) {
  const int64_t window = state.range(0);
  constexpr uint64_t kKeys = 8;
  constexpr int64_t kEvictEvery = 256;
  NodeArena arena;
  EpochManager ebr(1);
  const uint32_t slot = ebr.RegisterThread();
  TimeTravelIndex index(arena, &ebr, slot, /*seed=*/0x5eed);
  Rng rng(11);
  Timestamp ts = 0;
  for (int64_t i = 0; i < window; ++i) {
    index.Insert(Tuple{ts++, static_cast<Key>(rng.NextBelow(kKeys)), 1.0});
  }
  for (auto _ : state) {
    index.Insert(Tuple{ts, static_cast<Key>(rng.NextBelow(kKeys)), 1.0});
    ++ts;
    if ((ts % kEvictEvery) == 0) {
      index.EvictBefore(ts - window);
      ebr.ReclaimSome(slot);
    }
  }
  benchmark::DoNotOptimize(index.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChurnInsertEvict)
    ->Arg(bench::ScaledArg(32768, 1024))
    ->Arg(bench::ScaledArg(65536, 1024));

/// The raw allocator pair underneath the churn number: recycle one slot
/// of a fixed live population per iteration, arena vs global heap, at a
/// typical skip-list node size. Isolates allocation cost from list
/// maintenance; the heap arm is the glibc reference the arena is
/// measured against.
void BM_NodeAllocChurn_Arena(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  const size_t kPopulation =
      static_cast<size_t>(bench::ScaledArg(1024, 64));
  NodeArena arena;
  std::vector<void*> live(kPopulation);
  for (size_t i = 0; i < kPopulation; ++i) live[i] = arena.Allocate(bytes);
  size_t j = 0;
  for (auto _ : state) {
    arena.Deallocate(live[j], bytes);
    live[j] = arena.Allocate(bytes);
    benchmark::DoNotOptimize(live[j]);
    j = (j + 1) % kPopulation;
  }
  for (void* p : live) arena.Deallocate(p, bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeAllocChurn_Arena)->Arg(64)->Arg(160);

void BM_NodeAllocChurn_Heap(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  const size_t kPopulation =
      static_cast<size_t>(bench::ScaledArg(1024, 64));
  std::vector<void*> live(kPopulation);
  for (size_t i = 0; i < kPopulation; ++i) live[i] = ::operator new(bytes);
  size_t j = 0;
  for (auto _ : state) {
    ::operator delete(live[j]);
    live[j] = ::operator new(bytes);
    benchmark::DoNotOptimize(live[j]);
    j = (j + 1) % kPopulation;
  }
  for (void* p : live) ::operator delete(p);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeAllocChurn_Heap)->Arg(64)->Arg(160);

void BM_SpscQueueRoundTrip(benchmark::State& state) {
  SpscQueue<Tuple> q(1024);
  Tuple t{1, 2, 3.0};
  Tuple out;
  for (auto _ : state) {
    q.TryPush(t);
    q.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscQueueRoundTrip);

/// The tentpole number for the batched transport: tuples/s across a real
/// producer-thread -> consumer-thread hop as a function of transfer batch
/// size (`range(0)`; 1 is the old per-tuple transport). The consumer
/// (benchmark thread) grants the producer credit in kChunk-tuple units so
/// both sides run flat out without unbounded buffering; per-tuple cost is
/// dominated by the shared head/tail cache-line traffic that batching
/// amortizes.
void BM_SpscQueueHopBatched(benchmark::State& state) {
  // Credit-grant unit (work per measured iteration): scalable; the
  // transfer batch size below is the x-axis and stays fixed.
  const int64_t kChunk = bench::ScaledArg(1 << 16, 4096);
  const size_t batch = static_cast<size_t>(state.range(0));
  SpscQueue<Tuple> q(4096);
  std::atomic<int64_t> credits{0};
  std::atomic<bool> done{false};

  std::thread producer([&] {
    std::vector<Tuple> staged(batch);
    for (size_t i = 0; i < batch; ++i) {
      staged[i] = Tuple{static_cast<Timestamp>(i), 2, 3.0};
    }
    while (!done.load(std::memory_order_acquire)) {
      if (credits.load(std::memory_order_acquire) <= 0) {
        std::this_thread::yield();
        continue;
      }
      int64_t remaining = kChunk;
      while (remaining > 0 && !done.load(std::memory_order_relaxed)) {
        const size_t want =
            std::min<int64_t>(remaining, static_cast<int64_t>(batch));
        const size_t pushed = q.PushBatch(staged.data(), want);
        remaining -= static_cast<int64_t>(pushed);
      }
      credits.fetch_sub(kChunk, std::memory_order_acq_rel);
    }
  });

  // The consumer drains at the same granularity it is handed, so Arg(1)
  // reproduces the old per-tuple transport on both sides of the hop.
  std::vector<Tuple> out(batch);
  for (auto _ : state) {
    credits.fetch_add(kChunk, std::memory_order_acq_rel);
    int64_t received = 0;
    while (received < kChunk) {
      received +=
          static_cast<int64_t>(q.PopBatch(out.data(), out.size()));
    }
    benchmark::DoNotOptimize(out.data());
  }
  done.store(true, std::memory_order_release);
  // Unwedge a producer blocked on a full ring.
  Tuple sink;
  while (q.TryPop(&sink)) {
  }
  producer.join();
  state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_SpscQueueHopBatched)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();

/// Single-threaded batch round-trip: isolates the per-operation transport
/// overhead (index loads, release publication, branch + call per element)
/// that batching amortizes, with no scheduler or coherence noise. This is
/// the machine-independent floor of the batching win — on a single-core
/// host the threaded hop above is scheduling-bound and shows ~1x, while
/// this one still shows the amortization directly; on multicore the hop
/// adds the shared-cache-line savings on top.
void BM_SpscQueueBatchRoundTrip(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  SpscQueue<Tuple> q(4096);
  std::vector<Tuple> in(batch), out(batch);
  for (size_t i = 0; i < batch; ++i) {
    in[i] = Tuple{static_cast<Timestamp>(i), 2, 3.0};
  }
  for (auto _ : state) {
    if (batch == 1) {
      q.TryPush(in[0]);  // the old per-tuple transport, exactly
      q.TryPop(&out[0]);
    } else {
      q.PushBatch(in.data(), batch);
      q.PopBatch(out.data(), batch);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SpscQueueBatchRoundTrip)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

}  // namespace
}  // namespace oij

BENCHMARK_MAIN();
