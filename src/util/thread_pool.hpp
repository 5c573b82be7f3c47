// Small reusable fork-join thread pool for the round engine.
//
// The pool exists to parallelize one shape of work: a chunked
// parallel-for over an index range, repeated many times (once per
// round) with negligible per-dispatch overhead. Chunks are claimed
// dynamically — any worker may execute any chunk, in any order — but
// every chunk is identified by its index, so a caller that writes
// results into per-chunk slots and merges them in index order obtains
// a result that is independent of the actual schedule. That is the
// determinism contract run_local builds on.
//
// Workers persist across calls (created once, parked on a condition
// variable between jobs); the calling thread participates in every
// job, so ThreadPool(1) spawns no threads at all and degenerates to a
// plain loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace valocal {

class ThreadPool {
 public:
  /// Cumulative work executed by one participant thread: chunks claimed
  /// and indices processed (what each chunk's callable reported, see
  /// parallel_for_chunks). Slot 0 is the dispatching caller, slots 1..
  /// the pool's workers. Dynamic chunk claiming makes the split
  /// schedule-dependent; the trace layer surfaces it to expose load
  /// imbalance (the totals across slots are deterministic).
  struct WorkerLoad {
    std::uint64_t chunks = 0;
    std::uint64_t indices = 0;
  };

  /// `num_threads` is the total concurrency, caller included: the pool
  /// spawns num_threads - 1 workers (0 and 1 are both "no workers").
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the participating caller).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Per-thread load counters, valid only while no job is in flight
  /// (each participant publishes its slot before signalling completion).
  const std::vector<WorkerLoad>& worker_load() const { return load_; }

  /// Splits [0, total) into consecutive chunks of `grain` indices and
  /// invokes fn(chunk_index, begin, end) exactly once per chunk
  /// (chunk_index = begin / grain). Blocks until every chunk has run;
  /// the calling thread participates. Not reentrant and not
  /// thread-safe: one job at a time, dispatched from one thread.
  /// If fn returns a count, the count is what the chunk adds to its
  /// thread's WorkerLoad::indices (a chunk that skips dormant indices
  /// reports only the ones it processed); if it returns void, the
  /// chunk's length is added.
  ///
  /// Guaranteed-serial fast path: with no workers (ThreadPool(1)) or a
  /// single chunk, the loop below runs inline — no std::function is
  /// materialized, no mutex, condition variable, or atomic is touched.
  /// run_local leans on this: a serial run pays only the plain loop.
  template <class Fn>
  void parallel_for_chunks(std::size_t total, std::size_t grain,
                           Fn&& fn) {
    if (total == 0) return;
    if (grain == 0) grain = 1;
    const std::size_t num_chunks = (total + grain - 1) / grain;
    const auto counted = [&fn](std::size_t c, std::size_t b,
                               std::size_t e) -> std::uint64_t {
      if constexpr (std::is_void_v<std::invoke_result_t<
                        Fn&, std::size_t, std::size_t, std::size_t>>) {
        fn(c, b, e);
        return e - b;
      } else {
        return fn(c, b, e);
      }
    };
    if (workers_.empty() || num_chunks == 1) {
      std::uint64_t indices = 0;
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t begin = c * grain;
        const std::size_t end =
            total < begin + grain ? total : begin + grain;
        indices += counted(c, begin, end);
      }
      load_[0].chunks += num_chunks;
      load_[0].indices += indices;
      return;
    }
    // Parallel path: box the callable BY REFERENCE (one captured
    // pointer, within std::function's small-buffer optimization — no
    // heap allocation per dispatch) and hand off to the out-of-line
    // fork-join machinery.
    const ChunkFn boxed = [&counted](std::size_t c, std::size_t b,
                                     std::size_t e) {
      return counted(c, b, e);
    };
    dispatch(total, grain, num_chunks, boxed);
  }

 private:
  using ChunkFn =
      std::function<std::uint64_t(std::size_t, std::size_t, std::size_t)>;

  // One fork-join dispatch. Workers copy the shared_ptr under the pool
  // mutex, then claim chunks lock-free; a worker that wakes late simply
  // finds `next` exhausted. Each Job owns its counters, so a straggler
  // from generation g can never consume indices of generation g+1.
  struct Job {
    const ChunkFn* fn;
    std::size_t total = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> chunks_done{0};
  };

  void worker_loop(std::size_t slot);
  /// Claims and runs chunks of `job`, accumulating into load slot
  /// `slot`; returns true if this call completed the job (ran its
  /// final outstanding chunk).
  bool run_chunks(Job& job, std::size_t slot);
  /// Fork-join dispatch of an already-chunked job to the workers.
  void dispatch(std::size_t total, std::size_t grain,
                std::size_t num_chunks, const ChunkFn& fn);

  std::vector<std::thread> workers_;
  std::vector<WorkerLoad> load_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // dispatcher waits for completion
  std::shared_ptr<Job> job_;         // guarded by mutex_
  std::uint64_t generation_ = 0;     // guarded by mutex_
  bool stop_ = false;                // guarded by mutex_
};

}  // namespace valocal
