#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace extradeep {

/// Resolves a thread-count request: values >= 1 are taken as-is, anything
/// else (0 or negative) means "use the hardware concurrency" (at least 1).
int resolve_num_threads(int requested);

/// Caller-context propagation for ThreadPool tasks, so higher layers can
/// carry thread-local ambient state (e.g. the observability tracer's
/// current-span id, src/obs) from the dispatching thread onto the worker
/// threads without this low-level library depending on them.
///
/// `capture` runs on the calling thread at submit() (and so at parallel_for
/// dispatch) and returns an opaque token; around every task run on a
/// worker, `install(token)` runs on that worker (returning its previous
/// token) and `restore(previous)` afterwards. All three are plain function
/// pointers: when no hook is registered the cost is one relaxed atomic load
/// per task, and hook implementations are expected to be a thread-local
/// read/write each.
struct TaskContextHook {
    std::uint64_t (*capture)();
    std::uint64_t (*install)(std::uint64_t token);
    void (*restore)(std::uint64_t previous);
};

/// Registers the process-wide hook (static storage required; pass nullptr
/// to deregister). Registering the same hook again is a no-op, so multiple
/// initialisation paths may race benignly; registering a *different* hook
/// while parallel loops are in flight is not supported.
void set_task_context_hook(const TaskContextHook* hook);

/// A small reusable thread pool with one FIFO task queue. Workers are
/// spawned once and reused, so the pool can be hoisted out of hot loops.
///
/// The pool counts the calling thread as worker 0: a pool of size T spawns
/// T - 1 background threads, and parallel_for runs one chunk on the caller,
/// so ThreadPool(1) degenerates to an inline loop that spawns no thread.
class ThreadPool {
public:
    /// `num_threads` is resolved via resolve_num_threads.
    explicit ThreadPool(int num_threads = 1);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total number of threads participating in parallel_for (including the
    /// calling thread).
    int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

    /// Splits [0, count) into one contiguous chunk per thread (chunk c covers
    /// [count*c/T, count*(c+1)/T)) and runs `body(chunk_index, begin, end)`
    /// on every non-empty chunk concurrently: chunks 1..T-1 go through the
    /// task queue, chunk 0 runs on the caller. Blocks until all chunks have
    /// finished. If any chunk throws, the exception from the lowest chunk
    /// index is rethrown on the caller after all chunks complete, which keeps
    /// error reporting deterministic across thread counts.
    ///
    /// The chunks queue behind any task already submitted, so a parallel_for
    /// on a pool with queued submit() tasks waits for them first; no pool
    /// mixes the two. Must not be called from a task of the same pool.
    void parallel_for(std::size_t count,
                      const std::function<void(int chunk, std::size_t begin,
                                               std::size_t end)>& body);

    /// Request-level dispatch: enqueues one independent task that an idle
    /// background worker picks up FIFO and runs to completion, without any
    /// barrier — tasks never wait on each other, which is what the serve
    /// plane needs so one slow request cannot stall another. The
    /// TaskContextHook token is captured at submit time and installed around
    /// the task. Tasks must not throw (an escaped exception terminates the
    /// process — there is no join point to rethrow at).
    ///
    /// Only background workers run tasks (the calling thread never does), so
    /// the pool must have thread_count() >= 2; submit on a degenerate
    /// single-thread pool throws. Tasks still queued when the pool is
    /// destroyed are dropped; tasks already running always complete before
    /// the destructor returns.
    void submit(std::function<void()> task);

    /// Tasks enqueued via submit() and not yet picked up by a worker.
    std::size_t queued_tasks() const;

private:
    struct Task {
        std::function<void()> body;
        std::uint64_t context = 0;  ///< TaskContextHook token of the submitter
    };

    void worker_loop();

    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable start_cv_;
    bool stop_ = false;
    std::deque<Task> tasks_;
};

}  // namespace extradeep
