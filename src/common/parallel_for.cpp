#include "common/parallel_for.hpp"

#include <atomic>
#include <exception>
#include <latch>
#include <stdexcept>

namespace extradeep {

namespace {

/// Release/acquire publication: the hook struct's fields must be visible to
/// worker threads that observe the pointer.
std::atomic<const TaskContextHook*> g_task_context_hook{nullptr};

const TaskContextHook* task_context_hook() {
    return g_task_context_hook.load(std::memory_order_acquire);
}

}  // namespace

void set_task_context_hook(const TaskContextHook* hook) {
    g_task_context_hook.store(hook, std::memory_order_release);
}

int resolve_num_threads(int requested) {
    if (requested >= 1) {
        return requested;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
    const int threads = resolve_num_threads(num_threads);
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 1; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) {
        w.join();
    }
}

void ThreadPool::worker_loop() {
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
            if (stop_) {
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        const TaskContextHook* hook = task_context_hook();
        std::uint64_t previous = 0;
        if (hook != nullptr) {
            previous = hook->install(task.context);
        }
        // Deliberately no try/catch: detached tasks have no join point to
        // rethrow at, so an escaping exception terminates (documented
        // contract). parallel_for chunks catch their own.
        task.body();
        if (hook != nullptr) {
            hook->restore(previous);
        }
    }
}

void ThreadPool::submit(std::function<void()> task) {
    if (workers_.empty()) {
        throw std::logic_error(
            "ThreadPool::submit: pool has no background workers "
            "(thread_count() must be >= 2)");
    }
    const TaskContextHook* hook = task_context_hook();
    Task t;
    t.body = std::move(task);
    t.context = hook != nullptr ? hook->capture() : 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(t));
    }
    start_cv_.notify_one();
}

std::size_t ThreadPool::queued_tasks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.size();
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(int, std::size_t, std::size_t)>& body) {
    if (count == 0) {
        return;
    }
    const std::size_t threads = static_cast<std::size_t>(thread_count());
    std::vector<std::exception_ptr> errors(threads);
    const auto run_chunk = [&](std::size_t chunk) {
        const std::size_t begin = count * chunk / threads;
        const std::size_t end = count * (chunk + 1) / threads;
        if (begin >= end) {
            return;
        }
        try {
            body(static_cast<int>(chunk), begin, end);
        } catch (...) {
            errors[chunk] = std::current_exception();
        }
    };
    std::latch done(static_cast<std::ptrdiff_t>(threads - 1));
    for (std::size_t c = 1; c < threads; ++c) {
        submit([&, c] {
            run_chunk(c);
            done.count_down();
        });
    }
    run_chunk(0);  // the caller is chunk 0
    done.wait();
    for (const auto& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
}

}  // namespace extradeep
