// ThreadPool contract tests (parallel_for chunking and error order, submit()
// FIFO dispatch), plus the pin that FitOptions::num_threads never changes a
// fit: one fit is serial, and the knob only sets how many threads
// model_kernels spends across kernels, so a fit at any setting must be
// *bit-identical* to the 1-thread fit — same terms, coefficients and quality.
// model_kernels' threads all read one shared ModelGenerator::Design per xs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "extradeep/models.hpp"
#include "modeling/fitter.hpp"
#include "modeling/model.hpp"
#include "obs/trace.hpp"

using namespace extradeep;
using namespace extradeep::modeling;

namespace {

/// Asserts two fitted models are identical down to the last bit.
void expect_identical(const PerformanceModel& a, const PerformanceModel& b) {
    EXPECT_EQ(a.constant(), b.constant());
    ASSERT_EQ(a.terms().size(), b.terms().size());
    for (std::size_t t = 0; t < a.terms().size(); ++t) {
        EXPECT_EQ(a.terms()[t].coefficient, b.terms()[t].coefficient);
        ASSERT_EQ(a.terms()[t].factors.size(), b.terms()[t].factors.size());
        for (std::size_t f = 0; f < a.terms()[t].factors.size(); ++f) {
            EXPECT_EQ(a.terms()[t].factors[f], b.terms()[t].factors[f]);
        }
    }
    EXPECT_EQ(a.quality().fit_smape, b.quality().fit_smape);
    EXPECT_EQ(a.quality().cv_smape, b.quality().cv_smape);
    EXPECT_EQ(a.quality().rss, b.quality().rss);
    EXPECT_EQ(a.quality().r_squared, b.quality().r_squared);
    EXPECT_EQ(a.quality().hypotheses_searched, b.quality().hypotheses_searched);
    EXPECT_EQ(a.param_names(), b.param_names());
    EXPECT_EQ(a.to_string(), b.to_string());
}

ModelGenerator generator_with_threads(int threads, int max_terms = 2) {
    FitOptions opts;
    opts.space.max_terms = max_terms;
    opts.num_threads = threads;
    return ModelGenerator(opts);
}

}  // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    // {2 items, 7 threads}: more threads than items, so most chunks are
    // empty and must not run the body.
    for (const auto& [count, threads] :
         {std::pair{103, 1}, std::pair{103, 2}, std::pair{103, 4},
          std::pair{103, 7}, std::pair{2, 7}}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
        for (auto& h : hits) h = 0;
        std::atomic<int> calls{0};
        pool.parallel_for(hits.size(),
                          [&](int, std::size_t begin, std::size_t end) {
                              EXPECT_LT(begin, end);
                              ++calls;
                              for (std::size_t i = begin; i < end; ++i) {
                                  ++hits[i];
                              }
                          });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
        }
        EXPECT_EQ(calls, std::min(count, threads)) << "threads " << threads;
    }
}

TEST(ParallelFor, ZeroCountRunsNothing) {
    ThreadPool pool(4);
    bool ran = false;
    pool.parallel_for(0, [&](int, std::size_t, std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesLowestChunkException) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4);
    try {
        pool.parallel_for(100, [&](int chunk, std::size_t, std::size_t) {
            throw std::runtime_error("chunk " + std::to_string(chunk));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 0");
    }
}

TEST(ParallelFor, PoolIsReusableAcrossCalls) {
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<long> sum{0};
        pool.parallel_for(1000, [&](int, std::size_t begin, std::size_t end) {
            long local = 0;
            for (std::size_t i = begin; i < end; ++i) {
                local += static_cast<long>(i);
            }
            sum += local;
        });
        EXPECT_EQ(sum, 999L * 1000L / 2);
    }
}

/// Countdown latch for the submit() tests: tasks signal, the test waits.
class Latch {
public:
    explicit Latch(int count) : count_(count) {}
    void count_down() {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--count_ == 0) {
            cv_.notify_all();
        }
    }
    void wait() {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return count_ <= 0; });
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int count_;
};

TEST(ThreadPoolSubmit, RunsEveryTask) {
    ThreadPool pool(4);
    constexpr int kTasks = 200;
    std::atomic<int> ran{0};
    Latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&] {
            ran.fetch_add(1);
            done.count_down();
        });
    }
    done.wait();
    EXPECT_EQ(ran.load(), kTasks);
    EXPECT_EQ(pool.queued_tasks(), 0u);
}

TEST(ThreadPoolSubmit, SingleWorkerRunsFifo) {
    // ThreadPool(2) = caller + exactly one background worker, so submitted
    // tasks must execute in submission order.
    ThreadPool pool(2);
    constexpr int kTasks = 64;
    std::vector<int> order;
    std::mutex order_mutex;
    Latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&, i] {
            {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(i);
            }
            done.count_down();
        });
    }
    done.wait();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(ThreadPoolSubmit, ThrowsOnWorkerlessPool) {
    // A degenerate pool has no background worker to ever run the task; the
    // contract is to fail loudly instead of queueing forever.
    ThreadPool pool(1);
    EXPECT_THROW(pool.submit([] {}), std::logic_error);
}

TEST(ThreadPoolSubmit, QueuedTasksReportsBacklog) {
    ThreadPool pool(2);  // one background worker
    std::mutex gate;
    std::condition_variable gate_cv;
    bool open = false;
    Latch started(1);
    pool.submit([&] {
        started.count_down();
        std::unique_lock<std::mutex> lock(gate);
        gate_cv.wait(lock, [&] { return open; });
    });
    started.wait();  // the worker is now parked inside the first task
    Latch rest(3);
    for (int i = 0; i < 3; ++i) {
        pool.submit([&] { rest.count_down(); });
    }
    EXPECT_EQ(pool.queued_tasks(), 3u);
    {
        std::lock_guard<std::mutex> lock(gate);
        open = true;
    }
    gate_cv.notify_all();
    rest.wait();
    EXPECT_EQ(pool.queued_tasks(), 0u);
}

TEST(ThreadPoolSubmit, CoexistsWithParallelFor) {
    // Detached tasks in flight while the same pool also runs a loop: the
    // loop's chunks queue behind the tasks, and both must complete.
    ThreadPool pool(4);
    constexpr int kTasks = 100;
    std::atomic<int> ran{0};
    Latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&] {
            ran.fetch_add(1);
            done.count_down();
        });
    }
    std::atomic<long> sum{0};
    pool.parallel_for(1000, [&](int, std::size_t begin, std::size_t end) {
        long local = 0;
        for (std::size_t i = begin; i < end; ++i) {
            local += static_cast<long>(i);
        }
        sum += local;
    });
    EXPECT_EQ(sum, 999L * 1000L / 2);
    done.wait();
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolSubmit, ParallelForBehindQueuedTasksRethrowsLowestChunk) {
    // Chunks 1..3 throw; chunk 1 is the slowest, so a higher chunk fails
    // first. The lowest failing chunk's exception must still win, and the
    // queued tasks ahead of the loop must all run.
    ThreadPool pool(4);
    constexpr int kTasks = 50;
    std::atomic<int> ran{0};
    Latch done(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&] {
            ran.fetch_add(1);
            done.count_down();
        });
    }
    try {
        pool.parallel_for(100, [&](int chunk, std::size_t, std::size_t) {
            if (chunk == 0) {
                return;
            }
            if (chunk == 1) {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
            throw std::runtime_error("chunk " + std::to_string(chunk));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 1");
    }
    done.wait();
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ResolveNumThreads, Semantics) {
    EXPECT_EQ(resolve_num_threads(1), 1);
    EXPECT_EQ(resolve_num_threads(7), 7);
    EXPECT_GE(resolve_num_threads(0), 1);
    EXPECT_GE(resolve_num_threads(-3), 1);
}

TEST(ParallelFitter, Identical1D) {
    Rng rng(42);
    const std::vector<double> xs = {2, 4, 6, 8, 10, 12, 16, 24, 32, 48};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back((10.0 + 3.0 * x + 0.5 * x * std::log2(x)) *
                     rng.lognormal_factor(0.03));
    }
    const PerformanceModel serial = generator_with_threads(1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(4).fit(xs, ys);
    expect_identical(serial, parallel);
}

TEST(ParallelFitter, Identical2D) {
    Rng rng(7);
    std::vector<std::vector<double>> pts;
    std::vector<double> ys;
    for (const double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
        for (const double y : {2.0, 4.0, 8.0, 16.0, 32.0}) {
            pts.push_back({x, y});
            ys.push_back((5.0 + 2.0 * x + 3.0 * std::log2(y)) *
                         rng.lognormal_factor(0.02));
        }
    }
    const PerformanceModel serial =
        generator_with_threads(1).fit(pts, ys, {"x1", "x2"});
    const PerformanceModel parallel =
        generator_with_threads(4).fit(pts, ys, {"x1", "x2"});
    expect_identical(serial, parallel);
}

TEST(ParallelFitter, IdenticalWithRankDeficientHypotheses) {
    // Only two distinct x values: every 2-term basis (3 columns) has rank at
    // most 2, so a large share of the hypothesis space is rank deficient and
    // must be skipped identically by both paths.
    const std::vector<double> xs = {2, 2, 2, 8, 8, 8};
    const std::vector<double> ys = {1.1, 0.9, 1.0, 4.1, 3.9, 4.0};
    const PerformanceModel serial = generator_with_threads(1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(4).fit(xs, ys);
    expect_identical(serial, parallel);
    EXPECT_LE(serial.terms().size(), 1u);
}

TEST(ParallelFitter, IdenticalWithNonFiniteBasisHypotheses) {
    // x = 1e120 overflows the cubic (and most higher) basis columns to
    // infinity; those hypotheses are invalid and both paths must reject them
    // the same way without poisoning the rest of the search.
    const std::vector<double> xs = {2, 4, 8, 16, 1e120};
    const std::vector<double> ys = {1.0, 2.0, 3.0, 4.0, 400.0};
    const PerformanceModel serial = generator_with_threads(1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(4).fit(xs, ys);
    expect_identical(serial, parallel);
}

TEST(ParallelFitter, HardwareThreadCountAlsoIdentical) {
    // num_threads = 0 resolves to the hardware concurrency, whatever it is
    // on the machine running the tests.
    Rng rng(3);
    const std::vector<double> xs = {2, 4, 8, 16, 32, 64};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back((4.0 + 2.0 * x) * rng.lognormal_factor(0.05));
    }
    const PerformanceModel serial = generator_with_threads(1, 1).fit(xs, ys);
    const PerformanceModel parallel = generator_with_threads(0, 1).fit(xs, ys);
    expect_identical(serial, parallel);
}

namespace {

/// Number of recorded spans named `name`.
std::size_t span_count(const std::string& name) {
    std::size_t n = 0;
    for (const auto& span : obs::global_tracer().snapshot()) {
        n += span.name == name ? 1 : 0;
    }
    return n;
}

}  // namespace

TEST(ParallelFitter, ModelKernelsShareOneDesignPerXsAtAnyThreadCount) {
    // 24 kernels seen at all six configurations share one xs; two more miss
    // x = 64 and share a second. Each distinct xs is factored once, and the
    // fits on every thread read that one design: entries at 1 and 4 threads
    // and one-off fits of the same series must agree bit for bit.
    constexpr int kShared = 24;
    constexpr int kKernels = kShared + 2;
    const std::vector<double> xs = {2, 4, 8, 16, 32, 64};
    Rng rng(11);
    aggregation::ExperimentData data;
    for (const double x : xs) {
        aggregation::ConfigurationData config;
        config.params["x1"] = x;
        config.repetitions = 1;
        for (int k = 0; k < kKernels; ++k) {
            if (k >= kShared && x == 64.0) {
                continue;
            }
            aggregation::KernelStats stats;
            stats.name = std::string(k < 10 ? "k0" : "k") + std::to_string(k);
            const double scale = 1.0 + k;
            stats.train[static_cast<int>(aggregation::Metric::Time)] =
                scale * (1.0 + 0.1 * x * std::log2(x)) *
                rng.lognormal_factor(0.03);
            stats.val[static_cast<int>(aggregation::Metric::Time)] =
                scale * (2.0 + std::sqrt(x)) * rng.lognormal_factor(0.03);
            config.kernels.push_back(stats);
        }
        data.add(config);
    }
    const StepMathFn steps = make_step_math_fn(
        "CIFAR-10", parallel::StrategyKind::Data, 1,
        parallel::ScalingMode::Weak, 256);

    obs::set_trace_enabled(true);
    std::vector<std::vector<KernelModelEntry>> runs;
    for (const int threads : {1, 4}) {
        obs::global_tracer().clear();
        runs.push_back(model_kernels(data, steps, {aggregation::Metric::Time},
                                     generator_with_threads(threads, 1)));
        EXPECT_EQ(span_count("fit.design"), 2u) << threads << " threads";
        EXPECT_EQ(span_count("fit.model"), 2u * kKernels)
            << threads << " threads";
    }
    obs::set_trace_enabled(false);
    obs::global_tracer().clear();

    const auto& serial = runs[0];
    const auto& parallel = runs[1];
    ASSERT_EQ(serial.size(), static_cast<std::size_t>(kKernels));
    ASSERT_EQ(parallel.size(), serial.size());
    const ModelGenerator direct = generator_with_threads(1, 1);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].name);
        EXPECT_EQ(serial[i].name, parallel[i].name);
        expect_identical(serial[i].model.train_step_model(),
                         parallel[i].model.train_step_model());
        expect_identical(serial[i].model.val_step_model(),
                         parallel[i].model.val_step_model());
        std::vector<double> kernel_xs;
        std::vector<double> train;
        for (const auto& config : data.configs()) {
            if (const auto* k = config.find_kernel(serial[i].name)) {
                kernel_xs.push_back(config.params.at("x1"));
                train.push_back(k->train_metric(aggregation::Metric::Time));
            }
        }
        expect_identical(serial[i].model.train_step_model(),
                         direct.fit(kernel_xs, train));
    }
}
