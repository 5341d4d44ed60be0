#include "serve/loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <deque>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/clock.hpp"
#include "serve/socket_util.hpp"

namespace extradeep::serve {

namespace {

/// Cross-thread counters for one load pass. Latencies are kept per
/// connection (exact samples) and merged after the threads join.
struct LoadStats {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> errors{0};
};

/// One connection's request/response pump: non-blocking socket, poll-driven,
/// so an open-loop send schedule cannot deadlock against unread responses
/// (the kernel buffers fill, we keep draining the read side). Appends one
/// latency sample (microseconds) per response to `latencies_us`.
void run_connection(const LoadGenOptions& options, LoadStats& stats,
                    std::vector<double>& latencies_us) {
    FdGuard fd(connect_to(options.host, options.port, options.timeout_ms));
    if (!set_nonblocking(fd.get())) {
        throw Error("loadgen: cannot set O_NONBLOCK");
    }
    const obs::Clock& clock = obs::steady_clock_instance();
    const std::size_t total =
        static_cast<std::size_t>(options.requests_per_connection);
    const std::size_t window =
        options.mode == LoadMode::Open
            ? total
            : static_cast<std::size_t>(options.pipeline_depth);
    std::size_t enqueued = 0;
    std::size_t received = 0;
    std::deque<std::uint64_t> send_ts;  // enqueue time of each outstanding
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    bool peer_eof = false;
    while (received < total) {
        // Top up the outgoing schedule. The 256 KiB cap only bounds client
        // memory; open-loop timestamps are still taken at schedule time, so
        // queueing delay counts toward latency as intended.
        while (enqueued < total && enqueued - received < window &&
               out.size() - out_off < (std::size_t{256} << 10)) {
            const std::string& request =
                options.requests[enqueued % options.requests.size()];
            out += request;
            out += '\n';
            send_ts.push_back(clock.now_ns());
            ++enqueued;
            stats.sent.fetch_add(1, std::memory_order_relaxed);
        }
        pollfd pfd{};
        pfd.fd = fd.get();
        pfd.events = POLLIN;
        if (out_off < out.size()) {
            pfd.events |= POLLOUT;
        }
        int ready;
        do {
            ready = ::poll(&pfd, 1,
                           options.timeout_ms > 0 ? options.timeout_ms : -1);
        } while (ready < 0 && errno == EINTR);
        if (ready == 0) {
            throw Error("loadgen: receive timed out after " +
                        std::to_string(received) + " of " +
                        std::to_string(total) + " responses");
        }
        if (ready < 0) {
            throw Error("loadgen: poll failed");
        }
        if ((pfd.revents & POLLOUT) != 0) {
            while (out_off < out.size()) {
                const ssize_t n = ::send(fd.get(), out.data() + out_off,
                                         out.size() - out_off, MSG_NOSIGNAL);
                if (n > 0) {
                    out_off += static_cast<std::size_t>(n);
                    continue;
                }
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                throw Error("loadgen: send failed");
            }
            if (out_off == out.size()) {
                out.clear();
                out_off = 0;
            }
        }
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            char chunk[4096];
            while (true) {
                const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
                if (n > 0) {
                    in.append(chunk, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                }
                if (n == 0) {
                    peer_eof = true;
                    break;
                }
                throw Error("loadgen: recv failed");
            }
            const std::uint64_t now_ns = clock.now_ns();
            std::size_t start = 0;
            std::size_t nl;
            while ((nl = in.find('\n', start)) != std::string::npos) {
                if (send_ts.empty()) {
                    throw Error("loadgen: unsolicited response line");
                }
                const std::uint64_t sent_ns = send_ts.front();
                send_ts.pop_front();
                const std::uint64_t us =
                    now_ns >= sent_ns ? (now_ns - sent_ns) / 1000 : 0;
                latencies_us.push_back(static_cast<double>(us));
                if (in.compare(start, 4, "err ") == 0) {
                    stats.errors.fetch_add(1, std::memory_order_relaxed);
                }
                ++received;
                stats.received.fetch_add(1, std::memory_order_relaxed);
                start = nl + 1;
            }
            in.erase(0, start);
            if (peer_eof && received < total) {
                throw Error("loadgen: connection closed after " +
                            std::to_string(received) + " of " +
                            std::to_string(total) + " responses");
            }
        }
    }
}

}  // namespace

const char* load_mode_name(LoadMode mode) {
    return mode == LoadMode::Open ? "open" : "closed";
}

LoadGenResult run_load(const LoadGenOptions& options) {
    if (options.port <= 0) {
        throw InvalidArgumentError("loadgen: port must be positive");
    }
    if (options.connections < 1 || options.requests_per_connection < 1 ||
        options.pipeline_depth < 1) {
        throw InvalidArgumentError(
            "loadgen: connections, requests and pipeline depth must be >= 1");
    }
    if (options.requests.empty()) {
        throw InvalidArgumentError("loadgen: no request lines given");
    }
    LoadStats stats;
    std::vector<std::vector<double>> latencies_us(
        static_cast<std::size_t>(options.connections));

    const obs::Clock& clock = obs::steady_clock_instance();
    const std::uint64_t start_ns = clock.now_ns();
    std::vector<std::thread> clients;
    std::vector<std::exception_ptr> failures(
        static_cast<std::size_t>(options.connections));
    clients.reserve(static_cast<std::size_t>(options.connections));
    for (int c = 0; c < options.connections; ++c) {
        clients.emplace_back([&options, &stats, &failures, &latencies_us,
                              c] {
            const auto i = static_cast<std::size_t>(c);
            try {
                run_connection(options, stats, latencies_us[i]);
            } catch (...) {
                failures[i] = std::current_exception();
            }
        });
    }
    for (auto& t : clients) {
        t.join();
    }
    for (const auto& failure : failures) {
        if (failure) {
            std::rethrow_exception(failure);
        }
    }
    const std::uint64_t end_ns = clock.now_ns();

    LoadGenResult result;
    result.requests_sent = stats.sent.load();
    result.responses_received = stats.received.load();
    result.error_responses = stats.errors.load();
    result.wall_seconds =
        static_cast<double>(end_ns - start_ns) / 1e9;
    result.qps = result.wall_seconds > 0.0
                     ? static_cast<double>(result.responses_received) /
                           result.wall_seconds
                     : 0.0;
    std::vector<double> all;
    for (const std::vector<double>& samples : latencies_us) {
        all.insert(all.end(), samples.begin(), samples.end());
    }
    if (!all.empty()) {
        result.latency_p50_us = stats::quantile(all, 0.50);
        result.latency_p95_us = stats::quantile(all, 0.95);
        result.latency_p99_us = stats::quantile(all, 0.99);
        result.latency_mean_us = stats::mean(all);
        result.latency_max_us = *std::max_element(all.begin(), all.end());
    }
    return result;
}

std::vector<eval::MetricRecord> to_records(const std::string& mode,
                                           const LoadGenResult& result) {
    const std::pair<const char*, double> metrics[] = {
        {"qps", result.qps},
        {"latency_p50_us", result.latency_p50_us},
        {"latency_p95_us", result.latency_p95_us},
        {"latency_p99_us", result.latency_p99_us},
        {"latency_mean_us", result.latency_mean_us},
        {"latency_max_us", result.latency_max_us},
        {"requests", static_cast<double>(result.requests_sent)},
        {"responses", static_cast<double>(result.responses_received)},
        {"errors", static_cast<double>(result.error_responses)},
        {"wall_seconds", result.wall_seconds},
    };
    std::vector<eval::MetricRecord> out;
    for (const auto& [metric, value] : metrics) {
        eval::MetricRecord r;
        r.case_name = mode;
        r.metric = metric;
        r.value = value;
        out.push_back(std::move(r));
    }
    return out;
}

std::string load_report_json(const LoadGenOptions& options, int threads,
                             const std::vector<eval::MetricRecord>& records,
                             const std::string& git_rev) {
    std::ostringstream os;
    os << "  \"config\": {";
    os << "\"connections\": " << options.connections;
    os << ", \"requests_per_connection\": " << options.requests_per_connection;
    os << ", \"pipeline_depth\": " << options.pipeline_depth;
    os << ", \"daemon_threads\": " << threads;
    os << ", \"request_mix\": [";
    for (std::size_t i = 0; i < options.requests.size(); ++i) {
        os << (i == 0 ? "" : ", ") << json::quote(options.requests[i]);
    }
    os << "]},\n";
    return eval::bench_json(records, git_rev, "extradeep-serve-bench/1",
                            os.str());
}

}  // namespace extradeep::serve
