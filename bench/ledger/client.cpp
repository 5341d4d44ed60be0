// Load client: one thread, at most four non-blocking connections, open-loop
// Poisson arrivals or a closed loop, every request timed from its due time.
// A connection carries one request at a time, as a client that waits for
// each answer does; requests due meanwhile queue in the client.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <random>

#include "common/error.hpp"
#include "ledger.hpp"
#include "serve/socket_util.hpp"

namespace ledger {

namespace {

/// An outstanding request still waiting for a response after this long
/// once the phase has ended counts as failed (timeout).
constexpr double kDrainTimeoutS = 10.0;
/// Arrivals continue past a phase's end at most this long while
/// PhaseHooks::extend holds.
constexpr double kMaxExtendS = 5.0;
constexpr std::uint64_t kTickNs = 1'000'000;

}  // namespace

struct LoadClient::Connection {
    struct Request {
        int stream = 0;
        std::uint64_t index = 0;
        std::uint64_t due_ns = 0;
        std::uint64_t sent_ns = 0;
        std::string line;
    };

    std::size_t index = 0;
    ed::serve::FdGuard fd;
    std::string out;
    std::size_t out_offset = 0;
    std::string in;
    /// Requests due on this connection, in due order. While `busy`, the
    /// first one is on the wire; the others wait for its answer.
    std::deque<Request> requests;
    bool busy = false;
    bool dead = false;

    bool wants_write() const { return !dead && out_offset < out.size(); }
};

std::vector<double> slice_percentiles(
    const PhaseResult& phase, const std::vector<double> PhaseResult::*samples,
    double q) {
    std::map<long, std::vector<double>> slices;
    for (std::size_t i = 0; i < phase.due_s.size(); ++i) {
        slices[static_cast<long>(phase.due_s[i] / kSliceS)].push_back(
            (phase.*samples)[i]);
    }
    std::vector<double> out;
    for (auto& [slice, samples] : slices) {
        out.push_back(percentile(std::move(samples), q));
    }
    return out;
}

LoadClient::LoadClient(const std::string& host, int port, int connections) {
    if (connections < 1 || connections > 4) {
        throw ed::InvalidArgumentError("ledger client: 1..4 connections");
    }
    for (int i = 0; i < connections; ++i) {
        auto conn = std::make_unique<Connection>();
        conn->index = static_cast<std::size_t>(i);
        conn->fd.reset(ed::serve::connect_to(host, port, 10000));
        if (!ed::serve::set_nonblocking(conn->fd.get())) {
            throw ed::Error("ledger client: cannot configure socket");
        }
        connections_.push_back(std::move(conn));
    }
}

LoadClient::~LoadClient() = default;

PhaseResult LoadClient::run(std::vector<Stream> streams, double seconds,
                            const PhaseHooks& hooks) {
    struct Arrivals {
        std::mt19937_64 rng;
        std::exponential_distribution<double> gap{1.0};
        double mean_gap_ns = 0.0;
        std::uint64_t next_due = 0;
        std::uint64_t index = 0;
        std::size_t round_robin = 0;
    };
    PhaseResult result;
    result.seconds = seconds;
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t extend_limit =
        end + static_cast<std::uint64_t>(kMaxExtendS * 1e9);
    std::vector<Arrivals> arrivals(streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const Stream& stream = streams[s];
        if (stream.connections.empty() || stream.rate < 0.0) {
            throw ed::InvalidArgumentError("ledger client: bad stream");
        }
        for (const int c : stream.connections) {
            if (c < 0 || static_cast<std::size_t>(c) >= connections_.size()) {
                throw ed::InvalidArgumentError("ledger client: no connection " +
                                               std::to_string(c));
            }
        }
        Arrivals& a = arrivals[s];
        a.index = stream.first_index;
        if (stream.rate > 0.0) {
            a.rng.seed(stream.seed);
            a.mean_gap_ns = 1e9 / stream.rate;
            a.next_due = start + static_cast<std::uint64_t>(a.gap(a.rng) *
                                                           a.mean_gap_ns);
        }
    }

    std::size_t outstanding = 0;  // queued or on the wire
    std::uint64_t last_response = start;
    std::uint64_t last_tick = 0;
    bool sending = true;

    const auto fail_pending = [&](Connection& c) {
        result.failed += c.requests.size();
        outstanding -= c.requests.size();
        c.requests.clear();
        c.busy = false;
        c.dead = true;
        c.fd.reset();
    };

    const auto enqueue = [&](std::size_t s, std::size_t conn,
                             std::uint64_t due) {
        Arrivals& a = arrivals[s];
        Connection& c = *connections_[conn];
        ++result.sent;
        if (c.dead) {
            ++result.failed;
        } else {
            c.requests.push_back(Connection::Request{
                static_cast<int>(s), a.index, due, 0,
                streams[s].line(a.index)});
            ++outstanding;
        }
        ++a.index;
    };

    const auto flush = [&](Connection& c) {
        while (c.wants_write()) {
            const ssize_t n =
                ::send(c.fd.get(), c.out.data() + c.out_offset,
                       c.out.size() - c.out_offset, MSG_NOSIGNAL);
            if (n > 0) {
                c.out_offset += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;
            }
            fail_pending(c);
            return;
        }
        if (c.out_offset == c.out.size()) {
            c.out.clear();
            c.out_offset = 0;
        }
    };

    // Puts the connection's next queued request on the wire once the
    // previous one has been answered.
    const auto send_next = [&](Connection& c, std::uint64_t now) {
        if (c.dead || c.busy || c.requests.empty()) {
            return;
        }
        Connection::Request& r = c.requests.front();
        r.sent_ns = now;
        c.out += r.line;
        c.out += '\n';
        c.busy = true;
        flush(c);
    };

    const auto receive = [&](Connection& c) {
        char chunk[65536];
        while (!c.dead) {
            const ssize_t n = ::recv(c.fd.get(), chunk, sizeof(chunk), 0);
            if (n > 0) {
                c.in.append(chunk, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;
            }
            fail_pending(c);  // closed by the daemon, or a socket error
            return;
        }
        const std::uint64_t now = now_ns();
        std::size_t begin = 0;
        for (std::size_t nl = c.in.find('\n'); nl != std::string::npos;
             nl = c.in.find('\n', begin)) {
            const std::string_view line(c.in.data() + begin, nl - begin);
            begin = nl + 1;
            if (!c.busy) {
                result.failed += 1;  // an answer nobody asked for
                continue;
            }
            const Connection::Request r = std::move(c.requests.front());
            c.requests.pop_front();
            c.busy = false;
            --outstanding;
            ++result.completed;
            last_response = now;
            if (line.rfind("err", 0) == 0) {
                ++result.failed;
            }
            if (r.stream == 0) {
                ++result.completed_stream0;
                const auto slice = static_cast<std::size_t>(
                    static_cast<double>(now - start) * 1e-9 / kSliceS);
                if (result.slice_completions.size() <= slice) {
                    result.slice_completions.resize(slice + 1, 0);
                }
                ++result.slice_completions[slice];
                // A closed loop's latency only restates its concurrency;
                // keeping those samples would just grow memory.
                if (streams[0].rate > 0.0) {
                    result.latency_us.push_back(
                        static_cast<double>(now - r.due_ns) * 1e-3);
                    result.rtt_us.push_back(
                        static_cast<double>(now - r.sent_ns) * 1e-3);
                    result.due_s.push_back(
                        static_cast<double>(r.due_ns - start) * 1e-9);
                }
            }
            if (hooks.on_response) {
                hooks.on_response(Completion{r.stream, r.index, r.due_ns,
                                             r.sent_ns, now, line});
            }
        }
        c.in.erase(0, begin);
        send_next(c, now);
    };

    std::vector<pollfd> fds(connections_.size());
    while (true) {
        std::uint64_t now = now_ns();
        if (sending && now >= end &&
            !(hooks.extend && now < extend_limit && hooks.extend())) {
            sending = false;
        }
        if (sending) {
            for (std::size_t s = 0; s < streams.size(); ++s) {
                Arrivals& a = arrivals[s];
                const Stream& stream = streams[s];
                if (stream.rate == 0.0) {
                    for (const int conn : stream.connections) {
                        const auto c = static_cast<std::size_t>(conn);
                        if (!connections_[c]->dead &&
                            connections_[c]->requests.empty()) {
                            enqueue(s, c, now);
                        }
                    }
                    continue;
                }
                while (a.next_due <= now) {
                    result.lateness_us.push_back(
                        static_cast<double>(now - a.next_due) * 1e-3);
                    enqueue(s,
                            static_cast<std::size_t>(
                                stream.connections[a.round_robin++ %
                                                   stream.connections.size()]),
                            a.next_due);
                    a.next_due += static_cast<std::uint64_t>(
                        a.gap(a.rng) * a.mean_gap_ns);
                }
            }
        }
        for (auto& c : connections_) {
            send_next(*c, now);
        }
        if (!sending && outstanding == 0) {
            break;
        }
        if (!sending && now > end + static_cast<std::uint64_t>(
                                        (kDrainTimeoutS + kMaxExtendS) *
                                        1e9)) {
            for (auto& c : connections_) {
                fail_pending(*c);  // timed out
            }
            break;
        }

        std::uint64_t wake = now + kTickNs;
        for (std::size_t s = 0; sending && s < streams.size(); ++s) {
            if (streams[s].rate > 0.0) {
                wake = std::min(wake, arrivals[s].next_due);
            }
        }
        const std::uint64_t wait_ns = wake > now ? wake - now : 0;
        for (std::size_t i = 0; i < connections_.size(); ++i) {
            const Connection& c = *connections_[i];
            fds[i].fd = c.dead ? -1 : c.fd.get();
            fds[i].events = static_cast<short>(
                POLLIN | (c.wants_write() ? POLLOUT : 0));
            fds[i].revents = 0;
        }
        const timespec timeout{
            static_cast<time_t>(wait_ns / 1'000'000'000),
            static_cast<long>(wait_ns % 1'000'000'000)};
        const int ready =
            ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready < 0 && errno != EINTR) {
            throw ed::Error(std::string("ledger client: ppoll: ") +
                            std::strerror(errno));
        }
        for (std::size_t i = 0; ready > 0 && i < connections_.size(); ++i) {
            Connection& c = *connections_[i];
            if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
                receive(c);
            }
            if ((fds[i].revents & POLLOUT) != 0) {
                flush(c);
            }
        }
        now = now_ns();
        if (hooks.on_tick && now - last_tick >= kTickNs) {
            last_tick = now;
            hooks.on_tick(now);
        }
    }
    result.wall_s =
        static_cast<double>(std::max(last_response, end) - start) * 1e-9;
    return result;
}

}  // namespace ledger
