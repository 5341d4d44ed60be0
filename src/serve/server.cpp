#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "obs/clock.hpp"
#include "serve/socket_util.hpp"

namespace extradeep::serve {

namespace {

// epoll user-data ids for the two non-connection fds; connections start
// above them and are identified by id (not fd) so a recycled fd number can
// never be confused with a closed connection.
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnId = 2;

/// Upper bound on the epoll_wait tick (stop-flag and idle-scan latency).
constexpr int kPollTickMs = 50;
/// Write-buffer cap per connection: while a connection has more than this
/// many response bytes unflushed (a client that sends but never reads), the
/// daemon stops reading from it until the buffer drains.
constexpr std::size_t kMaxWriteBuffer = 1 << 20;

/// Per-connection event-loop state. Requests are answered one at a time
/// per connection, in order: cheap verbs on the loop itself, the rest on
/// the worker pool (in_flight), which keeps responses in request order
/// without any cross-connection coordination.
struct Conn {
    int fd = -1;
    std::string in;                    ///< received bytes, not yet parsed
    std::deque<std::string> requests;  ///< parsed lines, not yet answered
    std::string out;                   ///< response bytes awaiting write
    std::uint32_t events = 0;          ///< epoll interest currently registered
    bool in_flight = false;  ///< one request is running on the worker pool
    bool peer_eof = false;   ///< read side done (trailing line still served)
    bool closing = false;    ///< close once `out` is flushed
    std::uint64_t last_activity_ns = 0;
};

}  // namespace

ServeDaemon::ServeDaemon(std::shared_ptr<QueryEngine> engine,
                         ServerOptions options)
    : engine_(std::move(engine)), options_(std::move(options)) {
    if (!engine_) {
        throw InvalidArgumentError("ServeDaemon: null engine");
    }
}

ServeDaemon::~ServeDaemon() {
    stop();
    wait();
}

void ServeDaemon::start() {
    if (running_.load() || listen_fd_ >= 0) {
        throw Error("ServeDaemon: already started");
    }
    // Every fd is guard-owned until the thread is up: any throw below
    // (bind, listen, epoll, eventfd, std::thread construction) closes them.
    FdGuard fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0));
    if (fd.get() < 0) {
        throw Error("ServeDaemon: socket() failed");
    }
    const int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
        0) {
        throw Error(std::string("ServeDaemon: setsockopt(SO_REUSEADDR) "
                                "failed: ") +
                    std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
        throw Error("ServeDaemon: bad host address '" + options_.host + "'");
    }
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        throw Error(std::string("ServeDaemon: bind failed: ") +
                    std::strerror(errno));
    }
    if (::listen(fd.get(), 128) != 0) {
        throw Error(std::string("ServeDaemon: listen failed: ") +
                    std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
        throw Error("ServeDaemon: getsockname failed");
    }
    FdGuard wake(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (wake.get() < 0) {
        throw Error("ServeDaemon: eventfd() failed");
    }
    listen_fd_ = fd.get();
    wake_fd_ = wake.get();
    port_ = ntohs(bound.sin_port);
    stop_.store(false);
    running_.store(true);
    completions_.clear();
    try {
        loop_thread_ = std::thread([this] { loop(); });
    } catch (...) {
        listen_fd_ = -1;
        wake_fd_ = -1;
        running_.store(false);
        throw;  // the guards close both fds
    }
    fd.release();
    wake.release();
}

void ServeDaemon::wake() {
    const int fd = wake_fd_;
    if (fd >= 0) {
        const std::uint64_t one = 1;
        // write(2) is async-signal-safe; EAGAIN (saturated counter) still
        // leaves the loop woken, so the result is deliberately ignored.
        [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
    }
}

void ServeDaemon::stop() {
    stop_.store(true);
    wake();
}

void ServeDaemon::wait() {
    if (loop_thread_.joinable()) {
        loop_thread_.join();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
        ::close(wake_fd_);
        wake_fd_ = -1;
    }
    running_.store(false);
}

void ServeDaemon::loop() {
    // +1: the event loop is the pool's calling thread and never runs tasks,
    // so options_.threads background workers actually handle requests.
    ThreadPool pool(resolve_num_threads(options_.threads) + 1);
    const obs::Clock& clock = obs::steady_clock_instance();
    const std::uint64_t idle_ns =
        static_cast<std::uint64_t>(options_.recv_timeout_ms) * 1000000u;

    FdGuard epoll_fd(::epoll_create1(EPOLL_CLOEXEC));
    if (epoll_fd.get() < 0) {
        running_.store(false);
        return;
    }
    const auto add_fd = [&](int fd, std::uint64_t id, std::uint32_t events) {
        epoll_event ev{};
        ev.events = events;
        ev.data.u64 = id;
        return ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
    };
    if (!add_fd(listen_fd_, kListenerId, EPOLLIN) ||
        !add_fd(wake_fd_, kWakeId, EPOLLIN)) {
        running_.store(false);
        return;
    }

    std::unordered_map<std::uint64_t, Conn> conns;
    std::uint64_t next_id = kFirstConnId;
    bool draining = false;
    bool accepting = true;
    std::uint64_t drain_deadline_ns = 0;
    std::uint64_t now_ns = clock.now_ns();

    const auto update_interest = [&](std::uint64_t id, Conn& c) {
        std::uint32_t want = 0;
        // Backpressure: stop reading new requests from a peer while it has
        // parsed requests waiting behind one on the pool (so a pipelining
        // client cannot queue unbounded input), or while it has not read
        // kMaxWriteBuffer bytes of responses.
        const bool read_gated = c.closing || c.peer_eof ||
                                !c.requests.empty() ||
                                c.out.size() > kMaxWriteBuffer;
        if (!read_gated) {
            want |= EPOLLIN;
        }
        if (!c.out.empty()) {
            want |= EPOLLOUT;
        }
        if (want != c.events) {
            epoll_event ev{};
            ev.events = want;
            ev.data.u64 = id;
            ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_MOD, c.fd, &ev);
            c.events = want;
        }
    };

    const auto close_conn = [&](std::uint64_t id) {
        const auto it = conns.find(id);
        if (it == conns.end()) {
            return;
        }
        ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, it->second.fd, nullptr);
        ::close(it->second.fd);
        conns.erase(it);
    };

    /// Writes as much of `out` as the socket accepts. Returns false when
    /// the connection was closed (error, or flushed with closing set).
    const auto flush = [&](std::uint64_t id, Conn& c) -> bool {
        while (!c.out.empty()) {
            const ssize_t n =
                ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
            if (n > 0) {
                c.out.erase(0, static_cast<std::size_t>(n));
                c.last_activity_ns = now_ns;
                continue;
            }
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;  // kernel buffer full: EPOLLOUT will resume us
            }
            close_conn(id);
            return false;
        }
        if (c.out.empty() && c.closing) {
            close_conn(id);
            return false;
        }
        update_interest(id, c);
        return true;
    };

    /// Parses complete lines, answers queued requests in order until one
    /// goes to the pool (cheap verbs run right here, on the loop), handles
    /// transport verbs, and flushes. Returns false when the connection was
    /// closed.
    const auto pump = [&](std::uint64_t id, Conn& c) -> bool {
        while (true) {
            const std::size_t nl = c.in.find('\n');
            if (nl == std::string::npos) {
                if (c.in.size() > options_.max_request_line) {
                    close_conn(id);  // oversized line: protocol violation
                    return false;
                }
                if (c.peer_eof && !c.in.empty()) {
                    // EOF with a trailing unterminated line: still a request.
                    std::string line = std::move(c.in);
                    c.in.clear();
                    if (!line.empty() && line.back() == '\r') {
                        line.pop_back();
                    }
                    c.requests.push_back(std::move(line));
                    continue;
                }
                break;
            }
            if (nl > options_.max_request_line) {
                close_conn(id);
                return false;
            }
            std::string line = c.in.substr(0, nl);
            c.in.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r') {
                line.pop_back();
            }
            c.requests.push_back(std::move(line));
        }
        while (!c.in_flight && !c.closing && !c.requests.empty()) {
            std::string line = std::move(c.requests.front());
            c.requests.pop_front();
            if (is_cheap_request(line)) {
                // Microseconds of work: cheaper than the two thread hops
                // of a pool round trip.
                c.out += engine_->execute(line);
                c.out += '\n';
            } else if (line == "quit" || line == "shutdown") {
                // Transport verbs, answered here: earlier pipelined requests
                // already got their responses (they were ahead in the
                // queue); later ones are dropped by contract.
                c.out += "ok bye\n";
                c.closing = true;
                c.requests.clear();
                c.in.clear();
                if (line == "shutdown") {
                    stop_.store(true);  // drain starts at the loop top
                }
            } else {
                c.in_flight = true;
                std::shared_ptr<QueryEngine> engine = engine_;
                pool.submit([this, engine, id, line = std::move(line)] {
                    Completion done;
                    done.conn_id = id;
                    done.response = engine->execute(line);
                    done.response += '\n';
                    {
                        std::lock_guard<std::mutex> lock(completions_mutex_);
                        completions_.push_back(std::move(done));
                    }
                    wake();
                });
            }
        }
        if (c.peer_eof && !c.in_flight && c.requests.empty() && c.in.empty()) {
            c.closing = true;  // everything served: close once flushed
        }
        return flush(id, c);
    };

    const auto on_readable = [&](std::uint64_t id, Conn& c) {
        // Bounded reads per event for fairness; level-triggered epoll
        // re-arms for whatever is left.
        for (int i = 0; i < 16; ++i) {
            char chunk[4096];
            const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
            if (n > 0) {
                c.in.append(chunk, static_cast<std::size_t>(n));
                c.last_activity_ns = now_ns;
                continue;
            }
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;
            }
            if (n == 0) {
                c.peer_eof = true;
                break;
            }
            close_conn(id);  // real error
            return;
        }
        pump(id, c);
    };

    const auto on_accept = [&] {
        while (accepting) {
            const int conn = ::accept4(listen_fd_, nullptr, nullptr,
                                       SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (conn < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;  // EAGAIN, or transient (ECONNABORTED, EMFILE, ...)
            }
            const std::uint64_t id = next_id++;
            if (!add_fd(conn, id, EPOLLIN)) {
                ::close(conn);
                continue;
            }
            Conn c;
            c.fd = conn;
            c.events = EPOLLIN;
            c.last_activity_ns = now_ns;
            conns.emplace(id, std::move(c));
        }
    };

    const auto on_wake = [&] {
        std::uint64_t counter = 0;
        while (::read(wake_fd_, &counter, sizeof(counter)) < 0 &&
               errno == EINTR) {
        }
        std::vector<Completion> done;
        {
            std::lock_guard<std::mutex> lock(completions_mutex_);
            done.swap(completions_);
        }
        for (Completion& comp : done) {
            const auto it = conns.find(comp.conn_id);
            if (it == conns.end()) {
                continue;  // connection went away while the request ran
            }
            Conn& c = it->second;
            c.out += comp.response;
            c.in_flight = false;
            c.last_activity_ns = now_ns;
            pump(comp.conn_id, c);
        }
    };

    std::vector<epoll_event> events(64);
    while (true) {
        now_ns = clock.now_ns();
        if (stop_.load() && !draining) {
            draining = true;
            // Drain contract: stop accepting, keep answering what live
            // connections already sent, bounded so a stalled peer cannot
            // hold the daemon open forever.
            drain_deadline_ns = now_ns + idle_ns;
            if (accepting) {
                ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, listen_fd_,
                            nullptr);
                accepting = false;
            }
        }
        if (draining) {
            std::vector<std::uint64_t> drained;
            for (const auto& [id, c] : conns) {
                const bool idle = !c.in_flight && c.requests.empty() &&
                                  c.out.empty() &&
                                  c.in.find('\n') == std::string::npos;
                // A partial line may still be completed before the
                // deadline; everything else is done and can go now.
                if ((idle && c.in.empty()) || now_ns >= drain_deadline_ns) {
                    drained.push_back(id);
                }
            }
            for (const std::uint64_t id : drained) {
                close_conn(id);
            }
            if (conns.empty()) {
                break;
            }
        }

        const int n = ::epoll_wait(epoll_fd.get(), events.data(),
                                   static_cast<int>(events.size()),
                                   kPollTickMs);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;  // unrecoverable epoll failure
        }
        now_ns = clock.now_ns();
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[static_cast<std::size_t>(i)]
                                         .data.u64;
            const std::uint32_t ev =
                events[static_cast<std::size_t>(i)].events;
            if (id == kListenerId) {
                on_accept();
                continue;
            }
            if (id == kWakeId) {
                on_wake();
                continue;
            }
            const auto it = conns.find(id);
            if (it == conns.end()) {
                continue;  // closed earlier in this batch
            }
            Conn& c = it->second;
            if ((ev & (EPOLLERR | EPOLLHUP)) != 0 && c.out.empty() &&
                !c.in_flight && c.requests.empty()) {
                close_conn(id);
                continue;
            }
            if ((ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
                on_readable(id, c);
                continue;  // pump() already flushed (and may have closed)
            }
            if ((ev & EPOLLOUT) != 0) {
                flush(id, c);
            }
        }

        // Idle sweep: disconnect peers with no progress and no work, so a
        // stalled connection cannot pin its slot forever. Connections with
        // a request in flight or unflushed output are never idle.
        std::vector<std::uint64_t> idle;
        for (const auto& [id, c] : conns) {
            if (!c.in_flight && c.out.empty() &&
                now_ns >= c.last_activity_ns &&
                now_ns - c.last_activity_ns > idle_ns) {
                idle.push_back(id);
            }
        }
        for (const std::uint64_t id : idle) {
            close_conn(id);
        }
    }

    for (auto& [id, c] : conns) {
        ::close(c.fd);
    }
    conns.clear();
    running_.store(false);
    // The pool destructor joins in-flight tasks; their completions land in
    // completions_ and are discarded (every connection is gone).
}

std::vector<std::string> query_daemon(const std::string& host, int port,
                                      const std::vector<std::string>& requests,
                                      int timeout_ms) {
    FdGuard fd(connect_to(host, port, timeout_ms));
    std::string payload;
    for (const auto& r : requests) {
        payload += r;
        payload += '\n';
    }
    if (!send_all(fd.get(), payload)) {
        throw Error("serve client: send failed");
    }
    ::shutdown(fd.get(), SHUT_WR);
    std::vector<std::string> responses;
    // Response lines (e.g. the escaped `metrics` exposition) can be much
    // longer than request lines; cap generously.
    LineReader reader(fd.get(), std::size_t{1} << 22);
    std::string line;
    while (responses.size() < requests.size() && reader.next_line(line)) {
        responses.push_back(line);
    }
    if (responses.size() != requests.size()) {
        const char* why = "connection closed";
        switch (reader.status()) {
            case ReadStatus::Timeout:
                why = "receive timed out";
                break;
            case ReadStatus::TooLong:
                why = "oversized response line";
                break;
            case ReadStatus::Error:
                why = "socket error";
                break;
            default:
                break;
        }
        throw Error(std::string("serve client: ") + why + " after " +
                    std::to_string(responses.size()) + " of " +
                    std::to_string(requests.size()) + " responses");
    }
    return responses;
}

}  // namespace extradeep::serve
