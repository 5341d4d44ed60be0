#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/query.hpp"

namespace extradeep::serve {

/// Default longest accepted request line in bytes, terminator excluded. A
/// line of exactly this length is served; one byte more is a protocol
/// violation that terminates the connection (a legitimate query request is
/// always short). Overridable per daemon via ServerOptions::max_request_line
/// for payload-carrying verbs (fleet `ingest`).
inline constexpr std::size_t kMaxRequestLine = 1 << 16;

struct ServerOptions {
    /// Loopback only by design: extradeep-serve is a local analysis daemon,
    /// not an internet-facing service.
    std::string host = "127.0.0.1";
    /// 0 = let the kernel pick an ephemeral port (read it back via port()).
    int port = 0;
    /// Worker threads (a common/parallel_for ThreadPool) for every request
    /// except the cheap verbs (predict, speedup, efficiency, cost), which
    /// the event loop answers itself; 0 or negative = hardware concurrency.
    /// The event loop runs on one additional thread.
    int threads = 4;
    /// Per-connection idle timeout: a connection with no readable progress
    /// and no request in flight for this long is disconnected, so a stalled
    /// peer cannot pin a connection slot forever. Also bounds the shutdown
    /// drain (see stop()/`shutdown`). Must be positive.
    int recv_timeout_ms = 5000;
    /// Longest accepted request line (terminator excluded); one byte more
    /// is a protocol violation that closes the connection. The default
    /// kMaxRequestLine covers every query verb; fleet daemons raise it so
    /// an `ingest` line can carry a whole escaped EDP run as its payload.
    std::size_t max_request_line = kMaxRequestLine;
};

/// Line-protocol TCP daemon over a QueryEngine.
///
/// Transport contract: one request line in, one response line out, in
/// order, per connection. The daemon adds nothing to QueryEngine responses,
/// so network answers are byte-identical to library calls. Two transport
/// commands are handled here rather than in the engine: `quit` closes the
/// connection, `shutdown` drains and stops the daemon (both answer `ok bye`
/// first; responses to earlier pipelined requests are still delivered in
/// order before the `ok bye`).
///
/// Concurrency model (event loop, bounded head-of-line blocking): one
/// thread runs an epoll loop over the non-blocking listener and all
/// connection sockets, each with its own read/write buffer. Complete
/// request lines are answered one at a time per connection, in order. The
/// cheap verbs (is_cheap_request: predict, speedup, efficiency, cost) run
/// on the loop itself, microseconds each; every other request goes to the
/// worker pool (ThreadPool::submit), and the requests queued behind it on
/// that connection wait their turn. A connection is not read while it has
/// parsed requests queued, so one readable event (at most 64 KiB) bounds
/// both its queue and the inline work it can put on the loop. Connections
/// never wait on each other's pool work: a slow, stalled, or pipelining
/// client delays others by at most that one event's worth of cheap answers.
/// Results are deterministic for any client mix because every request is
/// answered from an immutable registry snapshot and connections never
/// share state.
///
/// Shutdown drain: a `shutdown` request (or stop()) closes the listener,
/// then keeps serving until every live connection's already-received
/// requests are answered and flushed, bounded by recv_timeout_ms; only then
/// does the loop exit. In-flight clients get all their responses.
class ServeDaemon {
public:
    ServeDaemon(std::shared_ptr<QueryEngine> engine, ServerOptions options);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon&) = delete;
    ServeDaemon& operator=(const ServeDaemon&) = delete;

    /// Binds, listens, and spawns the event loop. Throws Error if the
    /// socket cannot be created or bound; no file descriptor leaks on any
    /// failure path (including thread construction).
    void start();

    /// The bound port (resolved after start(), also for ephemeral requests).
    int port() const { return port_; }

    /// Requests shutdown (with drain) and wakes the event loop. Idempotent
    /// and async-signal-safe (an atomic store plus one write(2)).
    void stop();

    /// Blocks until the daemon has stopped (via stop() or a `shutdown`
    /// request) and the event loop has exited.
    void wait();

    bool running() const { return running_.load(); }

private:
    struct Completion {
        std::uint64_t conn_id = 0;
        std::string response;
    };

    void loop();
    void wake();

    std::shared_ptr<QueryEngine> engine_;
    ServerOptions options_;
    int listen_fd_ = -1;
    int wake_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<bool> running_{false};
    std::thread loop_thread_;
    std::mutex completions_mutex_;
    std::vector<Completion> completions_;
};

/// Client helper: connects, sends every request (newline-terminated), half-
/// closes the write side, and returns one response line per request. Used
/// by the `extradeep-serve query` client mode and the daemon tests. Throws
/// Error on connection failure or a short response stream; the message
/// distinguishes a receive timeout from a closed connection.
std::vector<std::string> query_daemon(const std::string& host, int port,
                                      const std::vector<std::string>& requests,
                                      int timeout_ms = 10000);

}  // namespace extradeep::serve
