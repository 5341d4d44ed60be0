#pragma once

#include <cstddef>
#include <string>

namespace extradeep::serve {

/// POSIX socket plumbing shared by the serve daemon (server.cpp), the
/// blocking protocol client (query_daemon) and the pipeline benchmark's
/// load client (bench/ledger/client.cpp). Everything here is EINTR-correct:
/// an interrupted syscall is retried, never mistaken for EOF or a fatal
/// error, and a receive timeout (EAGAIN/EWOULDBLOCK on a socket with
/// SO_RCVTIMEO) is reported distinctly from a real error.

/// RAII owner of a file descriptor; closes on destruction unless released.
/// Exists so no constructor/start path can leak an fd when a later step
/// throws (bind, listen, std::thread construction, ...).
class FdGuard {
public:
    FdGuard() = default;
    explicit FdGuard(int fd) : fd_(fd) {}
    ~FdGuard() { reset(); }

    FdGuard(const FdGuard&) = delete;
    FdGuard& operator=(const FdGuard&) = delete;
    FdGuard(FdGuard&& other) noexcept : fd_(other.release()) {}
    FdGuard& operator=(FdGuard&& other) noexcept {
        if (this != &other) {
            reset(other.release());
        }
        return *this;
    }

    int get() const { return fd_; }

    /// Gives up ownership without closing.
    int release() {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void reset(int fd = -1);

private:
    int fd_ = -1;
};

/// O_NONBLOCK via fcntl, for fds not created with the SOCK_NONBLOCK
/// creation flag. Returns false on failure.
bool set_nonblocking(int fd);

/// Sends the whole buffer (MSG_NOSIGNAL), retrying interrupted and
/// would-block sends on a blocking socket. Returns false on a real error or
/// a closed peer.
bool send_all(int fd, const std::string& data);

/// Why LineReader::next_line returned false (or Line when it returned a
/// line).
enum class ReadStatus {
    Line,     ///< a line was produced
    Eof,      ///< orderly end of stream, no buffered partial line
    Timeout,  ///< SO_RCVTIMEO expired (EAGAIN/EWOULDBLOCK)
    TooLong,  ///< a line exceeded the reader's cap
    Error,    ///< a real socket error
};

/// Buffered line reader over a *blocking* socket (the client side; the
/// daemon's event loop does its own non-blocking buffering). Strips a
/// trailing '\r' per line, serves a trailing unterminated line at EOF, and
/// distinguishes timeout from EOF from error via status(). Lines longer
/// than `max_line` fail with TooLong.
class LineReader {
public:
    explicit LineReader(int fd, std::size_t max_line)
        : fd_(fd), max_line_(max_line) {}

    bool next_line(std::string& line);

    ReadStatus status() const { return status_; }

private:
    int fd_;
    std::size_t max_line_;
    std::string buffer_;
    ReadStatus status_ = ReadStatus::Line;
};

/// Blocking IPv4 connect with SO_RCVTIMEO applied and CLOEXEC set. An
/// interrupted connect() is completed via poll + SO_ERROR (the kernel keeps
/// connecting after EINTR; calling connect() again would fail with
/// EALREADY). Throws Error with the failure reason.
int connect_to(const std::string& host, int port, int timeout_ms);

}  // namespace extradeep::serve
