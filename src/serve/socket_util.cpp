#include "serve/socket_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace extradeep::serve {

namespace {

/// Applies SO_RCVTIMEO (no-op for timeout_ms <= 0). Throws Error if
/// setsockopt fails: a silently missing timeout would let a dead peer hang
/// the caller forever, which is exactly the failure the timeout exists to
/// prevent.
void set_recv_timeout(int fd, int timeout_ms) {
    if (timeout_ms <= 0) {
        return;
    }
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<decltype(tv.tv_usec)>((timeout_ms % 1000) * 1000);
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
        throw Error(std::string("serve: setsockopt(SO_RCVTIMEO) failed: ") +
                    std::strerror(errno));
    }
}

}  // namespace

void FdGuard::reset(int fd) {
    if (fd_ >= 0) {
        // Retrying close on EINTR is wrong on Linux (the fd is released
        // even when interrupted); one call is the correct idiom.
        ::close(fd_);
    }
    fd_ = fd;
}

bool set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool send_all(int fd, const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK)) {
            continue;  // interrupted or briefly full: not EOF, try again
        }
        if (n <= 0) {
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool LineReader::next_line(std::string& line) {
    const auto pop_line = [&line](std::string text) {
        line = std::move(text);
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
    };
    while (true) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            if (nl > max_line_) {
                status_ = ReadStatus::TooLong;
                return false;
            }
            pop_line(buffer_.substr(0, nl));
            buffer_.erase(0, nl + 1);
            status_ = ReadStatus::Line;
            return true;
        }
        if (buffer_.size() > max_line_) {
            status_ = ReadStatus::TooLong;
            return false;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buffer_.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;  // interrupted, not EOF: retry
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            status_ = ReadStatus::Timeout;  // SO_RCVTIMEO expired
            return false;
        }
        if (n == 0 && !buffer_.empty()) {
            // EOF: a trailing unterminated line is still served, so a
            // client may just write requests and shut down the socket.
            pop_line(std::move(buffer_));
            buffer_.clear();
            status_ = ReadStatus::Line;
            return true;
        }
        status_ = n == 0 ? ReadStatus::Eof : ReadStatus::Error;
        return false;
    }
}

int connect_to(const std::string& host, int port, int timeout_ms) {
    FdGuard fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (fd.get() < 0) {
        throw Error("serve client: socket() failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw Error("serve client: bad host address '" + host + "'");
    }
    set_recv_timeout(fd.get(), timeout_ms);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINTR) {
            throw Error("serve client: cannot connect to " + host + ":" +
                        std::to_string(port) + ": " + std::strerror(errno));
        }
        // An interrupted connect keeps going in the kernel; wait for the
        // socket to become writable and read the final status.
        pollfd pfd{};
        pfd.fd = fd.get();
        pfd.events = POLLOUT;
        int ready;
        do {
            ready = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
        } while (ready < 0 && errno == EINTR);
        int err = 0;
        socklen_t len = sizeof(err);
        if (ready <= 0 ||
            ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
            err != 0) {
            throw Error("serve client: cannot connect to " + host + ":" +
                        std::to_string(port) + ": " +
                        (ready <= 0 ? "connect timed out"
                                    : std::strerror(err)));
        }
    }
    return fd.release();
}

}  // namespace extradeep::serve
