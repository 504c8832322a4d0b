/**
 * @file
 * Tiny POSIX socket helpers shared by the event-loop core, the server,
 * the router and the client library. Kept header-only and internal to facile::server —
 * this is plumbing for protocol.h framing, not a general networking
 * layer.
 */
#ifndef FACILE_SERVER_NET_UTIL_H
#define FACILE_SERVER_NET_UTIL_H

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "testing/fault.h"

namespace facile::server {

/**
 * send() the whole buffer, retrying on EINTR and suppressing SIGPIPE;
 * false on any other error (peer gone).
 */
inline bool
sendAll(int fd, const std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n;
        const auto fa = testing::faultPoint("net.send", len);
        if (fa.err) {
            errno = fa.err;
            n = -1;
        } else {
            n = ::send(fd, data, std::min(len, fa.clamp), MSG_NOSIGNAL);
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += static_cast<std::size_t>(n);
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

[[noreturn]] inline void
throwErrno(const std::string &what)
{
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/** Milliseconds until @p t, rounded up and clamped to [0, cap]. */
inline int
msUntil(std::chrono::steady_clock::time_point t,
        std::chrono::steady_clock::time_point now, int cap)
{
    if (t <= now)
        return 0;
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t - now)
            .count();
    const long long ms = (us + 999) / 1000;
    return static_cast<int>(std::min<long long>(ms, cap));
}

/** Put @p fd in nonblocking mode; false on fcntl failure. */
inline bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Drain a nonblocking eventfd/pipe wakeup (ignores emptiness). */
inline void
drainWakeFd(int fd)
{
    std::uint64_t v;
    for (;;) {
        ssize_t n;
        const auto fa = testing::faultPoint("net.wake_read", sizeof v);
        if (fa.err) {
            errno = fa.err;
            n = -1;
        } else {
            n = ::read(fd, &v, sizeof v);
        }
        if (n > 0)
            continue;
        // A signal between the eventfd becoming readable and the read
        // would otherwise leave the counter set and the next epoll_wait
        // spinning on a level-triggered wakeup that never drains.
        if (n < 0 && errno == EINTR)
            continue;
        return;
    }
}

/**
 * Bump a nonblocking eventfd, retrying on EINTR: a lost wakeup here
 * means the target loop sleeps a full sweep interval (or until the
 * next unrelated event) with work already queued for it. EAGAIN means
 * the counter is already non-zero — the wakeup is pending, nothing to
 * do. Any other error is ignored by design (shutdown races close the
 * fd under us; the sweeps bound the damage).
 */
inline void
signalWakeFd(int fd)
{
    const std::uint64_t one = 1;
    for (;;) {
        ssize_t n;
        const auto fa = testing::faultPoint("net.wake_write", sizeof one);
        if (fa.err) {
            errno = fa.err;
            n = -1;
        } else {
            n = ::write(fd, &one, sizeof one);
        }
        if (n >= 0 || errno != EINTR)
            return;
    }
}

} // namespace facile::server

#endif // FACILE_SERVER_NET_UTIL_H
