#ifndef AUDITDB_NET_SOCKET_H_
#define AUDITDB_NET_SOCKET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace auditdb {
namespace net {

/// Deadline-bounded I/O on non-blocking sockets for the blocking
/// callers: AuditClient's request path and the ReplicaSession stream.
/// The server's event loop does its own non-blocking I/O.

/// Waits until `fd` is ready for `events` (poll(2) flags) or `deadline`
/// passes. OK, DeadlineExceeded, or Internal on a socket or poll error.
Status Await(int fd, short events,
             std::chrono::steady_clock::time_point deadline);

/// Writes every byte of `bytes`, awaiting writability on EAGAIN.
Status SendAll(int fd, std::string_view bytes,
               std::chrono::steady_clock::time_point deadline);

/// Connects a non-blocking IPv4 TCP socket to host:port within
/// `connect_timeout` and sets TCP_NODELAY; `so_rcvbuf` > 0 also sets
/// SO_RCVBUF. Returns the fd, which the caller owns.
Result<int> Dial(const std::string& host, uint16_t port,
                 std::chrono::milliseconds connect_timeout, int so_rcvbuf);

}  // namespace net
}  // namespace auditdb

#endif  // AUDITDB_NET_SOCKET_H_
