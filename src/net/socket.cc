#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdlib>

namespace viptree {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ParseHostPort(const std::string& endpoint, std::string* host,
                   uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 == endpoint.size()) {
    return false;
  }
  const std::string port_text = endpoint.substr(colon + 1);
  char* end = nullptr;
  const long value = std::strtol(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value <= 0 || value > 65535) {
    return false;
  }
  *host = colon == 0 ? std::string("127.0.0.1") : endpoint.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return true;
}

io::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return io::Status::Error(Errno("fcntl(O_NONBLOCK)"));
  }
  return io::Status::Ok();
}

io::Status ListenTcp(const std::string& bind_address, uint16_t port,
                     int backlog, Socket* out, uint16_t* bound_port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return io::Status::Error(Errno("socket"));

  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return io::Status::Error("unparsable bind address '" + bind_address +
                             "' (want an IPv4 literal, e.g. 127.0.0.1)");
  }
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return io::Status::Error(
        Errno("bind " + bind_address + ":" + std::to_string(port)));
  }
  if (::listen(sock.fd(), backlog) < 0) {
    return io::Status::Error(Errno("listen"));
  }
  if (io::Status status = SetNonBlocking(sock.fd()); !status.ok()) {
    return status;
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual), &len) <
        0) {
      return io::Status::Error(Errno("getsockname"));
    }
    *bound_port = ntohs(actual.sin_port);
  }
  *out = std::move(sock);
  return io::Status::Ok();
}

io::Status ConnectNonBlocking(const std::string& endpoint, Socket* out) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(endpoint, &host, &port)) {
    return io::Status::Error("unparsable endpoint '" + endpoint +
                             "' (want host:port)");
  }

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &resolved);
  if (rc != 0) {
    return io::Status::Error("resolve " + host + ": " + ::gai_strerror(rc));
  }

  io::Status status = io::Status::Error("connect " + endpoint + ": no route");
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    Socket sock(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!sock.valid()) {
      status = io::Status::Error(Errno("socket"));
      continue;
    }
    if (io::Status nb = SetNonBlocking(sock.fd()); !nb.ok()) {
      status = std::move(nb);
      continue;
    }
    if (::connect(sock.fd(), ai->ai_addr, ai->ai_addrlen) < 0 &&
        errno != EINPROGRESS) {
      status = io::Status::Error(Errno("connect " + endpoint));
      continue;
    }
    *out = std::move(sock);
    status = io::Status::Ok();
    break;
  }
  ::freeaddrinfo(resolved);
  return status;
}

io::Status FinishConnect(int fd) {
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
  if (so_error != 0) return io::Status::Error(std::strerror(so_error));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return io::Status::Ok();
}

io::Status ConnectTcp(const std::string& endpoint, double timeout_ms,
                      Socket* out) {
  Socket sock;
  if (io::Status status = ConnectNonBlocking(endpoint, &sock); !status.ok()) {
    return status;
  }
  pollfd pfd{sock.fd(), POLLOUT, 0};
  const int wait_ms = timeout_ms > 0.0 ? static_cast<int>(timeout_ms) : 10000;
  const int ready = ::poll(&pfd, 1, wait_ms);
  if (ready <= 0) {
    return io::Status::Error("connect " + endpoint + ": " +
                             (ready == 0 ? "timed out" : std::strerror(errno)));
  }
  if (io::Status status = FinishConnect(sock.fd()); !status.ok()) {
    return io::Status::Error("connect " + endpoint + ": " + status.error);
  }
  const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  if (flags >= 0) ::fcntl(sock.fd(), F_SETFL, flags & ~O_NONBLOCK);
  *out = std::move(sock);
  return io::Status::Ok();
}

io::Status WakePipe::Create(WakePipe* out) {
  int fds[2];
  if (::pipe(fds) < 0) return io::Status::Error(Errno("pipe"));
  out->read_end = Socket(fds[0]);
  out->write_end = Socket(fds[1]);
  if (io::Status status = SetNonBlocking(fds[0]); !status.ok()) return status;
  if (io::Status status = SetNonBlocking(fds[1]); !status.ok()) return status;
  return io::Status::Ok();
}

void WakePipe::Wake() const {
  const char byte = 'w';
  // Non-blocking: a full pipe already guarantees a pending wakeup, and
  // write() keeps this callable from signal handlers.
  [[maybe_unused]] const ssize_t rc =
      ::write(write_end.fd(), &byte, sizeof(byte));
}

void WakePipe::Clear() const {
  char sink[256];
  while (::read(read_end.fd(), sink, sizeof(sink)) > 0) {
  }
}

}  // namespace net
}  // namespace viptree
