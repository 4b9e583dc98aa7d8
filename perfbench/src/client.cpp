#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

namespace perfbench {
namespace {

/// Larger bodies or chunks are refused as malformed (the biggest expected
/// body is a few MB).
constexpr size_t kMaxBody = size_t{1} << 30;

int RemainingMs(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count()) + 1;
}

std::string UrlEncode(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += hex[c >> 4];
      out += hex[c & 15];
    }
  }
  return out;
}

}  // namespace

std::string QueryRequest(const std::string& text) {
  return "GET /sparql?format=json&query=" + UrlEncode(text) +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string UpdateRequest(const std::string& text) {
  return "POST /update HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
         "application/sparql-update\r\nContent-Length: " +
         std::to_string(text.size()) + "\r\n\r\n" + text;
}

bool HttpConn::Dial(uint16_t port, Clock::time_point deadline, std::string* err) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) {
    *err = "socket failed";
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      *err = std::string("connect: ") + std::strerror(errno);
      Close();
      return false;
    }
    if (!Wait(POLLOUT, deadline, err)) return false;
    int so_error = 0;
    socklen_t len = sizeof so_error;
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      *err = std::string("connect: ") + std::strerror(so_error);
      Close();
      return false;
    }
  }
  return true;
}

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
  pos_ = 0;
}

bool HttpConn::Wait(short events, Clock::time_point deadline, std::string* err) {
  for (;;) {
    pollfd p{fd_, events, 0};
    int n = ::poll(&p, 1, RemainingMs(deadline));
    if (n > 0) return true;
    if (n < 0 && errno == EINTR) continue;
    *err = n == 0 ? "timed out" : std::string("poll: ") + std::strerror(errno);
    Close();
    return false;
  }
}

bool HttpConn::Fill(Clock::time_point deadline, std::string* err) {
  char tmp[65536];
  for (;;) {
    ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
    if (n > 0) {
      buf_.append(tmp, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) {
      *err = "connection closed by server";
      Close();
      return false;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      *err = std::string("recv: ") + std::strerror(errno);
      Close();
      return false;
    }
    if (!Wait(POLLIN, deadline, err)) return false;
  }
}

bool HttpConn::Line(Clock::time_point deadline, size_t* eol, std::string* err) {
  size_t from = pos_;
  for (;;) {
    size_t at = buf_.find("\r\n", from);
    if (at != std::string::npos) {
      *eol = at;
      return true;
    }
    from = buf_.size() > pos_ ? buf_.size() - 1 : pos_;
    if (!Fill(deadline, err)) return false;
  }
}

bool HttpConn::RoundTrip(const std::string& request, Clock::time_point deadline,
                         HttpReply* reply, std::string* err) {
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!Wait(POLLOUT, deadline, err)) return false;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      *err = std::string("send: ") + std::strerror(errno);
      Close();
      return false;
    }
  }
  return ReadReply(deadline, reply, err);
}

bool HttpConn::ReadReply(Clock::time_point deadline, HttpReply* reply, std::string* err) {
  reply->body.clear();
  if (buf_.size() == pos_ && !Fill(deadline, err)) return false;
  reply->first_byte = Clock::now();

  size_t eol = 0;
  if (!Line(deadline, &eol, err)) return false;
  std::string status_line = buf_.substr(pos_, eol - pos_);
  pos_ = eol + 2;
  if (status_line.size() < 12 || status_line.compare(0, 5, "HTTP/") != 0) {
    *err = "bad status line";
    Close();
    return false;
  }
  reply->status = std::atoi(status_line.c_str() + 9);

  bool chunked = false;
  size_t content_length = 0;
  for (;;) {
    if (!Line(deadline, &eol, err)) return false;
    std::string field = buf_.substr(pos_, eol - pos_);
    pos_ = eol + 2;
    if (field.empty()) break;
    for (char& ch : field) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    if (field.starts_with("transfer-encoding:") && field.find("chunked") != std::string::npos)
      chunked = true;
    else if (field.starts_with("content-length:"))
      content_length = std::strtoull(field.c_str() + 15, nullptr, 10);
  }

  auto take = [&](size_t n) -> bool {
    if (n > kMaxBody || reply->body.size() > kMaxBody) {
      *err = "body too large";
      Close();
      return false;
    }
    while (buf_.size() - pos_ < n)
      if (!Fill(deadline, err)) return false;
    reply->body.append(buf_, pos_, n);
    pos_ += n;
    return true;
  };
  if (!chunked) {
    if (!take(content_length)) return false;
  } else {
    for (;;) {
      if (!Line(deadline, &eol, err)) return false;
      size_t size = std::strtoull(buf_.c_str() + pos_, nullptr, 16);
      pos_ = eol + 2;
      if (size == 0) {
        // Trailers, up to the empty line.
        for (;;) {
          if (!Line(deadline, &eol, err)) return false;
          bool last = eol == pos_;
          pos_ = eol + 2;
          if (last) break;
        }
        break;
      }
      if (!take(size + 2)) return false;
      reply->body.resize(reply->body.size() - 2);  // the chunk's CRLF
    }
  }
  buf_.erase(0, pos_);
  pos_ = 0;
  return true;
}

}  // namespace perfbench
