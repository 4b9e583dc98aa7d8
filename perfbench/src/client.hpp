// A minimal HTTP/1.1 client connection with a deadline on every wait
// (connect, send, first byte, body). A stalled or refused endpoint surfaces
// as a failed round trip, never as a hung benchmark.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct HttpReply {
  int status = 0;
  std::string body;  ///< de-chunked
  Clock::time_point first_byte{};
};

class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn() { Close(); }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  bool Dial(uint16_t port, Clock::time_point deadline, std::string* err);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request and reads its reply. On false the connection is
  /// closed and `err` says why.
  bool RoundTrip(const std::string& request, Clock::time_point deadline, HttpReply* reply,
                 std::string* err);

 private:
  bool Wait(short events, Clock::time_point deadline, std::string* err);
  bool Fill(Clock::time_point deadline, std::string* err);
  /// Offset of the next "\r\n" at or after pos_, reading more as needed.
  bool Line(Clock::time_point deadline, size_t* eol, std::string* err);
  bool ReadReply(Clock::time_point deadline, HttpReply* reply, std::string* err);

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// GET /sparql for `text` as JSON, as raw request bytes.
std::string QueryRequest(const std::string& text);
/// POST /update carrying `text` as application/sparql-update.
std::string UpdateRequest(const std::string& text);

}  // namespace perfbench
