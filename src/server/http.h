// HTTP message layer for the event-loop server (src/server/event_loop.h).
//
// The serving plane ingests POST bodies as well as answering scrapes, so
// this layer is a real — if deliberately small — HTTP/1.x message codec:
//
//   * HttpRequestParser — incremental parser fed from non-blocking reads.
//     Accumulates the header block, then the body per Content-Length, and
//     reports oversized headers (431), oversized bodies (413) and
//     malformed framing (400) as typed errors instead of hanging.
//   * HttpRequest       — method, path, parsed query parameters,
//     lower-cased headers, body.
//   * HttpResponse      — status + content type + body, serialized with
//     Content-Length and Connection: close (one request per connection
//     keeps the connection state machine trivial; curl and Prometheus
//     scrapers open a fresh connection per request anyway).
//
// No TLS, no chunked transfer, no multipart: the server binds loopback and
// speaks newline-delimited records and JSON.
#ifndef CROWDTRUTH_SERVER_HTTP_H_
#define CROWDTRUTH_SERVER_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace crowdtruth::server {

struct HttpRequest {
  std::string method;  // "GET", "POST", ... (upper-case as sent)
  std::string path;    // target with the query string stripped
  std::map<std::string, std::string> query;    // decoded ?key=value pairs
  std::map<std::string, std::string> headers;  // names lower-cased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain";
  std::string body;
  // Extra headers beyond Content-Type/Content-Length/Connection
  // (e.g. Retry-After on 429).
  std::vector<std::pair<std::string, std::string>> headers;
};

// Standard reason phrase for the status codes the server emits.
const char* HttpStatusReason(int status);

// Full wire form: status line, headers, blank line, body.
std::string SerializeHttpResponse(const HttpResponse& response);

// A JSON error body {"error": code, "message": ...} with the matching
// status — `code` is a util::StatusCode name ("ParseError",
// "ValidationError") so scripted clients can classify failures the same
// way CLI users classify exit messages.
HttpResponse JsonErrorResponse(int status, const std::string& code,
                               const std::string& message);

// Incremental request parser. Feed() bytes as they arrive; once Done, the
// parsed request is in request(). The parser handles exactly one request —
// connections are close-after-response.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(size_t max_body_bytes)
      : max_body_bytes_(max_body_bytes) {}

  enum class State { kHeader, kBody, kDone, kError };

  State Feed(const char* data, size_t size);
  State state() const { return state_; }

  const HttpRequest& request() const { return request_; }
  // Set in state kError: the HTTP status to answer with and a short
  // human-readable reason.
  int error_status() const { return error_status_; }
  const std::string& error() const { return error_; }

 private:
  State Fail(int status, const std::string& message);
  State ParseHeaderBlock(size_t header_end, size_t separator_size);
  State FinishIfBodyComplete();

  size_t max_body_bytes_;
  State state_ = State::kHeader;
  std::string buffer_;
  size_t body_expected_ = 0;
  HttpRequest request_;
  int error_status_ = 400;
  std::string error_;
};

}  // namespace crowdtruth::server

#endif  // CROWDTRUTH_SERVER_HTTP_H_
