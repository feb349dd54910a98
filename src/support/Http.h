//===- support/Http.h - The HTTP/1.1 server and its plumbing ----*- C++ -*-===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process's one HTTP/1.1 server and the plumbing under it. Both HTTP
/// front ends are this Server: the stats port (`--stats-port`) runs it
/// alone, and the serve-mode job server (`oppsla serve`) adds its job
/// routes in front. Raw POSIX sockets, one blocking accept thread,
/// 127.0.0.1 only. Every Server answers
///
///   GET /metrics       the metrics registry in Prometheus text
///                      exposition format (counters, gauges, histogram
///                      _bucket/_sum/_count series);
///   GET /profile       the profiler's current folded stacks (text);
///   GET /healthz       run progress JSON (done/total, success rate,
///                      avg queries, elapsed, ETA);
///   GET /ledger        the tail of the registered bench ledger
///                      (`--ledger`) plus hardware-counter state and the
///                      per-span profile snapshot with IPC/miss rates;
///   GET /logz?n=..&level=..  the newest log-ring records as JSONL (400
///                      on an unknown level);
///   GET /quitquitquit  sets quitRequested(), releasing waitQuit().
///
/// Another method on one of these paths gets 405; an unknown path 404.
/// Routes match on the path without its query string.
///
/// readRequest() loops on recv() until the header terminator arrives (a
/// request line alone is *not* a complete request) and then reads exactly
/// Content-Length body bytes, so POSTs — and GETs whose headers straddle a
/// packet boundary — are parsed correctly. The whole read must finish by
/// one deadline, 5 s after accept() for the Server, so a client trickling
/// bytes cannot hold the single accept thread. Both sides always close the
/// connection after one exchange (`Connection: close`); there is no
/// keep-alive, chunked encoding, or TLS. A small blocking client, used by
/// `oppsla client` and the tests, completes the set.
///
//===----------------------------------------------------------------------===//

#ifndef OPPSLA_SUPPORT_HTTP_H
#define OPPSLA_SUPPORT_HTTP_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace oppsla {
namespace http {

/// One parsed request. Header names are lower-cased; values are stripped
/// of surrounding whitespace.
struct Request {
  std::string Method; ///< "GET", "POST", "DELETE", ...
  std::string Target; ///< request target as sent ("/v1/jobs/3")
  std::map<std::string, std::string> Headers;
  std::string Body; ///< exactly Content-Length bytes (empty without one)

  /// Header lookup by lower-case name; empty string when absent.
  std::string header(const std::string &Name) const;
};

/// Hard limits on what readRequest() accepts; a request exceeding them is
/// an error, not a truncation.
constexpr size_t MaxHeaderBytes = 16 * 1024;
constexpr size_t MaxBodyBytes = 64 * 1024 * 1024;

/// Reads one request from \p Fd: loops on recv() until "\r\n\r\n", parses
/// the request line and headers, then reads the Content-Length body.
/// \returns false (with \p Error set) on malformed input, a peer that
/// closed mid-request, or a request not complete by \p Deadline.
bool readRequest(int Fd, Request &Out, std::string &Error,
                 std::chrono::steady_clock::time_point Deadline);

/// Standard reason phrase for \p Status ("OK", "Not Found", ...).
const char *statusText(int Status);

/// Writes one `HTTP/1.1 <status>` response with Content-Length and
/// `Connection: close`. \p ExtraHeaders are emitted verbatim after the
/// standard ones (e.g. {"Retry-After", "1"}).
void sendResponse(
    int Fd, int Status, const std::string &ContentType,
    std::string_view Body,
    const std::vector<std::pair<std::string, std::string>> &ExtraHeaders =
        {});

/// A client-side response: status code plus body.
struct Response {
  int Status = 0;
  std::string Body;
};

/// One blocking request against 127.0.0.1:\p Port: connects, sends
/// \p Method \p Target with \p Body (Content-Length added when non-empty),
/// reads the response until EOF. \p ExtraHeaders are emitted verbatim into
/// the request head (e.g. {"traceparent", "00-..."}). \returns false (with
/// \p Error set) when the connection or the exchange fails; HTTP error
/// statuses are returned in \p Out, not treated as failures.
bool request(uint16_t Port, const std::string &Method,
             const std::string &Target, const std::string &Body,
             Response &Out, std::string &Error,
             double TimeoutSeconds = 30.0,
             const std::vector<std::pair<std::string, std::string>>
                 &ExtraHeaders = {});

/// Extracts the value of \p Key from the query string of \p Target
/// ("/logz?n=20&level=debug"), or "" when absent. No %-decoding — the
/// serve endpoints only take numbers and identifiers.
std::string queryParam(const std::string &Target, const std::string &Key);

/// A caller's own routes: answers \p Req on \p Fd and returns true, or
/// returns false, having sent nothing, for a request it does not serve.
using Routes = std::function<bool(int Fd, const Request &Req)>;

class Server {
public:
  /// \p Extra is consulted before the shared routes, so it may also
  /// override one of them (serve mode answers its own /healthz).
  explicit Server(Routes Extra = nullptr) : Extra(std::move(Extra)) {}
  ~Server();

  /// Binds 127.0.0.1:\p Port (0 = ephemeral) and starts the accept
  /// thread. \returns false (after logging) when the socket cannot be set
  /// up. start() on a running server is an error and returns false.
  bool start(uint16_t Port);

  /// The actually bound port (valid after a successful start()).
  uint16_t port() const { return BoundPort; }

  bool running() const { return ListenFd >= 0; }

  /// True once a client requested /quitquitquit.
  bool quitRequested() const {
    return Quit.load(std::memory_order_relaxed);
  }

  /// Blocks until quitRequested() or \p TimeoutSeconds elapsed (0 = no
  /// cap). \returns quitRequested().
  bool waitQuit(double TimeoutSeconds);

  /// Stops accepting, closes the socket, joins the thread. Idempotent.
  void stop();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

private:
  void serveLoop();
  void handle(int Fd, const Request &Req);

  Routes Extra;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Quit{false};
  std::atomic<bool> Stopping{false};
  std::thread Thread;
};

} // namespace http
} // namespace oppsla

#endif // OPPSLA_SUPPORT_HTTP_H
