//===- support/Http.cpp - The HTTP/1.1 server and its plumbing ------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Http.h"

#include "support/HwCounters.h"
#include "support/Ledger.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Progress.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace oppsla;
using namespace oppsla::http;

namespace {

using Clock = std::chrono::steady_clock;

/// How long the Server gives a client to deliver its whole request.
constexpr std::chrono::seconds RequestTimeout{5};

#ifdef MSG_NOSIGNAL
constexpr int SendFlags = MSG_NOSIGNAL;
#else
constexpr int SendFlags = 0;
#endif

bool sendAll(int Fd, const char *Data, size_t Len) {
  size_t Off = 0;
  while (Off < Len) {
    const ssize_t N = ::send(Fd, Data + Off, Len - Off, SendFlags);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

std::string lower(std::string S) {
  std::transform(S.begin(), S.end(), S.begin(),
                 [](unsigned char C) { return std::tolower(C); });
  return S;
}

std::string strip(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

/// Parses the request line + header block (everything before the blank
/// line) into \p Out.
bool parseHead(const std::string &Head, Request &Out, std::string &Error) {
  size_t LineEnd = Head.find("\r\n");
  if (LineEnd == std::string::npos)
    LineEnd = Head.size();
  const std::string RequestLine = Head.substr(0, LineEnd);

  const size_t M = RequestLine.find(' ');
  if (M == std::string::npos) {
    Error = "http: malformed request line";
    return false;
  }
  const size_t T = RequestLine.find(' ', M + 1);
  Out.Method = RequestLine.substr(0, M);
  Out.Target = T == std::string::npos
                   ? RequestLine.substr(M + 1)
                   : RequestLine.substr(M + 1, T - M - 1);
  if (Out.Method.empty() || Out.Target.empty() || Out.Target[0] != '/') {
    Error = "http: malformed request line '" + RequestLine + "'";
    return false;
  }

  size_t Pos = LineEnd;
  while (Pos < Head.size()) {
    // Skip the terminator of the previous line.
    if (Head.compare(Pos, 2, "\r\n") == 0)
      Pos += 2;
    else if (Head[Pos] == '\n')
      Pos += 1;
    if (Pos >= Head.size())
      break;
    size_t End = Head.find("\r\n", Pos);
    if (End == std::string::npos)
      End = Head.size();
    const std::string Line = Head.substr(Pos, End - Pos);
    Pos = End;
    const size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue; // tolerate junk header lines
    Out.Headers[lower(strip(Line.substr(0, Colon)))] =
        strip(Line.substr(Colon + 1));
  }
  return true;
}

/// One recv() that gives up at \p Deadline: it polls for the time left
/// first, so however the peer paces its bytes the read ends by then.
/// \returns recv()'s result, or -1 with errno = ETIMEDOUT past the
/// deadline.
ssize_t recvBy(int Fd, char *Buf, size_t Len, Clock::time_point Deadline) {
  for (;;) {
    const auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          Deadline - Clock::now())
                          .count();
    pollfd P = {Fd, POLLIN, 0};
    const int Ready =
        Left > 0 ? ::poll(&P, 1, static_cast<int>(std::min<long long>(
                                     Left, INT_MAX)))
                 : 0;
    if (Ready == 0) {
      errno = ETIMEDOUT;
      return -1;
    }
    const ssize_t N = Ready < 0 ? -1 : ::recv(Fd, Buf, Len, 0);
    if (N < 0 && errno == EINTR)
      continue;
    return N;
  }
}

/// Reads from \p Fd until \p Buf contains at least \p Want bytes. \returns
/// false on EOF/error/deadline before that.
bool recvUntil(int Fd, std::string &Buf, size_t Want,
               Clock::time_point Deadline) {
  char Chunk[4096];
  while (Buf.size() < Want) {
    const ssize_t N = recvBy(Fd, Chunk, sizeof(Chunk), Deadline);
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  return true;
}

} // namespace

std::string Request::header(const std::string &Name) const {
  const auto It = Headers.find(lower(Name));
  return It == Headers.end() ? "" : It->second;
}

bool http::readRequest(int Fd, Request &Out, std::string &Error,
                       Clock::time_point Deadline) {
  // Phase 1: accumulate until the header terminator. A request line alone
  // is not a complete request — clients may legitimately deliver the head
  // in several packets.
  std::string Buf;
  size_t HeadEnd = std::string::npos;
  size_t TermLen = 4;
  char Chunk[4096];
  for (;;) {
    HeadEnd = Buf.find("\r\n\r\n");
    if (HeadEnd != std::string::npos)
      break;
    // Tolerate bare-LF clients.
    HeadEnd = Buf.find("\n\n");
    if (HeadEnd != std::string::npos) {
      TermLen = 2;
      break;
    }
    if (Buf.size() > MaxHeaderBytes) {
      Error = "http: request head exceeds " +
              std::to_string(MaxHeaderBytes) + " bytes";
      return false;
    }
    const ssize_t N = recvBy(Fd, Chunk, sizeof(Chunk), Deadline);
    if (N < 0) {
      Error = std::string("http: recv failed: ") + std::strerror(errno);
      return false;
    }
    if (N == 0) {
      Error = Buf.empty() ? "http: peer closed before sending a request"
                          : "http: peer closed mid-request head";
      return false;
    }
    Buf.append(Chunk, static_cast<size_t>(N));
  }

  Request R;
  if (!parseHead(Buf.substr(0, HeadEnd), R, Error))
    return false;

  // Phase 2: the body, exactly Content-Length bytes (anything already
  // received past the head counts toward it).
  const std::string LenStr = R.header("content-length");
  size_t BodyLen = 0;
  if (!LenStr.empty()) {
    char *End = nullptr;
    const unsigned long long V = std::strtoull(LenStr.c_str(), &End, 10);
    if (End == LenStr.c_str() || *End != '\0') {
      Error = "http: unparseable Content-Length '" + LenStr + "'";
      return false;
    }
    if (V > MaxBodyBytes) {
      Error = "http: body of " + LenStr + " bytes exceeds the " +
              std::to_string(MaxBodyBytes) + " byte limit";
      return false;
    }
    BodyLen = static_cast<size_t>(V);
  }
  std::string Body = Buf.substr(HeadEnd + TermLen);
  if (Body.size() < BodyLen && !recvUntil(Fd, Body, BodyLen, Deadline)) {
    Error = "http: body incomplete (got " +
            std::to_string(Body.size()) + " of " + std::to_string(BodyLen) +
            " bytes)";
    return false;
  }
  Body.resize(BodyLen);
  R.Body = std::move(Body);
  Out = std::move(R);
  return true;
}

const char *http::statusText(int Status) {
  switch (Status) {
  case 200:
    return "OK";
  case 202:
    return "Accepted";
  case 400:
    return "Bad Request";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 409:
    return "Conflict";
  case 429:
    return "Too Many Requests";
  case 500:
    return "Internal Server Error";
  default:
    return "Unknown";
  }
}

void http::sendResponse(
    int Fd, int Status, const std::string &ContentType,
    std::string_view Body,
    const std::vector<std::pair<std::string, std::string>> &ExtraHeaders) {
  std::string Header = "HTTP/1.1 " + std::to_string(Status) + " " +
                       statusText(Status) +
                       "\r\nContent-Type: " + ContentType +
                       "\r\nContent-Length: " + std::to_string(Body.size()) +
                       "\r\nConnection: close\r\n";
  for (const auto &[K, V] : ExtraHeaders)
    Header += K + ": " + V + "\r\n";
  Header += "\r\n";
  if (sendAll(Fd, Header.data(), Header.size()))
    sendAll(Fd, Body.data(), Body.size());
}

std::string http::queryParam(const std::string &Target,
                             const std::string &Key) {
  const size_t Q = Target.find('?');
  if (Q == std::string::npos)
    return "";
  size_t Pos = Q + 1;
  while (Pos < Target.size()) {
    size_t End = Target.find('&', Pos);
    if (End == std::string::npos)
      End = Target.size();
    const size_t Eq = Target.find('=', Pos);
    if (Eq != std::string::npos && Eq < End &&
        Target.compare(Pos, Eq - Pos, Key) == 0)
      return Target.substr(Eq + 1, End - Eq - 1);
    Pos = End + 1;
  }
  return "";
}

bool http::request(uint16_t Port, const std::string &Method,
                   const std::string &Target, const std::string &Body,
                   Response &Out, std::string &Error, double TimeoutSeconds,
                   const std::vector<std::pair<std::string, std::string>>
                       &ExtraHeaders) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("http: socket() failed: ") + std::strerror(errno);
    return false;
  }
  timeval Timeout = {};
  Timeout.tv_sec = static_cast<time_t>(TimeoutSeconds);
  Timeout.tv_usec = static_cast<suseconds_t>(
      (TimeoutSeconds - static_cast<double>(Timeout.tv_sec)) * 1e6);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    Error = "http: connect(127.0.0.1:" + std::to_string(Port) +
            ") failed: " + std::strerror(errno);
    ::close(Fd);
    return false;
  }

  std::string Req = Method + " " + Target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto &[K, V] : ExtraHeaders)
    Req += K + ": " + V + "\r\n";
  if (!Body.empty())
    Req += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(Body.size()) + "\r\n";
  Req += "Connection: close\r\n\r\n" + Body;
  if (!sendAll(Fd, Req.data(), Req.size())) {
    Error = std::string("http: send failed: ") + std::strerror(errno);
    ::close(Fd);
    return false;
  }

  std::string Raw;
  char Chunk[4096];
  for (;;) {
    const ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("http: recv failed: ") + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Raw.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);

  // "HTTP/1.1 <code> <reason>\r\n...\r\n\r\n<body>"
  const size_t SP = Raw.find(' ');
  if (SP == std::string::npos || Raw.compare(0, 5, "HTTP/") != 0) {
    Error = "http: malformed response";
    return false;
  }
  Out.Status = std::atoi(Raw.c_str() + SP + 1);
  const size_t HeadEnd = Raw.find("\r\n\r\n");
  Out.Body = HeadEnd == std::string::npos ? "" : Raw.substr(HeadEnd + 4);
  return true;
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *TextPlain = "text/plain; charset=utf-8";

/// The `GET /ledger` payload: the tail of the registered bench ledger
/// (see `--ledger`) plus the hardware-counter state and the per-span
/// profile snapshot carrying IPC/miss-rate attribution when --hw-counters
/// recorded samples.
std::string ledgerEndpointJson() {
  std::string Out = "{\"ledger\":";
  Out += ledger::tailJson(ledger::servedPath(), /*MaxEntries=*/32);
  Out += ",\"hw_counters\":{\"enabled\":";
  Out += telemetry::hwCountersEnabled() ? "true" : "false";
  Out += ",\"available\":";
  Out += (telemetry::hwCountersEnabled() && telemetry::hwCountersAvailable())
             ? "true"
             : "false";
  Out += "},\"profile\":";
  Out += telemetry::profileJson();
  Out += "}";
  return Out;
}

/// `GET /logz?n=..&level=..`: the newest \p n (default 100, at most 1024)
/// log-ring records at or above \p level.
void serveLogz(int Fd, const std::string &Target) {
  size_t N = 100;
  const std::string NStr = queryParam(Target, "n");
  if (!NStr.empty())
    N = static_cast<size_t>(std::strtoull(NStr.c_str(), nullptr, 10));
  LogLevel Level = LogLevel::Debug;
  const std::string LevelStr = queryParam(Target, "level");
  if (!LevelStr.empty() && !parseLogLevel(LevelStr, Level)) {
    sendResponse(Fd, 400, TextPlain,
                 "unknown level '" + LevelStr +
                     "' (want error|warn|info|debug)\n");
    return;
  }
  sendResponse(Fd, 200, "application/x-ndjson",
               logRingJsonl(std::min<size_t>(N, 1024), Level));
}

} // namespace

Server::~Server() { stop(); }

bool Server::start(uint16_t Port) {
  if (ListenFd >= 0) {
    logError() << "http server already running on port " << BoundPort;
    return false;
  }

  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    logError() << "http server: socket() failed: " << std::strerror(errno);
    return false;
  }
  const int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  sockaddr_in Bound = {};
  socklen_t BoundLen = sizeof(Bound);
  const char *Failed = nullptr;
  if (::bind(Fd, reinterpret_cast<const sockaddr *>(&Addr), sizeof(Addr)) < 0)
    Failed = "bind";
  else if (::listen(Fd, 64) < 0)
    Failed = "listen";
  else if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound),
                         &BoundLen) < 0)
    Failed = "getsockname";
  if (Failed) {
    const int Err = errno;
    logError() << "http server: " << Failed << "(127.0.0.1:" << Port
               << ") failed: " << std::strerror(Err);
    ::close(Fd);
    return false;
  }
  BoundPort = ntohs(Bound.sin_port);

  ListenFd = Fd;
  Stopping.store(false, std::memory_order_relaxed);
  Quit.store(false, std::memory_order_relaxed);
  Thread = std::thread([this] { serveLoop(); });
  return true;
}

void Server::serveLoop() {
  for (;;) {
    const int Client = ::accept(ListenFd, nullptr, nullptr);
    if (Client < 0) {
      if (errno == EINTR)
        continue;
      // stop() shut the listening socket down; any other failure also
      // ends the serve loop (the server is best-effort observability).
      return;
    }
    if (Stopping.load(std::memory_order_relaxed)) {
      ::close(Client);
      return;
    }

    // One accept thread serves everyone, so a stalled or malicious client
    // must never wedge the loop: the request read ends at one deadline,
    // and every send is bounded too.
    timeval SendTimeout = {};
    SendTimeout.tv_sec = RequestTimeout.count();
    ::setsockopt(Client, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    Request Req;
    std::string ReqError;
    if (readRequest(Client, Req, ReqError, Clock::now() + RequestTimeout))
      handle(Client, Req);
    ::close(Client);
  }
}

void Server::handle(int Fd, const Request &Req) {
  if (Extra && Extra(Fd, Req))
    return;
  const std::string Path = Req.Target.substr(0, Req.Target.find('?'));
  if (Path != "/metrics" && Path != "/profile" && Path != "/healthz" &&
      Path != "/ledger" && Path != "/logz" && Path != "/quitquitquit") {
    sendResponse(Fd, 404, TextPlain, "not found\n");
  } else if (Req.Method != "GET") {
    sendResponse(Fd, 405, TextPlain, "only GET is served here\n");
  } else if (Path == "/metrics") {
    sendResponse(Fd, 200, "text/plain; version=0.0.4; charset=utf-8",
                 telemetry::prometheusTextExposition());
  } else if (Path == "/profile") {
    sendResponse(Fd, 200, TextPlain, telemetry::profileFoldedReport());
  } else if (Path == "/healthz") {
    sendResponse(Fd, 200, "application/json", telemetry::healthzJson());
  } else if (Path == "/ledger") {
    sendResponse(Fd, 200, "application/json", ledgerEndpointJson());
  } else if (Path == "/logz") {
    serveLogz(Fd, Req.Target);
  } else { // "/quitquitquit"
    Quit.store(true, std::memory_order_relaxed);
    sendResponse(Fd, 200, TextPlain, "quitting\n");
  }
}

bool Server::waitQuit(double TimeoutSeconds) {
  const auto Start = Clock::now();
  while (!quitRequested()) {
    if (TimeoutSeconds > 0.0 &&
        std::chrono::duration<double>(Clock::now() - Start).count() >=
            TimeoutSeconds)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return quitRequested();
}

void Server::stop() {
  if (ListenFd < 0)
    return;
  Stopping.store(true, std::memory_order_relaxed);
  // shutdown() wakes the blocking accept(); close() releases the port.
  ::shutdown(ListenFd, SHUT_RDWR);
  ::close(ListenFd);
  if (Thread.joinable())
    Thread.join();
  ListenFd = -1;
}
