#include "ctrl/http_introspect.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace drlstream::ctrl {
namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

std::string RenderResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

/// Parses "GET <path> ..." out of a complete request head. Query strings
/// are dropped (the endpoints take no parameters).
HttpResponse Dispatch(const std::string& head,
                      const HttpIntrospect::Handler& handler) {
  const size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return HttpResponse{400, "text/plain; charset=utf-8",
                        "malformed request line\n"};
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    return HttpResponse{405, "text/plain; charset=utf-8",
                        "only GET is supported\n"};
  }
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  if (path.empty() || path[0] != '/') {
    return HttpResponse{400, "text/plain; charset=utf-8", "bad path\n"};
  }
  return handler(path);
}

}  // namespace

StatusOr<std::unique_ptr<HttpIntrospect>> HttpIntrospect::Bind(
    const std::string& host, int port) {
  DRLSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<net::TcpListener> listener,
                             net::TcpListener::Bind(host, port));
  return std::unique_ptr<HttpIntrospect>(
      new HttpIntrospect(std::move(listener)));
}

HttpIntrospect::~HttpIntrospect() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

size_t HttpIntrospect::AppendPollFds(std::vector<struct pollfd>* pfds) {
  size_t added = 0;
  pfds->push_back({listener_->readiness_fd(), POLLIN, 0});
  ++added;
  for (const Conn& conn : conns_) {
    short events = 0;
    if (!conn.responding) events |= POLLIN;
    if (!conn.out.empty()) events |= POLLOUT;
    pfds->push_back({conn.fd, events, 0});
    ++added;
  }
  return added;
}

void HttpIntrospect::ServiceConn(Conn* conn, const Handler& handler) {
  if (!conn->responding) {
    char buf[2048];
    while (true) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        if (conn->in.size() > kMaxRequestBytes) {
          conn->out = RenderResponse(HttpResponse{
              400, "text/plain; charset=utf-8", "request too large\n"});
          conn->responding = true;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error before a full request: drop the connection.
      if (!conn->responding && conn->in.find("\r\n\r\n") == std::string::npos &&
          conn->in.find("\n\n") == std::string::npos) {
        ::close(conn->fd);
        conn->fd = -1;
        return;
      }
      break;
    }
    if (!conn->responding && (conn->in.find("\r\n\r\n") != std::string::npos ||
                              conn->in.find("\n\n") != std::string::npos)) {
      conn->out = RenderResponse(Dispatch(conn->in, handler));
      conn->responding = true;
    }
  }
  while (conn->responding && conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    ::close(conn->fd);  // peer gone mid-response
    conn->fd = -1;
    return;
  }
  // Fully flushed: one request per connection, so close. A partial flush
  // leaves `out` non-empty and POLLOUT re-arms the send above.
  if (conn->responding && conn->out_off >= conn->out.size()) {
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void HttpIntrospect::AcceptReady(const Handler& handler) {
  while (true) {
    // None pending, or a transient accept error: try again next poll.
    const StatusOr<int> fd = listener_->AcceptSocket();
    if (!fd.ok()) break;
    if (static_cast<int>(conns_.size()) >= kMaxConnections) {
      ::close(*fd);
      continue;
    }
    Conn conn;
    conn.fd = *fd;
    conns_.push_back(std::move(conn));
    // The request bytes often ride in right behind the SYN; try serving
    // immediately instead of waiting out a poll cycle.
    ServiceConn(&conns_.back(), handler);
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return c.fd < 0; }),
               conns_.end());
}

void HttpIntrospect::OnPollResults(const struct pollfd* pfds, size_t count,
                                   const Handler& handler) {
  if (count == 0) return;
  // Entry 0 is the listener; entries 1..count-1 line up with conns_ as it
  // stood when AppendPollFds ran (accepts only happen below, afterwards).
  for (size_t i = 1; i < count && i - 1 < conns_.size(); ++i) {
    Conn& conn = conns_[i - 1];
    const short revents = pfds[i].revents;
    if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
      // Flush what we can (HUP can coincide with readable bytes), then
      // let ServiceConn decide; a dead peer shows up as read/send errors.
    }
    if (revents != 0 && conn.fd >= 0) ServiceConn(&conn, handler);
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return c.fd < 0; }),
               conns_.end());
  if (pfds[0].revents & POLLIN) AcceptReady(handler);
}

}  // namespace drlstream::ctrl
