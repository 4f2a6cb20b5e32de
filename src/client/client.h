// Blocking client for the tetrischedd wire protocol (DESIGN.md §16).
//
// Deliberately synchronous: one request on the wire at a time, one matching
// response awaited with a poll(2) deadline. That keeps the library a
// dependency-light building block for CLIs (tools/tetrisched_ctl), load
// generators (perfbench's service_open_loop), and in-process tests, which
// all want call-and-wait semantics rather than an event loop of their own.
//
// Transport: loopback TCP, Unix domain socket, or an adopted pre-connected
// fd (the daemon's AddConnectionFd counterpart for socketpair tests).

#ifndef TETRISCHED_CLIENT_CLIENT_H_
#define TETRISCHED_CLIENT_CLIENT_H_

#include <cstdint>
#include <string>

#include "src/common/json.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace tetrisched {

// One parsed response envelope. `body` is the whole response object, so
// op-specific fields ("job", "report", "metrics", ...) are reachable via
// body.Find/IntOr/StringOr.
struct ServiceReply {
  bool transport_ok = false;  // false: connection failed/timed out mid-call
  bool ok = false;            // the response's "ok" field
  std::string error;          // protocol error code ("overloaded", ...)
  std::string message;        // human detail
  int64_t retry_after_ms = -1;
  JsonValue body;

  bool Overloaded() const { return !ok && error == "overloaded"; }
};

class ServiceClient {
 public:
  // Failed connects yield a client whose connected() is false (the socket
  // helpers already logged why).
  static ServiceClient ConnectTcp(int port);
  static ServiceClient ConnectUnix(const std::string& path);
  // Takes ownership of a pre-connected stream fd.
  static ServiceClient Adopt(int fd);

  ServiceClient() = default;
  ServiceClient(ServiceClient&&) = default;
  ServiceClient& operator=(ServiceClient&&) = default;

  bool connected() const { return fd_.valid(); }

  // Fairness-bucket identity sent with every request ("" = let the daemon
  // key by connection).
  void set_client_name(std::string name) { client_name_ = std::move(name); }
  // Per-call deadline for the response (default 10 s; <= 0 waits forever).
  void set_timeout_ms(int timeout_ms) { timeout_ms_ = timeout_ms; }

  // One round trip: sends {"v":1,"op":op,"id":<auto>,"client":...} with
  // `fields` spliced in, blocks for the response with the matching id.
  ServiceReply Call(const std::string& op, const JsonObj& fields = JsonObj());

  // Convenience wrappers over Call.
  ServiceReply SubmitSpec(const JsonObj& job_spec);  // {"job": {...}}
  ServiceReply SubmitStrl(const std::string& strl_text);
  ServiceReply Status();                 // daemon-wide
  ServiceReply StatusOf(int64_t job);    // one job
  ServiceReply Cancel(int64_t job);
  ServiceReply Explain(int64_t job);     // -1 = summary report
  ServiceReply Metrics(const std::string& format = "json");
  ServiceReply Drain();
  ServiceReply Shutdown();

  void Close() { fd_.Reset(); }

 private:
  explicit ServiceClient(UniqueFd fd);

  bool SendAll(std::string_view bytes);
  // Blocks (bounded by timeout_ms_) until one whole frame decodes.
  bool RecvFrame(std::string* payload);

  UniqueFd fd_;
  FrameDecoder decoder_{kDefaultMaxFrameBytes};
  std::string client_name_;
  int timeout_ms_ = 10000;
  int64_t next_id_ = 1;
};

}  // namespace tetrisched

#endif  // TETRISCHED_CLIENT_CLIENT_H_
