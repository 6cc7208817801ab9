// Blocking TCP client for fairbc_server, speaking either of its two
// protocols (the line protocol or the binary wire protocol), one request
// at a time: the load generator is closed-loop, so a connection never
// has more than one request outstanding.

#ifndef FAIRBC_PERFBENCH_CLIENT_H_
#define FAIRBC_PERFBENCH_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/enumerate.h"
#include "workloads.h"

namespace fairbc::perfbench {

enum class Protocol { kLine, kBinary };

/// What the client observed for one query request.
struct Reply {
  bool ok = false;    ///< transport fine and the server answered ok:true.
  std::string error;  ///< why not, when !ok.
  /// Fields of the summary reply (the kReplyEnd / final line of a stream).
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  double server_seconds = 0.0;  ///< the reply's executor wall clock.
  bool cache_hit = false;
  /// Streams only: bicliques reassembled from the chunks, their digest,
  /// and a sample of them (every kStreamSampleStride-th, for the
  /// VerifyResultSet check).
  std::uint64_t streamed = 0;
  std::uint64_t streamed_digest = 0;
  std::vector<Biclique> sample;
  /// Request sent -> first reply byte, and -> last reply byte.
  double first_byte_ms = 0.0;
  double last_byte_ms = 0.0;
  std::uint64_t bytes_in = 0;
  std::uint64_t frames_in = 0;  ///< binary frames or protocol lines.
};

inline constexpr std::uint64_t kStreamSampleStride = 997;
inline constexpr std::size_t kStreamSampleMax = 4;

class Connection {
 public:
  /// Connects to 127.0.0.1:port; null on failure.
  static std::unique_ptr<Connection> Open(int port, Protocol protocol);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Protocol protocol() const { return protocol_; }

  /// Sends one query and reads its complete reply. False only on a
  /// transport or framing failure (the connection is then unusable);
  /// server-side errors come back as reply->ok == false.
  bool Query(const Plan& plan, const Request& request, std::uint64_t id,
             Reply* reply);

  /// Sends a line-protocol command (as a kCommand frame on a binary
  /// connection) and returns its single JSON reply.
  bool Command(const std::string& line, std::string* json);

  /// Binary connections: one kPing round trip, in microseconds.
  bool Ping(double* rtt_us);

 private:
  Connection(int fd, Protocol protocol) : fd_(fd), protocol_(protocol) {}

  bool SendAll(std::string_view data);
  /// Appends at least one more byte to rbuf_; false on EOF/error.
  bool Fill(std::uint64_t* bytes_in);
  bool ReadLine(std::string* line, std::uint64_t* bytes_in);
  struct RawFrame {
    std::uint8_t opcode = 0;
    std::uint64_t request_id = 0;
    std::string payload;
  };
  bool ReadFrame(RawFrame* frame, std::uint64_t* bytes_in);

  const int fd_;
  const Protocol protocol_;
  std::string rbuf_;
};

/// Sum of every series of `name` in a Prometheus exposition.
double PromValue(const std::string& text, std::string_view name);

/// The exposition text inside a `metrics` command reply (unescaped).
std::string MetricsText(const std::string& reply_json);

}  // namespace fairbc::perfbench

#endif  // FAIRBC_PERFBENCH_CLIENT_H_
