#include "client.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/query.h"
#include "service/wire.h"

namespace fairbc::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t ParseU64(std::string_view s, int base = 10) {
  if (base == 16 && s.size() > 2 && s[0] == '0' && s[1] == 'x') {
    s.remove_prefix(2);
  }
  return std::strtoull(std::string(s).c_str(), nullptr, base);
}

/// `"key":` value of a flat JSON object (first occurrence), raw text up to
/// the next ',' or '}' (quotes stripped). Empty when absent.
std::string_view JsonField(std::string_view json, std::string_view key) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern += "\":";
  const std::size_t at = json.find(pattern);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + pattern.size();
  if (begin < json.size() && json[begin] == '"') {
    const std::size_t end = json.find('"', begin + 1);
    if (end == std::string_view::npos) return {};
    return json.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(begin, end - begin);
}

/// Parses `[n,n,...]` at `*pos` into `out`; advances past the ']'.
bool ParseIdList(std::string_view s, std::size_t* pos,
                 std::vector<VertexId>* out) {
  std::size_t i = *pos;
  if (i >= s.size() || s[i] != '[') return false;
  ++i;
  while (i < s.size() && s[i] != ']') {
    VertexId v = 0;
    bool digits = false;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
      v = v * 10 + static_cast<VertexId>(s[i] - '0');
      ++i;
      digits = true;
    }
    if (!digits) return false;
    out->push_back(v);
    if (i < s.size() && s[i] == ',') ++i;
  }
  if (i >= s.size()) return false;
  *pos = i + 1;
  return true;
}

/// Feeds every biclique of a line-protocol chunk object to `fn`.
template <typename Fn>
bool ForEachJsonBiclique(std::string_view line, Fn&& fn) {
  constexpr std::string_view kKey = "\"bicliques\":[";
  std::size_t pos = line.find(kKey);
  if (pos == std::string_view::npos) return false;
  pos += kKey.size();
  constexpr std::string_view kUpper = "{\"upper\":";
  constexpr std::string_view kLower = ",\"lower\":";
  while (pos < line.size() && line[pos] != ']') {
    if (line.substr(pos, kUpper.size()) != kUpper) return false;
    pos += kUpper.size();
    Biclique b;
    if (!ParseIdList(line, &pos, &b.upper)) return false;
    if (line.substr(pos, kLower.size()) != kLower) return false;
    pos += kLower.size();
    if (!ParseIdList(line, &pos, &b.lower)) return false;
    if (pos >= line.size() || line[pos] != '}') return false;
    ++pos;
    if (pos < line.size() && line[pos] == ',') ++pos;
    fn(b);
  }
  return pos < line.size();
}

void FillSummary(std::string_view json, Reply* reply) {
  reply->ok = JsonField(json, "ok") == "true";
  if (!reply->ok) {
    std::string_view code = JsonField(json, "code");
    reply->error = code.empty() ? std::string(JsonField(json, "error"))
                                : std::string(code);
    return;
  }
  reply->count = ParseU64(JsonField(json, "count"));
  reply->digest = ParseU64(JsonField(json, "digest"), 16);
  reply->server_seconds =
      std::strtod(std::string(JsonField(json, "seconds")).c_str(), nullptr);
  reply->cache_hit = JsonField(json, "cache_hit") == "true";
}

void AddStreamed(const Biclique& b, Reply* reply) {
  if (reply->streamed % kStreamSampleStride == 0 &&
      reply->sample.size() < kStreamSampleMax) {
    reply->sample.push_back(b);
  }
  ++reply->streamed;
  reply->streamed_digest += BicliqueHash(b);
}

}  // namespace

std::unique_ptr<Connection> Connection::Open(int port, Protocol protocol) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return nullptr;
  }
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return std::unique_ptr<Connection>(new Connection(fd, protocol));
}

Connection::~Connection() { ::close(fd_); }

bool Connection::SendAll(std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::Fill(std::uint64_t* bytes_in) {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      rbuf_.append(chunk, static_cast<std::size_t>(n));
      *bytes_in += static_cast<std::uint64_t>(n);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Connection::ReadLine(std::string* line, std::uint64_t* bytes_in) {
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t nl = rbuf_.find('\n', scanned);
    if (nl != std::string::npos) {
      line->assign(rbuf_, 0, nl);
      rbuf_.erase(0, nl + 1);
      return true;
    }
    scanned = rbuf_.size();
    if (!Fill(bytes_in)) return false;
  }
}

bool Connection::ReadFrame(RawFrame* frame, std::uint64_t* bytes_in) {
  for (;;) {
    wire::Frame decoded;
    std::size_t consumed = 0;
    const wire::DecodeResult result =
        wire::DecodeFrame(rbuf_, /*max_payload=*/std::size_t{1} << 30,
                          &decoded, &consumed);
    if (result.status == wire::FrameStatus::kOk) {
      frame->opcode = static_cast<std::uint8_t>(decoded.opcode);
      frame->request_id = decoded.request_id;
      frame->payload = std::move(decoded.payload);
      rbuf_.erase(0, consumed);
      return true;
    }
    if (result.status == wire::FrameStatus::kBad) return false;
    if (!Fill(bytes_in)) return false;
  }
}

bool Connection::Query(const Plan& plan, const Request& request,
                       std::uint64_t id, Reply* reply) {
  *reply = Reply{};
  const bool stream = request.mode == Mode::kStream;
  std::string out;
  if (protocol_ == Protocol::kLine) {
    std::string rid = "q";
    rid += std::to_string(id);
    out = RequestLine(plan, request, rid) + "\n";
  } else {
    wire::Frame frame;
    frame.opcode = wire::Opcode::kQuery;
    frame.request_id = id;
    frame.payload =
        wire::EncodeQueryPayload(ToQueryRequest(plan, request), stream);
    wire::EncodeFrame(frame, &out);
  }
  const Clock::time_point sent = Clock::now();
  if (!SendAll(out)) return false;
  if (!Fill(&reply->bytes_in)) return false;
  reply->first_byte_ms = MsSince(sent);

  if (protocol_ == Protocol::kLine) {
    std::string line;
    for (;;) {
      if (!ReadLine(&line, &reply->bytes_in)) return false;
      ++reply->frames_in;
      if (stream && JsonField(line, "cmd") == "chunk") {
        if (!ForEachJsonBiclique(line, [&](const Biclique& b) {
              AddStreamed(b, reply);
            })) {
          return false;
        }
        continue;
      }
      FillSummary(line, reply);
      break;
    }
  } else {
    RawFrame frame;
    for (;;) {
      if (!ReadFrame(&frame, &reply->bytes_in)) return false;
      ++reply->frames_in;
      if (frame.request_id != id) return false;
      const auto op = static_cast<wire::Opcode>(frame.opcode);
      if (op == wire::Opcode::kReplyChunk) {
        Result<wire::ChunkPayload> chunk =
            wire::DecodeChunkPayload(frame.payload);
        if (!chunk.ok()) return false;
        for (const Biclique& b : chunk.value().bicliques) {
          AddStreamed(b, reply);
        }
        continue;
      }
      if (op == wire::Opcode::kReply || op == wire::Opcode::kReplyEnd) {
        FillSummary(frame.payload, reply);
      } else if (op == wire::Opcode::kError) {
        wire::ErrorCode code;
        std::string message;
        reply->ok = false;
        reply->error =
            wire::DecodeErrorPayload(frame.payload, &code, &message).ok()
                ? wire::ToString(code)
                : "unparsable error";
      } else {
        return false;
      }
      break;
    }
  }
  reply->last_byte_ms = MsSince(sent);
  return true;
}

bool Connection::Command(const std::string& line, std::string* json) {
  std::uint64_t bytes = 0;
  if (protocol_ == Protocol::kLine) {
    return SendAll(line + "\n") && ReadLine(json, &bytes);
  }
  wire::Frame frame;
  frame.opcode = wire::Opcode::kCommand;
  frame.payload = line;
  std::string out;
  wire::EncodeFrame(frame, &out);
  RawFrame reply;
  if (!SendAll(out) || !ReadFrame(&reply, &bytes)) return false;
  *json = std::move(reply.payload);
  return true;
}

bool Connection::Ping(double* rtt_us) {
  if (protocol_ != Protocol::kBinary) return false;
  wire::Frame frame;
  frame.opcode = wire::Opcode::kPing;
  std::string out;
  wire::EncodeFrame(frame, &out);
  std::uint64_t bytes = 0;
  RawFrame pong;
  const Clock::time_point sent = Clock::now();
  if (!SendAll(out) || !ReadFrame(&pong, &bytes)) return false;
  *rtt_us = MsSince(sent) * 1e3;
  return pong.opcode == static_cast<std::uint8_t>(wire::Opcode::kPong);
}

double PromValue(const std::string& text, std::string_view name) {
  double sum = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line(text.data() + pos, eol - pos);
    if (line.substr(0, name.size()) == name && line.size() > name.size() &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      const std::size_t space = line.rfind(' ');
      sum += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
    }
    pos = eol + 1;
  }
  return sum;
}

std::string MetricsText(const std::string& reply_json) {
  constexpr std::string_view kKey = "\"text\":\"";
  const std::size_t at = reply_json.find(kKey);
  std::string text;
  if (at == std::string::npos) return text;
  for (std::size_t i = at + kKey.size(); i < reply_json.size(); ++i) {
    char c = reply_json[i];
    if (c == '"') break;
    if (c == '\\' && i + 1 < reply_json.size()) {
      c = reply_json[++i];
      if (c == 'n') c = '\n';
    }
    text += c;
  }
  return text;
}

}  // namespace fairbc::perfbench
