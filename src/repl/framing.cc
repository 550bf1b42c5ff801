#include "repl/framing.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace shoremt::repl {

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool GetU64(std::span<const uint8_t> data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(data[*pos + i]) << (8 * i);
  }
  *pos += 8;
  *v = out;
  return true;
}

namespace {

/// Writes all of `data` (send with MSG_NOSIGNAL so a dead peer is a
/// status, not a process-killing SIGPIPE). A peer that has gone (EPIPE,
/// ECONNRESET) is NotFound, the same clean disconnect a recv EOF is.
Status SendAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::NotFound("peer closed");
      }
      return Status::IOError(std::string("repl send: ") + strerror(errno));
    }
    if (n == 0) return Status::IOError("repl send: peer closed");
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `len` bytes. `*eof_at_start` reports a clean EOF before
/// the first byte (frame boundary).
Status RecvAll(int fd, uint8_t* data, size_t len, bool* eof_at_start) {
  *eof_at_start = false;
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("repl recv: ") + strerror(errno));
    }
    if (n == 0) {
      if (got == 0) {
        *eof_at_start = true;
        return Status::NotFound("peer closed");
      }
      return Status::Corruption("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status WriteFrame(int fd, FrameType type, std::span<const uint8_t> payload) {
  uint64_t head[0];
  (void)head;
  return WriteFrame(fd, type, std::span<const uint64_t>(), payload);
}

Status WriteFrame(int fd, FrameType type, std::span<const uint64_t> head,
                  std::span<const uint8_t> bytes) {
  size_t payload_len = head.size() * 8 + bytes.size();
  if (payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  std::vector<uint8_t> buf;
  buf.reserve(5 + head.size() * 8);
  uint32_t len = static_cast<uint32_t>(1 + payload_len);
  const auto* lp = reinterpret_cast<const uint8_t*>(&len);
  buf.insert(buf.end(), lp, lp + 4);
  buf.push_back(static_cast<uint8_t>(type));
  for (uint64_t v : head) PutU64(&buf, v);
  SHOREMT_RETURN_NOT_OK(SendAll(fd, buf.data(), buf.size()));
  if (!bytes.empty()) {
    SHOREMT_RETURN_NOT_OK(SendAll(fd, bytes.data(), bytes.size()));
  }
  return Status::Ok();
}

Status ReadFrame(int fd, Frame* out) {
  uint8_t lenbuf[4];
  bool eof;
  Status st = RecvAll(fd, lenbuf, 4, &eof);
  if (!st.ok()) return st;  // NotFound on clean EOF.
  uint32_t len;
  std::memcpy(&len, lenbuf, 4);
  if (len < 1 || len > 1 + kMaxFramePayload) {
    return Status::Corruption("bad frame length prefix");
  }
  uint8_t type;
  SHOREMT_RETURN_NOT_OK(RecvAll(fd, &type, 1, &eof));
  if (eof) return Status::Corruption("connection closed mid-frame");
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kResend)) {
    return Status::Corruption("unknown frame type");
  }
  out->type = static_cast<FrameType>(type);
  out->payload.resize(len - 1);
  if (len > 1) {
    SHOREMT_RETURN_NOT_OK(RecvAll(fd, out->payload.data(), len - 1, &eof));
    if (eof) return Status::Corruption("connection closed mid-frame");
  }
  return Status::Ok();
}

bool WaitReadable(int fd, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = POLLIN;
  p.revents = 0;
  int r = ::poll(&p, 1, timeout_ms);
  return r > 0;
}

Status MakeSocketPair(int fds[2]) {
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::IOError(std::string("socketpair: ") + strerror(errno));
  }
  return Status::Ok();
}

}  // namespace shoremt::repl
