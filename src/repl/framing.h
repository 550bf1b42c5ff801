#ifndef SHOREMT_REPL_FRAMING_H_
#define SHOREMT_REPL_FRAMING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace shoremt::repl {

/// Wire format: every frame is `u32 len | u8 type | payload`, where `len`
/// counts the type byte plus the payload (so len >= 1). Length-prefixed
/// framing is the first line of defense against torn shipments: a short
/// read mid-frame is Corruption, never a silently-truncated record batch.
/// Payload layouts (all integers little-endian u64):
///
///   kHello      replica → shipper   next_offset
///       "start shipping at this absolute log byte" (the replica's current
///       receive-log size; non-zero on reconnect).
///   kSegment    shipper → replica   chunk_start | seg_base | seg_capacity
///                                   | bytes
///       Bytes [chunk_start, chunk_start + n) of the durable log; the
///       frame COMPLETES the sealed segment [seg_base, seg_base +
///       seg_capacity). The replica validates chunk_start against its own
///       size and the geometry against the frame length — a mismatch is a
///       torn or misordered shipment and triggers kResend.
///   kTailDelta  shipper → replica   chunk_start | bytes
///       Durable bytes of the still-open tail segment (no seal geometry
///       to validate yet beyond contiguity).
///   kAck        replica → shipper   received_offset | replayed_lsn
///       Flow/lag feedback: bytes durably received and the replay
///       pool's published visibility horizon.
///   kResend     replica → shipper   from_offset
///       "Your last frame didn't line up; rewind to this offset."
enum class FrameType : uint8_t {
  kHello = 1,
  kSegment = 2,
  kTailDelta = 3,
  kAck = 4,
  kResend = 5,
};

/// Upper bound on a frame payload: anything larger than this in a length
/// prefix is garbage (a segment is at most a few MiB), so the reader can
/// reject it before allocating.
inline constexpr size_t kMaxFramePayload = 64u << 20;

struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<uint8_t> payload;
};

/// Appends a little-endian u64 to `out`.
void PutU64(std::vector<uint8_t>* out, uint64_t v);
/// Reads a little-endian u64 at `*pos`, advancing it; false if short.
bool GetU64(std::span<const uint8_t> data, size_t* pos, uint64_t* v);

/// Writes one frame (blocking, handles partial writes; never raises
/// SIGPIPE). A peer that has gone is NotFound, as on the read side; other
/// socket errors are IOError.
Status WriteFrame(int fd, FrameType type, std::span<const uint8_t> payload);
/// Convenience: frame whose payload is `head` (u64s) followed by `bytes`.
Status WriteFrame(int fd, FrameType type, std::span<const uint64_t> head,
                  std::span<const uint8_t> bytes);

/// Reads one frame (blocking). Clean EOF at a frame boundary is NotFound
/// (peer closed); EOF mid-frame or an insane length prefix is Corruption.
Status ReadFrame(int fd, Frame* out);

/// True when `fd` becomes readable within `timeout_ms` (0 = immediate
/// poll; also returns true on error/hangup so the caller's read surfaces
/// the condition).
bool WaitReadable(int fd, int timeout_ms);

/// A connected AF_UNIX stream pair (loopback transport for tests, benches
/// and fork()ed two-process demos).
Status MakeSocketPair(int fds[2]);

}  // namespace shoremt::repl

#endif  // SHOREMT_REPL_FRAMING_H_
