// fsrd wire protocol: length-prefixed JSON frames over a Unix-domain
// stream socket.
//
// One frame = a 4-byte little-endian payload length followed by that
// many bytes of UTF-8 JSON. Requests and responses are single frames;
// binary payloads (an uploaded ELF) travel base64-encoded inside the
// JSON so a frame is always self-describing and printable. The length
// prefix is capped (kMaxFrameBytes): a hostile client announcing a
// multi-gigabyte frame is refused before a single payload byte is
// buffered.
//
// Pipelining contract: a client may send multiple request frames
// without waiting for responses. The server executes one connection's
// requests one at a time, in the order sent, so each request sees the
// effects of every earlier request on its connection (an identify by
// `key` right behind the upload that creates the key finds it), and
// writes response frames in that same order — frames carry no
// correlation ids, order IS the correlation. A stop-and-wait client is
// just the depth-1 special case. Frames sent after a `shutdown` are not
// executed. Responses never interleave mid-frame, and a
// connection-fatal condition (oversized frame) is answered only after
// every response owed for earlier frames has been written. A client
// whose pipelined answers may exceed a socket buffer must read them
// while it is still sending.
//
// Request object (all strings; unknown keys are ignored):
//   op      "ping" | "identify" | "compare" | "disasm" | "stats" |
//           "metrics" | "tail" | "shutdown"
//   elf     base64 of the ELF to analyze (uploads; optional when `key`
//           names already-cached content)
//   key     content id from a previous response ("<fnv64hex>-<size>")
//   config  FunSeeker Table II configuration 1..4 (identify; default 4)
//   tool    "funseeker" | "ida" | "ghidra" | "fetch" (identify)
//   at      hex address (disasm; default: start of .text)
//   count   number of instructions (disasm; default 32) — also the
//           number of events for `tail` (default 50, max 1000)
//
// Telemetry ops: `stats` reports lifetime + per-op counters, rolling
// 10s/60s latency windows, cache/pool/log state; `metrics` returns the
// full obs registry snapshot; `tail` returns the newest structured log
// events (requires the daemon's event log, on by default in fsrd).
//
// Responses always carry "ok" plus either the op's payload or an
// "error"/"code" pair; analysis responses add "key" (the content id)
// and "cache" ("hit" when both the decoded image and the tool result
// came out of the analysis cache).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fsr::service {

/// Hard cap on one frame's payload (base64 inflates 4/3, so this
/// admits ELFs up to ~48 MiB — far beyond anything the corpus or a
/// reverse engineer's interactive session ships).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// What reading one frame from a stream yielded.
enum class FrameStatus {
  kOk,         // payload filled
  kClosed,     // clean EOF at a frame boundary
  kOversized,  // announced length exceeds the cap (stream unusable)
  kTruncated,  // EOF mid-header or mid-payload
  kError,      // read(2) failed
};

const char* to_string(FrameStatus s);

/// Blocking frame read (EINTR-restarted). On kOversized no payload
/// bytes have been consumed — the connection should be dropped, since
/// the stream cannot be resynchronized.
FrameStatus read_frame(int fd, std::string& payload,
                       std::uint32_t max_bytes = kMaxFrameBytes);

/// Blocking frame write (EINTR-restarted, handles short writes).
/// False when the peer vanished or write(2) failed.
bool write_frame(int fd, std::string_view payload);

/// Append one length-prefixed frame to a write buffer, for batching
/// several frames into a single send. Same refusal contract as
/// write_frame (cap + the svc.write_frame failpoint), minus the I/O.
bool append_frame(std::string& buf, std::string_view payload);

/// Blocking write of pre-framed bytes built with append_frame
/// (EINTR-restarted, short-write safe).
bool write_bytes(int fd, std::string_view bytes);

/// Standard base64 (RFC 4648, with padding).
std::string b64_encode(std::span<const std::uint8_t> bytes);

/// Strict decode: padding required, whitespace rejected; nullopt on any
/// malformed input.
std::optional<std::vector<std::uint8_t>> b64_decode(std::string_view text);

/// Owning file descriptor (close-on-destroy), shared by the server,
/// client, and tests.
class UniqueFd {
public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

private:
  int fd_ = -1;
};

}  // namespace fsr::service
