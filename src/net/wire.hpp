// webppm::net wire protocol — the length-prefixed binary frames the
// prediction service speaks (DESIGN.md §10).
//
// Every frame is a 4-byte little-endian body length followed by exactly
// that many body bytes. Bodies begin with a version byte so a client and
// server from different protocol revisions fail fast with a structured
// reason instead of misparsing each other. Version 1 frames carry one
// query; version 2 frames carry a *batch* — the framing a client uses to
// amortize the per-frame syscall/wakeup cost over many queries; version 3
// frames are one-way *observe* reports that feed session state and online
// training without a response. A server speaks all three: the version
// byte is per frame, so one connection may mix them freely.
//
//   v1 request body  (kRequestBodyBytes, fixed):
//     u8  version      (= kWireVersion)
//     u8  flags        (bit 0: request carries an HTTP error status)
//     u32 client id    (interned ClientId)
//     u32 document id  (interned UrlId)
//     u64 timestamp    (TimeSec — drives session idle-timeout semantics)
//
//   v1 response body (variable):
//     u8  version      (= kWireVersion)
//     u8  status       (Status below)
//     u16 count        (number of predictions)
//     u64 snapshot version
//     count * { u32 document id, u32 probability (IEEE-754 float bits) }
//
//   v2 batch request body (variable):
//     u8  version      (= kWireVersionBatch)
//     u8  reserved     (must be 0)
//     u16 count        (sub-requests; >= 1)
//     count * { u8 flags, u32 client id, u32 document id, u64 timestamp }
//
//   v2 batch response body (variable; sub-responses in request order):
//     u8  version      (= kWireVersionBatch)
//     u8  reserved     (must be 0)
//     u16 count        (sub-responses; == the request's count)
//     count * { u8 status, u16 n, u64 snapshot version, n * 8 bytes }
//
// Each v2 sub-response carries its *own* status and snapshot version —
// one malformed or refused entry degrades that slot to kBadRequest/kError
// instead of killing the batch, and re-encoding a sub-response as a v1
// frame reproduces the exact bytes a v1 replay of the same query yields
// (NetLoopbackBatch.BatchAnswersMatchV1SingleFrameReplayByteForByte).
//
// Hardening rules (ISSUE 5 satellite, extended to v2 by ISSUE 7): a frame
// header claiming zero bytes, or more than the configured cap, is rejected
// *before any allocation proportional to the claim*; a garbage version
// byte or a body whose length contradicts its own count field — outer
// batch count or any sub-response's prediction count — yields a clean
// DecodeError, never a crash, an over-read, or a reserve sized by a
// hostile field. The fuzz suite drives every branch of this parser with
// bit flips, truncations at every boundary, and byte soup.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/write_ring.hpp"
#include "ppm/predictor.hpp"
#include "util/types.hpp"

namespace webppm::net {

inline constexpr std::uint8_t kWireVersion = 1;

/// Version byte of a batch (many-queries-per-frame) request/response.
inline constexpr std::uint8_t kWireVersionBatch = 2;

/// Version byte of an observe frame: a one-way batch of requests the
/// client *reports* rather than asks about. Body layout is exactly the v2
/// batch request's (version, reserved, u16 count, count 17-byte entries) —
/// only the version byte differs — but the server sends NO response: the
/// entries feed session contexts and the online-training pipeline
/// (ModelServer::observe), so a replay tool can drive training at wire
/// speed without paying for predictions it will discard. Ordering within a
/// connection is preserved (frames are processed in arrival order), so a
/// v1/v2 query after an observe frame on the same connection sees the
/// observed clicks already in its session context.
inline constexpr std::uint8_t kWireVersionObserve = 3;

/// Frame header: 4-byte little-endian body length.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Fixed size of a request body (version + flags + client + url + time).
inline constexpr std::size_t kRequestBodyBytes = 1 + 1 + 4 + 4 + 8;

/// Fixed prefix of a response body before the prediction list.
inline constexpr std::size_t kResponsePrefixBytes = 1 + 1 + 2 + 8;

/// Fixed prefix of a v2 batch request/response body (version, reserved,
/// u16 count) before the sub-entries.
inline constexpr std::size_t kBatchPrefixBytes = 1 + 1 + 2;

/// One v2 batch request entry (flags + client + url + timestamp — the v1
/// request body minus its version byte).
inline constexpr std::size_t kBatchRequestEntryBytes = 1 + 4 + 4 + 8;

/// Fixed prefix of one v2 batch sub-response (status, u16 prediction
/// count, u64 snapshot version) before its prediction list.
inline constexpr std::size_t kBatchEntryPrefixBytes = 1 + 2 + 8;

/// Default cap on a header-claimed body length. Responses dominate frame
/// size; even a 4096-entry prediction list fits in 32 KiB.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 64 * 1024;

/// Default *response* cap a batch-mode client applies: a batch response
/// aggregates many prediction lists in one frame, so the v1 cap is far too
/// tight. (Server-side request caps are unaffected — a batch request is 17
/// bytes per entry and fits kDefaultMaxFrameBytes up to ~3850 queries.)
inline constexpr std::uint32_t kDefaultMaxBatchFrameBytes = 1024 * 1024;

/// Request flag bits.
inline constexpr std::uint8_t kFlagErrorStatus = 0x01;

/// Response status. kRetryLater is the retryable shed signal (connection
/// cap or drain) mirroring the serve layer's degradation contract: the
/// client should back off and retry, not fail.
enum class Status : std::uint8_t {
  kOk = 0,            ///< prediction list follows (possibly empty)
  kNoModel = 1,       ///< nothing published yet; list is empty
  kDegraded = 2,      ///< answered by the popularity fallback
  kRetryLater = 3,    ///< shed (connection cap / draining); retry later
  kBadRequest = 4,    ///< malformed frame; connection will close
  kError = 5,         ///< internal failure (e.g. injected fault)
};

const char* status_name(Status s);

/// One prediction query as it travels the wire.
struct WireRequest {
  std::uint8_t flags = 0;
  ClientId client = 0;
  UrlId url = 0;
  TimeSec timestamp = 0;

  friend bool operator==(const WireRequest&, const WireRequest&) = default;
};

/// One prediction answer as it travels the wire.
struct WireResponse {
  Status status = Status::kOk;
  std::uint64_t snapshot_version = 0;
  std::vector<ppm::Prediction> predictions;

  friend bool operator==(const WireResponse&, const WireResponse&) = default;
};

/// Appends one framed request to `out` (header + body).
void encode_request(const WireRequest& req, std::vector<std::uint8_t>& out);

/// Appends one framed response to `out` (header + body). A prediction list
/// longer than the u16 count field is truncated *deterministically* (the
/// list is sorted by descending probability, so the kept prefix is the
/// best 65535); the return value is how many predictions were dropped so
/// the caller can account the truncation (the server counts it in
/// webppm_net_response_truncated_total) instead of it passing silently.
std::size_t encode_response(const WireResponse& resp,
                            std::vector<std::uint8_t>& out);

/// Appends one framed v2 batch request carrying `reqs` (request order is
/// preserved; the response's sub-entries come back in the same order).
/// Batches longer than the u16 count field are truncated deterministically
/// (first 65535 kept); returns how many entries were dropped — callers
/// bound batches far below that, so a nonzero return is a caller bug
/// surfaced rather than a silent wrap.
std::size_t encode_batch_request(std::span<const WireRequest> reqs,
                                 std::vector<std::uint8_t>& out);

/// Appends one framed v3 observe frame carrying `reqs` (order preserved;
/// no response will come back). Same u16 truncation rule and return as
/// encode_batch_request.
std::size_t encode_observe_frame(std::span<const WireRequest> reqs,
                                 std::vector<std::uint8_t>& out);

/// encode_response straight into a connection's write ring, from the
/// answer's parts rather than a materialized WireResponse (the server's v1
/// answer; same bytes, same truncation rule and return).
std::size_t encode_response(Status status, std::uint64_t snapshot_version,
                            std::span<const ppm::Prediction> preds,
                            WriteRing& out);

/// Appends one framed v2 batch response carrying `resps` in order — the
/// staging-vector twin of BatchResponseWriter, emitting the exact bytes the
/// server's ring path emits for the same sub-responses. The cluster router
/// uses it to reassemble per-shard sub-batches into the single frame the
/// client would have received from one big server. Returns predictions
/// dropped by the per-sub-response u16 clamp (same rule as
/// encode_response).
std::size_t encode_batch_response(std::span<const WireResponse> resps,
                                  std::vector<std::uint8_t>& out);

/// Structured decode failure: `reason` names the violated rule ("frame
/// length 0", "version 209 != 1", "count 9 needs 76 bytes, body has 20").
struct DecodeError {
  std::string reason;
  bool ok() const { return reason.empty(); }
};

/// Decodes one request/response *body* (the bytes after the frame header).
/// Never reads past `body.size()`; never allocates from attacker-supplied
/// counts beyond what the body length already proves is present.
DecodeError decode_request(std::span<const std::uint8_t> body,
                           WireRequest& out);
DecodeError decode_response(std::span<const std::uint8_t> body,
                            WireResponse& out);

/// Version byte of a frame body (0 for an empty body) — how the server
/// dispatches a frame between the v1 single-query and v2 batch decoders.
inline std::uint8_t frame_version(std::span<const std::uint8_t> body) {
  return body.empty() ? 0 : body[0];
}

/// Decodes a v2 batch request body into `out` (cleared first). The outer
/// frame is validated before any allocation: version, reserved byte, and
/// count-vs-body-length must agree exactly. Per-entry *flag* bits are NOT
/// validated here — an entry with unknown flags is the caller's per-slot
/// kBadRequest (one bad entry degrades its slot, it does not kill the
/// batch); everything that would make the frame unparseable is.
DecodeError decode_batch_request(std::span<const std::uint8_t> body,
                                 std::vector<WireRequest>& out);

/// Decodes a v3 observe frame body into `out` (cleared first). Identical
/// hardening to decode_batch_request (it is the same layout under a
/// different version byte): count proven against the body length before
/// any allocation, per-entry flag bits left to the caller's per-slot
/// handling.
DecodeError decode_observe_frame(std::span<const std::uint8_t> body,
                                 std::vector<WireRequest>& out);

/// Decodes a v2 batch response body into `out` (cleared first), one
/// WireResponse per sub-entry in request order. Every sub-entry's
/// prediction count is proven against the remaining body length before any
/// reserve; the walk must consume the body exactly (no trailing garbage).
DecodeError decode_batch_response(std::span<const std::uint8_t> body,
                                  std::vector<WireResponse>& out);

/// Serializes a v2 batch response frame *directly into a connection's
/// write ring* — the zero-copy server path: begin() reserves the frame
/// header and batch prefix, each add() appends one sub-response straight
/// from the prediction span (no WireResponse materialized), and finish()
/// patches the header-claimed length and the batch count in place.
/// Returns how many predictions truncation dropped across the batch
/// (per-sub-response u16 clamp, same rule as encode_response).
class BatchResponseWriter {
 public:
  explicit BatchResponseWriter(WriteRing& ring) : ring_(ring) {}

  void begin();
  /// Appends one sub-response. Returns predictions dropped by the u16
  /// clamp (0 in any realistic configuration — prediction lists are
  /// threshold-filtered far below 65535).
  std::size_t add(Status status, std::uint64_t snapshot_version,
                  std::span<const ppm::Prediction> preds);
  /// Patches the frame length + batch count; returns total dropped
  /// predictions across every add().
  std::size_t finish();

 private:
  WriteRing& ring_;
  std::uint64_t len_mark_ = 0;    ///< frame-length field position
  std::uint64_t count_mark_ = 0;  ///< batch-count field position
  std::uint32_t count_ = 0;
  std::size_t dropped_ = 0;
};

/// Incremental frame extractor over a connection's read buffer.
///
/// next() inspects `buf` from its first byte (callers pass the unparsed
/// tail as a subspan): returns kNeedMore until a full header+body is
/// buffered, kFrame with the body's span when one is, or kBad with a
/// reason the moment the *header alone* is invalid (zero or over-cap
/// claimed length) — the claim is rejected before any body byte is waited
/// for, so a hostile header can never size an allocation.
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Result : std::uint8_t { kNeedMore, kFrame, kBad };

  struct Frame {
    Result result = Result::kNeedMore;
    std::span<const std::uint8_t> body;  ///< valid when result == kFrame
    std::size_t consumed = 0;            ///< bytes of buf used by this frame
    std::string reason;                  ///< set when result == kBad
  };

  Frame next(std::span<const std::uint8_t> buf) const;

  std::uint32_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  std::uint32_t max_frame_bytes_;
};

}  // namespace webppm::net
