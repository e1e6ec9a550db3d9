#include "net/wire.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace webppm::net {
namespace {

void put_u16(std::uint16_t v, std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::uint32_t v, std::vector<std::uint8_t>& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::uint64_t v, std::vector<std::uint8_t>& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

DecodeError fail(std::string reason) { return DecodeError{std::move(reason)}; }

/// Byte-sink adapter so the response encoders emit identical bytes whether
/// the target is a staging vector (clients, tests, the router) or a
/// connection's WriteRing (the server's zero-copy path).
struct VecSink {
  std::vector<std::uint8_t>& v;
  void push_u8(std::uint8_t b) { v.push_back(b); }
  void push_u16(std::uint16_t x) { put_u16(x, v); }
  void push_u32(std::uint32_t x) { put_u32(x, v); }
  void push_u64(std::uint64_t x) { put_u64(x, v); }
};

/// How many of `n` entries a u16 count field can frame: the encoders keep
/// that prefix and report the rest as dropped.
std::size_t framed_count(std::size_t n) {
  return std::min<std::size_t>(n, std::numeric_limits<std::uint16_t>::max());
}

/// The one sub-response encoder: status, u16 count, snapshot version, then
/// the predictions. It is a v2 batch entry as is, and the v1 response body
/// behind a version byte — which is why a decoded sub-response re-encodes
/// as the exact v1 frame of the same query. Declared inline so it stays
/// inlined into each encoder: as a call it cost a v1 encode ~20%.
///
/// A prediction list longer than u16 cannot be framed; the serving layer
/// never produces one (lists are threshold-filtered), but truncate
/// deterministically anyway — the list is sorted best-first, so the kept
/// prefix is the top 65535 — and return the dropped count so the caller
/// can account it (webppm_net_response_truncated_total) instead of the
/// encoder ever emitting a body that contradicts its count field.
template <typename Sink>
inline std::size_t encode_sub_response(Sink& sink, Status status,
                                       std::uint64_t snapshot_version,
                                       std::span<const ppm::Prediction> preds) {
  const std::size_t count = framed_count(preds.size());
  sink.push_u8(static_cast<std::uint8_t>(status));
  sink.push_u16(static_cast<std::uint16_t>(count));
  sink.push_u64(snapshot_version);
  for (std::size_t i = 0; i < count; ++i) {
    sink.push_u32(preds[i].url);
    sink.push_u32(std::bit_cast<std::uint32_t>(preds[i].probability));
  }
  return preds.size() - count;
}

/// One framed v1 response: the frame length, the version byte, the
/// sub-response.
template <typename Sink>
std::size_t encode_response_impl(Sink&& sink, Status status,
                                 std::uint64_t snapshot_version,
                                 std::span<const ppm::Prediction> preds) {
  sink.push_u32(static_cast<std::uint32_t>(
      kResponsePrefixBytes + framed_count(preds.size()) * 8));
  sink.push_u8(kWireVersion);
  return encode_sub_response(sink, status, snapshot_version, preds);
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNoModel: return "no-model";
    case Status::kDegraded: return "degraded";
    case Status::kRetryLater: return "retry-later";
    case Status::kBadRequest: return "bad-request";
    case Status::kError: return "error";
  }
  return "unknown";
}

void encode_request(const WireRequest& req, std::vector<std::uint8_t>& out) {
  put_u32(static_cast<std::uint32_t>(kRequestBodyBytes), out);
  out.push_back(kWireVersion);
  out.push_back(req.flags);
  put_u32(req.client, out);
  put_u32(req.url, out);
  put_u64(req.timestamp, out);
}

std::size_t encode_response(const WireResponse& resp,
                            std::vector<std::uint8_t>& out) {
  return encode_response_impl(VecSink{out}, resp.status,
                              resp.snapshot_version, resp.predictions);
}

std::size_t encode_response(Status status, std::uint64_t snapshot_version,
                            std::span<const ppm::Prediction> preds,
                            WriteRing& out) {
  return encode_response_impl(out, status, snapshot_version, preds);
}

namespace {

/// The v2 batch request and v3 observe frame share one body layout; only
/// the version byte differs. One encoder keeps them byte-compatible.
std::size_t encode_request_list(std::uint8_t version,
                                std::span<const WireRequest> reqs,
                                std::vector<std::uint8_t>& out) {
  const std::size_t count = framed_count(reqs.size());
  const std::size_t body =
      kBatchPrefixBytes + count * kBatchRequestEntryBytes;
  put_u32(static_cast<std::uint32_t>(body), out);
  out.push_back(version);
  out.push_back(0);  // reserved
  put_u16(static_cast<std::uint16_t>(count), out);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(reqs[i].flags);
    put_u32(reqs[i].client, out);
    put_u32(reqs[i].url, out);
    put_u64(reqs[i].timestamp, out);
  }
  return reqs.size() - count;
}

/// Shared decoder for the two request-list frames (v2 batch / v3 observe).
DecodeError decode_request_list(std::uint8_t version, const char* what,
                                std::span<const std::uint8_t> body,
                                std::vector<WireRequest>& out) {
  out.clear();
  if (body.size() < kBatchPrefixBytes) {
    return fail(std::string(what) + " body " + std::to_string(body.size()) +
                " bytes, prefix needs " + std::to_string(kBatchPrefixBytes));
  }
  if (body[0] != version) {
    return fail("version " + std::to_string(body[0]) + " != " +
                std::to_string(version));
  }
  if (body[1] != 0) {
    return fail("reserved byte " + std::to_string(body[1]) + " != 0");
  }
  const std::uint16_t count = get_u16(body.data() + 2);
  if (count == 0) return fail(std::string(what) + " count 0");
  // The count must be provable from bytes already in hand: resize only
  // after the body length confirms the claim, so a flipped count can never
  // size an allocation.
  const std::size_t need =
      kBatchPrefixBytes + std::size_t{count} * kBatchRequestEntryBytes;
  if (body.size() != need) {
    return fail(std::string(what) + " count " + std::to_string(count) +
                " needs " + std::to_string(need) + " bytes, body has " +
                std::to_string(body.size()));
  }
  out.resize(count);
  const std::uint8_t* p = body.data() + kBatchPrefixBytes;
  for (std::uint16_t i = 0; i < count; ++i, p += kBatchRequestEntryBytes) {
    out[i].flags = p[0];
    out[i].client = get_u32(p + 1);
    out[i].url = get_u32(p + 5);
    out[i].timestamp = get_u64(p + 9);
  }
  return {};
}

}  // namespace

std::size_t encode_batch_request(std::span<const WireRequest> reqs,
                                 std::vector<std::uint8_t>& out) {
  return encode_request_list(kWireVersionBatch, reqs, out);
}

std::size_t encode_observe_frame(std::span<const WireRequest> reqs,
                                 std::vector<std::uint8_t>& out) {
  return encode_request_list(kWireVersionObserve, reqs, out);
}

std::size_t encode_batch_response(std::span<const WireResponse> resps,
                                  std::vector<std::uint8_t>& out) {
  const std::size_t count = framed_count(resps.size());
  const std::size_t len_mark = out.size();
  put_u32(0, out);  // frame length, patched below
  out.push_back(kWireVersionBatch);
  out.push_back(0);  // reserved
  put_u16(static_cast<std::uint16_t>(count), out);
  std::size_t dropped = resps.size() - count;
  VecSink sink{out};
  for (std::size_t i = 0; i < count; ++i) {
    dropped += encode_sub_response(sink, resps[i].status,
                                   resps[i].snapshot_version,
                                   resps[i].predictions);
  }
  const std::uint32_t body = static_cast<std::uint32_t>(
      out.size() - len_mark - kFrameHeaderBytes);
  out[len_mark + 0] = static_cast<std::uint8_t>(body & 0xff);
  out[len_mark + 1] = static_cast<std::uint8_t>((body >> 8) & 0xff);
  out[len_mark + 2] = static_cast<std::uint8_t>((body >> 16) & 0xff);
  out[len_mark + 3] = static_cast<std::uint8_t>((body >> 24) & 0xff);
  return dropped;
}

DecodeError decode_request(std::span<const std::uint8_t> body,
                           WireRequest& out) {
  if (body.size() != kRequestBodyBytes) {
    return fail("request body " + std::to_string(body.size()) + " bytes, expected " +
                std::to_string(kRequestBodyBytes));
  }
  if (body[0] != kWireVersion) {
    return fail("version " + std::to_string(body[0]) + " != " +
                std::to_string(kWireVersion));
  }
  if ((body[1] & ~kFlagErrorStatus) != 0) {
    return fail("unknown flag bits " + std::to_string(body[1]));
  }
  out.flags = body[1];
  out.client = get_u32(body.data() + 2);
  out.url = get_u32(body.data() + 6);
  out.timestamp = get_u64(body.data() + 10);
  return {};
}

DecodeError decode_response(std::span<const std::uint8_t> body,
                            WireResponse& out) {
  if (body.size() < kResponsePrefixBytes) {
    return fail("response body " + std::to_string(body.size()) +
                " bytes, prefix needs " +
                std::to_string(kResponsePrefixBytes));
  }
  if (body[0] != kWireVersion) {
    return fail("version " + std::to_string(body[0]) + " != " +
                std::to_string(kWireVersion));
  }
  const std::uint8_t status = body[1];
  if (status > static_cast<std::uint8_t>(Status::kError)) {
    return fail("unknown status " + std::to_string(status));
  }
  const std::uint16_t count = get_u16(body.data() + 2);
  // The count must be provable from bytes already in hand — reserve/resize
  // only after the body length confirms the claim, so a flipped count can
  // never size an allocation.
  const std::size_t need = kResponsePrefixBytes + std::size_t{count} * 8;
  if (body.size() != need) {
    return fail("count " + std::to_string(count) + " needs " +
                std::to_string(need) + " bytes, body has " +
                std::to_string(body.size()));
  }
  out.status = static_cast<Status>(status);
  out.snapshot_version = get_u64(body.data() + 4);
  out.predictions.clear();
  out.predictions.reserve(count);
  const std::uint8_t* p = body.data() + kResponsePrefixBytes;
  for (std::uint16_t i = 0; i < count; ++i, p += 8) {
    ppm::Prediction pred;
    pred.url = get_u32(p);
    pred.probability = std::bit_cast<float>(get_u32(p + 4));
    out.predictions.push_back(pred);
  }
  return {};
}

DecodeError decode_batch_request(std::span<const std::uint8_t> body,
                                 std::vector<WireRequest>& out) {
  return decode_request_list(kWireVersionBatch, "batch request", body, out);
}

DecodeError decode_observe_frame(std::span<const std::uint8_t> body,
                                 std::vector<WireRequest>& out) {
  return decode_request_list(kWireVersionObserve, "observe frame", body, out);
}

DecodeError decode_batch_response(std::span<const std::uint8_t> body,
                                  std::vector<WireResponse>& out) {
  out.clear();
  if (body.size() < kBatchPrefixBytes) {
    return fail("batch response body " + std::to_string(body.size()) +
                " bytes, prefix needs " + std::to_string(kBatchPrefixBytes));
  }
  if (body[0] != kWireVersionBatch) {
    return fail("version " + std::to_string(body[0]) + " != " +
                std::to_string(kWireVersionBatch));
  }
  if (body[1] != 0) {
    return fail("reserved byte " + std::to_string(body[1]) + " != 0");
  }
  const std::uint16_t count = get_u16(body.data() + 2);
  if (count == 0) return fail("batch count 0");
  // The sub-entries are variable-length, so the outer count cannot be
  // length-checked up front; instead every claim is proven against the
  // bytes still in hand before anything is sized by it. A minimum-size
  // check (count * empty sub-response) still rejects the grossly hostile
  // counts before the walk.
  if (body.size() <
      kBatchPrefixBytes + std::size_t{count} * kBatchEntryPrefixBytes) {
    return fail("batch count " + std::to_string(count) +
                " cannot fit in body of " + std::to_string(body.size()) +
                " bytes");
  }
  out.reserve(count);
  std::size_t pos = kBatchPrefixBytes;
  for (std::uint16_t i = 0; i < count; ++i) {
    if (body.size() - pos < kBatchEntryPrefixBytes) {
      return fail("sub-response " + std::to_string(i) +
                  " prefix overruns body");
    }
    const std::uint8_t status = body[pos];
    if (status > static_cast<std::uint8_t>(Status::kError)) {
      return fail("sub-response " + std::to_string(i) + " unknown status " +
                  std::to_string(status));
    }
    const std::uint16_t n = get_u16(body.data() + pos + 1);
    const std::uint64_t version = get_u64(body.data() + pos + 3);
    pos += kBatchEntryPrefixBytes;
    if ((body.size() - pos) / 8 < n) {
      return fail("sub-response " + std::to_string(i) + " count " +
                  std::to_string(n) + " needs " + std::to_string(n * 8u) +
                  " bytes, " + std::to_string(body.size() - pos) + " left");
    }
    WireResponse resp;
    resp.status = static_cast<Status>(status);
    resp.snapshot_version = version;
    resp.predictions.reserve(n);  // proven present just above
    const std::uint8_t* p = body.data() + pos;
    for (std::uint16_t j = 0; j < n; ++j, p += 8) {
      ppm::Prediction pred;
      pred.url = get_u32(p);
      pred.probability = std::bit_cast<float>(get_u32(p + 4));
      resp.predictions.push_back(pred);
    }
    pos += std::size_t{n} * 8;
    out.push_back(std::move(resp));
  }
  if (pos != body.size()) {
    return fail("batch body has " + std::to_string(body.size() - pos) +
                " trailing bytes");
  }
  return {};
}

void BatchResponseWriter::begin() {
  len_mark_ = ring_.mark();
  ring_.push_u32(0);  // frame length, patched by finish()
  ring_.push_u8(kWireVersionBatch);
  ring_.push_u8(0);  // reserved
  count_mark_ = ring_.mark();
  ring_.push_u16(0);  // batch count, patched by finish()
  count_ = 0;
  dropped_ = 0;
}

std::size_t BatchResponseWriter::add(Status status,
                                     std::uint64_t snapshot_version,
                                     std::span<const ppm::Prediction> preds) {
  const std::size_t dropped =
      encode_sub_response(ring_, status, snapshot_version, preds);
  dropped_ += dropped;
  ++count_;
  return dropped;
}

std::size_t BatchResponseWriter::finish() {
  const std::uint64_t body_bytes = ring_.mark() - len_mark_ - 4;
  ring_.patch_u32(len_mark_, static_cast<std::uint32_t>(body_bytes));
  ring_.patch_u16(count_mark_, static_cast<std::uint16_t>(count_));
  return dropped_;
}

FrameParser::Frame FrameParser::next(std::span<const std::uint8_t> buf) const {
  Frame f;
  if (buf.size() < kFrameHeaderBytes) return f;  // kNeedMore
  const std::uint32_t len = get_u32(buf.data());
  if (len == 0) {
    f.result = Result::kBad;
    f.reason = "frame length 0";
    return f;
  }
  if (len > max_frame_bytes_) {
    f.result = Result::kBad;
    f.reason = "frame length " + std::to_string(len) + " exceeds cap " +
               std::to_string(max_frame_bytes_);
    return f;
  }
  if (buf.size() < kFrameHeaderBytes + len) return f;  // kNeedMore
  f.result = Result::kFrame;
  f.body = buf.subspan(kFrameHeaderBytes, len);
  f.consumed = kFrameHeaderBytes + len;
  return f;
}

}  // namespace webppm::net
