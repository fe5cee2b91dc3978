#include "net/stream.h"

namespace bistro {

namespace {
// Peeks the total frame size (varint length prefix + 4-byte CRC + body)
// at the front of `data`; returns 0 if more bytes are needed, or an error
// sentinel of SIZE_MAX on malformed varint.
size_t FrameSize(std::string_view data, uint64_t* body_len) {
  uint64_t len = 0;
  int shift = 0;
  size_t i = 0;
  while (i < data.size()) {
    uint8_t byte = static_cast<uint8_t>(data[i]);
    ++i;
    len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *body_len = len;
      return i + 4 + len;
    }
    shift += 7;
    if (shift > 63) return SIZE_MAX;
  }
  return 0;  // length prefix itself incomplete
}
}  // namespace

Status MessageStreamDecoder::Feed(std::string_view bytes) {
  if (!status_.ok()) return status_;
  buffer_.append(bytes.data(), bytes.size());
  while (true) {
    uint64_t body_len = 0;
    size_t frame = FrameSize(buffer_, &body_len);
    if (frame == SIZE_MAX) {
      status_ = Status::Corruption("message stream: malformed length prefix");
      return status_;
    }
    // Reject an oversized claim the moment the prefix is readable — the
    // buffer must never grow toward a hostile length. (This also guards
    // the prefix + 4 + len sum against wrap for lengths near UINT64_MAX.)
    if (frame != 0 && body_len > max_frame_bytes_) {
      status_ = Status::Corruption("message stream: frame exceeds max bytes");
      return status_;
    }
    if (frame == 0 || buffer_.size() < frame) return Status::OK();
    auto msg =
        DecodeMessage(std::string_view(buffer_).substr(0, frame),
                      max_frame_bytes_);
    if (!msg.ok()) {
      status_ = msg.status();
      return status_;
    }
    decoded_.push_back(std::move(*msg));
    buffer_.erase(0, frame);
  }
}

std::optional<Message> MessageStreamDecoder::Next() {
  if (decoded_.empty()) return std::nullopt;
  Message msg = std::move(decoded_.front());
  decoded_.pop_front();
  return msg;
}

std::string EncodeMessageStream(const std::vector<Message>& messages) {
  std::string out;
  for (const Message& msg : messages) AppendMessage(msg, &out);
  return out;
}

}  // namespace bistro
