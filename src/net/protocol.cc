#include "net/protocol.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/hash.h"

namespace bistro {

namespace {
void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view* in, uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (!in->empty() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

// ZigZag for signed TimePoints.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

void PutString(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

size_t StringSize(std::string_view s) {
  return VarintSize(s.size()) + s.size();
}

bool GetString(std::string_view* in, std::string* s) {
  uint64_t len;
  if (!GetVarint(in, &len) || in->size() < len) return false;
  s->assign(in->data(), len);
  in->remove_prefix(len);
  return true;
}
}  // namespace

void AppendMessage(const Message& msg, std::string* out) {
  const size_t body_len =
      1 + VarintSize(msg.file_id) + StringSize(msg.feed) +
      StringSize(msg.name) + StringSize(msg.dest_path) +
      StringSize(msg.payload) + VarintSize(msg.payload_crc) +
      VarintSize(ZigZag(msg.data_time)) + VarintSize(ZigZag(msg.batch_time)) +
      VarintSize(msg.batch_count) + VarintSize(msg.net_seq) +
      VarintSize(msg.ack_code);
  const size_t need = VarintSize(body_len) + 4 + body_len;
  if (out->capacity() - out->size() < need) {
    out->reserve(std::max(out->size() + need, 2 * out->capacity()));
  }
  PutVarint(out, body_len);
  const size_t crc_at = out->size();
  out->append(4, '\0');  // patched below, once the body is in place
  const size_t body_at = out->size();
  out->push_back(static_cast<char>(msg.type));
  PutVarint(out, msg.file_id);
  PutString(out, msg.feed);
  PutString(out, msg.name);
  PutString(out, msg.dest_path);
  PutString(out, msg.payload);
  PutVarint(out, msg.payload_crc);
  PutVarint(out, ZigZag(msg.data_time));
  PutVarint(out, ZigZag(msg.batch_time));
  PutVarint(out, msg.batch_count);
  PutVarint(out, msg.net_seq);
  PutVarint(out, msg.ack_code);
  assert(out->size() - body_at == body_len && "body_len formula out of sync");
  uint32_t crc = Crc32(out->data() + body_at, out->size() - body_at);
  std::memcpy(out->data() + crc_at, &crc, 4);
}

std::string EncodeMessage(const Message& msg) {
  std::string out;
  AppendMessage(msg, &out);
  return out;
}

Result<Message> DecodeMessage(std::string_view data, size_t max_frame_bytes) {
  uint64_t len;
  if (!GetVarint(&data, &len)) return Status::Corruption("message: bad length");
  // Bound check before the size comparison below: a hostile length prefix
  // must not drive any downstream allocation, and 4 + len could otherwise
  // wrap for lengths near UINT64_MAX.
  if (len > max_frame_bytes) {
    return Status::Corruption("message: body exceeds max_frame_bytes");
  }
  if (data.size() < 4 + len) return Status::Corruption("message: truncated");
  uint32_t crc;
  std::memcpy(&crc, data.data(), 4);
  data.remove_prefix(4);
  std::string_view body = data.substr(0, len);
  if (Crc32(body) != crc) return Status::Corruption("message: crc mismatch");
  Message msg;
  if (body.empty()) return Status::Corruption("message: empty body");
  uint8_t type = static_cast<uint8_t>(body.front());
  if (type < 1 || type > 6) return Status::Corruption("message: bad type");
  msg.type = static_cast<MessageType>(type);
  body.remove_prefix(1);
  uint64_t u;
  if (!GetVarint(&body, &u)) return Status::Corruption("message: file_id");
  msg.file_id = u;
  std::string payload;
  if (!GetString(&body, &msg.feed) || !GetString(&body, &msg.name) ||
      !GetString(&body, &msg.dest_path) || !GetString(&body, &payload)) {
    return Status::Corruption("message: strings");
  }
  msg.payload = std::move(payload);
  if (!GetVarint(&body, &u)) return Status::Corruption("message: payload_crc");
  msg.payload_crc = static_cast<uint32_t>(u);
  if (!GetVarint(&body, &u)) return Status::Corruption("message: data_time");
  msg.data_time = UnZigZag(u);
  if (!GetVarint(&body, &u)) return Status::Corruption("message: batch_time");
  msg.batch_time = UnZigZag(u);
  if (!GetVarint(&body, &u)) return Status::Corruption("message: batch_count");
  msg.batch_count = u;
  if (!GetVarint(&body, &u)) return Status::Corruption("message: net_seq");
  msg.net_seq = u;
  if (!GetVarint(&body, &u)) return Status::Corruption("message: ack_code");
  msg.ack_code = static_cast<uint32_t>(u);
  return msg;
}

}  // namespace bistro
