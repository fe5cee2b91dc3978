// Tests for the protocol encoding and the transports.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "net/socket_transport.h"
#include "net/stream.h"
#include "net/transport.h"
#include "sim/event_loop.h"
#include "vfs/memfs.h"

namespace bistro {
namespace {

Message SampleMessage() {
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = 12345;
  msg.feed = "SNMP.CPU";
  msg.name = "CPU_POLL1_201009250502.txt";
  msg.dest_path = "SNMP.CPU/2010/09/25/CPU_POLL1_0502.txt";
  msg.payload = "some,measurement,rows\n";
  msg.data_time = FromCivil(CivilTime{2010, 9, 25, 5, 2, 0});
  msg.batch_time = -42;  // negative must survive (zigzag)
  msg.batch_count = 3;
  return msg;
}

TEST(ProtocolTest, RoundTrip) {
  Message msg = SampleMessage();
  auto decoded = DecodeMessage(EncodeMessage(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, msg);
}

TEST(ProtocolTest, RoundTripAllTypes) {
  for (auto type : {MessageType::kFileData, MessageType::kFileNotify,
                    MessageType::kEndOfBatch, MessageType::kSourceNotify,
                    MessageType::kAck, MessageType::kHeartbeat}) {
    Message msg;
    msg.type = type;
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->type, type);
  }
}

TEST(ProtocolTest, EmptyFieldsAndLargePayload) {
  Message msg;
  msg.type = MessageType::kFileData;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    msg.payload.mutable_str() += static_cast<char>(rng.Next() & 0xFF);
  }
  auto decoded = DecodeMessage(EncodeMessage(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, msg);
}

TEST(ProtocolTest, CorruptionDetected) {
  std::string wire = EncodeMessage(SampleMessage());
  for (size_t pos : {size_t{2}, wire.size() / 2, wire.size() - 1}) {
    std::string bad = wire;
    bad[pos] ^= 0x40;
    auto decoded = DecodeMessage(bad);
    // Either CRC catches it, or (if the flipped bit was in the length
    // prefix) framing fails. Never a silent wrong message.
    if (decoded.ok()) {
      EXPECT_EQ(*decoded, SampleMessage()) << "undetected corruption at " << pos;
      FAIL() << "corruption silently accepted at " << pos;
    }
  }
}

// Frames as the encoder has always written them (varint body length,
// little-endian CRC32 of the body, body). Relay spools persist these
// bytes and peers on other builds parse them, so any change is a format
// change.
std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string ToHex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

Message GoldenFileData() {
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = 12345;
  msg.feed = "SNMP.CPU";
  msg.name = "CPU_POLL1_201009250502.txt";
  msg.dest_path = "SNMP.CPU/2010/09/25/CPU_POLL1_0502.txt";
  msg.payload = "some,measurement,rows\n";
  msg.payload_crc = Crc32("some,measurement,rows\n");
  msg.data_time = 1285390920000000;
  msg.batch_time = -42;
  msg.batch_count = 3;
  msg.net_seq = 300;
  return msg;
}

Message GoldenAck() {
  Message msg;
  msg.type = MessageType::kAck;
  msg.name = "bad";
  msg.net_seq = 7;
  msg.ack_code = 5;
  return msg;
}

constexpr std::string_view kGoldenFileDataHex =
    "77abada41c01b96008534e4d502e4350551a4350555f504f4c4c315f32303130303932"
    "35303530322e74787426534e4d502e4350552f323031302f30392f32352f4350555f50"
    "4f4c4c315f303530322e74787416736f6d652c6d6561737572656d656e742c726f7773"
    "0aa38fb59f018088f9d2ccc3c8045303ac0200";
constexpr std::string_view kGoldenAckHex =
    "0fcb9df39b050000036261640000000000000705";

TEST(ProtocolTest, FramesAreByteIdenticalToGolden) {
  EXPECT_EQ(ToHex(EncodeMessage(GoldenFileData())), kGoldenFileDataHex);
  EXPECT_EQ(ToHex(EncodeMessage(GoldenAck())), kGoldenAckHex);
  std::string file_data = FromHex(kGoldenFileDataHex);
  std::string ack = FromHex(kGoldenAckHex);
  EXPECT_EQ(EncodeMessageStream({GoldenAck(), GoldenFileData()}),
            ack + file_data);
  // Appending in place writes the same frame after existing bytes.
  std::string appended = "prefix";
  AppendMessage(GoldenAck(), &appended);
  EXPECT_EQ(appended, "prefix" + ack);
  auto decoded = DecodeMessage(file_data);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, GoldenFileData());
}

TEST(ProtocolTest, LargeFrameIsByteIdenticalToGolden) {
  // 200,000 LCG bytes: the body length needs a 3-byte varint and the CRC
  // runs over many 8-byte strides.
  Message msg;
  msg.type = MessageType::kFileData;
  msg.file_id = 1;
  std::string& payload = msg.payload.mutable_str();
  uint32_t x = 1;
  for (int i = 0; i < 200000; ++i) {
    x = x * 1664525u + 1013904223u;
    payload.push_back(static_cast<char>(x >> 24));
  }
  std::string frame = EncodeMessage(msg);
  EXPECT_EQ(frame.size(), 200021u);
  EXPECT_EQ(Crc32(frame), 0xc7aa8259u);
  EXPECT_EQ(Fnv1a64(frame), 0xc01a524343f47d9bull);
}

TEST(ProtocolTest, TruncationDetected) {
  std::string wire = EncodeMessage(SampleMessage());
  for (size_t len = 0; len < wire.size(); len += 7) {
    EXPECT_FALSE(DecodeMessage(std::string_view(wire).substr(0, len)).ok());
  }
}

// ---------------------------------------------------------------- SimTransport

// Without a SimNetwork the transport is the in-process wire: one loop
// post, no simulated time, the frame codec still in the path.
TEST(SimTransportTest, InProcessDeliversToEndpoint) {
  SimClock clock(0);
  EventLoop loop(&clock);
  SimTransport transport(&loop);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);

  Status result = Status::Internal("callback never ran");
  transport.Send("sub", SampleMessage(), [&](const Status& s) { result = s; });
  EXPECT_EQ(sink.files_received(), 0u);  // delivery waits for the loop
  loop.RunUntilIdle();
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(clock.Now(), 0);
  EXPECT_EQ(transport.EstimateCost("sub", 1 << 20), 0);
  EXPECT_EQ(sink.files_received(), 1u);
  auto data = fs.ReadFile("/dest/SNMP.CPU/2010/09/25/CPU_POLL1_0502.txt");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "some,measurement,rows\n");
}

TEST(SimTransportTest, InProcessUnknownEndpointFails) {
  SimClock clock(0);
  EventLoop loop(&clock);
  SimTransport transport(&loop);
  Status result;
  transport.Send("ghost", SampleMessage(), [&](const Status& s) { result = s; });
  loop.RunUntilIdle();
  EXPECT_TRUE(result.IsUnavailable());
  EXPECT_NE(result.ToString().find("no endpoint: ghost"), std::string::npos);
}

TEST(SimTransportTest, InProcessEndpointErrorPropagates) {
  SimClock clock(0);
  EventLoop loop(&clock);
  SimTransport transport(&loop);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  sink.SetFailing(true);
  transport.Register("sub", &sink);
  Status result;
  transport.Send("sub", SampleMessage(), [&](const Status& s) { result = s; });
  loop.RunUntilIdle();
  EXPECT_TRUE(result.IsUnavailable());
  EXPECT_EQ(sink.files_received(), 0u);
}

// The endpoint resolves when the message arrives, not when it is sent:
// a receiver torn down mid-flight (a crashed process) is never called
// through a stale pointer; single sends and bundles both bounce.
TEST(SimTransportTest, InProcessEndpointUnregisteredInFlightIsUnavailable) {
  SimClock clock(0);
  EventLoop loop(&clock);
  SimTransport transport(&loop);
  InMemoryFileSystem fs;
  auto sink = std::make_unique<FileSinkEndpoint>(&fs, "/dest");
  transport.Register("sub", sink.get());

  std::vector<Status> results;
  auto record = [&](const Status& s) { results.push_back(s); };
  transport.Send("sub", SampleMessage(), record);
  std::vector<BundleItem> bundle(2);
  for (BundleItem& item : bundle) {
    item.msg = SampleMessage();
    item.done = record;
  }
  transport.SendBundle("sub", std::move(bundle));
  transport.Unregister("sub");
  sink.reset();  // under ASan, a stale call is a heap-use-after-free
  loop.RunUntilIdle();
  ASSERT_EQ(results.size(), 3u);
  for (const Status& s : results) {
    EXPECT_TRUE(s.IsUnavailable()) << s;
  }
}

TEST(SimTransportTest, DeliveryTakesSimulatedTime) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(1);
  SimNetwork net(&rng);
  LinkSpec link;
  link.bandwidth_bytes_per_sec = 1000;
  link.latency = 0;
  net.SetLink("sub", link);
  SimTransport transport(&loop, &net);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);

  Message msg = SampleMessage();
  TimePoint done_at = -1;
  transport.Send("sub", msg, [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    done_at = clock.Now();
  });
  loop.RunUntilIdle();
  // ~ (payload + name + 64) bytes at 1000 B/s.
  uint64_t bytes = msg.payload.size() + msg.name.size() + 64;
  EXPECT_EQ(done_at, static_cast<TimePoint>(bytes * kSecond / 1000));
  EXPECT_EQ(sink.files_received(), 1u);
}

TEST(SimTransportTest, OfflineSubscriberFailsFast) {
  SimClock clock(0);
  EventLoop loop(&clock);
  Rng rng(1);
  SimNetwork net(&rng);
  net.SetLink("sub", LinkSpec::Fast());
  net.SetOnline("sub", false);
  SimTransport transport(&loop, &net);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);
  Status result;
  transport.Send("sub", SampleMessage(), [&](const Status& s) { result = s; });
  loop.RunUntilIdle();
  EXPECT_TRUE(result.IsUnavailable());
}

TEST(FileSinkEndpointTest, DedupeSetBoundedByCapacity) {
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/d", /*dedupe_capacity=*/4);
  auto file = [](FileId id) {
    Message m;
    m.type = MessageType::kFileData;
    m.file_id = id;
    m.name = StrFormat("f%llu.txt", (unsigned long long)id);
    m.payload = "x";
    return m;
  };
  for (FileId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(sink.HandleMessage(file(id)).ok());
  }
  // Only the 4 newest ids are remembered; the 6 oldest were evicted.
  EXPECT_EQ(sink.files_received(), 10u);
  EXPECT_EQ(sink.dedupe_size(), 4u);
  EXPECT_EQ(sink.dedupe_evictions(), 6u);
  // A recent id redelivered is still absorbed as a duplicate...
  ASSERT_TRUE(sink.HandleMessage(file(10)).ok());
  EXPECT_EQ(sink.duplicates(), 1u);
  EXPECT_EQ(sink.files_received(), 10u);
  // ...while an evicted id re-lands (rewrites the same destination file,
  // which is safe) instead of growing the set without bound.
  ASSERT_TRUE(sink.HandleMessage(file(1)).ok());
  EXPECT_EQ(sink.duplicates(), 1u);
  EXPECT_EQ(sink.files_received(), 11u);
  EXPECT_EQ(sink.dedupe_size(), 4u);
}

TEST(FileSinkEndpointTest, CountsNotificationsAndBatches) {
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/d");
  Message notify;
  notify.type = MessageType::kFileNotify;
  Message eob;
  eob.type = MessageType::kEndOfBatch;
  int hooks = 0;
  sink.SetMessageHook([&](const Message&) { hooks++; });
  ASSERT_TRUE(sink.HandleMessage(notify).ok());
  ASSERT_TRUE(sink.HandleMessage(eob).ok());
  EXPECT_EQ(sink.notifications(), 1u);
  EXPECT_EQ(sink.batches(), 1u);
  EXPECT_EQ(hooks, 2);
}

// ------------------------------------------------------ SocketTransport

// Endpoint that records every message and answers with a fixed status.
class CollectingEndpoint : public Endpoint {
 public:
  Status HandleMessage(const Message& msg) override {
    messages.push_back(msg);
    return reply;
  }
  std::vector<Message> messages;
  Status reply = Status::OK();
};

// Runs the loop in short real-time slices until `pred` holds (or 10s).
void PumpUntil(EventLoop* loop, const std::function<bool()>& pred) {
  TimePoint deadline = RealClock::Get()->Now() + 10 * kSecond;
  while (!pred() && RealClock::Get()->Now() < deadline) {
    loop->RunFor(10 * kMillisecond);
  }
}

TEST(ParseInetAddressTest, AcceptsAndRejects) {
  auto ok = ParseInetAddress("127.0.0.1:4400");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->second, 4400);
  EXPECT_TRUE(ParseInetAddress("localhost:0").ok());
  EXPECT_TRUE(ParseInetAddress(":9100").ok());  // INADDR_ANY listener
  EXPECT_FALSE(ParseInetAddress("").ok());
  EXPECT_FALSE(ParseInetAddress("127.0.0.1").ok());
  EXPECT_FALSE(ParseInetAddress("bistro.example.com:9100").ok());
  EXPECT_FALSE(ParseInetAddress("127.0.0.1:notaport").ok());
  EXPECT_FALSE(ParseInetAddress("127.0.0.1:70000").ok());
}

TEST(SocketTransportTest, SendsAndAcksOverRealTcp) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());
  ASSERT_GT(server.listen_port(), 0);

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  Message msg = SampleMessage();
  Status result = Status::TimedOut("no callback");
  bool done = false;
  client.Send("srv", msg, [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result;
  ASSERT_EQ(inbound.messages.size(), 1u);
  // net_seq is stamped by the transport; everything else round-trips.
  Message got = inbound.messages[0];
  got.net_seq = 0;
  EXPECT_EQ(got, msg);
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(server.accepts(), 1u);
  EXPECT_TRUE(client.PeerConnected("srv"));
}

TEST(SocketTransportTest, RemoteHandlerErrorPropagatesThroughAck) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "localhost:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  inbound.reply = Status::Corruption("payload checksum mismatch");
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  Status result;
  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsCorruption()) << result;
  EXPECT_NE(result.message().find("checksum"), std::string::npos);
}

// Large payloads over loopback force partial writes (the socket buffer is
// far smaller than the queued bytes); rapid-fire sends interleave many
// frames in single reads. Order and integrity must survive both.
TEST(SocketTransportTest, PartialWritesAndInterleavedFramesKeepOrder) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  constexpr int kCount = 64;
  Rng rng(7);
  int acked = 0;
  int failed = 0;
  std::vector<std::string> payloads;
  for (int i = 0; i < kCount; i++) {
    Message msg;
    msg.type = MessageType::kFileData;
    msg.file_id = static_cast<uint64_t>(i) + 1;
    msg.feed = "BULK";
    msg.name = "file_" + std::to_string(i);
    // Mix tiny frames (interleaving) with ~256 KiB frames (partial writes).
    size_t size = (i % 4 == 0) ? (256u << 10) + rng.Uniform(1024) : rng.Uniform(64) + 1;
    std::string payload;
    payload.reserve(size);
    for (size_t b = 0; b < size; b++) {
      payload.push_back(static_cast<char>('a' + (b + i) % 26));
    }
    msg.payload = payload;
    payloads.push_back(std::move(payload));
    client.Send("srv", msg, [&](const Status& s) { s.ok() ? acked++ : failed++; });
  }
  PumpUntil(&loop, [&] { return acked + failed == kCount; });
  EXPECT_EQ(acked, kCount);
  EXPECT_EQ(failed, 0);
  ASSERT_EQ(inbound.messages.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; i++) {
    EXPECT_EQ(inbound.messages[i].name, "file_" + std::to_string(i));
    EXPECT_EQ(inbound.messages[i].payload.str(), payloads[i]) << i;
  }
}

TEST(SocketTransportTest, SendBundleAcksEveryItem) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  SocketTransport server(&loop, server_opts);
  CollectingEndpoint inbound;
  server.SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server.Listen().ok());

  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server.listen_port()));

  int acked = 0;
  std::vector<BundleItem> items;
  for (int i = 0; i < 5; i++) {
    BundleItem item;
    item.msg = SampleMessage();
    item.msg.file_id = 100 + static_cast<uint64_t>(i);
    item.msg.name = "bundle_" + std::to_string(i);
    item.done = [&](const Status& s) {
      ASSERT_TRUE(s.ok()) << s;
      acked++;
    };
    items.push_back(std::move(item));
  }
  client.SendBundle("srv", std::move(items));
  PumpUntil(&loop, [&] { return acked == 5; });
  EXPECT_EQ(acked, 5);
  ASSERT_EQ(inbound.messages.size(), 5u);
  EXPECT_EQ(inbound.messages[4].name, "bundle_4");
}

TEST(SocketTransportTest, UnknownEndpointFailsUnavailable) {
  EventLoop loop(RealClock::Get());
  SocketTransport client(&loop, {});
  Status result;
  bool done = false;
  client.Send("nobody", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsUnavailable()) << result;
}

TEST(SocketTransportTest, LocalEndpointWinsOverPeerName) {
  EventLoop loop(RealClock::Get());
  SocketTransport transport(&loop, {});
  CollectingEndpoint local;
  transport.AddPeer("dual", "127.0.0.1:1");  // nothing listens there
  transport.Register("dual", &local);
  bool done = false;
  Status result;
  transport.Send("dual", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result;
  EXPECT_EQ(local.messages.size(), 1u);
}

// ------------------------------------------- in-process (local) delivery

// Sends one message to a locally registered endpoint and runs the loop
// until its callback fires.
Status SendLocalAndWait(SocketTransport* transport, EventLoop* loop,
                        const std::string& name, const Message& msg) {
  bool done = false;
  Status result;
  transport->Send(name, msg, [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(loop, [&] { return done; });
  EXPECT_TRUE(done);
  return result;
}

TEST(SocketTransportTest, LocalEndpointSeesSenderPayloadBuffer) {
  EventLoop loop(RealClock::Get());
  SocketTransport transport(&loop, {});
  CollectingEndpoint local;
  transport.Register("sub", &local);
  Message msg = SampleMessage();
  msg.payload = std::string(64 << 10, 'p');
  msg.payload_crc = Crc32(msg.payload);
  Status s = SendLocalAndWait(&transport, &loop, "sub", msg);
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(local.messages.size(), 1u);
  EXPECT_EQ(local.messages[0], msg);
  // Same bytes, not a copy of them: no frame was built on the way.
  EXPECT_EQ(local.messages[0].payload.view().data(), msg.payload.view().data());
}

TEST(SocketTransportTest, LocalSinkStillRefusesWrongPayloadCrc) {
  EventLoop loop(RealClock::Get());
  SocketTransport transport(&loop, {});
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);
  Message msg = SampleMessage();
  msg.payload_crc = Crc32(msg.payload) ^ 1;
  Status s = SendLocalAndWait(&transport, &loop, "sub", msg);
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_EQ(sink.corrupt_rejected(), 1u);
  EXPECT_EQ(sink.files_received(), 0u);
  msg.payload_crc = Crc32(msg.payload);
  s = SendLocalAndWait(&transport, &loop, "sub", msg);
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(sink.files_received(), 1u);
}

TEST(SocketTransportTest, LocalPayloadLargerThanMaxFrameBytesArrives) {
  // max_frame_bytes bounds socket input; an in-process subscriber never
  // sees a frame, so a large payload must not be refused on its way.
  EventLoop loop(RealClock::Get());
  SocketTransport::Options opts;
  opts.max_frame_bytes = 1024;
  SocketTransport transport(&loop, opts);
  InMemoryFileSystem fs;
  FileSinkEndpoint sink(&fs, "/dest");
  transport.Register("sub", &sink);
  Message msg = SampleMessage();
  msg.payload = std::string(16 << 10, 'x');
  msg.payload_crc = Crc32(msg.payload);
  Status s = SendLocalAndWait(&transport, &loop, "sub", msg);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(sink.files_received(), 1u);
  auto data = fs.ReadFile("/dest/" + msg.dest_path);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(*data, msg.payload.str());
}

TEST(SocketTransportTest, QueueCapRejectsOversizedBacklog) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options opts;
  opts.outbound_queue_bytes = 4096;
  SocketTransport client(&loop, opts);
  client.AddPeer("srv", "127.0.0.1:1");  // never connects; sends just queue

  Message big = SampleMessage();
  big.payload = std::string(8192, 'x');
  Status result;
  bool done = false;
  client.Send("srv", big, [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsUnavailable()) << result;
  EXPECT_NE(result.message().find("queue"), std::string::npos) << result;

  // A bundle is capped as one burst: a one-item bundle of the same frame,
  // and two items that fit alone but not together, fail every item.
  Message half = SampleMessage();
  half.payload = std::string(3000, 'y');
  for (const std::vector<Message>& msgs :
       {std::vector<Message>{big}, std::vector<Message>{half, half}}) {
    std::vector<BundleItem> items;
    std::vector<Status> results;
    for (const Message& msg : msgs) {
      items.push_back(BundleItem{
          msg, [&](const Status& s) { results.push_back(s); }});
    }
    client.SendBundle("srv", std::move(items));
    PumpUntil(&loop, [&] { return results.size() == msgs.size(); });
    ASSERT_EQ(results.size(), msgs.size());
    for (const Status& s : results) {
      EXPECT_TRUE(s.IsUnavailable()) << s;
      EXPECT_NE(s.message().find("queue"), std::string::npos) << s;
    }
  }
  // Nothing refused was queued, and a frame under the cap still queues.
  EXPECT_EQ(client.GetPeerStats("srv").queued_bytes, 0u);
  client.Send("srv", half, [](const Status&) {});
  EXPECT_GT(client.GetPeerStats("srv").queued_bytes, 0u);
  EXPECT_EQ(client.GetPeerStats("srv").pending_acks, 1u);
}

TEST(SocketTransportTest, AckTimeoutFailsSendAndDropsConnection) {
  EventLoop loop(RealClock::Get());
  // Raw listener that completes handshakes (kernel backlog) but never
  // reads or acks: the peer looks connected yet is effectively dead.
  int raw = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(raw, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(raw, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  int port = ntohs(addr.sin_port);

  SocketTransport::Options opts;
  opts.ack_timeout = 200 * kMillisecond;
  opts.reconnect_backoff_min = kHour;  // keep it down once dropped
  opts.reconnect_backoff_max = kHour;
  SocketTransport client(&loop, opts);
  client.AddPeer("dead", "127.0.0.1:" + std::to_string(port));

  Status result;
  bool done = false;
  client.Send("dead", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.IsUnavailable()) << result;
  EXPECT_GE(client.ack_timeouts(), 1u);
  EXPECT_GE(client.disconnects(), 1u);
  EXPECT_FALSE(client.PeerConnected("dead"));
  ::close(raw);
}

// A peer that dies and comes back on a new port is reachable again after
// re-addressing (the upstream restart path) — queued sends survive the
// outage as delivery-engine retries would.
TEST(SocketTransportTest, ReconnectsAfterPeerRestart) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  auto server = std::make_unique<SocketTransport>(&loop, server_opts);
  CollectingEndpoint first_inbound;
  server->SetInboundEndpoint(&first_inbound);
  ASSERT_TRUE(server->Listen().ok());

  SocketTransport::Options client_opts;
  client_opts.reconnect_backoff_min = 10 * kMillisecond;
  client_opts.reconnect_backoff_max = 50 * kMillisecond;
  SocketTransport client(&loop, client_opts);
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server->listen_port()));

  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  ASSERT_TRUE(done);

  // Kill the server; the established connection drops.
  server.reset();
  PumpUntil(&loop, [&] { return !client.PeerConnected("srv"); });
  EXPECT_FALSE(client.PeerConnected("srv"));

  // An in-outage send fails Unavailable (the delivery engine would retry).
  Status outage;
  bool outage_done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    outage = s;
    outage_done = true;
  });
  PumpUntil(&loop, [&] { return outage_done; });

  // Restart on a fresh ephemeral port and re-address the peer.
  SocketTransport revived(&loop, server_opts);
  CollectingEndpoint second_inbound;
  revived.SetInboundEndpoint(&second_inbound);
  ASSERT_TRUE(revived.Listen().ok());
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(revived.listen_port()));

  bool again = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    again = true;
  });
  PumpUntil(&loop, [&] { return again; });
  ASSERT_TRUE(again);
  EXPECT_EQ(second_inbound.messages.size(), 1u);
  EXPECT_GE(client.connects(), 2u);
}

// A reader that dies mid-stream turns our connection into a write to a
// closed socket. Every write(2)-family call in the transport goes through
// the single MSG_NOSIGNAL send() in FlushWrites, so the process survives
// with a retryable error instead of dying on SIGPIPE. SIGPIPE is reset to
// its default disposition here to prove the transport doesn't depend on
// the embedding process ignoring it.
TEST(SocketTransportTest, SigpipeSafeWhenReaderDiesMidStream) {
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGPIPE, &dfl, &old), 0);

  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  auto server = std::make_unique<SocketTransport>(&loop, server_opts);
  CollectingEndpoint inbound;
  server->SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server->Listen().ok());

  SocketTransport::Options client_opts;
  client_opts.reconnect_backoff_min = kHour;  // no reconnect noise
  client_opts.reconnect_backoff_max = kHour;
  client_opts.ack_timeout = 300 * kMillisecond;  // bound the failure path
  SocketTransport client(&loop, client_opts);
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server->listen_port()));

  // Establish the connection with one acked message.
  bool warm = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    ASSERT_TRUE(s.ok()) << s;
    warm = true;
  });
  PumpUntil(&loop, [&] { return warm; });
  ASSERT_TRUE(warm);

  // Kill the reader, then stream large frames into the dead connection.
  // Once the RST lands, send() returns EPIPE — which must surface as a
  // failed callback (directly, or via the ack-timeout sweep for frames
  // that made it into the socket buffer), never as a fatal signal.
  server.reset();
  int failed = 0;
  int completed = 0;
  for (int i = 0; i < 8; i++) {
    Message big = SampleMessage();
    big.name = "post_mortem_" + std::to_string(i);
    big.payload = std::string(512u << 10, 'x');
    client.Send("srv", big, [&](const Status& s) {
      completed++;
      if (!s.ok()) {
        EXPECT_TRUE(s.IsUnavailable()) << s;
        failed++;
      }
    });
  }
  PumpUntil(&loop, [&] { return completed == 8; });
  EXPECT_EQ(completed, 8);  // reaching here at all means no SIGPIPE death
  EXPECT_GE(failed, 1);
  ASSERT_EQ(sigaction(SIGPIPE, &old, nullptr), 0);
}

// Records every PeerObserver callback.
class RecordingObserver : public SocketTransport::PeerObserver {
 public:
  void OnPeerConnected(const std::string&) override { connected++; }
  void OnPeerConnectFailed(const std::string&, const Status&) override {
    connect_failed++;
  }
  void OnPeerDisconnected(const std::string&, const Status&) override {
    disconnected++;
  }
  void OnPeerAckTimeout(const std::string&) override { ack_timeouts++; }
  void OnPeerAck(const std::string&, const Status& s) override {
    acks++;
    last_ack_status = s;
  }
  int connected = 0;
  int connect_failed = 0;
  int disconnected = 0;
  int ack_timeouts = 0;
  int acks = 0;
  Status last_ack_status;
};

TEST(SocketTransportTest, ObserverSeesConnectAckAndDisconnect) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options server_opts;
  server_opts.listen_address = "127.0.0.1:0";
  auto server = std::make_unique<SocketTransport>(&loop, server_opts);
  CollectingEndpoint inbound;
  server->SetInboundEndpoint(&inbound);
  ASSERT_TRUE(server->Listen().ok());

  SocketTransport::Options client_opts;
  client_opts.reconnect_backoff_min = 10 * kMillisecond;
  client_opts.reconnect_backoff_max = 20 * kMillisecond;
  SocketTransport client(&loop, client_opts);
  RecordingObserver observer;
  client.SetPeerObserver(&observer);
  client.AddPeer("srv", "127.0.0.1:" + std::to_string(server->listen_port()));

  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status&) { done = true; });
  PumpUntil(&loop, [&] { return done; });
  EXPECT_EQ(observer.connected, 1);
  EXPECT_EQ(observer.acks, 1);
  EXPECT_TRUE(observer.last_ack_status.ok());

  // Remote handler errors still arrive as acks: the wire works.
  inbound.reply = Status::Corruption("bad");
  done = false;
  client.Send("srv", SampleMessage(), [&](const Status&) { done = true; });
  PumpUntil(&loop, [&] { return done; });
  EXPECT_EQ(observer.acks, 2);
  EXPECT_TRUE(observer.last_ack_status.IsCorruption());

  // Peer death: one disconnect, then connect-failed on each reconnect try.
  server.reset();
  PumpUntil(&loop, [&] { return observer.connect_failed >= 1; });
  EXPECT_EQ(observer.disconnected, 1);
  EXPECT_GE(observer.connect_failed, 1);
}

TEST(SocketTransportTest, AckTimeoutReportsOnceNotAlsoAsDisconnect) {
  EventLoop loop(RealClock::Get());
  // Handshake-only listener: connects succeed, nothing is ever acked.
  int raw = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(raw, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(raw, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  SocketTransport::Options opts;
  opts.ack_timeout = 100 * kMillisecond;
  opts.reconnect_backoff_min = kHour;
  opts.reconnect_backoff_max = kHour;
  SocketTransport client(&loop, opts);
  RecordingObserver observer;
  client.SetPeerObserver(&observer);
  client.AddPeer("dead", "127.0.0.1:" + std::to_string(ntohs(addr.sin_port)));

  bool done = false;
  client.Send("dead", SampleMessage(), [&](const Status&) { done = true; });
  PumpUntil(&loop, [&] { return done; });
  // The drop reports as exactly one ack-timeout — not a second time as a
  // disconnect — so a health tracker weighs the failure once.
  EXPECT_EQ(observer.ack_timeouts, 1);
  EXPECT_EQ(observer.disconnected, 0);
  EXPECT_EQ(observer.acks, 0);
  ::close(raw);
}

TEST(SocketTransportTest, SendGateFailsFastWithoutQueueing) {
  EventLoop loop(RealClock::Get());
  SocketTransport client(&loop, {});
  client.AddPeer("srv", "127.0.0.1:1");  // never connects
  client.SetSendGate([](const std::string& peer, const Message& msg) {
    if (msg.type == MessageType::kHeartbeat) return Status::OK();
    return Status::Unavailable("peer " + peer + " is down (circuit open)");
  });

  Status result;
  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status& s) {
    result = s;
    done = true;
  });
  PumpUntil(&loop, [&] { return done; });
  EXPECT_TRUE(result.IsUnavailable()) << result;
  EXPECT_NE(result.message().find("circuit"), std::string::npos);
  EXPECT_EQ(client.gate_rejects(), 1u);
  // Nothing queued: the rejected send never consumed outbound bytes.
  EXPECT_EQ(client.GetPeerStats("srv").queued_bytes, 0u);

  // Heartbeats pass the gate: the probe queues toward the (unreachable)
  // peer instead of being rejected. Checked before running the loop —
  // the refused connect then fails it like any other queued send.
  Message probe;
  probe.type = MessageType::kHeartbeat;
  client.Send("srv", probe, [](const Status&) {});
  EXPECT_EQ(client.gate_rejects(), 1u);
  EXPECT_GT(client.GetPeerStats("srv").queued_bytes, 0u);
  loop.RunFor(10 * kMillisecond);

  std::vector<BundleItem> items;
  int bundle_failed = 0;
  for (int i = 0; i < 3; i++) {
    BundleItem item;
    item.msg = SampleMessage();
    item.done = [&](const Status& s) {
      if (s.IsUnavailable()) bundle_failed++;
    };
    items.push_back(std::move(item));
  }
  client.SendBundle("srv", std::move(items));
  PumpUntil(&loop, [&] { return bundle_failed == 3; });
  EXPECT_EQ(bundle_failed, 3);  // one gate verdict fails every item
}

TEST(SocketTransportTest, PeerStatsTrackReconnectsAndOutage) {
  EventLoop loop(RealClock::Get());
  SocketTransport::Options opts;
  opts.reconnect_backoff_min = 10 * kMillisecond;
  opts.reconnect_backoff_max = 20 * kMillisecond;
  SocketTransport client(&loop, opts);
  MetricsRegistry registry;
  client.AttachMetrics(&registry);

  EXPECT_FALSE(client.GetPeerStats("ghost").known);

  client.AddPeer("srv", "127.0.0.1:1");  // unreachable
  bool done = false;
  client.Send("srv", SampleMessage(), [&](const Status&) { done = true; });
  // Let a few reconnect attempts fail.
  TimePoint until = RealClock::Get()->Now() + 300 * kMillisecond;
  while (RealClock::Get()->Now() < until) loop.RunFor(20 * kMillisecond);

  SocketTransport::PeerNetStats stats = client.GetPeerStats("srv");
  ASSERT_TRUE(stats.known);
  EXPECT_FALSE(stats.connected);
  EXPECT_GE(stats.reconnect_attempts, 2u);
  EXPECT_GT(stats.disconnected_total, 0);
  EXPECT_EQ(stats.last_ack_age, -1);
  EXPECT_EQ(client.PeerNames(), std::vector<std::string>{"srv"});

  // The per-peer series mirror the stats.
  bool saw_reconnects = false;
  for (const MetricSnapshot& m : registry.Collect()) {
    if (m.name == "bistro_net_peer_srv_reconnects_total") {
      saw_reconnects = true;
      EXPECT_GE(m.counter_value, 2u);
    }
  }
  EXPECT_TRUE(saw_reconnects);
}

}  // namespace
}  // namespace bistro
