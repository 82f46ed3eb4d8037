// stash::net tests: wire-protocol encode/decode and frame reassembly under
// arbitrary chunking (a seeded property over the receive-in-place path),
// a client hanging up on a stream that lost framing, the epoll server
// end-to-end over loopback (basic ops,
// hidden payloads, pipelined in-order responses, QoS passthrough), the
// version/feature handshake (negotiation on connect; version or pack-format
// mismatch refused as clean kUnsupported plus hangup, never mid-stream
// corruption), hidden_info parity across the wire, the reactor's quiescence
// rule (a burst of writes or pings past the pipeline window completes with
// no timer; stop() wakes a reactor blocked in epoll), graceful shutdown
// accounting (requests == responses + dropped, no abandoned futures)
// including frames still buffered at stop(), mid-flight resets, concurrent
// pipelined clients completing in order, and a serial client's
// byte-identical stats export.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/net/client.hpp"
#include "stash/net/server.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/wire.hpp"

namespace stash::net {
namespace {

using dev::DeviceConfig;
using dev::StashDevice;
using util::ErrorCode;

crypto::HidingKey test_key(std::uint8_t fill = 0x51) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return crypto::HidingKey(raw);
}

DeviceConfig net_config() {
  DeviceConfig config;  // tiny geometry, 1 chip, inline pool
  config.seed = 3030;
  return config;
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

/// Spin until `pred` holds or ~2 s pass; returns whether it held.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Dial the server raw: no Client, so no kHello handshake.  recv() gives up
/// after 5 s, so a reactor that stalls fails the test instead of hanging
/// it.  Returns -1 on failure.
int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{5, 0};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Next response frame off a raw socket; false on timeout, EOF or a
/// malformed frame.
bool recv_response(int fd, FrameAssembler& assembler, Response& resp) {
  for (;;) {
    std::span<const std::uint8_t> frame;
    bool ready = false;
    if (!assembler.poll(frame, ready).is_ok()) return false;
    if (ready) return decode_response(frame, resp).is_ok();
    const std::span<std::uint8_t> room = assembler.room(4096);
    const ssize_t n = ::recv(fd, room.data(), room.size(), 0);
    if (n <= 0) return false;
    assembler.commit(static_cast<std::size_t>(n));
  }
}

/// Encode requests of the given ops (ids 1, 2, ...) into one wire buffer:
/// writes carry `page` to lpn = (id - 1) mod 32, inside the tiny
/// geometry's 56 logical pages; reads target lpn 0.
std::vector<std::uint8_t> burst(const std::vector<OpCode>& ops,
                                const std::vector<std::uint8_t>& page) {
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Request req;
    req.op = ops[i];
    req.id = i + 1;
    if (ops[i] == OpCode::kWrite) {
      req.lpn = i % 32;
      req.data = page;
    }
    encode_request(req, wire);
  }
  return wire;
}

bool send_all(int fd, const std::vector<std::uint8_t>& wire) {
  return ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(wire.size());
}

// ---- Protocol: framing and body codecs ------------------------------------

TEST(NetProtocol, RequestsSurviveArbitraryStreamChunking) {
  Request a;
  a.op = OpCode::kWrite;
  a.priority = 1;
  a.id = 42;
  a.lpn = 7;
  a.data = {0xde, 0xad, 0xbe, 0xef};
  Request b;
  b.op = OpCode::kRead;
  b.priority = 0;
  b.id = 43;
  b.lpn = 9;

  std::vector<std::uint8_t> stream;
  encode_request(a, stream);
  encode_request(b, stream);

  // Worst-case chunking: one byte at a time.
  FrameAssembler assembler;
  std::vector<Request> decoded;
  for (const std::uint8_t byte : stream) {
    assembler.feed({&byte, 1});
    std::span<const std::uint8_t> frame;
    bool ready = true;
    while (true) {
      ASSERT_TRUE(assembler.poll(frame, ready).is_ok());
      if (!ready) break;
      Request req;
      ASSERT_TRUE(decode_request(frame, req).is_ok());
      decoded.push_back(req);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].op, OpCode::kWrite);
  EXPECT_EQ(decoded[0].priority, 1);
  EXPECT_EQ(decoded[0].id, 42u);
  EXPECT_EQ(decoded[0].lpn, 7u);
  EXPECT_EQ(decoded[0].data, a.data);
  EXPECT_EQ(decoded[1].op, OpCode::kRead);
  EXPECT_EQ(decoded[1].id, 43u);
  EXPECT_EQ(decoded[1].lpn, 9u);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(NetProtocol, ResponseRoundTripsWithMessageAndData) {
  Response out;
  out.op = OpCode::kLoadHidden;
  out.status = static_cast<std::uint8_t>(ErrorCode::kCorrupted);
  out.id = 777;
  out.message = "duplicate hidden segment 0";
  out.data = {1, 2, 3};

  std::vector<std::uint8_t> stream;
  encode_response(out, stream);
  FrameAssembler assembler;
  assembler.feed(stream);
  std::span<const std::uint8_t> frame;
  bool ready = false;
  ASSERT_TRUE(assembler.poll(frame, ready).is_ok());
  ASSERT_TRUE(ready);

  Response in;
  ASSERT_TRUE(decode_response(frame, in).is_ok());
  EXPECT_EQ(in.op, OpCode::kLoadHidden);
  EXPECT_EQ(in.status, static_cast<std::uint8_t>(ErrorCode::kCorrupted));
  EXPECT_EQ(in.id, 777u);
  EXPECT_EQ(in.message, out.message);
  EXPECT_EQ(in.data, out.data);
}

TEST(NetProtocol, DecodeRejectsUnknownOpTruncationAndTrailing) {
  Request req;
  req.op = OpCode::kRead;
  req.id = 1;
  std::vector<std::uint8_t> stream;
  encode_request(req, stream);
  // Strip the frame header to get the body FrameAssembler would hand back.
  std::vector<std::uint8_t> body(stream.begin() + kFrameHeaderBytes,
                                 stream.end());

  Request out;
  ASSERT_TRUE(decode_request(body, out).is_ok());

  auto bad_op = body;
  bad_op[0] = 0xee;  // not a valid OpCode
  EXPECT_EQ(decode_request(bad_op, out).code(), ErrorCode::kCorrupted);

  auto truncated = body;
  truncated.pop_back();
  EXPECT_EQ(decode_request(truncated, out).code(), ErrorCode::kCorrupted);

  auto trailing = body;
  trailing.push_back(0x00);
  EXPECT_EQ(decode_request(trailing, out).code(), ErrorCode::kCorrupted);
}

TEST(NetProtocol, OversizedFrameHeaderIsCorruptionNotAllocation) {
  FrameAssembler assembler;
  // A 4-byte header announcing a 4 GiB body, far past the cap.
  const std::array<std::uint8_t, 4> header = {0xFF, 0xFF, 0xFF, 0xFF};
  assembler.feed(header);
  std::span<const std::uint8_t> frame;
  bool ready = false;
  EXPECT_EQ(assembler.poll(frame, ready).code(), ErrorCode::kCorrupted);
  EXPECT_FALSE(ready);
}

TEST(NetProtocol, FrameCapIsInclusive) {
  auto header_for = [](std::uint32_t len) {
    return std::array<std::uint8_t, 4>{
        static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 24)};
  };
  std::span<const std::uint8_t> frame;
  bool ready = true;
  // A body of exactly kMaxFrameBytes is legal: the assembler waits for it.
  FrameAssembler at_cap;
  at_cap.feed(header_for(static_cast<std::uint32_t>(kMaxFrameBytes)));
  EXPECT_TRUE(at_cap.poll(frame, ready).is_ok());
  EXPECT_FALSE(ready);
  // One byte more is refused before any body arrives.
  FrameAssembler past_cap;
  past_cap.feed(header_for(static_cast<std::uint32_t>(kMaxFrameBytes + 1)));
  EXPECT_EQ(past_cap.poll(frame, ready).code(), ErrorCode::kCorrupted);
  EXPECT_FALSE(ready);
}

TEST(NetProtocol, AssemblerReturnsEveryFrameThroughReceiveInPlace) {
  // Seeded property: a random frame stream, delivered in random chunks of
  // 1 B..128 KiB through room/commit with polls interleaved at random,
  // comes back body for body, in order, with buffered() exact after every
  // step.  Each view is checked before the next call, so a view left
  // pointing at moved or freed bytes is a mismatch or an ASan report.
  util::Xoshiro256 rng(2025);
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  std::vector<std::vector<std::uint8_t>> bodies;
  bodies.emplace_back();  // zero-length body
  for (int i = 0; i < 60; ++i) bodies.emplace_back(1 + below(64 * 1024));
  for (int i = 0; i < 30; ++i) bodies.emplace_back(9024);  // one page each
  bodies.emplace_back(1024 * 1024);
  for (std::size_t i = bodies.size() - 1; i > 0; --i) {
    std::swap(bodies[i], bodies[below(i + 1)]);
  }
  std::vector<std::uint8_t> stream;
  for (auto& body : bodies) {
    for (auto& b : body) b = static_cast<std::uint8_t>(rng());
    const auto len = static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i) {
      stream.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    stream.insert(stream.end(), body.begin(), body.end());
  }

  FrameAssembler assembler;
  std::size_t sent = 0;
  std::size_t consumed = 0;
  std::size_t next = 0;
  std::size_t straddles = 0;  // rooms that moved a partial frame's bytes
  std::size_t peak_capacity = 0;
  const std::uint8_t* held_at = nullptr;  // where the unconsumed bytes start
  const auto poll_one = [&] {
    std::span<const std::uint8_t> body;
    bool ready = false;
    EXPECT_TRUE(assembler.poll(body, ready).is_ok());
    if (ready) {
      EXPECT_LT(next, bodies.size());
      if (next >= bodies.size()) return false;
      const auto& want = bodies[next++];
      EXPECT_TRUE(std::equal(body.begin(), body.end(), want.begin(),
                             want.end()))
          << "frame " << next - 1 << " of " << want.size() << " bytes";
      consumed += kFrameHeaderBytes + want.size();
      held_at = body.data() + body.size();
    }
    EXPECT_EQ(assembler.buffered(), sent - consumed);
    return ready;
  };
  while (sent < stream.size()) {
    const std::size_t held = assembler.buffered();
    const std::span<std::uint8_t> room =
        assembler.room(rng() % 2 ? kRecvChunkBytes : 1 + below(4096));
    if (held > 0 && room.data() - held != held_at) ++straddles;
    const std::size_t cap = std::size_t{1} << below(17);  // 1 B..128 KiB
    const std::size_t n = std::min(
        {room.size(), cap + below(cap), stream.size() - sent});
    ASSERT_GT(n, 0u);
    std::copy_n(stream.begin() + static_cast<std::ptrdiff_t>(sent), n,
                room.begin());
    assembler.commit(n);
    sent += n;
    held_at = room.data() - held;
    EXPECT_EQ(assembler.buffered(), sent - consumed);
    peak_capacity = std::max(peak_capacity, assembler.capacity());
    for (std::uint64_t polls = below(4); polls > 0; --polls) {
      if (!poll_one()) break;
    }
  }
  while (poll_one()) {
  }
  EXPECT_EQ(next, bodies.size());
  EXPECT_EQ(assembler.buffered(), 0u);
  EXPECT_GT(straddles, 0u);
  // The 1 MiB frame grew the buffer; consumed, its memory went back.
  EXPECT_GT(peak_capacity, FrameAssembler::kRetainBytes);
  EXPECT_LE(assembler.capacity(), FrameAssembler::kRetainBytes);
}

// ---- Client: a stream that lost framing ------------------------------------

/// Listen on an ephemeral loopback port; returns the fd and sets `port`.
int listen_loopback(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(sa);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 1) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    ::close(fd);
    return -1;
  }
  port = ntohs(sa.sin_port);
  return fd;
}

TEST(NetClient, RecvClosesAConnectionThatLostFraming) {
  // A peer that answers the hello and then sends what no frame can be: a
  // header past the cap, or a well-framed body no decoder accepts.  recv
  // reports kCorrupted and hangs up, like the server does on a protocol
  // error, rather than failing every later recv on the same stream.
  const std::vector<std::vector<std::uint8_t>> poisons = {
      {0x01, 0x00, 0x00, 0x01},  // announces kMaxFrameBytes + 1
      {0x01, 0x00, 0x00, 0x00, 0xee},  // a 1-byte body with no valid op
  };
  static_assert(kMaxFrameBytes + 1 == 0x01000001);
  for (const auto& poison : poisons) {
    std::uint16_t port = 0;
    const int listen_fd = listen_loopback(port);
    ASSERT_GE(listen_fd, 0);
    std::thread peer([&] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      const timeval timeout{5, 0};
      (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
      FrameAssembler assembler;
      Request hello;
      for (;;) {
        std::span<const std::uint8_t> body;
        bool ready = false;
        if (!assembler.poll(body, ready).is_ok()) break;
        if (ready) {
          EXPECT_TRUE(decode_request(body, hello).is_ok());
          break;
        }
        const std::span<std::uint8_t> room = assembler.room(4096);
        const ssize_t n = ::recv(fd, room.data(), room.size(), 0);
        if (n <= 0) break;
        assembler.commit(static_cast<std::size_t>(n));
      }
      Response answer;
      answer.op = OpCode::kHello;
      answer.id = hello.id;
      encode_hello(Hello{}, answer.data);
      std::vector<std::uint8_t> wire;
      encode_response(answer, wire);
      wire.insert(wire.end(), poison.begin(), poison.end());
      EXPECT_TRUE(send_all(fd, wire));
      ::close(fd);
    });
    Client client;
    const Status connected = client.connect("127.0.0.1", port);
    EXPECT_TRUE(connected.is_ok()) << connected.to_string();
    Response resp;
    EXPECT_EQ(client.recv(resp).code(), ErrorCode::kCorrupted);
    EXPECT_FALSE(client.connected());
    peer.join();
    ::close(listen_fd);
  }
}

// ---- Server: end-to-end over loopback -------------------------------------

TEST(NetServer, ServesTheDeviceSurfaceOverLoopback) {
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.connect("localhost", server.port()).is_ok());
  ASSERT_TRUE(client.ping().is_ok());

  const auto page = page_pattern(dev.page_bits(), 17);
  ASSERT_TRUE(client.write(3, page).is_ok());
  // Pre-flush the read is served verbatim from the write-back buffer.
  auto staged = client.read(3);
  ASSERT_TRUE(staged.is_ok()) << staged.status().to_string();
  EXPECT_EQ(staged.value(), page);

  ASSERT_TRUE(client.flush().is_ok());
  auto durable = client.read(3);
  ASSERT_TRUE(durable.is_ok());
  EXPECT_EQ(durable.value().size(), page.size());

  ASSERT_TRUE(client.trim(3).is_ok());
  EXPECT_EQ(client.read(3).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(client.read(dev.logical_pages()).status().code(),
            ErrorCode::kOutOfBounds);
  // A barely-used device has no GC victim, and nothing to collect is OK.
  const auto gc = client.gc();
  EXPECT_TRUE(gc.is_ok()) << gc.to_string();

  auto stats = client.stats();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_GE(stats.value().writes, 1u);
  EXPECT_GE(stats.value().reads, 2u);

  client.close();
  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.accepted, 1u);
  EXPECT_GE(net.requests, 8u);
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.dropped, 0u);
  EXPECT_EQ(net.protocol_errors, 0u);
}

TEST(NetServer, HiddenPayloadRoundTripsOverTheWire) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;  // production VT-HI needs real pages
  config.seed = 88;
  config.chips = 2;
  StashDevice dev(config, test_key());
  // Build the public cover locally; the hidden traffic goes over the wire.
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 4000 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  // Larger than chip 0 alone can hold, so the payload spans chips.
  std::vector<std::uint8_t> secret(dev.volume(0).hidden_capacity_bytes() + 64);
  util::Xoshiro256 rng(88);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng());

  ASSERT_TRUE(client.store_hidden(secret).is_ok());
  auto loaded = client.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);

  client.close();
  server.stop();
}

// The dev.request root is a request's one latency record.  Driving every
// request kind through the server, traced, must give each request exactly
// one root, carrying its op.
TEST(NetServer, EveryRequestKindGetsOneRequestRoot) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;  // production VT-HI needs real pages
  config.seed = 89;
  StashDevice dev(config, test_key());
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 5000 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable(trace::ClockMode::kVirtual);
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());
  ASSERT_TRUE(client.ping().is_ok());
  ASSERT_TRUE(client.write(0, page_pattern(dev.page_bits(), 9)).is_ok());
  ASSERT_TRUE(client.read(0).is_ok());  // write-back buffer
  ASSERT_TRUE(client.flush().is_ok());
  ASSERT_TRUE(client.read(1).is_ok());  // flash
  ASSERT_TRUE(client.trim(2).is_ok());
  const std::vector<std::uint8_t> secret(48, 0xa5);
  ASSERT_TRUE(client.store_hidden(secret).is_ok());
  auto loaded = client.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
  (void)client.gc();
  ASSERT_TRUE(client.stats().is_ok());
  client.close();
  server.stop();
  tracer.disable();

  std::map<trace::Op, int> roots;
  for (const trace::SpanRecord& span : tracer.collect()) {
    if (span.parent_id == 0 && span.stage == trace::Stage::kDevRequest) {
      ++roots[span.op];
    }
  }
  tracer.clear();
  EXPECT_EQ(roots, (std::map<trace::Op, int>{{trace::Op::kRead, 2},
                                             {trace::Op::kWrite, 1},
                                             {trace::Op::kTrim, 1},
                                             {trace::Op::kStoreHidden, 1},
                                             {trace::Op::kLoadHidden, 1},
                                             {trace::Op::kGc, 1}}));
}

/// Dial the server raw (no Client, no auto-handshake), send one kHello
/// carrying `hello` as its data, and return the server's one response.
/// The connection is handed back open in `fd_out`.
Response raw_hello(std::uint16_t port, std::vector<std::uint8_t> hello,
                   int& fd_out) {
  fd_out = dial(port);
  EXPECT_GE(fd_out, 0);
  Request req;
  req.op = OpCode::kHello;
  req.id = 1;
  req.data = std::move(hello);
  std::vector<std::uint8_t> wire;
  encode_request(req, wire);
  EXPECT_TRUE(send_all(fd_out, wire));
  FrameAssembler assembler;
  Response resp;
  EXPECT_TRUE(recv_response(fd_out, assembler, resp))
      << "connection closed before the hello answer arrived";
  return resp;
}

/// Send `hello` raw and expect a clean kUnsupported refusal followed by the
/// server hanging up — never a mid-stream kCorrupted.
void expect_hello_refused(std::uint16_t port,
                          std::vector<std::uint8_t> hello) {
  int fd = -1;
  const Response resp = raw_hello(port, std::move(hello), fd);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(resp.op, OpCode::kHello);
  EXPECT_EQ(resp.status, static_cast<std::uint8_t>(ErrorCode::kUnsupported))
      << resp.message;
  EXPECT_FALSE(resp.message.empty());
  // The refusal is the last thing on the wire: the server closes after the
  // flush rather than limping into undecodable traffic.
  std::uint8_t buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
}

std::vector<std::uint8_t> hello_bytes(std::uint32_t version) {
  Hello hello;
  hello.version = version;
  std::vector<std::uint8_t> out;
  encode_hello(hello, out);
  return out;
}

TEST(NetServer, HandshakeNegotiatesVersion) {
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());
  EXPECT_TRUE(client.ping().is_ok());
  client.close();

  // The server's answer is its version and nothing else.
  int fd = -1;
  const Response resp =
      raw_hello(server.port(), hello_bytes(kProtocolVersion), fd);
  ASSERT_GE(fd, 0);
  ::close(fd);
  EXPECT_EQ(resp.status, 0) << resp.message;
  EXPECT_EQ(resp.data, hello_bytes(kProtocolVersion));
  server.stop();
}

TEST(NetServer, ProtocolVersionMismatchIsUnsupportedNotCorrupted) {
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  expect_hello_refused(server.port(), hello_bytes(kProtocolVersion - 1));
  expect_hello_refused(server.port(), hello_bytes(kProtocolVersion + 1));
  server.stop();
}

TEST(NetServer, V4HelloLayoutIsRefusedCleanly) {
  // A version-4 peer sends its 13-byte hello: version, a u64 feature set
  // and a u8 pack format.  Its tail is not a decode error here — the
  // leading version alone earns the clean refusal.
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  std::vector<std::uint8_t> v4;
  util::ByteWriter w(v4);
  w.u32(4);
  w.u64(0x3);  // hidden-info + pack-v1 feature bits
  w.u8(1);     // pack container format
  ASSERT_EQ(v4.size(), 13u);
  expect_hello_refused(server.port(), v4);
  server.stop();
}

TEST(NetServer, HiddenInfoOverTheWireMatchesTheDevice) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;
  config.seed = 99;
  config.chips = 2;
  StashDevice dev(config, test_key());
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 5000 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  // No hidden object yet: the miss crosses the wire as a clean kNotFound.
  EXPECT_EQ(client.hidden_info().status().code(), ErrorCode::kNotFound);

  // A compressible secret, so packed_bytes < logical_bytes is observable.
  std::vector<std::uint8_t> secret(20'000);
  for (std::size_t i = 0; i < secret.size(); ++i) {
    secret[i] = static_cast<std::uint8_t>("stash pack"[i % 10]);
  }
  ASSERT_TRUE(client.store_hidden(secret).is_ok());

  auto remote = client.hidden_info();
  ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
  auto local = dev.hidden_info();
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(remote.value().logical_bytes, local.value().logical_bytes);
  EXPECT_EQ(remote.value().packed_bytes, local.value().packed_bytes);
  EXPECT_EQ(remote.value().chunks, local.value().chunks);
  EXPECT_EQ(remote.value().unique_chunks, local.value().unique_chunks);
  EXPECT_EQ(remote.value().format, local.value().format);
  EXPECT_EQ(remote.value().remaining_capacity_bytes,
            local.value().remaining_capacity_bytes);
  // The ratio crosses the wire in micro-units; equality up to quantization.
  EXPECT_NEAR(remote.value().dedup_ratio, local.value().dedup_ratio, 1e-5);
  EXPECT_EQ(remote.value().logical_bytes, secret.size());
  EXPECT_LT(remote.value().packed_bytes, secret.size());

  client.close();
  server.stop();
}

TEST(NetServer, EmptyHiddenPayloadRoundTripsOverTheWire) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;  // production VT-HI needs real pages
  config.seed = 66;
  StashDevice dev(config, test_key());
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 6000 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  ASSERT_TRUE(client.store_hidden({}).is_ok());
  auto loaded = client.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded.value().empty());
  auto info = client.hidden_info();
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().logical_bytes, 0u);

  client.close();
  server.stop();
}

TEST(NetServer, PipelinedResponsesArriveInRequestOrder) {
  StashDevice dev(net_config(), test_key());
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 60 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

  // Stream a burst of reads without waiting, varying the priority byte;
  // the n-th response must match the n-th request whatever the byte says.
  constexpr std::size_t kBurst = 16;
  std::vector<std::uint64_t> sent_ids;
  for (std::size_t i = 0; i < kBurst; ++i) {
    Request req;
    req.op = OpCode::kRead;
    req.lpn = i % 4;
    req.priority = static_cast<std::uint8_t>(i % 3);
    ASSERT_TRUE(client.send(req).is_ok());
    sent_ids.push_back(req.id);
  }
  for (std::size_t i = 0; i < kBurst; ++i) {
    Response resp;
    ASSERT_TRUE(client.recv(resp).is_ok()) << "response " << i;
    EXPECT_EQ(resp.id, sent_ids[i]) << "response " << i << " out of order";
    EXPECT_EQ(resp.op, OpCode::kRead);
    EXPECT_EQ(resp.status, 0) << resp.message;
    EXPECT_EQ(resp.data.size(), dev.page_bits());
  }

  client.close();
  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_GE(net.requests, kBurst);
  EXPECT_EQ(net.requests, net.responses + net.dropped);
}

TEST(NetServer, WirePriorityByteDoesNotReorderDispatch) {
  // A kGc frame, then a kRead frame whose priority byte asks for
  // background, in one send(): the reactor queues both before it drains,
  // and the device still runs the read first.  The request kind is the
  // schedule; the byte is not consulted.
  StashDevice dev(net_config(), test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 70)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  std::vector<std::uint8_t> wire;
  Request gc;
  gc.op = OpCode::kGc;
  gc.id = 1;
  encode_request(gc, wire);
  Request read;
  read.op = OpCode::kRead;
  read.id = 2;
  read.priority = 2;
  encode_request(read, wire);
  ASSERT_TRUE(send_all(fd, wire));

  // Responses still come back in request order.
  FrameAssembler assembler;
  Response resp;
  ASSERT_TRUE(recv_response(fd, assembler, resp));
  EXPECT_EQ(resp.op, OpCode::kGc);
  ASSERT_TRUE(recv_response(fd, assembler, resp));
  EXPECT_EQ(resp.op, OpCode::kRead);
  EXPECT_EQ(resp.status, 0) << resp.message;
  ::close(fd);
  server.stop();  // joins the reactor, so the dispatch record is settled
  const auto& order = dev.last_dispatch_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].op, trace::Op::kRead);
  EXPECT_EQ(order[1].op, trace::Op::kGc);
}

TEST(NetServer, GcFrameOnAFreshDeviceIsAnsweredOk) {
  // A fresh device has nothing to collect; the GC request still succeeds.
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  std::vector<std::uint8_t> wire;
  Request gc;
  gc.op = OpCode::kGc;
  gc.id = 1;
  encode_request(gc, wire);
  ASSERT_TRUE(send_all(fd, wire));

  FrameAssembler assembler;
  Response resp;
  ASSERT_TRUE(recv_response(fd, assembler, resp));
  EXPECT_EQ(resp.op, OpCode::kGc);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.status, 0) << resp.message;
  ::close(fd);
  server.stop();
}

TEST(NetServer, PipelinedBurstPastTheWindowCompletes) {
  // A window filled by writes, whose responses are ready at once: with
  // nothing left for epoll to report, only the reactor's own
  // drain-then-sweep loop can reach the frames still in the assembler.
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  const auto page = page_pattern(dev.page_bits(), 23);
  std::vector<OpCode> ops(kMaxPipeline + 8, OpCode::kWrite);
  ops.push_back(OpCode::kRead);
  ASSERT_TRUE(send_all(fd, burst(ops, page)));

  FrameAssembler assembler;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Response resp;
    ASSERT_TRUE(recv_response(fd, assembler, resp)) << "response " << i;
    EXPECT_EQ(resp.id, i + 1) << "response " << i << " out of order";
    EXPECT_EQ(resp.op, ops[i]);
    EXPECT_EQ(resp.status, 0) << resp.message;
  }
  ::close(fd);
  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.requests, ops.size());
  EXPECT_EQ(net.requests, net.responses + net.dropped);
}

TEST(NetServer, PingsPastTheDefaultWindowComplete) {
  // Ten windows' worth of pings in one send(): none touches the device, so
  // every frame after the first window is reached by the reactor's own
  // loop, not by a later socket event.
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  const std::vector<OpCode> ops(10 * kMaxPipeline, OpCode::kPing);
  ASSERT_TRUE(send_all(fd, burst(ops, {})));
  FrameAssembler assembler;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Response resp;
    ASSERT_TRUE(recv_response(fd, assembler, resp)) << "response " << i;
    EXPECT_EQ(resp.id, i + 1) << "response " << i << " out of order";
    EXPECT_EQ(resp.op, OpCode::kPing);
  }
  ::close(fd);
  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.requests, ops.size());
  EXPECT_EQ(net.responses, ops.size());
  // The burst filled the window, so reading stopped at least once.
  EXPECT_GE(net.pipeline_stalls, 1u);
}

TEST(NetServer, StopWakesAnIdleReactor) {
  // With no poll timeout the reactor sleeps in epoll until an event; stop()
  // must wake it even when a client is connected and silent.
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      eventually([&] { return server.stats_snapshot().accepted == 1; }));

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.requests, 0u);
  EXPECT_EQ(net.disconnected, net.accepted);
  // The server closed its end: the client sees EOF, not a timeout.
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

TEST(NetServer, GracefulShutdownResolvesEveryInFlightRequest) {
  // stop() lands while frames may still be buffered behind a full
  // window: shutdown must answer them all (the trailing read included) and
  // return, never block on a future nothing will resolve.
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  const int fd = dial(server.port());
  ASSERT_GE(fd, 0);

  std::vector<OpCode> ops(kMaxPipeline + 3, OpCode::kWrite);
  ops.push_back(OpCode::kRead);
  ASSERT_TRUE(send_all(fd, burst(ops, page_pattern(dev.page_bits(), 71))));
  ASSERT_TRUE(
      eventually([&] { return server.stats_snapshot().requests >= 2; }));

  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.requests, ops.size());
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.responses, ops.size());  // client still connected: delivered

  // The best-effort flush really reached the wire: every response is
  // readable before the server-side close.
  FrameAssembler assembler;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Response resp;
    ASSERT_TRUE(recv_response(fd, assembler, resp)) << "response " << i;
    EXPECT_EQ(resp.id, i + 1);
    EXPECT_EQ(resp.status, 0) << resp.message;
  }
  ::close(fd);
}

TEST(NetServer, MidFlightDisconnectIsDroppedNotAbandoned) {
  // Clients that reset with reads in flight and more buffered past the
  // window must not hang stop() or leak futures: whatever was submitted is
  // answered or consumed and counted as dropped.  How many are dropped
  // depends on when each reset is seen, so only the balance is asserted.
  StashDevice dev(net_config(), test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 81)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());

  constexpr std::size_t kClients = 4;
  std::vector<int> fds;
  for (std::size_t i = 0; i < kClients; ++i) {
    fds.push_back(dial(server.port()));
    ASSERT_GE(fds.back(), 0);
  }
  ASSERT_TRUE(
      eventually([&] { return server.stats_snapshot().accepted == kClients; }));

  const auto wire =
      burst(std::vector<OpCode>(2 * kMaxPipeline, OpCode::kRead), {});
  const linger reset{1, 0};  // close() sends RST, not FIN
  for (const int fd : fds) {
    ASSERT_TRUE(send_all(fd, wire));
    ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)), 0);
    ::close(fd);
  }
  ASSERT_TRUE(eventually(
      [&] { return server.stats_snapshot().disconnected == kClients; }));

  server.stop();  // must return promptly (ctest would time the hang out)
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.requests, net.responses + net.dropped);
  EXPECT_EQ(net.disconnected, net.accepted);
}

TEST(NetServer, ConcurrentPipelinedClientsAllComplete) {
  // Several connections, each keeping a window of requests in flight: the
  // reactor interleaves their frames, yet each connection gets its
  // responses in its own request order, and every read returns the bytes
  // its own client wrote.  Each client works its own lpn range: writes
  // (two passes, the second one wins), a flush, then reads.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kDepth = 8;
  constexpr std::uint64_t kPagesPerClient = 8;  // 32 of 56 logical pages
  constexpr std::size_t kPasses = 2;
  constexpr std::size_t kOps = kPasses * kPagesPerClient;
  StashDevice dev(net_config(), test_key());
  Server server(dev);
  ASSERT_TRUE(server.start().is_ok());
  const std::uint32_t bits = dev.page_bits();
  const auto pattern = [bits](std::size_t client, std::size_t pass,
                              std::uint64_t page) {
    return page_pattern(bits, 1000 * client + 100 * pass + page);
  };

  // One failure message per client, checked on the test thread.
  std::vector<std::string> failures(kClients);
  const auto run_client = [&](std::size_t c) {
    std::string& failure = failures[c];
    Client client;
    if (!client.connect("127.0.0.1", server.port()).is_ok()) {
      failure = "connect failed";
      return;
    }
    const std::uint64_t base = c * kPagesPerClient;
    // Sends kOps requests from make(i), keeping kDepth in flight; each
    // response must answer the oldest outstanding request, OK, and pass
    // check(req, resp).
    const auto pipeline = [&](const auto& make, const auto& check) {
      std::deque<Request> window;
      const auto complete = [&] {
        Response resp;
        if (!client.recv(resp).is_ok()) {
          failure = "recv failed";
          return false;
        }
        const Request& req = window.front();
        if (resp.id != req.id || resp.op != req.op) {
          failure = "response " + std::to_string(resp.id) +
                    " out of order, expected " + std::to_string(req.id);
        } else if (resp.status != 0) {
          failure = "request " + std::to_string(req.id) + ": " + resp.message;
        } else if (!check(req, resp)) {
          failure = "read of lpn " + std::to_string(req.lpn) +
                    " did not return its client's last write";
        }
        window.pop_front();
        return failure.empty();
      };
      for (std::size_t i = 0; i < kOps; ++i) {
        Request req = make(i);
        if (!client.send(req).is_ok()) {
          failure = "send failed";
          return false;
        }
        window.push_back(std::move(req));
        if (window.size() >= kDepth && !complete()) return false;
      }
      while (!window.empty()) {
        if (!complete()) return false;
      }
      return true;
    };

    const bool wrote = pipeline(
        [&](std::size_t i) {
          Request req;
          req.op = OpCode::kWrite;
          req.lpn = base + i % kPagesPerClient;
          req.data = pattern(c, i / kPagesPerClient, i % kPagesPerClient);
          return req;
        },
        [](const Request&, const Response&) { return true; });
    if (!wrote) return;
    if (const Status st = client.flush(); !st.is_ok()) {
      failure = "flush: " + st.to_string();
      return;
    }
    (void)pipeline(
        [&](std::size_t i) {
          Request req;
          req.op = OpCode::kRead;
          req.lpn = base + i % kPagesPerClient;
          return req;
        },
        [&](const Request& req, const Response& resp) {
          // Flash reads carry raw bit errors; another client's page would
          // differ in about half its bits.
          const auto want = pattern(c, kPasses - 1, req.lpn - base);
          if (resp.data.size() != want.size()) return false;
          std::size_t diff = 0;
          for (std::size_t b = 0; b < want.size(); ++b) {
            diff += resp.data[b] != want[b];
          }
          return diff < want.size() / 4;
        });
    client.close();
  };

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(run_client, c);
  for (auto& t : clients) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  server.stop();
  const NetStats net = server.stats_snapshot();
  EXPECT_EQ(net.accepted, kClients);
  EXPECT_EQ(net.dropped, 0u);
  EXPECT_EQ(net.requests, net.responses);
  EXPECT_GE(net.requests, kClients * (2 * kOps + 1));
}

TEST(NetServer, SerialClientStatsExportIsByteIdentical) {
  // Same seed, same serial workload (one connection, one request in
  // flight), two fresh device+server instances: the canonical stats JSON
  // must match byte for byte.
  const auto run = [] {
    DeviceConfig config;
    config.seed = 5150;
    StashDevice dev(config, test_key());
    Server server(dev);
    EXPECT_TRUE(server.start().is_ok());
    Client client;
    EXPECT_TRUE(client.connect("127.0.0.1", server.port()).is_ok());

    EXPECT_TRUE(client.ping().is_ok());
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
      EXPECT_TRUE(
          client.write(lpn, page_pattern(dev.page_bits(), 100 + lpn)).is_ok());
    }
    EXPECT_TRUE(client.flush().is_ok());
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
      EXPECT_TRUE(client.read(lpn).is_ok());
    }
    EXPECT_TRUE(client.trim(2).is_ok());
    EXPECT_EQ(client.read(2).status().code(), ErrorCode::kNotFound);
    (void)client.gc();  // verdict (ok or an honest kNoSpace) is seeded
    EXPECT_TRUE(client.stats().is_ok());

    // Stop while the client is still connected so the disconnect path
    // never races the export.
    server.stop();
    return server.stats_json();
  };

  const std::string one = run();
  const std::string two = run();
  EXPECT_EQ(one, two);
  EXPECT_NE(one.find("\"requests\":"), std::string::npos);
  EXPECT_NE(one.find("\"ops\":{"), std::string::npos);
}

}  // namespace
}  // namespace stash::net
