#include "stash/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stash/pack/pack.hpp"

namespace stash::net {

using util::ErrorCode;
using F = NetStats::Field;

namespace {

dev::Priority to_priority(std::uint8_t raw) noexcept {
  if (raw >= 2) return dev::Priority::kBackground;
  return raw == 1 ? dev::Priority::kNormal : dev::Priority::kForeground;
}

Status errno_status(const std::string& what) {
  return Status{ErrorCode::kInvalidArgument,
                what + ": " + std::strerror(errno)};
}

bool set_nonblocking_cloexec(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  const int fdflags = fcntl(fd, F_GETFD, 0);
  return fdflags >= 0 && fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) >= 0;
}

bool resolve_host(const std::string& host, in_addr& out) {
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  return inet_pton(AF_INET, numeric.c_str(), &out) == 1;
}

}  // namespace

struct Server::Impl {
  dev::StashDevice& device;
  ServerConfig config;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::uint16_t bound_port = 0;
  std::thread reactor;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> live{false};

  // Reactor thread counts, any thread snapshots.
  telemetry::CounterTable<NetStats> counters;
  std::array<std::atomic<std::uint64_t>, kOpCount> ops{};  // NetStats::ops

  /// One in-flight request of a connection, front-resolved in order.
  struct Pending {
    OpCode op = OpCode::kPing;
    std::uint64_t id = 0;
    enum class Kind : std::uint8_t { kReady, kStatus, kValue } kind =
        Kind::kReady;
    std::future<Status> status_fut;
    std::future<Result<dev::PageRef>> value_fut;
    Response ready;  // kKind::kReady payload
  };

  struct Conn {
    int fd = -1;
    FrameAssembler assembler;
    std::deque<Pending> pending;
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;
    std::uint32_t events = EPOLLIN;
    bool throttled = false;
    bool close_after_flush = false;  // fatal protocol error: answer, then go
    bool dead = false;
  };

  std::unordered_map<int, std::unique_ptr<Conn>> conns;

  Impl(dev::StashDevice& d, ServerConfig c) : device(d), config(std::move(c)) {}

  // ---- Socket plumbing -----------------------------------------------------
  void set_epoll_events(Conn& c, std::uint32_t events) {
    if (c.events == events) return;
    c.events = events;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = c.fd;
    (void)epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void update_interest(Conn& c) {
    if (c.dead) return;
    std::uint32_t events = 0;
    const bool window_open =
        !c.close_after_flush && c.pending.size() < config.max_pipeline;
    if (window_open) events |= EPOLLIN;
    if (c.out_off < c.outbuf.size()) events |= EPOLLOUT;
    if (!window_open && !c.throttled && !c.close_after_flush) {
      c.throttled = true;
      counters.add(F::pipeline_stalls);
    } else if (window_open && c.throttled) {
      c.throttled = false;
    }
    set_epoll_events(c, events);
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient error: next EPOLLIN retries
      }
      if (!set_nonblocking_cloexec(fd)) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->assembler = FrameAssembler(config.max_frame_bytes);
      epoll_event ev{};
      ev.events = conn->events;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(fd, std::move(conn));
      counters.add(F::accepted);
    }
  }

  // ---- Request handling ----------------------------------------------------
  /// Decode and submit one frame.
  void handle_frame(Conn& c, std::span<const std::uint8_t> body) {
    counters.add(F::requests);
    Request req;
    if (const Status st = decode_request(body, req); !st.is_ok()) {
      protocol_error(c, st);
      return;
    }
    ops[static_cast<std::size_t>(req.op) - 1].fetch_add(
        1, std::memory_order_relaxed);

    Pending p;
    p.op = req.op;
    p.id = req.id;
    switch (req.op) {
      case OpCode::kRead:
        p.kind = Pending::Kind::kValue;
        p.value_fut = device.submit_read(req.lpn, to_priority(req.priority));
        break;
      case OpCode::kWrite:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_write(req.lpn, std::move(req.data));
        break;
      case OpCode::kTrim:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_trim(req.lpn);
        break;
      case OpCode::kStoreHidden:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_store_hidden(std::move(req.data));
        break;
      case OpCode::kLoadHidden:
        p.kind = Pending::Kind::kValue;
        p.value_fut = device.submit_load_hidden();
        break;
      case OpCode::kGc:
        p.kind = Pending::Kind::kStatus;
        p.status_fut = device.submit_gc();
        break;
      case OpCode::kFlush: {
        const Status st = device.flush();
        p.ready.op = req.op;
        p.ready.id = req.id;
        p.ready.status = static_cast<std::uint8_t>(st.code());
        p.ready.message = st.message();
        break;
      }
      case OpCode::kStats: {
        p.ready.op = req.op;
        p.ready.id = req.id;
        encode_device_stats(device.stats_snapshot(), p.ready.data);
        break;
      }
      case OpCode::kPing:
        p.ready.op = req.op;
        p.ready.id = req.id;
        p.ready.data = std::move(req.data);  // echo
        break;
      case OpCode::kHello: {
        p.ready.op = req.op;
        p.ready.id = req.id;
        Hello theirs;
        Hello ours;
        ours.pack_format = device.config().pack.enabled
                               ? pack::kFormatVersion
                               : std::uint8_t{0};
        if (const Status st = decode_hello(req.data, theirs); !st.is_ok()) {
          protocol_error(c, st);  // queues its own answer and hangs up
          return;
        }
        // Version or pack-format disagreement: answer kUnsupported (with
        // what we speak, so the peer can log it) and close after the
        // flush.  The alternative — letting a v1 peer stream on — fails
        // kCorrupted at the first packed payload or unknown op, long
        // after the cause is diagnosable.
        if (theirs.version != kProtocolVersion) {
          p.ready.status = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
          p.ready.message =
              "protocol version " + std::to_string(theirs.version) +
              " != server version " + std::to_string(kProtocolVersion);
          c.close_after_flush = true;
        } else if (theirs.pack_format != 0 && ours.pack_format != 0 &&
                   theirs.pack_format != ours.pack_format) {
          p.ready.status = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
          p.ready.message =
              "pack format " + std::to_string(theirs.pack_format) +
              " != server pack format " + std::to_string(ours.pack_format);
          c.close_after_flush = true;
        }
        encode_hello(ours, p.ready.data);
        break;
      }
      case OpCode::kHiddenInfo: {
        p.ready.op = req.op;
        p.ready.id = req.id;
        auto info = device.hidden_info();
        if (info.is_ok()) {
          encode_hidden_info(info.value(), p.ready.data);
        } else {
          p.ready.status = static_cast<std::uint8_t>(info.status().code());
          p.ready.message = info.status().message();
        }
        break;
      }
    }
    c.pending.push_back(std::move(p));
    if (config.deterministic) {
      // One request, one dispatch round, one response — the serial
      // schedule whose stats export is byte-identical run-to-run.
      device.drain();
    }
  }

  void protocol_error(Conn& c, const Status& st) {
    counters.add(F::protocol_errors);
    Pending p;  // answer what can still be answered, then hang up
    p.ready.op = OpCode::kPing;
    p.ready.status = static_cast<std::uint8_t>(st.code());
    p.ready.message = st.message();
    c.pending.push_back(std::move(p));
    c.close_after_flush = true;
  }

  /// Pop complete frames while the pipeline window is open.  Returns true
  /// when it handled any frame.
  bool process_frames(Conn& c) {
    bool handled = false;
    while (!c.dead && !c.close_after_flush &&
           c.pending.size() < config.max_pipeline) {
      std::vector<std::uint8_t> body;
      bool frame_ready = false;
      if (const Status st = c.assembler.poll(body, frame_ready);
          !st.is_ok()) {
        protocol_error(c, st);
        break;
      }
      if (!frame_ready) break;
      handle_frame(c, body);
      handled = true;
    }
    update_interest(c);
    return handled;
  }

  void on_readable(Conn& c) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        counters.add(F::rx_bytes, static_cast<std::uint64_t>(n));
        c.assembler.feed({buf, static_cast<std::size_t>(n)});
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        c.dead = true;
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c.dead = true;
      return;
    }
  }

  // ---- Response path -------------------------------------------------------
  static bool pending_ready(Pending& p) {
    switch (p.kind) {
      case Pending::Kind::kReady: return true;
      case Pending::Kind::kStatus:
        return p.status_fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
      case Pending::Kind::kValue:
        return p.value_fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    }
    return false;
  }

  static Response take_response(Pending& p) {
    Response resp;
    switch (p.kind) {
      case Pending::Kind::kReady: return std::move(p.ready);
      case Pending::Kind::kStatus: {
        const Status st = p.status_fut.get();
        resp.status = static_cast<std::uint8_t>(st.code());
        resp.message = st.message();
        break;
      }
      case Pending::Kind::kValue: {
        auto result = p.value_fut.get();
        if (result.is_ok()) {
          // Shared reference into the device's buffer (arena slab or
          // adopted hidden payload): encode_response serializes straight
          // from it, so the response path copies nothing page-sized.
          resp.payload = std::move(result).take();
        } else {
          const Status st = result.status();
          resp.status = static_cast<std::uint8_t>(st.code());
          resp.message = st.message();
        }
        break;
      }
    }
    resp.op = p.op;
    resp.id = p.id;
    return resp;
  }

  void resolve_ready(Conn& c) {
    while (!c.pending.empty() && pending_ready(c.pending.front())) {
      Pending p = std::move(c.pending.front());
      c.pending.pop_front();
      const Response resp = take_response(p);
      encode_response(resp, c.outbuf);
      counters.add(F::responses);
    }
  }

  void flush_out(Conn& c) {
    while (!c.dead && c.out_off < c.outbuf.size()) {
      const ssize_t n = ::send(c.fd, c.outbuf.data() + c.out_off,
                               c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        counters.add(F::tx_bytes, static_cast<std::uint64_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      c.dead = true;
      return;
    }
    if (c.out_off == c.outbuf.size()) {
      c.outbuf.clear();
      c.out_off = 0;
      if (c.close_after_flush && c.pending.empty()) c.dead = true;
    }
  }

  /// Resolve / transmit / refill every connection, then reap the dead.
  /// Returns true when it handled any frame.
  bool sweep() {
    bool handled = false;
    for (auto& [fd, conn] : conns) {
      Conn& c = *conn;
      if (c.dead) continue;
      resolve_ready(c);
      flush_out(c);
      if (!c.dead) handled = process_frames(c) || handled;
      if (!c.dead) flush_out(c);
    }
    reap();
    return handled;
  }

  /// Drain the device, then sweep, until a sweep handles no frame.  Every
  /// round drains, so when this returns the device queue is empty and
  /// every live connection's responses are encoded; what a sweep leaves
  /// behind is only a partial frame or a full socket, each of which epoll
  /// reports.
  void pump() {
    do {
      device.drain();
    } while (sweep());
  }

  /// Close and free dead connections.  One drain makes every future of a
  /// dead connection ready; each is consumed, never abandoned, and counted
  /// as dropped.
  void reap() {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->second->dead) {
        ++it;
        continue;
      }
      Conn& c = *it->second;
      (void)epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      counters.add(F::disconnected);
      if (!c.pending.empty()) device.drain();
      for (Pending& p : c.pending) {
        (void)take_response(p);
        counters.add(F::dropped);
      }
      it = conns.erase(it);
    }
  }

  // ---- Reactor -------------------------------------------------------------
  void run() {
    std::vector<epoll_event> events(64);
    while (!stop_requested.load(std::memory_order_acquire)) {
      const int n = epoll_wait(epoll_fd, events.data(),
                               static_cast<int>(events.size()), -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[static_cast<std::size_t>(i)].data.fd;
        const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
        if (fd == wake_fd) {
          std::uint64_t token = 0;
          (void)!::read(wake_fd, &token, sizeof(token));
          continue;
        }
        if (fd == listen_fd) {
          accept_loop();
          continue;
        }
        const auto it = conns.find(fd);
        if (it == conns.end()) continue;
        Conn& c = *it->second;
        if (ev & (EPOLLHUP | EPOLLERR)) {
          c.dead = true;
          continue;
        }
        if (ev & EPOLLIN) {
          on_readable(c);
          if (!c.dead) (void)process_frames(c);
        }
        if ((ev & EPOLLOUT) && !c.dead) flush_out(c);
      }
      pump();
    }
    shutdown_graceful();
  }

  void shutdown_graceful() {
    if (listen_fd >= 0) {
      (void)epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Answer every frame already received: the same loop as a reactor
    // round, run until quiescent.
    pump();
    // Best-effort transmit of the encoded responses: short-poll each
    // still-connected client, then close regardless.
    for (auto& [fd, conn] : conns) {
      Conn& c = *conn;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!c.dead && c.out_off < c.outbuf.size() &&
             std::chrono::steady_clock::now() < deadline) {
        pollfd pfd{c.fd, POLLOUT, 0};
        if (::poll(&pfd, 1, 100) <= 0) continue;
        flush_out(c);
      }
      c.dead = true;
    }
    reap();
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
      epoll_fd = -1;
    }
    // wake_fd stays open: stop() may be writing to it right now, so it is
    // closed there, after the join.
    live.store(false, std::memory_order_release);
  }
};

Server::Server(dev::StashDevice& device, ServerConfig config)
    : impl_(std::make_unique<Impl>(device, std::move(config))) {}

Server::~Server() { stop(); }

Status Server::start() {
  Impl& im = *impl_;
  if (im.live.load(std::memory_order_acquire) || im.reactor.joinable()) {
    return Status{ErrorCode::kUnsupported, "server already running"};
  }
  if (im.config.max_pipeline == 0) {
    return Status{ErrorCode::kInvalidArgument, "max_pipeline must be >= 1"};
  }
  in_addr addr{};
  if (!resolve_host(im.config.host, addr)) {
    return Status{ErrorCode::kInvalidArgument,
                  "host must be a numeric IPv4 address: " + im.config.host};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr;
  sa.sin_port = htons(im.config.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0 ||
      ::listen(fd, 128) < 0 || !set_nonblocking_cloexec(fd)) {
    const Status st = errno_status("bind/listen");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(sa);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    const Status st = errno_status("getsockname");
    ::close(fd);
    return st;
  }
  im.bound_port = ntohs(sa.sin_port);

  const int epfd = epoll_create1(EPOLL_CLOEXEC);
  const int wfd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epfd < 0 || wfd < 0) {
    const Status st = errno_status("epoll/eventfd");
    ::close(fd);
    if (epfd >= 0) ::close(epfd);
    if (wfd >= 0) ::close(wfd);
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  (void)epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  ev.data.fd = wfd;
  (void)epoll_ctl(epfd, EPOLL_CTL_ADD, wfd, &ev);

  im.listen_fd = fd;
  im.epoll_fd = epfd;
  im.wake_fd = wfd;
  im.stop_requested.store(false, std::memory_order_release);
  im.live.store(true, std::memory_order_release);
  im.reactor = std::thread([this] { impl_->run(); });
  return Status::ok();
}

void Server::stop() {
  Impl& im = *impl_;
  if (!im.reactor.joinable()) return;
  im.stop_requested.store(true, std::memory_order_release);
  if (im.wake_fd >= 0) {
    const std::uint64_t token = 1;
    (void)!::write(im.wake_fd, &token, sizeof(token));
  }
  im.reactor.join();
  if (im.wake_fd >= 0) {
    ::close(im.wake_fd);
    im.wake_fd = -1;
  }
}

bool Server::running() const noexcept {
  return impl_->live.load(std::memory_order_acquire);
}

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

NetStats Server::stats_snapshot() const {
  NetStats s = impl_->counters.snapshot();
  for (std::size_t i = 0; i < kOpCount; ++i) {
    s.ops[i] = impl_->ops[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::string Server::stats_json() const {
  const NetStats s = stats_snapshot();
  std::string json = "{";
  telemetry::append_counters_json(s, json);
  json += ",\"ops\":{";
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (i) json += ',';
    json += '"';
    json += op_name(static_cast<OpCode>(i + 1));
    json += "\":";
    json += std::to_string(s.ops[i]);
  }
  json += "}}";
  return json;
}

}  // namespace stash::net
