#include "workload.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

using stash::net::OpCode;
using stash::net::Request;
using stash::net::Response;
using stash::util::hash_words;
using stash::util::Xoshiro256;

namespace {

// name, read %, hot-set skew, hidden user, writes per flush,
// blocks per chip, cover fill, dominant layers.  The hidden user's other
// ops split into reads and writes like everyone's.
//   read_mostly: a 1152-page cover, 4.5x the 256-page read LRU.  At 5%
//     writes, program and erase took more reactor time than framing; at 1%
//     the read path dominates.
//   write_heavy: 75% of logical pages filled, so GC relocates throughout.
//   hidden_churn: 16 blocks per chip.  A hidden load scans every block, but
//     on 8 or 12 blocks stores ran out of carriers that verify (kNoSpace).
const WorkloadSpec kWorkloads[] = {
    {"read_mostly", 99, true, false, 0, 24, 0.5,
     {"net", "dev", "nand.read"}},
    {"write_heavy", 30, false, false, 64, 16, 0.75,
     {"nand.program", "nand.erase", "ftl"}},
    {"hidden_churn", 79, false, true, 0, 16, 0.75, {"vthi", "ecc"}},
};

/// Hot keys per connection: the read LRU's 256 pages split over the two
/// connections, so the whole hot set about fills the cache.
constexpr std::size_t kHotKeysPerConn = 128;

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::uint8_t> make_page(std::uint64_t seed, std::uint64_t lpn,
                                    std::uint64_t version,
                                    std::uint32_t bits) {
  Xoshiro256 rng(hash_words(seed, lpn, version));
  std::vector<std::uint8_t> page(bits);
  for (std::uint32_t i = 0; i < bits; i += 64) {
    std::uint64_t word = rng();
    const std::uint32_t n = std::min<std::uint32_t>(64, bits - i);
    for (std::uint32_t b = 0; b < n; ++b, word >>= 1) {
      page[i + b] = static_cast<std::uint8_t>(word & 1);
    }
  }
  return page;
}

std::vector<std::uint8_t> make_hidden_payload(std::uint64_t seed,
                                              std::uint64_t version) {
  // Words from a small fixed vocabulary in a seeded order: repetitive
  // enough for LZ plus range coding to pack it about 3.5x, about the same
  // packed size for every seed, distinct for every version.
  constexpr std::size_t kBytes = 3072;
  constexpr std::size_t kVocabulary = 16;
  Xoshiro256 vocab_rng(0x70cab);
  std::vector<std::string> words(kVocabulary);
  for (auto& w : words) {
    const std::size_t len = 3 + vocab_rng.below(7);
    for (std::size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + vocab_rng.below(26)));
    }
  }
  std::string text = "hidden version " + std::to_string(version) + "\n";
  Xoshiro256 rng(hash_words(seed, 0x41dde9, version));
  while (text.size() < kBytes) {
    text += words[rng.below(kVocabulary)];
    text += rng.below(12) == 0 ? '\n' : ' ';
  }
  text.resize(kBytes);
  return {text.begin(), text.end()};
}

void ConnResult::merge(const ConnResult& o) {
  attempted += o.attempted;
  failed += o.failed;
  mismatches += o.mismatches;
  verified_reads += o.verified_reads;
  verified_loads += o.verified_loads;
  raw_bit_errors += o.raw_bit_errors;
  window_ops += o.window_ops;
  read_us.merge(o.read_us);
  write_us.merge(o.write_us);
  flush_us.merge(o.flush_us);
  load_us.merge(o.load_us);
  store_us.merge(o.store_us);
  if (first_error.empty()) first_error = o.first_error;
}

Connection::Connection(const WorkloadSpec& spec, unsigned index,
                       std::uint64_t seed, std::uint64_t cover_pages,
                       std::uint32_t page_bits, std::size_t depth,
                       Shadow& shadow)
    : spec_(spec),
      index_(index),
      seed_(seed),
      page_bits_(page_bits),
      depth_(depth),
      shadow_(shadow),
      rng_(hash_words(seed, 0xc011, index)) {
  // Pairs of lpns alternate owners, so each connection spans both chips
  // (chip = lpn % 2).
  for (std::uint64_t lpn = 0; lpn < cover_pages; ++lpn) {
    if (((lpn >> 1) & 1) == index) keys_.push_back(lpn);
  }
  Xoshiro256 shuffle(hash_words(seed, 0x5ff1e, index));
  for (std::size_t i = keys_.size(); i > 1; --i) {
    std::swap(keys_[i - 1], keys_[shuffle.below(i)]);
  }
  hot_ = spec.hot_skew ? std::min(kHotKeysPerConn, keys_.size()) : 0;
}

stash::util::Status Connection::connect(std::uint16_t port) {
  return client_.connect("127.0.0.1", port);
}

std::uint64_t Connection::pick_key() {
  if (hot_ > 0 && static_cast<int>(rng_.below(100)) < kHotPct) {
    return keys_[rng_.below(hot_)];
  }
  return keys_[rng_.below(keys_.size())];
}

bool Connection::read_in_flight(std::uint64_t lpn) const {
  return std::any_of(inflight_.begin(), inflight_.end(), [&](const Pending& p) {
    return p.op == OpCode::kRead && p.lpn == lpn;
  });
}

void Connection::fail(const std::string& what) {
  ++result_.failed;
  if (result_.first_error.empty()) {
    result_.first_error = "connection " + std::to_string(index_) + ": " + what;
  }
}

void Connection::send_next() {
  Request req;
  Pending p{};
  const bool hidden_user = spec_.hidden && index_ == 0;
  if (spec_.writes_per_flush && writes_since_flush_ >= spec_.writes_per_flush) {
    writes_since_flush_ = 0;
    req.op = OpCode::kFlush;
    req.priority = 1;
  } else if (hidden_user && writes_since_store_ >= kWritesPerHiddenStore) {
    writes_since_store_ = 0;
    const std::uint64_t version = shadow_.hidden_versions.size();
    p.expected = std::make_shared<const std::vector<std::uint8_t>>(
        make_hidden_payload(seed_, version));
    shadow_.hidden_versions.push_back(p.expected);
    req.op = OpCode::kStoreHidden;
    req.priority = 2;
    req.data = *p.expected;
  } else if (const std::uint64_t done =
                 shadow_.public_done.load(std::memory_order_relaxed);
             hidden_user && done >= next_load_at_) {
    // Counted from now, not from the last mark: while the hidden user's
    // pipeline was full the count may have run past several marks.
    next_load_at_ = done + kPublicOpsPerHiddenLoad;
    req.op = OpCode::kLoadHidden;
    req.priority = 2;
    p.versions = shadow_.hidden_versions.size();
  } else {
    if (static_cast<int>(rng_.below(100)) < spec_.read_pct) {
      req.op = OpCode::kRead;
      req.priority = 0;
      req.lpn = pick_key();
      p.expected = shadow_.pages[req.lpn];
    } else {
      std::uint64_t lpn = pick_key();
      while (read_in_flight(lpn)) lpn = pick_key();
      ++writes_;
      ++writes_since_flush_;
      ++writes_since_store_;
      auto page = std::make_shared<const std::vector<std::uint8_t>>(
          make_page(seed_, lpn, writes_, page_bits_));
      shadow_.pages[lpn] = page;
      req.op = OpCode::kWrite;
      req.priority = 1;
      req.lpn = lpn;
      req.data = *page;
    }
  }
  p.op = req.op;
  p.lpn = req.lpn;
  p.sent = Clock::now();
  ++result_.attempted;
  const auto st = client_.send(req);
  if (!st.is_ok()) {
    fail(std::string("send: ") + st.to_string());
    return;
  }
  p.id = req.id;
  inflight_.push_back(std::move(p));
}

void Connection::receive_one(Clock::time_point measure_from,
                             Clock::time_point end) {
  Response resp;
  const auto st = client_.recv(resp);
  const auto now = Clock::now();
  if (!st.is_ok()) {
    fail(std::string("recv: ") + st.to_string());
    result_.failed += inflight_.size() - 1;
    inflight_.clear();
    return;
  }
  const Pending p = std::move(inflight_.front());
  inflight_.pop_front();
  const char* name = stash::net::op_name(p.op);
  if (resp.id != p.id || resp.op != p.op) {
    fail(std::string(name) + ": response out of order");
    return;
  }
  if (resp.status != 0) {
    fail(std::string(name) + " failed with status " +
         std::to_string(resp.status) + ": " + resp.message);
    return;
  }
  if (p.op == OpCode::kRead || p.op == OpCode::kWrite) {
    shadow_.public_done.fetch_add(1, std::memory_order_relaxed);
  }
  if (p.op == OpCode::kRead) {
    std::uint64_t flipped = resp.data.size() == p.expected->size() ? 0 : ~0ull;
    for (std::size_t i = 0; flipped != ~0ull && i < resp.data.size(); ++i) {
      flipped += resp.data[i] != (*p.expected)[i];
    }
    if (flipped > kMaxRawBitErrors) {
      ++result_.mismatches;
      fail("read of lpn " + std::to_string(p.lpn) +
           " returned bytes other than the last written");
      return;
    }
    result_.raw_bit_errors += flipped;
    ++result_.verified_reads;
  } else if (p.op == OpCode::kLoadHidden) {
    bool match = false;
    for (std::size_t v = p.versions; v-- > 0 && !match;) {
      match = resp.data == *shadow_.hidden_versions[v];
    }
    if (!match) {
      ++result_.mismatches;
      fail("load_hidden returned none of the stored versions");
      return;
    }
    ++result_.verified_loads;
  }
  if (p.sent < measure_from || p.sent >= end) return;
  ++result_.window_ops;
  const double us =
      std::chrono::duration<double, std::micro>(now - p.sent).count();
  switch (p.op) {
    case OpCode::kRead: result_.read_us.add(us); break;
    case OpCode::kWrite: result_.write_us.add(us); break;
    case OpCode::kFlush: result_.flush_us.add(us); break;
    case OpCode::kLoadHidden: result_.load_us.add(us); break;
    case OpCode::kStoreHidden: result_.store_us.add(us); break;
    default: break;
  }
}

void Connection::run(Clock::time_point measure_from, Clock::time_point end) {
  for (;;) {
    while (inflight_.size() < depth_ && client_.connected() &&
           Clock::now() < end) {
      send_next();
    }
    if (inflight_.empty()) break;
    receive_one(measure_from, end);
  }
}

ConnResult Connection::take_result() {
  ConnResult out = std::move(result_);
  result_ = ConnResult{};
  return out;
}

}  // namespace perfbench
