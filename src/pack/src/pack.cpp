#include "stash/pack/pack.hpp"

#include <map>
#include <string>

#include "stash/crypto/sha256.hpp"
#include "stash/pack/codec.hpp"
#include "stash/util/wire.hpp"

namespace stash::pack {

using util::ByteReader;
using util::ByteWriter;
using util::ErrorCode;

namespace {

// Container layout (all integers canonical little-endian via util::wire):
//
//   magic   u32   'S' 'P' 'K' '1'
//   version u8    kFormatVersion
//   method  u8    Method
//   orig    u64   payload bytes
//   chunks  u64   CDC chunk count
//   uniques u64   unique chunk count
//   ustream u64   unique chunk stream bytes
//   lz      u64   LZ token stream bytes (0 unless method == kLzRc)
//   payload blob  encoded unique stream (per method)
//   refs    chunks x u32     unique-table index per chunk, in order
//   lens    uniques x u32    unique chunk lengths, in first-seen order
//   digest  32 bytes         SHA-256 of the original payload
//
// The final digest check is what guarantees kCorrupted-never-garbage for
// damage the structure checks cannot see: whatever a decoder produces,
// only the original payload hashes to the recorded digest.

constexpr std::uint32_t kMagic = 0x314b5053u;  // "SPK1"

Status corrupt(const std::string& what) {
  return {ErrorCode::kCorrupted, "pack container: " + what};
}

}  // namespace

Result<std::vector<std::uint8_t>> pack(std::span<const std::uint8_t> data,
                                       const PackConfig& config,
                                       PackStats* stats) {
  STASH_RETURN_IF_ERROR(config.validate());

  // Stage 1 + 2: content-defined chunks, deduped on SHA-256.
  const std::vector<ChunkSpan> spans = chunk_spans(data, config.chunker);
  std::map<crypto::Digest256, std::uint32_t> index;
  std::vector<std::uint32_t> refs;
  std::vector<std::uint32_t> lens;
  std::vector<std::uint8_t> ustream;
  refs.reserve(spans.size());
  for (const ChunkSpan& span : spans) {
    const auto piece = data.subspan(span.offset, span.size);
    const crypto::Digest256 digest = crypto::Sha256::hash(piece);
    const auto [it, inserted] =
        index.emplace(digest, static_cast<std::uint32_t>(lens.size()));
    if (inserted) {
      lens.push_back(static_cast<std::uint32_t>(piece.size()));
      ustream.insert(ustream.end(), piece.begin(), piece.end());
    }
    refs.push_back(it->second);
  }

  // Stage 3: entropy-code the unique stream; keep the smallest encoding.
  const std::vector<std::uint8_t> lz = lz_compress(ustream);
  const std::vector<std::uint8_t> lzrc = rc_compress(lz);
  Method method = Method::kStored;
  const std::vector<std::uint8_t>* payload = &ustream;
  if (lz.size() < payload->size()) {
    method = Method::kLz;
    payload = &lz;
  }
  if (lzrc.size() < payload->size()) {
    method = Method::kLzRc;
    payload = &lzrc;
  }

  std::vector<std::uint8_t> out;
  out.reserve(payload->size() + refs.size() * 4 + lens.size() * 4 + 96);
  ByteWriter w(out);
  w.u32(kMagic);
  w.u8(kFormatVersion);
  w.u8(static_cast<std::uint8_t>(method));
  w.u64(data.size());
  w.u64(refs.size());
  w.u64(lens.size());
  w.u64(ustream.size());
  w.u64(method == Method::kLzRc ? lz.size() : 0);
  w.blob(*payload);
  for (const std::uint32_t r : refs) w.u32(r);
  for (const std::uint32_t l : lens) w.u32(l);
  const crypto::Digest256 digest = crypto::Sha256::hash(data);
  w.raw(digest);

  if (stats != nullptr) {
    stats->logical_bytes = data.size();
    stats->packed_bytes = out.size();
    stats->chunks = refs.size();
    stats->unique_chunks = lens.size();
    stats->unique_bytes = ustream.size();
    stats->method = static_cast<std::uint8_t>(method);
  }
  return out;
}

namespace {

struct Header {
  std::uint8_t version = 0;
  std::uint8_t method = 0;
  std::uint64_t orig = 0;
  std::uint64_t chunks = 0;
  std::uint64_t uniques = 0;
  std::uint64_t ustream = 0;
  std::uint64_t lz = 0;
};

/// Parse and sanity-check the fixed header.  `r` is left at the payload
/// blob on success.
Status read_header(ByteReader& r, std::size_t container_size, Header& h) {
  std::uint32_t magic = 0;
  STASH_RETURN_IF_ERROR(r.u32(magic));
  if (magic != kMagic) return corrupt("bad magic");
  STASH_RETURN_IF_ERROR(r.u8(h.version));
  STASH_RETURN_IF_ERROR(r.u8(h.method));
  STASH_RETURN_IF_ERROR(r.u64(h.orig));
  STASH_RETURN_IF_ERROR(r.u64(h.chunks));
  STASH_RETURN_IF_ERROR(r.u64(h.uniques));
  STASH_RETURN_IF_ERROR(r.u64(h.ustream));
  STASH_RETURN_IF_ERROR(r.u64(h.lz));
  if (h.version == 0 || h.version > kFormatVersion) {
    // A well-formed container from a newer writer is an unsupported
    // format, not corruption: a peer that negotiated versions correctly
    // never sees this.
    return {ErrorCode::kUnsupported,
            "pack container format v" + std::to_string(h.version) +
                " is newer than this build (v" +
                std::to_string(kFormatVersion) + ")"};
  }
  if (h.method > static_cast<std::uint8_t>(Method::kLzRc)) {
    return corrupt("unknown payload method");
  }
  // Structural plausibility before any allocation is sized from the
  // header: one corrupt u64 must not make us reserve gigabytes.
  if (h.uniques > h.chunks) return corrupt("more unique chunks than chunks");
  if ((h.chunks == 0) != (h.orig == 0) || (h.uniques == 0) != (h.orig == 0)) {
    return corrupt("chunk counts inconsistent with payload size");
  }
  if (h.ustream > h.orig || h.chunks > container_size ||
      h.uniques > container_size || h.orig > (h.chunks + 1) * (1ull << 32)) {
    return corrupt("implausible header sizes");
  }
  // The LZ stream can only mildly expand the unique stream, so a header
  // announcing much more is damage — bound it before it sizes a buffer.
  if (h.lz > 2 * h.ustream + 64) return corrupt("implausible LZ stream size");
  return Status::ok();
}

}  // namespace

Result<PackStats> inspect(std::span<const std::uint8_t> container) {
  ByteReader r(container);
  Header h;
  STASH_RETURN_IF_ERROR(read_header(r, container.size(), h));
  std::uint64_t payload_len = 0;
  STASH_RETURN_IF_ERROR(r.u64(payload_len));
  if (payload_len > r.remaining()) return corrupt("payload truncated");
  PackStats stats;
  stats.logical_bytes = h.orig;
  stats.packed_bytes = container.size();
  stats.chunks = h.chunks;
  stats.unique_chunks = h.uniques;
  stats.unique_bytes = h.ustream;
  stats.method = h.method;
  return stats;
}

Result<std::vector<std::uint8_t>> unpack(
    std::span<const std::uint8_t> container) {
  ByteReader r(container);
  Header h;
  STASH_RETURN_IF_ERROR(read_header(r, container.size(), h));

  std::vector<std::uint8_t> payload;
  STASH_RETURN_IF_ERROR(r.blob(payload));
  if (r.remaining() != (h.chunks + h.uniques) * 4 + 32) {
    return corrupt("ref/length tables truncated");
  }
  std::vector<std::uint32_t> refs(h.chunks);
  for (auto& v : refs) STASH_RETURN_IF_ERROR(r.u32(v));
  std::vector<std::uint32_t> lens(h.uniques);
  for (auto& v : lens) STASH_RETURN_IF_ERROR(r.u32(v));
  crypto::Digest256 digest{};
  STASH_RETURN_IF_ERROR(r.raw(digest));
  STASH_RETURN_IF_ERROR(r.expect_exhausted());

  // Decode the unique chunk stream.
  std::vector<std::uint8_t> ustream;
  switch (static_cast<Method>(h.method)) {
    case Method::kStored:
      ustream = std::move(payload);
      break;
    case Method::kLz: {
      auto lz = lz_decompress(payload, h.ustream);
      STASH_RETURN_IF_ERROR(lz.status());
      ustream = std::move(lz).take();
      break;
    }
    case Method::kLzRc: {
      // The RC layer cannot fail structurally (a truncated stream decodes
      // to wrong bytes, bounded by h.lz); the LZ layer and the final
      // digest catch what it decodes wrongly.
      auto lz = lz_decompress(
          rc_decompress(payload, static_cast<std::size_t>(h.lz)), h.ustream);
      STASH_RETURN_IF_ERROR(lz.status());
      ustream = std::move(lz).take();
      break;
    }
  }
  if (ustream.size() != h.ustream) return corrupt("unique stream size");

  // Slice unique chunks, then reassemble by reference.
  std::vector<std::pair<std::size_t, std::size_t>> uniq(h.uniques);
  std::size_t off = 0;
  for (std::size_t i = 0; i < lens.size(); ++i) {
    if (lens[i] > ustream.size() - off) return corrupt("chunk lengths");
    uniq[i] = {off, lens[i]};
    off += lens[i];
  }
  if (off != ustream.size()) return corrupt("chunk lengths do not cover");
  std::vector<std::uint8_t> out;
  out.reserve(h.orig);
  for (const std::uint32_t ref : refs) {
    if (ref >= uniq.size()) return corrupt("chunk ref out of range");
    const auto [uoff, ulen] = uniq[ref];
    if (out.size() + ulen > h.orig) return corrupt("reassembly overflow");
    out.insert(out.end(), ustream.begin() + static_cast<std::ptrdiff_t>(uoff),
               ustream.begin() + static_cast<std::ptrdiff_t>(uoff + ulen));
  }
  if (out.size() != h.orig) return corrupt("reassembled size mismatch");

  // The never-garbage gate: whatever the damage, only the original bytes
  // hash to the original digest.
  if (crypto::Sha256::hash(out) != digest) {
    return corrupt("payload digest mismatch");
  }
  return out;
}

}  // namespace stash::pack
