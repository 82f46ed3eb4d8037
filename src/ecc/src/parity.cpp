#include "stash/ecc/parity.hpp"

#include <stdexcept>

namespace stash::ecc {

std::vector<std::uint8_t> ParityStripe::compute(
    std::span<const std::vector<std::uint8_t>> buffers) {
  if (buffers.empty()) throw std::invalid_argument("ParityStripe: no buffers");
  std::vector<std::uint8_t> parity(buffers.front().size(), 0);
  for (const auto& buf : buffers) {
    if (buf.size() != parity.size()) {
      throw std::invalid_argument("ParityStripe: buffer size mismatch");
    }
    for (std::size_t i = 0; i < buf.size(); ++i) parity[i] ^= buf[i];
  }
  return parity;
}

std::vector<std::uint8_t> ParityStripe::reconstruct(
    std::span<const std::vector<std::uint8_t>> buffers,
    std::span<const std::uint8_t> parity, std::size_t missing_index) {
  if (missing_index >= buffers.size()) {
    throw std::invalid_argument("ParityStripe: bad missing index");
  }
  std::vector<std::uint8_t> out(parity.begin(), parity.end());
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    if (b == missing_index) continue;
    if (buffers[b].size() != out.size()) {
      throw std::invalid_argument("ParityStripe: buffer size mismatch");
    }
    for (std::size_t i = 0; i < out.size(); ++i) out[i] ^= buffers[b][i];
  }
  return out;
}

}  // namespace stash::ecc
