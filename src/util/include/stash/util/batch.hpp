#pragma once
// THE batch-result convention for the whole stack (documented once, here;
// every layer re-exports these aliases into its own namespace).
//
// A batch entry point takes N requests and returns N outcomes:
//
//   * result i corresponds to request i, always — batches never reorder,
//     drop, or truncate their result vector;
//   * each slot is an independent util::Result<T> (or util::Status for
//     value-less operations): one request failing does not abort the rest,
//     and the call itself returns normally;
//   * implementations may execute requests in any internal order (grouped
//     by block, fanned across a thread pool) as long as the observable
//     per-request outcome — and, for deterministic layers, the device
//     state — is identical to serial submission-order execution.
//
// Layers that follow this convention: PageMappedFtl::read_batch_into and
// dev::StashDevice::read_batch.  dev::StashDevice's GC pass collects one
// Status per chip into a BatchStatus and reports first_error.

#include <vector>

#include "stash/util/status.hpp"

namespace stash::util {

/// Outcomes of a value-returning batch: slot i holds request i's Result.
template <typename T>
using BatchResult = std::vector<Result<T>>;

/// Outcomes of a value-less batch (the per-chip GC passes): slot i holds
/// request i's Status.
using BatchStatus = std::vector<Status>;

/// First non-OK status of a batch, or OK — for callers that only need a
/// summary verdict out of the per-item convention.
[[nodiscard]] inline Status first_error(const BatchStatus& batch) {
  for (const Status& s : batch) {
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

}  // namespace stash::util
