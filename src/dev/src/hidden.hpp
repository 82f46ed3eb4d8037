#pragma once
// The device's hidden object (paper §9.2), internal to stash_dev.
//
// One way in, one way out.  store() packs the payload (stash::pack),
// splits the container into per-chip segments in chip order, and replaces
// the previous object with a two-phase StegoVolume transaction across the
// chips.  load() reassembles the segments, checks the generation digest
// and the segment format, and unpacks.  describe() reports the stored
// object and the headroom of a replacement, computed by the same split
// planner store() uses.
//
// Stateless functions over the device's volumes: StashDevice calls them
// under its lock from dispatch() and hidden_info(), and they count into
// its per-instance counters.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/pack/pack.hpp"
#include "stash/stego/volume.hpp"
#include "stash/telemetry/counter_table.hpp"
#include "stash/util/status.hpp"

namespace stash::dev::hidden {

/// Every chip's volume, in chip order.
using Volumes = std::span<const std::unique_ptr<stego::StegoVolume>>;
using Counters = telemetry::CounterTable<DeviceStats>;

/// Pack `data` and make it the hidden object.  kNoSpace before any chip is
/// touched when the container does not fit; on a failure partway through,
/// every prepared segment is aborted and the previous object stays
/// loadable.
Status store(Volumes volumes, std::span<const std::uint8_t> data,
             const pack::PackConfig& config, Counters& counters);

/// The stored payload, unpacked.  kNotFound without a hidden object under
/// this key; kCorrupted for a segment set that does not reassemble into
/// one generation; kUnsupported for a segment format this build does not
/// write.
Result<std::vector<std::uint8_t>> load(Volumes volumes, Counters& counters);

/// Describe the stored object (same errors as load) and the hidden bytes a
/// replacement store could take right now.
Result<HiddenInfo> describe(Volumes volumes, Counters& counters);

}  // namespace stash::dev::hidden
