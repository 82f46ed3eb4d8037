// Counter-table tests: each layer's counter list (STASH_DEV_COUNTERS,
// STASH_FTL_COUNTERS, STASH_NET_COUNTERS) is the one source of its stats
// struct, stats_json() keys and the net stats payload; the counts are
// per instance and stay on in every build; and the name/value stats payload
// decodes strictly.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/ftl/ftl.hpp"
#include "stash/net/protocol.hpp"
#include "stash/net/server.hpp"
#include "stash/telemetry/counter_table.hpp"
#include "stash/util/wire.hpp"

namespace stash {
namespace {

using util::ErrorCode;

crypto::HidingKey test_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x6b);
  return crypto::HidingKey(raw);
}

/// Every object key of a flat-or-nested JSON string, in order of appearance.
std::vector<std::string> json_keys(const std::string& json) {
  std::vector<std::string> keys;
  for (std::size_t i = json.find('"'); i != std::string::npos;
       i = json.find('"', i + 1)) {
    const std::size_t end = json.find('"', i + 1);
    if (json.compare(end + 1, 1, ":") == 0) {
      keys.push_back(json.substr(i + 1, end - i - 1));
    }
    i = end;
  }
  return keys;
}

template <typename Stats>
std::vector<std::string> table_names() {
  return {Stats::kNames.begin(), Stats::kNames.end()};
}

TEST(StatsTable, DevJsonKeysAreTheTable) {
  dev::StashDevice dev(dev::DeviceConfig{}, test_key());
  EXPECT_EQ(json_keys(dev.stats_json()), table_names<dev::DeviceStats>());
}

TEST(StatsTable, FtlJsonKeysAreTheTable) {
  nand::FlashChip chip(nand::Geometry::tiny(), nand::NoiseModel::vendor_a(), 7);
  ftl::PageMappedFtl ftl(chip);
  std::string json;
  telemetry::append_counters_json(ftl.stats_snapshot(), json);
  EXPECT_EQ(json_keys("{" + json + "}"), table_names<ftl::FtlStats>());
}

TEST(StatsTable, NetJsonKeysAreTheTable) {
  dev::StashDevice dev(dev::DeviceConfig{}, test_key());
  net::Server server(dev);
  std::vector<std::string> expected = table_names<net::NetStats>();
  expected.push_back("ops");
  for (std::size_t i = 0; i < net::kOpCount; ++i) {
    expected.push_back(net::op_name(static_cast<net::OpCode>(i + 1)));
  }
  EXPECT_EQ(json_keys(server.stats_json()), expected);
}

TEST(StatsTable, TwoDevicesInOneProcessCountApart) {
  // The counts are per instance: a second device in the same process
  // neither sees nor disturbs the first one's.
  dev::StashDevice a(dev::DeviceConfig{}, test_key());
  dev::StashDevice b(dev::DeviceConfig{}, test_key());
  const std::vector<std::uint8_t> page(a.page_bits(), 1);
  for (std::uint64_t lpn = 0; lpn < 3; ++lpn) {
    ASSERT_TRUE(a.write(lpn, page).is_ok());
  }
  ASSERT_TRUE(b.write(0, page).is_ok());
  ASSERT_TRUE(b.flush().is_ok());
  EXPECT_EQ(a.stats_snapshot().writes, 3u);
  EXPECT_EQ(a.stats_snapshot().flushes, 0u);
  EXPECT_EQ(b.stats_snapshot().writes, 1u);
  EXPECT_EQ(b.stats_snapshot().flushes, 1u);
}

TEST(StatsTable, DisabledCacheCountsNoMisses) {
  dev::DeviceConfig config;
  config.read_cache_pages = 0;
  dev::StashDevice dev(config, test_key());
  const std::vector<std::uint8_t> page(dev.page_bits(), 1);
  ASSERT_TRUE(dev.write(0, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dev.read(0).is_ok());
  const dev::DeviceStats stats = dev.stats_snapshot();
  EXPECT_EQ(stats.reads, 4u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);

  // Control: the same reads on an enabled cache miss once, then hit.
  dev::StashDevice cached(dev::DeviceConfig{}, test_key());
  ASSERT_TRUE(cached.write(0, page).is_ok());
  ASSERT_TRUE(cached.flush().is_ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(cached.read(0).is_ok());
  EXPECT_EQ(cached.stats_snapshot().cache_misses, 1u);
  EXPECT_EQ(cached.stats_snapshot().cache_hits, 3u);
}

template <typename Stats>
std::vector<std::uint64_t> values_of(const Stats& stats) {
  std::vector<std::uint64_t> out;
  Stats::for_each(stats,
                  [&](std::string_view, std::uint64_t v) { out.push_back(v); });
  return out;
}

// One case per counter of every layer: the field's index in its table, and
// a check run against it.
struct FieldCase {
  std::string layer;
  std::string name;
  std::size_t index;
  void (*check)(std::size_t index);
};

template <typename Stats>
std::vector<FieldCase> field_cases(void (*check)(std::size_t)) {
  std::vector<FieldCase> cases;
  for (std::size_t i = 0; i < Stats::kNames.size(); ++i) {
    cases.push_back({std::string(Stats::kLayer), std::string(Stats::kNames[i]),
                     i, check});
  }
  return cases;
}

std::string field_case_name(const ::testing::TestParamInfo<FieldCase>& info) {
  return info.param.layer + "_" + info.param.name;
}

/// add() on field `index` moves that field of the snapshot and nothing
/// else: the enum, the names and the struct fields all line up.
template <typename Stats>
void check_add_moves_only_its_field(std::size_t index) {
  telemetry::CounterTable<Stats> table;
  table.add(static_cast<typename Stats::Field>(index), 5);
  table.add(static_cast<typename Stats::Field>(index));
  std::vector<std::uint64_t> expected(Stats::kNames.size(), 0);
  expected[index] = 6;
  EXPECT_EQ(values_of(table.snapshot()), expected);
}

class CounterField : public ::testing::TestWithParam<FieldCase> {};

TEST_P(CounterField, AddMovesOnlyItsField) {
  GetParam().check(GetParam().index);
}

std::vector<FieldCase> all_add_cases() {
  std::vector<FieldCase> cases = field_cases<dev::DeviceStats>(
      &check_add_moves_only_its_field<dev::DeviceStats>);
  for (auto& c : field_cases<ftl::FtlStats>(
           &check_add_moves_only_its_field<ftl::FtlStats>)) {
    cases.push_back(c);
  }
  for (auto& c : field_cases<net::NetStats>(
           &check_add_moves_only_its_field<net::NetStats>)) {
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllLayers, CounterField,
                         ::testing::ValuesIn(all_add_cases()),
                         field_case_name);

dev::DeviceStats distinct_stats() {
  dev::DeviceStats stats;
  std::uint64_t v = 1;
  dev::DeviceStats::for_each(stats, [&](std::string_view, std::uint64_t& f) {
    f = v * 0x0101010101ULL + 7;
    ++v;
  });
  return stats;
}

TEST(StatsWire, DistinctValuesRoundTrip) {
  const dev::DeviceStats sent = distinct_stats();
  std::vector<std::uint8_t> payload;
  net::encode_device_stats(sent, payload);
  dev::DeviceStats got;
  ASSERT_TRUE(net::decode_device_stats(payload, got).is_ok());
  EXPECT_EQ(values_of(got), values_of(sent));
}

TEST(StatsWire, EveryTruncationAndTrailingByteIsCorrupted) {
  std::vector<std::uint8_t> payload;
  net::encode_device_stats(distinct_stats(), payload);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    dev::DeviceStats got;
    EXPECT_EQ(net::decode_device_stats({payload.data(), len}, got).code(),
              ErrorCode::kCorrupted)
        << "truncated to " << len;
  }
  payload.push_back(0);
  dev::DeviceStats got;
  EXPECT_EQ(net::decode_device_stats(payload, got).code(),
            ErrorCode::kCorrupted);
}

std::vector<std::uint8_t> payload_of(
    const std::vector<std::pair<std::string, std::uint64_t>>& entries) {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [name, value] : entries) {
    w.str(name);
    w.u64(value);
  }
  return out;
}

TEST(StatsWire, DuplicateNameIsCorrupted) {
  dev::DeviceStats got;
  EXPECT_EQ(net::decode_device_stats(
                payload_of({{"reads", 1}, {"writes", 2}, {"reads", 3}}), got)
                .code(),
            ErrorCode::kCorrupted);
  EXPECT_EQ(net::decode_device_stats(
                payload_of({{"future", 1}, {"future", 2}}), got)
                .code(),
            ErrorCode::kCorrupted);
}

TEST(StatsWire, UnknownNamesAreSkippedAndMissingNamesReadZero) {
  dev::DeviceStats got = distinct_stats();  // decode must overwrite all
  ASSERT_TRUE(net::decode_device_stats(
                  payload_of({{"reads", 5}, {"a_newer_counter", 9},
                              {"bytes_copied", 11}}),
                  got)
                  .is_ok());
  dev::DeviceStats expected;
  expected.reads = 5;
  expected.bytes_copied = 11;
  EXPECT_EQ(values_of(got), values_of(expected));
}

/// A payload naming only counter `index` decodes into that field alone.
void check_lone_name_decodes_into_its_field(std::size_t index) {
  dev::DeviceStats got = distinct_stats();  // decode must overwrite all
  ASSERT_TRUE(net::decode_device_stats(
                  payload_of({{std::string(dev::DeviceStats::kNames[index]),
                               42}}),
                  got)
                  .is_ok());
  std::vector<std::uint64_t> expected(dev::DeviceStats::kNames.size(), 0);
  expected[index] = 42;
  EXPECT_EQ(values_of(got), expected);
}

class DevWireField : public ::testing::TestWithParam<FieldCase> {};

TEST_P(DevWireField, LoneNameDecodesIntoItsField) {
  GetParam().check(GetParam().index);
}

INSTANTIATE_TEST_SUITE_P(
    Dev, DevWireField,
    ::testing::ValuesIn(field_cases<dev::DeviceStats>(
        &check_lone_name_decodes_into_its_field)),
    field_case_name);

}  // namespace
}  // namespace stash
