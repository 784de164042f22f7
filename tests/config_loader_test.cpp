#include <gtest/gtest.h>

#include <sstream>

#include "core/config_loader.hpp"

namespace cbde::core {
namespace {

LoadedConfig parse(const std::string& text) {
  std::istringstream in(text);
  return load_config(in);
}

TEST(ConfigLoader, ExampleConfigParses) {
  const auto config = parse(example_config());
  EXPECT_TRUE(config.server.anonymize);
  EXPECT_TRUE(config.server.compress_deltas);
  EXPECT_DOUBLE_EQ(config.server.selector.sample_prob, 0.2);
  EXPECT_EQ(config.server.selector.max_samples, 8u);
  EXPECT_EQ(config.server.grouping.max_tries, 8u);
  EXPECT_DOUBLE_EQ(config.server.grouping.popular_fraction, 0.5);
  EXPECT_EQ(config.server.rebase_timeout, 120 * util::kSecond);
  EXPECT_EQ(config.server.anonymizer.min_common, 2u);
  EXPECT_EQ(config.server.anonymizer.required_docs, 5u);
  EXPECT_FALSE(config.disk_store.has_value());
  EXPECT_TRUE(config.rules.has_rule("www.foo.com"));
  ASSERT_EQ(config.manual_classes.size(), 1u);
  EXPECT_EQ(config.manual_classes[0].first, "www.adhoc.example");
  EXPECT_EQ(config.manual_classes[0].second, "specials");
}

TEST(ConfigLoader, CommentsAndBlankLinesIgnored) {
  const auto config = parse(
      "# leading comment\n"
      "\n"
      "[delta-server]\n"
      "   # indented comment\n"
      "max-tries = 3\n");
  EXPECT_EQ(config.server.grouping.max_tries, 3u);
}

TEST(ConfigLoader, DiskStoreParsed) {
  const auto config = parse("[delta-server]\nbase-store = disk:/tmp/cbde-bases\n");
  ASSERT_TRUE(config.disk_store.has_value());
  EXPECT_EQ(config.disk_store->string(), "/tmp/cbde-bases");
}

TEST(ConfigLoader, ServerShardsParsed) {
  const auto config = parse("[delta-server]\nserver-shards = 4\n");
  EXPECT_EQ(config.server.shards, 4u);
  EXPECT_EQ(parse("[delta-server]\nmax-tries = 3\n").server.shards, 1u);  // default
  EXPECT_THROW(parse("[delta-server]\nserver-shards = 0\n"), ConfigError);
}

TEST(ConfigLoader, ShardedDiskStoreGetsPerShardDirectories) {
  const auto config = parse(
      "[delta-server]\n"
      "server-shards = 2\n"
      "base-store = disk:/tmp/cbde-shard-test\n");
  ASSERT_TRUE(static_cast<bool>(config.server.store_factory));
  // Each shard must own a distinct directory (one DiskBaseStore per dir).
  const auto s0 = config.server.store_factory(0);
  const auto s1 = config.server.store_factory(1);
  const auto* d0 = dynamic_cast<const DiskBaseStore*>(s0.get());
  const auto* d1 = dynamic_cast<const DiskBaseStore*>(s1.get());
  ASSERT_NE(d0, nullptr);
  ASSERT_NE(d1, nullptr);
  EXPECT_NE(d0->directory(), d1->directory());
  std::filesystem::remove_all("/tmp/cbde-shard-test");
}

TEST(ConfigLoader, PartitionRuleActuallyWorks) {
  const auto config = parse(
      "[site www.shop.example]\n"
      "partition = ^/x/([a-z]+)/(.*)$\n");
  const auto parts = config.rules.partition(http::parse_url("www.shop.example/x/tv/7"));
  EXPECT_EQ(parts.hint_part, "tv");
  EXPECT_EQ(parts.rest, "7");
}

TEST(ConfigLoader, UnknownKeysRejectedWithLineNumber) {
  try {
    parse("[delta-server]\nmax-tires = 8\n");  // typo
    FAIL() << "typo accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("max-tires"), std::string::npos);
  }
}

TEST(ConfigLoader, MalformedInputsRejected) {
  EXPECT_THROW(parse("max-tries = 8\n"), ConfigError);               // key before section
  EXPECT_THROW(parse("[delta-server\n"), ConfigError);               // unterminated
  EXPECT_THROW(parse("[mystery]\n"), ConfigError);                   // unknown section
  EXPECT_THROW(parse("[site ]\n"), ConfigError);                     // empty host
  EXPECT_THROW(parse("[delta-server]\nmax-tries 8\n"), ConfigError); // no '='
  EXPECT_THROW(parse("[delta-server]\nmax-tries = eight\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\nanonymize = maybe\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\nsample-prob = 0.2x\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\nbase-store = ftp:/x\n"), ConfigError);
  EXPECT_THROW(parse("[site www.x.com]\npartition = ([unclosed\n"), ConfigError);
  // Empty pattern must fail with the loader's typed error, not trip
  // PartitionRule's precondition mid-construction.
  EXPECT_THROW(parse("[site www.x.com]\npartition =\n"), ConfigError);
  EXPECT_THROW(parse("[site www.x.com]\npartition =   \n"), ConfigError);
}

TEST(ConfigLoader, CrossFieldValidation) {
  EXPECT_THROW(parse("[delta-server]\nanonymizer-m = 9\nanonymizer-n = 4\n"),
               ConfigError);
}

TEST(ConfigLoader, DeltaParamsParsed) {
  const auto config = parse(
      "[delta-server]\n"
      "delta-key-len = 8\n"
      "delta-index-step = 2\n"
      "delta-max-chain = 16\n"
      "delta-min-match = 24\n");
  EXPECT_EQ(config.server.transmit_params.key_len, 8u);
  EXPECT_EQ(config.server.transmit_params.index_step, 2u);
  EXPECT_EQ(config.server.transmit_params.max_chain, 16u);
  EXPECT_EQ(config.server.transmit_params.min_match, 24u);
}

TEST(ConfigLoader, DeltaCodecSelection) {
  using Codec = delta::DeltaParams::Codec;
  EXPECT_EQ(parse("[delta-server]\n").server.transmit_params.codec,
            Codec::kCorrecting);  // the default
  const auto chain = parse("[delta-server]\ndelta-codec = hash-chain\n");
  EXPECT_EQ(chain.server.transmit_params.codec, Codec::kHashChain);
  EXPECT_EQ(chain.server.transmit_params.key_len, 4u);  // full() preset loaded

  const auto one = parse("[delta-server]\ndelta-codec = one-pass\n");
  EXPECT_EQ(one.server.transmit_params.codec, Codec::kOnePass);
  EXPECT_EQ(one.server.transmit_params.key_len, 16u);  // preset loaded

  const auto corr = parse("[delta-server]\ndelta-codec = correcting\n");
  EXPECT_EQ(corr.server.transmit_params.codec, Codec::kCorrecting);
  EXPECT_TRUE(corr.server.transmit_params.backward_extend);

  // Selecting a codec loads its preset; later delta-* lines still override.
  const auto tuned = parse(
      "[delta-server]\ndelta-codec = one-pass\ndelta-key-len = 8\n");
  EXPECT_EQ(tuned.server.transmit_params.codec, Codec::kOnePass);
  EXPECT_EQ(tuned.server.transmit_params.key_len, 8u);

  EXPECT_THROW(parse("[delta-server]\ndelta-codec = vdelta\n"), ConfigError);
}

TEST(ConfigLoader, DeltaParamsRangeGuardedAtLoadTime) {
  // Out-of-range delta params must surface as typed ConfigErrors when the
  // config loads, not as precondition failures mid-request.
  EXPECT_THROW(parse("[delta-server]\ndelta-key-len = 1\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\ndelta-key-len = 128\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\ndelta-index-step = 0\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\ndelta-max-chain = 0\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\ndelta-min-match = 2\n"), ConfigError);  // < key_len
  EXPECT_THROW(parse("[delta-server]\ndelta-min-match = 10000\n"), ConfigError);
  try {
    parse("[delta-server]\ndelta-max-chain = 0\n");
    FAIL() << "bad delta params accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("transmit"), std::string::npos);
  }
}

TEST(ConfigLoader, LoadedConfigDrivesARealServer) {
  auto config = parse(
      "[delta-server]\n"
      "anonymize = false\n"
      "max-tries = 4\n"
      "[site www.example.com]\n"
      "partition = ^/([^/?]+)\\?(.*)$\n");
  DeltaServer server(config.server, std::move(config.rules), config.make_store());
  // Serve two similar documents; the second should come back as a delta.
  const auto url1 = http::parse_url("www.example.com/laptops?id=1");
  const auto url2 = http::parse_url("www.example.com/laptops?id=2");
  const auto doc1 = util::to_bytes(std::string(20000, 'd') + "one");
  const auto doc2 = util::to_bytes(std::string(20000, 'd') + "two");
  server.serve(1, url1, util::as_view(doc1), 0);
  const auto resp = server.serve(2, url2, util::as_view(doc2), util::kSecond);
  EXPECT_EQ(resp.mode, ServedResponse::Mode::kDelta);
}

TEST(ConfigLoader, MissingFileRejected) {
  EXPECT_THROW(load_config_file("/nonexistent/cbde.conf"), ConfigError);
}

}  // namespace
}  // namespace cbde::core
