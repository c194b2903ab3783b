/**
 * @file
 * Tests for the key=value configuration layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cpu/l0_cache.hh"
#include "sim/config_parser.hh"
#include "sim/system.hh"

using namespace mtlbsim;

TEST(ConfigParserTest, DefaultsArePaperMachine)
{
    ConfigParser parser;
    const SystemConfig &c = parser.config();
    EXPECT_EQ(c.tlbEntries, 96u);
    EXPECT_TRUE(c.mtlbEnabled);
    EXPECT_EQ(c.mtlb.numEntries, 128u);
    EXPECT_EQ(c.mtlb.associativity, 2u);
    EXPECT_EQ(c.cache.sizeBytes, 512u * 1024);
}

TEST(ConfigParserTest, SetIndividualKeys)
{
    ConfigParser parser;
    parser.set("tlb.entries", "64");
    parser.set("mtlb.enabled", "false");
    parser.set("mem.installed_mb", "128");
    parser.set("cache.size_kb", "256");
    EXPECT_EQ(parser.config().tlbEntries, 64u);
    EXPECT_FALSE(parser.config().mtlbEnabled);
    EXPECT_EQ(parser.config().installedBytes, Addr{128} << 20);
    EXPECT_EQ(parser.config().cache.sizeBytes, Addr{256} << 10);
}

TEST(ConfigParserTest, L0EntriesKey)
{
    ConfigParser parser;
    parser.set("cpu.l0_entries", "1024");
    EXPECT_EQ(parser.config().cpu.l0Entries, 1024u);
    parser.set("cpu.l0_entries", "0");
    EXPECT_EQ(parser.config().cpu.l0Entries, 0u);
}

TEST(ConfigParserTest, BooleanSpellings)
{
    ConfigParser parser;
    for (const char *t : {"true", "1", "yes", "on", "TRUE", "On"}) {
        parser.set("mtlb.enabled", t);
        EXPECT_TRUE(parser.config().mtlbEnabled) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "False"}) {
        parser.set("mtlb.enabled", f);
        EXPECT_FALSE(parser.config().mtlbEnabled) << f;
    }
}

TEST(ConfigParserTest, UnknownKeyIsFatal)
{
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entriess", "64"), FatalError);
    EXPECT_THROW(parser.set("", "64"), FatalError);
}

TEST(ConfigParserTest, BadValuesAreFatal)
{
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entries", "many"), FatalError);
    EXPECT_THROW(parser.set("tlb.entries", "64x"), FatalError);
    EXPECT_THROW(parser.set("mtlb.enabled", "maybe"), FatalError);
}

TEST(ConfigParserTest, NegativeUnsignedIsFatal)
{
    // std::stoull would wrap "-5" to 2^64 - 5 (4294967291 once cast
    // to 32 bits), and the TLB would then try to allocate that many
    // entries.
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entries", "-5"), FatalError);
    EXPECT_THROW(parser.set("tlb.entries", " -5"), FatalError);
    EXPECT_THROW(parser.set("kernel.frame_seed", "-1"), FatalError);
    EXPECT_EQ(parser.config().tlbEntries, 96u);
}

TEST(ConfigParserTest, OutOfRange32BitValueIsFatal)
{
    ConfigParser parser;
    EXPECT_THROW(parser.set("tlb.entries", "4294967296"), FatalError);
    EXPECT_THROW(parser.set("cpu.l0_entries", "4294967296"), FatalError);
    EXPECT_THROW(parser.set("cores", "18446744073709551617"), FatalError);
    parser.set("mtlb.assoc", "4294967295");
    EXPECT_EQ(parser.config().mtlb.associativity, 4294967295u);
    // 64-bit keys still take the full range.
    parser.set("kernel.frame_seed", "4294967296");
    EXPECT_EQ(parser.config().kernel.frameSeed, 4294967296u);
}

TEST(ConfigParserTest, OversizedTlbFailsAtConstruction)
{
    // In range for the parser, but the TLB's index could not be
    // bounded: the machine must refuse to build instead of
    // allocating without bound.
    ConfigParser parser;
    parser.set("tlb.entries", "4294967295");
    EXPECT_THROW(System sys(parser.config()), FatalError);
}

TEST(ConfigParserTest, OversizedL0FailsBeforeAllocating)
{
    // A power of two the parser accepts, but 2^31 entries would
    // end in std::bad_alloc: the machine must refuse with a
    // diagnostic naming the key instead.
    ConfigParser parser;
    parser.set("cpu.l0_entries", "2147483648");
    try {
        System sys(parser.config());
        ADD_FAILURE() << "an oversized L0 was built";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "config key 'cpu.l0_entries'"),
                  std::string::npos)
            << e.what();
    }
    parser.set("cpu.l0_entries",
               std::to_string(L0TranslationCache::maxEntries));
    EXPECT_NO_THROW(System sys(parser.config()));
}

TEST(ConfigParserTest, StreamWithCommentsAndBlanks)
{
    std::istringstream in(R"(
# the paper's sensitivity sweep point
mtlb.entries = 256     # doubled
mtlb.assoc   = 4

tlb.entries=128
)");
    ConfigParser parser;
    parser.parseStream(in);
    EXPECT_EQ(parser.config().mtlb.numEntries, 256u);
    EXPECT_EQ(parser.config().mtlb.associativity, 4u);
    EXPECT_EQ(parser.config().tlbEntries, 128u);
}

TEST(ConfigParserTest, MalformedLineIsFatal)
{
    std::istringstream in("tlb.entries 96\n");
    ConfigParser parser;
    EXPECT_THROW(parser.parseStream(in), FatalError);
}

TEST(ConfigParserTest, ParseArgsSeparatesPositionals)
{
    const char *argv[] = {"prog", "em3d", "tlb.entries=64", "0.5",
                          "stream_buffers.enabled=true"};
    ConfigParser parser;
    const auto pos =
        parser.parseArgs(5, const_cast<char **>(argv));
    ASSERT_EQ(pos.size(), 2u);
    EXPECT_EQ(pos[0], "em3d");
    EXPECT_EQ(pos[1], "0.5");
    EXPECT_EQ(parser.config().tlbEntries, 64u);
    EXPECT_TRUE(parser.config().streamBuffers.enabled);
}

TEST(ConfigParserTest, KnownKeysCoverEverySection)
{
    const auto keys = ConfigParser::knownKeys();
    EXPECT_GE(keys.size(), 20u);
    auto has = [&](const std::string &k) {
        return std::find(keys.begin(), keys.end(), k) != keys.end();
    };
    EXPECT_TRUE(has("tlb.entries"));
    EXPECT_TRUE(has("mtlb.assoc"));
    EXPECT_TRUE(has("kernel.online_promotion"));
    EXPECT_TRUE(has("stream_buffers.depth"));
    EXPECT_TRUE(has("dram.banks"));
}

TEST(ConfigParserTest, ParsedConfigBuildsAWorkingSystem)
{
    std::istringstream in(R"(
tlb.entries = 64
mtlb.entries = 64
mtlb.assoc = 1
mem.installed_mb = 64
kernel.online_promotion = true
)");
    ConfigParser parser;
    parser.parseStream(in);
    System sys(parser.config());
    sys.kernel().addressSpace().addRegion("d", 0x10000000, 1 << 20,
                                          {});
    sys.cpu().load(0x10000000);
    EXPECT_GT(sys.totalCycles(), 0u);
}

TEST(ConfigParserTest, FileRoundTrip)
{
    const auto path = (std::filesystem::temp_directory_path() /
                       "mtlbsim_cfg_test.cfg")
                          .string();
    {
        std::ofstream out(path);
        out << "mtlb.writeback_bits = true\n";
        out << "kernel.promotion_threshold = 12345\n";
    }
    ConfigParser parser;
    parser.parseFile(path);
    EXPECT_TRUE(parser.config().mtlb.writeBackAccessBits);
    EXPECT_EQ(parser.config().kernel.promotionThresholdCycles,
              12345u);
    std::remove(path.c_str());
    EXPECT_THROW(parser.parseFile("/nonexistent.cfg"), FatalError);
}
