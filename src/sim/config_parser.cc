#include "sim/config_parser.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "base/logging.hh"

namespace mtlbsim
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

std::uint64_t
parseUnsigned(const std::string &key, const std::string &value)
{
    // std::stoull accepts a sign and negates modulo 2^64, so "-5"
    // would come back as 2^64 - 5.
    const auto first = value.find_first_not_of(" \t");
    fatalIf(first != std::string::npos && value[first] == '-',
            "config key '", key, "': '", value, "' is negative");
    std::size_t pos = 0;
    std::uint64_t result = 0;
    try {
        result = std::stoull(value, &pos);
    } catch (const std::exception &) {
        fatal("config key '", key, "': '", value,
              "' is not an unsigned integer");
    }
    fatalIf(pos != value.size(), "config key '", key,
            "': trailing characters in '", value, "'");
    return result;
}

/** parseUnsigned() for a 32-bit field: out-of-range values are
 *  rejected instead of truncated. */
unsigned
parseUnsigned32(const std::string &key, const std::string &value)
{
    const std::uint64_t result = parseUnsigned(key, value);
    fatalIf(result > std::numeric_limits<unsigned>::max(), "config key '",
            key, "': ", value, " is out of range (max ",
            std::numeric_limits<unsigned>::max(), ")");
    return static_cast<unsigned>(result);
}

bool
parseBool(const std::string &key, const std::string &value)
{
    std::string v = value;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '", key, "': '", value, "' is not a boolean");
}

/** Table of setters keyed by option name. */
using Setter =
    std::function<void(SystemConfig &, const std::string &key,
                       const std::string &value)>;

/** Build the setter table. Constructed on demand instead of cached
 *  in a function-local static: the table is only consulted while
 *  parsing configuration (never on the simulated hot path), and
 *  keeping it off the R6 global-state inventory is worth the
 *  rebuild. */
std::map<std::string, Setter>
makeSetters()
{
    return {
        {"cores",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cores = parseUnsigned32(k, v);
             fatalIf(c.cores == 0, "config key '", k,
                     "': a machine needs at least one core");
         }},
        {"sched.quantum",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.sched.quantum = parseUnsigned(k, v);
         }},
        {"sched.switch_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.sched.switchCycles = parseUnsigned(k, v);
         }},
        {"tlb.entries",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.tlbEntries = parseUnsigned32(k, v);
         }},
        {"mtlb.enabled",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.mtlbEnabled = parseBool(k, v);
         }},
        {"mtlb.entries",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.mtlb.numEntries = parseUnsigned32(k, v);
         }},
        {"mtlb.assoc",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.mtlb.associativity = parseUnsigned32(k, v);
         }},
        {"mtlb.writeback_bits",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.mtlb.writeBackAccessBits = parseBool(k, v);
         }},
        {"mtlb.port_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.mtlb.portOccupancyCycles = parseUnsigned(k, v);
         }},
        {"mem.installed_mb",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.installedBytes = parseUnsigned(k, v) * 1024 * 1024;
         }},
        {"mem.shadow_mb",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.shadow.size = parseUnsigned(k, v) * 1024 * 1024;
         }},
        {"mem.phys_addr_bits",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.physAddrBits = parseUnsigned32(k, v);
         }},
        {"cache.size_kb",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cache.sizeBytes = parseUnsigned(k, v) * 1024;
         }},
        {"cache.virtually_indexed",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cache.virtuallyIndexed = parseBool(k, v);
         }},
        {"dram.row_hit_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.dram.rowHitMmcCycles = parseUnsigned(k, v);
         }},
        {"dram.row_miss_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.dram.rowMissMmcCycles = parseUnsigned(k, v);
         }},
        {"dram.banks",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.dram.numBanks = parseUnsigned32(k, v);
         }},
        {"stream_buffers.enabled",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.streamBuffers.enabled = parseBool(k, v);
         }},
        {"stream_buffers.count",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.streamBuffers.numBuffers = parseUnsigned32(k, v);
         }},
        {"stream_buffers.depth",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.streamBuffers.depth = parseUnsigned32(k, v);
         }},
        {"cpu.load_use_overlap",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cpu.loadUseOverlap = parseUnsigned(k, v);
         }},
        {"cpu.store_buffer",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cpu.storeBuffer = parseBool(k, v);
         }},
        {"cpu.l0_entries",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cpu.l0Entries = parseUnsigned32(k, v);
         }},
        {"cpu.batch_enable",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cpu.batchEnable = parseBool(k, v);
         }},
        {"cpu.batch_window",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.cpu.batchWindow = parseUnsigned32(k, v);
         }},
        {"kernel.superpages",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.superpagesEnabled = parseBool(k, v);
         }},
        {"kernel.all_shadow",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.allShadowMode = parseBool(k, v);
         }},
        {"kernel.online_promotion",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.onlinePromotion = parseBool(k, v);
         }},
        {"kernel.promotion_threshold",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.promotionThresholdCycles = parseUnsigned(k, v);
         }},
        {"kernel.honor_explicit_remap",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.honorExplicitRemap = parseBool(k, v);
         }},
        {"kernel.sbrk_prealloc_kb",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.sbrkPreallocBytes =
                 parseUnsigned(k, v) * 1024;
         }},
        {"kernel.frame_seed",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.frameSeed = parseUnsigned(k, v);
         }},
        {"kernel.ipi_cycles",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.kernel.ipiCycles = parseUnsigned(k, v);
         }},
        {"check.enabled",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.check.enabled = parseBool(k, v);
         }},
        {"check.interval",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.check.interval = parseUnsigned(k, v);
             fatalIf(c.check.interval == 0, "config key '", k,
                     "': audit interval must be non-zero");
         }},
        {"check.panic",
         [](SystemConfig &c, const auto &k, const auto &v) {
             c.check.panicOnViolation = parseBool(k, v);
         }},
    };
}

} // namespace

void
ConfigParser::set(const std::string &key, const std::string &value)
{
    const auto table = makeSetters();
    auto it = table.find(key);
    fatalIf(it == table.end(), "unknown config key '", key,
            "' (see ConfigParser::knownKeys())");
    it->second(config_, key, trim(value));
}

void
ConfigParser::parseStream(std::istream &in)
{
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        fatalIf(eq == std::string::npos, "config line ", line_no,
                ": expected 'key = value', got '", line, "'");
        set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    }
}

void
ConfigParser::parseFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open config file: ", path);
    parseStream(in);
}

std::vector<std::string>
ConfigParser::parseArgs(int argc, char **argv)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
            positional.push_back(token);
            continue;
        }
        set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
    }
    return positional;
}

std::vector<std::string>
ConfigParser::knownKeys()
{
    std::vector<std::string> keys;
    for (const auto &[key, setter] : makeSetters())
        keys.push_back(key);
    return keys;
}

} // namespace mtlbsim
