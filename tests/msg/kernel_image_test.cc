/**
 * @file
 * Pins the assembled image of every kernel the library emits, for
 * every registered model.  Each program is reduced to an FNV-1a 64
 * hash over its words, the name of each word's cost region and its
 * emission kind (symbol names and source lines are left out, so
 * internal labels and comments may change freely).  Any change to an
 * instruction, its order or its region moves the hash.
 *
 * The table covers the TCPNI_EXTRA_MODELS models too, so one table
 * serves both builds.  A registered model with no entry fails: a new
 * model must add its own rows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "msg/kernels.hh"
#include "ni/model_registry.hh"
#include "ni/placement_policy.hh"

using namespace tcpni;
using namespace tcpni::msg;

namespace
{

uint64_t
fnv1a(uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Hash of the assembled image: base, then per word its value, region
 *  name and kind. */
uint64_t
imageHash(const std::string &src)
{
    isa::Program p = assembleKernel(src);
    uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, &p.base, sizeof p.base);
    for (size_t i = 0; i < p.words.size(); ++i) {
        const std::string &region = p.regionNames.at(p.regionOf.at(i));
        auto kind = static_cast<uint8_t>(p.kindOf.at(i));
        h = fnv1a(h, &p.words[i], sizeof p.words[i]);
        h = fnv1a(h, region.c_str(), region.size() + 1);
        h = fnv1a(h, &kind, sizeof kind);
    }
    return h;
}

/** Every program of @p model, keyed "<program>". */
std::vector<std::pair<std::string, std::string>>
programsOf(const ni::Model &model)
{
    std::vector<std::pair<std::string, std::string>> progs;
    for (bool sw : {false, true}) {
        for (bool no_overlap : {false, true}) {
            for (bool coll : {false, true}) {
                std::string name = std::string("handlers") +
                                   (sw ? "-sw" : "") +
                                   (no_overlap ? "-no-overlap" : "") +
                                   (coll ? "-coll" : "");
                progs.emplace_back(
                    name, handlerProgram(model, sw, no_overlap, coll));
            }
        }
    }
    progs.emplace_back("coll-driver", collectiveDriverProgram(model, 4));
    static const Kind kinds[] = {
        Kind::send0, Kind::send1, Kind::send2, Kind::read, Kind::write,
        Kind::pread, Kind::pwrite,
    };
    for (Kind k : kinds)
        progs.emplace_back("send-" + kindName(k), senderProgram(model, k, 4));
    if (model.policy().handlersOnNi())
        progs.emplace_back("host-proxy", hostProxyProgram(model));
    return progs;
}

/** "<model short name>/<program>" -> image hash. */
const std::map<std::string, uint64_t> &
pinned()
{
    static const std::map<std::string, uint64_t> table = {
        {"reg-opt/handlers", 0x643a7f322a2de886ull},
        {"reg-opt/handlers-coll", 0xb622d84590acd39cull},
        {"reg-opt/handlers-no-overlap", 0x643a7f322a2de886ull},
        {"reg-opt/handlers-no-overlap-coll", 0xb622d84590acd39cull},
        {"reg-opt/handlers-sw", 0x643a7f322a2de886ull},
        {"reg-opt/handlers-sw-coll", 0xb622d84590acd39cull},
        {"reg-opt/handlers-sw-no-overlap", 0x643a7f322a2de886ull},
        {"reg-opt/handlers-sw-no-overlap-coll", 0xb622d84590acd39cull},
        {"reg-opt/coll-driver", 0x49db7ab1935241b1ull},
        {"reg-opt/send-Send (0 words)", 0xea740bd332846344ull},
        {"reg-opt/send-Send (1 word)", 0xdb4bfd5b43624eaeull},
        {"reg-opt/send-Send (2 words)", 0x0e760d824f754555ull},
        {"reg-opt/send-Read", 0x9c69821bb5465a30ull},
        {"reg-opt/send-Write", 0xaae452112b4b4e8eull},
        {"reg-opt/send-PRead", 0xbf0018da615dd4abull},
        {"reg-opt/send-PWrite", 0x036294909e67e9ecull},
        {"on-opt/handlers", 0x5ace43fe8ab63d9dull},
        {"on-opt/handlers-coll", 0x1f18b164477d9e8aull},
        {"on-opt/handlers-no-overlap", 0x035de97c050b7e04ull},
        {"on-opt/handlers-no-overlap-coll", 0xcd1b5305ad4dfd9full},
        {"on-opt/handlers-sw", 0x5ace43fe8ab63d9dull},
        {"on-opt/handlers-sw-coll", 0x1f18b164477d9e8aull},
        {"on-opt/handlers-sw-no-overlap", 0x035de97c050b7e04ull},
        {"on-opt/handlers-sw-no-overlap-coll", 0xcd1b5305ad4dfd9full},
        {"on-opt/coll-driver", 0x9f0dc9d27bc2e679ull},
        {"on-opt/send-Send (0 words)", 0xde189a79457c4ccbull},
        {"on-opt/send-Send (1 word)", 0x8ae07bc5554aa3ecull},
        {"on-opt/send-Send (2 words)", 0x9e8b563abc066bbaull},
        {"on-opt/send-Read", 0x2a03d49b025b8d36ull},
        {"on-opt/send-Write", 0x446a39fa66632795ull},
        {"on-opt/send-PRead", 0xc20bcf6b7fa7baa7ull},
        {"on-opt/send-PWrite", 0x2b71ada3e0b6053full},
        {"off-opt/handlers", 0x5ace43fe8ab63d9dull},
        {"off-opt/handlers-coll", 0x1f18b164477d9e8aull},
        {"off-opt/handlers-no-overlap", 0x035de97c050b7e04ull},
        {"off-opt/handlers-no-overlap-coll", 0xcd1b5305ad4dfd9full},
        {"off-opt/handlers-sw", 0x5ace43fe8ab63d9dull},
        {"off-opt/handlers-sw-coll", 0x1f18b164477d9e8aull},
        {"off-opt/handlers-sw-no-overlap", 0x035de97c050b7e04ull},
        {"off-opt/handlers-sw-no-overlap-coll", 0xcd1b5305ad4dfd9full},
        {"off-opt/coll-driver", 0x9f0dc9d27bc2e679ull},
        {"off-opt/send-Send (0 words)", 0xde189a79457c4ccbull},
        {"off-opt/send-Send (1 word)", 0x8ae07bc5554aa3ecull},
        {"off-opt/send-Send (2 words)", 0x9e8b563abc066bbaull},
        {"off-opt/send-Read", 0x2a03d49b025b8d36ull},
        {"off-opt/send-Write", 0x446a39fa66632795ull},
        {"off-opt/send-PRead", 0xc20bcf6b7fa7baa7ull},
        {"off-opt/send-PWrite", 0x2b71ada3e0b6053full},
        {"reg-basic/handlers", 0x6eeb1446a9a9350dull},
        {"reg-basic/handlers-coll", 0x37c9af15b80a4003ull},
        {"reg-basic/handlers-no-overlap", 0x6eeb1446a9a9350dull},
        {"reg-basic/handlers-no-overlap-coll", 0x37c9af15b80a4003ull},
        {"reg-basic/handlers-sw", 0x3442392fe7416ab2ull},
        {"reg-basic/handlers-sw-coll", 0x125a32af3d13d379ull},
        {"reg-basic/handlers-sw-no-overlap", 0x3442392fe7416ab2ull},
        {"reg-basic/handlers-sw-no-overlap-coll", 0x125a32af3d13d379ull},
        {"reg-basic/coll-driver", 0x198a7f74bac133a0ull},
        {"reg-basic/send-Send (0 words)", 0xb3454f165ece8b79ull},
        {"reg-basic/send-Send (1 word)", 0x3a243db99a5b954aull},
        {"reg-basic/send-Send (2 words)", 0x4d79f91958a54f14ull},
        {"reg-basic/send-Read", 0xbb83b9860199dee1ull},
        {"reg-basic/send-Write", 0x99540cd0f422adeeull},
        {"reg-basic/send-PRead", 0x54b00cf3d7ef9108ull},
        {"reg-basic/send-PWrite", 0x5e3c5bbcd2297e1eull},
        {"on-basic/handlers", 0xef3037eb048cfcaeull},
        {"on-basic/handlers-coll", 0xbd123adae5efc5efull},
        {"on-basic/handlers-no-overlap", 0xef3037eb048cfcaeull},
        {"on-basic/handlers-no-overlap-coll", 0xbd123adae5efc5efull},
        {"on-basic/handlers-sw", 0xa2b3ed28dc4dda33ull},
        {"on-basic/handlers-sw-coll", 0x7deefd14771fc288ull},
        {"on-basic/handlers-sw-no-overlap", 0xa2b3ed28dc4dda33ull},
        {"on-basic/handlers-sw-no-overlap-coll", 0x7deefd14771fc288ull},
        {"on-basic/coll-driver", 0x8191b725bc47d2efull},
        {"on-basic/send-Send (0 words)", 0x506a78ef87165c15ull},
        {"on-basic/send-Send (1 word)", 0xa234c950db2e66ccull},
        {"on-basic/send-Send (2 words)", 0x5a4721ca42fecfc6ull},
        {"on-basic/send-Read", 0x82df6a682a212316ull},
        {"on-basic/send-Write", 0x78837aa9c0fa686eull},
        {"on-basic/send-PRead", 0x4a587760a07768b8ull},
        {"on-basic/send-PWrite", 0xf62c2944e25c2dc3ull},
        {"off-basic/handlers", 0xef3037eb048cfcaeull},
        {"off-basic/handlers-coll", 0xbd123adae5efc5efull},
        {"off-basic/handlers-no-overlap", 0xef3037eb048cfcaeull},
        {"off-basic/handlers-no-overlap-coll", 0xbd123adae5efc5efull},
        {"off-basic/handlers-sw", 0xa2b3ed28dc4dda33ull},
        {"off-basic/handlers-sw-coll", 0x7deefd14771fc288ull},
        {"off-basic/handlers-sw-no-overlap", 0xa2b3ed28dc4dda33ull},
        {"off-basic/handlers-sw-no-overlap-coll", 0x7deefd14771fc288ull},
        {"off-basic/coll-driver", 0x8191b725bc47d2efull},
        {"off-basic/send-Send (0 words)", 0x506a78ef87165c15ull},
        {"off-basic/send-Send (1 word)", 0xa234c950db2e66ccull},
        {"off-basic/send-Send (2 words)", 0x5a4721ca42fecfc6ull},
        {"off-basic/send-Read", 0x82df6a682a212316ull},
        {"off-basic/send-Write", 0x78837aa9c0fa686eull},
        {"off-basic/send-PRead", 0x4a587760a07768b8ull},
        {"off-basic/send-PWrite", 0xf62c2944e25c2dc3ull},
        {"faroff-opt/handlers", 0x5ace43fe8ab63d9dull},
        {"faroff-opt/handlers-coll", 0x1f18b164477d9e8aull},
        {"faroff-opt/handlers-no-overlap", 0x035de97c050b7e04ull},
        {"faroff-opt/handlers-no-overlap-coll", 0xcd1b5305ad4dfd9full},
        {"faroff-opt/handlers-sw", 0x5ace43fe8ab63d9dull},
        {"faroff-opt/handlers-sw-coll", 0x1f18b164477d9e8aull},
        {"faroff-opt/handlers-sw-no-overlap", 0x035de97c050b7e04ull},
        {"faroff-opt/handlers-sw-no-overlap-coll", 0xcd1b5305ad4dfd9full},
        {"faroff-opt/coll-driver", 0x9f0dc9d27bc2e679ull},
        {"faroff-opt/send-Send (0 words)", 0xde189a79457c4ccbull},
        {"faroff-opt/send-Send (1 word)", 0x8ae07bc5554aa3ecull},
        {"faroff-opt/send-Send (2 words)", 0x9e8b563abc066bbaull},
        {"faroff-opt/send-Read", 0x2a03d49b025b8d36ull},
        {"faroff-opt/send-Write", 0x446a39fa66632795ull},
        {"faroff-opt/send-PRead", 0xc20bcf6b7fa7baa7ull},
        {"faroff-opt/send-PWrite", 0x2b71ada3e0b6053full},
        {"onni-basic/handlers", 0xc30310a9b6418712ull},
        {"onni-basic/handlers-coll", 0x0e8da963acdf4434ull},
        {"onni-basic/handlers-no-overlap", 0xc30310a9b6418712ull},
        {"onni-basic/handlers-no-overlap-coll", 0x0e8da963acdf4434ull},
        {"onni-basic/handlers-sw", 0x12e773fe4c1207e7ull},
        {"onni-basic/handlers-sw-coll", 0x41e36060fc228de7ull},
        {"onni-basic/handlers-sw-no-overlap", 0x12e773fe4c1207e7ull},
        {"onni-basic/handlers-sw-no-overlap-coll", 0x41e36060fc228de7ull},
        {"onni-basic/coll-driver", 0x8191b725bc47d2efull},
        {"onni-basic/send-Send (0 words)", 0x506a78ef87165c15ull},
        {"onni-basic/send-Send (1 word)", 0xa234c950db2e66ccull},
        {"onni-basic/send-Send (2 words)", 0x5a4721ca42fecfc6ull},
        {"onni-basic/send-Read", 0x82df6a682a212316ull},
        {"onni-basic/send-Write", 0x78837aa9c0fa686eull},
        {"onni-basic/send-PRead", 0x4a587760a07768b8ull},
        {"onni-basic/send-PWrite", 0xf62c2944e25c2dc3ull},
        {"onni-basic/host-proxy", 0x06e1003cdb05cee2ull},
        {"onni-opt/handlers", 0xd0c4513da59ef161ull},
        {"onni-opt/handlers-coll", 0x6638620383af7f55ull},
        {"onni-opt/handlers-no-overlap", 0xd0c4513da59ef161ull},
        {"onni-opt/handlers-no-overlap-coll", 0x6638620383af7f55ull},
        {"onni-opt/handlers-sw", 0xd0c4513da59ef161ull},
        {"onni-opt/handlers-sw-coll", 0x6638620383af7f55ull},
        {"onni-opt/handlers-sw-no-overlap", 0xd0c4513da59ef161ull},
        {"onni-opt/handlers-sw-no-overlap-coll", 0x6638620383af7f55ull},
        {"onni-opt/coll-driver", 0x9f0dc9d27bc2e679ull},
        {"onni-opt/send-Send (0 words)", 0xde189a79457c4ccbull},
        {"onni-opt/send-Send (1 word)", 0x8ae07bc5554aa3ecull},
        {"onni-opt/send-Send (2 words)", 0x9e8b563abc066bbaull},
        {"onni-opt/send-Read", 0x2a03d49b025b8d36ull},
        {"onni-opt/send-Write", 0x446a39fa66632795ull},
        {"onni-opt/send-PRead", 0xc20bcf6b7fa7baa7ull},
        {"onni-opt/send-PWrite", 0x2b71ada3e0b6053full},
        {"onni-opt/host-proxy", 0x09a6aa5480092ac1ull},
    };
    return table;
}

} // namespace

TEST(KernelImage, EveryModelMatchesPinnedTable)
{
    for (const ni::ModelInfo &info : ni::registeredModels()) {
        for (const auto &[prog, src] : programsOf(info.model)) {
            std::string key = info.shortName + "/" + prog;
            uint64_t h = imageHash(src);
            auto it = pinned().find(key);
            if (it == pinned().end()) {
                ADD_FAILURE() << "no pinned image for " << key
                              << "; add the row below to the table";
            } else {
                EXPECT_EQ(it->second, h) << key << " changed";
            }
            if (it == pinned().end() || it->second != h) {
                std::printf("        {\"%s\", 0x%016llxull},\n",
                            key.c_str(),
                            static_cast<unsigned long long>(h));
            }
        }
    }
}
