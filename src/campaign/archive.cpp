#include "campaign/archive.hpp"

#include "sim/nvm.hpp"

namespace gecko::campaign {

namespace {

constexpr char kMagic[4] = {'G', 'S', 'N', 'P'};

void
putU32(std::vector<std::uint8_t>& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

}  // namespace

std::vector<std::uint8_t>
sealContainer(std::uint32_t version, const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(4 + 4 + 8 + payload.size() + 4);
    out.insert(out.end(), kMagic, kMagic + 4);
    putU32(out, version);
    putU64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    putU32(out, sim::crc32Bytes(payload.data(), payload.size()));
    return out;
}

std::vector<std::uint8_t>
openContainer(const std::vector<std::uint8_t>& bytes,
              std::uint32_t expectVersion)
{
    constexpr std::size_t kHeader = 4 + 4 + 8;
    if (bytes.size() < kHeader + 4)
        throw SnapshotError("snapshot: container too short");
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        throw SnapshotError("snapshot: bad magic");
    std::uint32_t version = getU32(bytes.data() + 4);
    if (version != expectVersion)
        throw SnapshotError("snapshot: version " + std::to_string(version) +
                            " (expected " + std::to_string(expectVersion) +
                            ")");
    std::uint64_t len = getU64(bytes.data() + 8);
    if (len != bytes.size() - kHeader - 4)
        throw SnapshotError("snapshot: payload length mismatch");
    std::uint32_t want = getU32(bytes.data() + kHeader + len);
    std::uint32_t got =
        sim::crc32Bytes(bytes.data() + kHeader, static_cast<std::size_t>(len));
    if (want != got)
        throw SnapshotError("snapshot: CRC mismatch");
    return std::vector<std::uint8_t>(bytes.begin() + kHeader,
                                     bytes.begin() + kHeader +
                                         static_cast<std::ptrdiff_t>(len));
}

}  // namespace gecko::campaign
