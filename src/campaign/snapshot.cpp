#include "campaign/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace gecko::campaign {

namespace {

void
archiveAll(Archive& ar, sim::IntermittentSim& sim, sim::IoHub& io,
           trace::Buffer* traceBuf)
{
    sim.archiveState(ar);
    io.archiveState(ar);
    ar.check(traceBuf != nullptr ? 1 : 0, "trace buffer attached");
    if (traceBuf != nullptr)
        traceBuf->archiveState(ar);
}

}  // namespace

std::vector<std::uint8_t>
saveSimSnapshot(sim::IntermittentSim& sim, sim::IoHub& io,
                trace::Buffer* traceBuf)
{
    Archive ar = Archive::saver();
    archiveAll(ar, sim, io, traceBuf);
    return sealContainer(kSnapshotVersion, ar.takePayload());
}

void
restoreSimSnapshot(sim::IntermittentSim& sim, sim::IoHub& io,
                   const std::vector<std::uint8_t>& blob,
                   trace::Buffer* traceBuf)
{
    Archive ar = Archive::loader(openContainer(blob, kSnapshotVersion));
    archiveAll(ar, sim, io, traceBuf);
    ar.finishLoad();
}

bool
writeSnapshotFile(const std::string& path,
                  const std::vector<std::uint8_t>& blob)
{
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    const std::uint8_t* p = blob.data();
    std::size_t left = blob.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            std::remove(tmp.c_str());
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

void
mustWrite(bool written, const std::string& path)
{
    if (!written)
        throw WriteError("cannot write " + path);
}

std::vector<std::uint8_t>
readSnapshotFile(const std::string& path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT)
            return {};
        throw SnapshotError("snapshot: cannot open " + path + ": " +
                            std::strerror(errno));
    }
    std::vector<std::uint8_t> out;
    std::uint8_t buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            throw SnapshotError("snapshot: read failed on " + path + ": " +
                                std::strerror(err));
        }
        if (n == 0)
            break;
        out.insert(out.end(), buf, buf + n);
    }
    ::close(fd);
    return out;
}

}  // namespace gecko::campaign
