#ifndef GECKO_CAMPAIGN_SNAPSHOT_HPP_
#define GECKO_CAMPAIGN_SNAPSHOT_HPP_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/archive.hpp"
#include "sim/intermittent_sim.hpp"
#include "sim/io_devices.hpp"
#include "trace/trace.hpp"

/**
 * @file
 * Whole-simulation snapshots (DESIGN.md §13).
 *
 * A snapshot captures everything a resumed run needs to be *bit
 * identical* to an uninterrupted one, taken at a `run()` boundary: the
 * simulator (NVM, machine, runtime, capacitor, monitors, defense
 * controller, EMI source), the I/O hub's output sinks, and optionally
 * the case's trace ring buffer.  What it deliberately does not capture
 * — the compiled program, device profile, harvester, fault hooks,
 * attack schedule — is a pure function of the job spec and is
 * reconstructed before restore; configuration fingerprints embedded in
 * the payload reject a snapshot forced into a mismatched
 * reconstruction.
 *
 * The blob is framed by the GSNP container (campaign/archive.hpp):
 * magic, version, length, payload, CRC-32 — a torn or bit-flipped file
 * throws `SnapshotError` before any field is decoded.
 */

namespace gecko::campaign {

/** Snapshot wire-format version (bump on any layout change).
 *  v3: defense controller gained relapse-hysteresis, redo-commit gate
 *  and edge-skew reconciliation state. */
inline constexpr std::uint32_t kSnapshotVersion = 3;

/**
 * Serialize `sim` + `io` (+ the trace ring, when given) into a sealed
 * container blob.  Call only at a `run()` boundary.
 */
std::vector<std::uint8_t> saveSimSnapshot(sim::IntermittentSim& sim,
                                          sim::IoHub& io,
                                          trace::Buffer* traceBuf = nullptr);

/**
 * Restore a blob produced by saveSimSnapshot into a freshly
 * reconstructed simulator/hub (same program, device, config, hooks).
 * @throws SnapshotError on framing, CRC, version, or configuration
 *         mismatch.
 */
void restoreSimSnapshot(sim::IntermittentSim& sim, sim::IoHub& io,
                        const std::vector<std::uint8_t>& blob,
                        trace::Buffer* traceBuf = nullptr);

/**
 * Atomically persist a blob: write `path.tmp`, fsync, rename over
 * `path`.  A crash mid-write leaves either the old file or none — the
 * CRC guard catches anything else.  @return false on I/O failure.
 */
bool writeSnapshotFile(const std::string& path,
                       const std::vector<std::uint8_t>& blob);

/** A durable write (journal record, snapshot, aggregate, spec) that did
 *  not land: its caller's run must end rather than carry on. */
struct WriteError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/** Throw WriteError ("cannot write <path>") unless `written`. */
void mustWrite(bool written, const std::string& path);

/**
 * Read a snapshot file.  Missing file → empty vector (not an error:
 * "no snapshot yet" is a normal campaign state); read failure on an
 * existing file throws SnapshotError.  Content validation happens at
 * restore.
 */
std::vector<std::uint8_t> readSnapshotFile(const std::string& path);

}  // namespace gecko::campaign

#endif  // GECKO_CAMPAIGN_SNAPSHOT_HPP_
