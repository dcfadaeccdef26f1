#include "compiler/block_metadata.hpp"

#include <algorithm>

namespace gecko::compiler {

std::vector<std::uint32_t>
superblockLeaders(const CompiledProgram& compiled)
{
    const ir::Program& p = compiled.prog;
    const std::size_t size = p.size();
    std::vector<std::uint32_t> leaders;
    if (size == 0)
        return leaders;
    leaders.reserve(size / 4 + 4);
    leaders.push_back(0);
    // The CFG's leaders: everything after a terminator starts fresh,
    // call-return sites included (kRet lands at call+1).
    p.forEachLeader([&leaders](std::size_t i) {
        leaders.push_back(static_cast<std::uint32_t>(i));
    });

    // Region metadata: entry sequences are their own blocks.
    for (const RegionInfo& region : compiled.regions) {
        if (region.entryIdx < size)
            leaders.push_back(static_cast<std::uint32_t>(region.entryIdx));
        if (region.boundaryIdx + 1 < size)
            leaders.push_back(
                static_cast<std::uint32_t>(region.boundaryIdx + 1));
    }

    std::sort(leaders.begin(), leaders.end());
    leaders.erase(std::unique(leaders.begin(), leaders.end()),
                  leaders.end());
    // All entries are < size by construction (labelPos targets are
    // always in range for a validated program).
    return leaders;
}

}  // namespace gecko::compiler
