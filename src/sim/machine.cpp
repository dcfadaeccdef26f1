#include "sim/machine.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "campaign/archive.hpp"
#include "trace/trace.hpp"

namespace gecko::sim {

using ir::Instr;
using ir::Opcode;

const char*
execBackendName(ExecBackend backend)
{
    switch (backend) {
      case ExecBackend::kStep:
        return "step";
      case ExecBackend::kBlock:
        return "block";
    }
    return "unknown";
}

ExecBackend
parseExecBackend(const char* value)
{
    if (value == nullptr || *value == '\0' ||
        std::strcmp(value, "block") == 0)
        return ExecBackend::kBlock;
    if (std::strcmp(value, "step") == 0)
        return ExecBackend::kStep;
    throw std::invalid_argument(std::string("GECKO_EXEC=") + value +
                                ": expected step or block");
}

ExecBackend
defaultExecBackend()
{
    static const ExecBackend backend =
        parseExecBackend(std::getenv("GECKO_EXEC"));
    return backend;
}

Machine::Machine(const compiler::CompiledProgram& prog, Nvm& nvm, IoHub& io)
    : prog_(&prog), nvm_(&nvm), io_(&io)
{
    const ir::Program& p = prog.prog;
    targets_.resize(p.size(), 0);
    decoded_.resize(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        const Instr& ins = p.at(i);
        if (ir::hasLabelTarget(ins.op))
            targets_[i] =
                static_cast<std::uint32_t>(p.labelPos(ins.target));
        if (ins.op == Opcode::kIn)
            inFree_ = false;
        Decoded& d = decoded_[i];
        d.op = ins.op;
        d.rd = ins.rd;
        d.rs1 = ins.rs1;
        d.rs2 = ins.rs2;
        d.useImm = ins.useImm;
        d.imm = static_cast<std::uint32_t>(ins.imm);
        d.target = targets_[i];
        int cost = ir::cycleCost(ins);
        // Fold the Ratchet pseudo-op surcharges (dynamic slot index
        // bookkeeping, see step()) into the static cost table.
        if (prog.scheme == compiler::Scheme::kRatchet) {
            if (ins.op == Opcode::kBoundary)
                cost += 2;
            else if (ins.op == Opcode::kCkpt)
                cost += 4;
        }
        d.cost = static_cast<std::uint16_t>(cost);
    }
}

void
Machine::powerCycle()
{
    regs_.fill(0);
    pc_ = 0;
    pendingIn_.fill(0);
    pendingOut_.fill(0);
    halted_ = false;
    faulted_ = false;
}

void
Machine::restartProgram()
{
    regs_.fill(0);
    pc_ = 0;
    halted_ = false;
}

bool
Machine::fault()
{
    if (!faultTolerant_)
        throw std::runtime_error("machine fault (bad PC or address)");
    faulted_ = true;
    ++stats.faults;
    GECKO_TRACE_EVENT(trace::EventKind::kMachineFault, 0, pc_, 0);
    return false;
}

std::uint64_t
Machine::committedOutTotal() const
{
    std::uint64_t total = 0;
    for (int p = 0; p < kIoPorts; ++p)
        total += nvm_->outCount[static_cast<std::size_t>(p)];
    return total;
}

void
Machine::commitIo()
{
    for (int p = 0; p < kIoPorts; ++p) {
        nvm_->inCount[static_cast<std::size_t>(p)] +=
            pendingIn_[static_cast<std::size_t>(p)];
        nvm_->outCount[static_cast<std::size_t>(p)] +=
            pendingOut_[static_cast<std::size_t>(p)];
        pendingIn_[static_cast<std::size_t>(p)] = 0;
        pendingOut_[static_cast<std::size_t>(p)] = 0;
    }
}

bool
Machine::step(std::uint64_t* cycles)
{
    const ir::Program& p = prog_->prog;
    if (pc_ >= p.size())
        return fault();
    const Instr& ins = p.at(pc_);
    *cycles += static_cast<std::uint64_t>(ir::cycleCost(ins));
    ++stats.instrs;

    std::uint32_t next = pc_ + 1;
    switch (ins.op) {
      case Opcode::kNop:
        break;
      case Opcode::kMovi:
        regs_[ins.rd] = static_cast<std::uint32_t>(ins.imm);
        break;
      case Opcode::kMov:
        regs_[ins.rd] = regs_[ins.rs1];
        break;
      case Opcode::kNot:
      case Opcode::kNeg:
        regs_[ins.rd] = ir::evalUnary(ins.op, regs_[ins.rs1]);
        break;
      case Opcode::kLoad: {
        std::uint32_t addr =
            regs_[ins.rs1] + static_cast<std::uint32_t>(ins.imm);
        if (!nvm_->inRange(addr))
            return fault();
        regs_[ins.rd] = nvm_->load(addr);
        break;
      }
      case Opcode::kStore: {
        std::uint32_t addr =
            regs_[ins.rs1] + static_cast<std::uint32_t>(ins.imm);
        if (!nvm_->inRange(addr))
            return fault();
        nvm_->store(addr, regs_[ins.rs2]);
        break;
      }
      case Opcode::kJmp:
        next = targets_[pc_];
        break;
      case Opcode::kCall:
        regs_[ir::kLinkReg] = pc_ + 1;
        next = targets_[pc_];
        break;
      case Opcode::kRet:
        next = regs_[ir::kLinkReg];
        if (next > p.size())
            return fault();
        break;
      case Opcode::kIn: {
        int port = ins.imm;
        if (port < 0 || port >= kIoPorts)
            return fault();
        auto pi = static_cast<std::size_t>(port);
        std::uint64_t index = nvm_->inCount[pi] + pendingIn_[pi];
        regs_[ins.rd] = io_->input(port).valueAt(index);
        if (stagedIo_)
            ++pendingIn_[pi];
        else
            ++nvm_->inCount[pi];
        break;
      }
      case Opcode::kOut: {
        int port = ins.imm;
        if (port < 0 || port >= kIoPorts)
            return fault();
        auto pi = static_cast<std::size_t>(port);
        std::uint64_t index = nvm_->outCount[pi] + pendingOut_[pi];
        io_->output(port).set(index, regs_[ins.rs1]);
        if (stagedIo_)
            ++pendingOut_[pi];
        else
            ++nvm_->outCount[pi];
        break;
      }
      case Opcode::kHalt:
        ++stats.completions;
        if (stagedIo_)
            commitIo();
        GECKO_TRACE_EVENT(trace::EventKind::kCompletion, 0,
                          stats.completions, committedOutTotal());
        if (continuous_) {
            restartProgram();
            return true;
        }
        halted_ = true;
        return false;
      case Opcode::kBoundary:
        // Ratchet flips its double-buffer index variable at each
        // boundary (paper §VI-D's cost model for the prior scheme).
        if (prog_->scheme == compiler::Scheme::kRatchet)
            *cycles += 2;
        // Atomic region commit: the committed-region word plus the staged
        // I/O counters (stands for a single FRAM word write; see the file
        // comment in machine.hpp for the atomicity argument).
        if (stagedIo_) {
            nvm_->committedRegion = static_cast<std::uint32_t>(ins.imm);
            ++nvm_->commitCount;
            commitIo();
            GECKO_TRACE_EVENT(trace::EventKind::kRegionCommit, 0,
                              nvm_->committedRegion, nvm_->commitCount);
        }
        ++stats.boundaryCommits;
        break;
      case Opcode::kCkpt:
        // Ratchet's per-register dynamic index costs an index load and
        // store on top of the value store ("16 CheckpointStores +
        // 16 IndexStores + 16 IndexLoads", paper §VI-D); GECKO's static
        // slot assignment is the plain store already priced by
        // cycleCost.
        if (prog_->scheme == compiler::Scheme::kRatchet)
            *cycles += 4;
        nvm_->writeSlot(ins.rs1, ins.imm, regs_[ins.rs1]);
        ++stats.ckptStores;
        break;
      default:
        if (ir::isBinaryAlu(ins.op)) {
            std::uint32_t b = ins.useImm
                                  ? static_cast<std::uint32_t>(ins.imm)
                                  : regs_[ins.rs2];
            regs_[ins.rd] = ir::evalBinary(ins.op, regs_[ins.rs1], b);
        } else if (ir::isCondBranch(ins.op)) {
            if (ir::evalBranch(ins.op, regs_[ins.rs1], regs_[ins.rs2]))
                next = targets_[pc_];
        }
        break;
    }
    pc_ = next;
    return true;
}

RunExit
Machine::run(std::uint64_t cycleBudget, std::uint64_t* consumed)
{
    if (faulted_ || (halted_ && !continuous_)) {
        // A faulted (or halted-and-idle) core just burns energy.
        stats.cycles += cycleBudget;
        if (consumed)
            *consumed = cycleBudget;
        return faulted_ ? RunExit::kFaulted : RunExit::kHalted;
    }
    if (backend_ == ExecBackend::kStep)
        return runStep(cycleBudget, consumed);
    return runBlock(cycleBudget, consumed);
}

RunExit
Machine::runStep(std::uint64_t cycleBudget, std::uint64_t* consumed)
{
    std::uint64_t cycles = 0;
    RunExit exit = RunExit::kBudget;
    while (cycles < cycleBudget) {
        if (!step(&cycles)) {
            exit = faulted_ ? RunExit::kFaulted : RunExit::kHalted;
            break;
        }
    }
    stats.cycles += cycles;
    if (consumed)
        *consumed = cycles;
    return exit;
}

void
Machine::execRecoveryInstr(const Instr& ins,
                           std::array<std::uint32_t, 16>& env,
                           const Nvm& nvm)
{
    switch (ins.op) {
      case Opcode::kMovi:
        env[ins.rd] = static_cast<std::uint32_t>(ins.imm);
        break;
      case Opcode::kMov:
        env[ins.rd] = env[ins.rs1];
        break;
      case Opcode::kNot:
      case Opcode::kNeg:
        env[ins.rd] = ir::evalUnary(ins.op, env[ins.rs1]);
        break;
      case Opcode::kLoad:
        env[ins.rd] =
            nvm.load(env[ins.rs1] + static_cast<std::uint32_t>(ins.imm));
        break;
      default:
        if (ir::isBinaryAlu(ins.op)) {
            std::uint32_t b = ins.useImm
                                  ? static_cast<std::uint32_t>(ins.imm)
                                  : env[ins.rs2];
            env[ins.rd] = ir::evalBinary(ins.op, env[ins.rs1], b);
        } else {
            throw std::runtime_error(
                "unsafe instruction in recovery block");
        }
        break;
    }
}

void
Machine::archiveState(campaign::Archive& ar)
{
    ar.section("machine");
    ar.check(prog_->prog.size(), "program size");
    ar.u32Array(regs_);
    ar.u32(pc_);
    ar.u32Array(pendingIn_);
    ar.u32Array(pendingOut_);
    ar.boolean(halted_);
    ar.boolean(faulted_);
    ar.counters(stats);
    // The block cache is profile-only derived state: dropping it on
    // restore re-warms it without changing architectural behaviour.
    if (!ar.saving())
        invalidateBlockCache();
}

}  // namespace gecko::sim
