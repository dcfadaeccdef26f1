#include "ir/program.hpp"

#include <sstream>

namespace gecko::ir {

std::size_t
Program::append(const Instr& ins)
{
    code_.push_back(ins);
    return code_.size() - 1;
}

void
Program::insertBefore(std::size_t pos, const Instr& ins, bool before_label)
{
    code_.insert(code_.begin() + static_cast<std::ptrdiff_t>(pos), ins);
    for (auto& label : labels_) {
        if (label.pos == npos)
            continue;
        if (label.pos > pos || (label.pos == pos && !before_label))
            ++label.pos;
    }
}

void
Program::erase(std::size_t pos)
{
    code_.erase(code_.begin() + static_cast<std::ptrdiff_t>(pos));
    for (auto& label : labels_) {
        if (label.pos == npos)
            continue;
        if (label.pos > pos)
            --label.pos;
    }
}

LabelId
Program::internLabel(const std::string& name)
{
    auto it = labelIndex_.find(name);
    if (it != labelIndex_.end())
        return it->second;
    LabelId id = static_cast<LabelId>(labels_.size());
    labels_.push_back({name, npos});
    labelIndex_.emplace(name, id);
    return id;
}

void
Program::bindLabel(LabelId id, std::size_t pos)
{
    labels_.at(static_cast<std::size_t>(id)).pos = pos;
}

LabelId
Program::makeLabelAt(std::size_t pos, const std::string& hint)
{
    std::string name;
    do {
        std::ostringstream os;
        os << "." << hint << uniqueCounter_++;
        name = os.str();
    } while (labelIndex_.count(name) != 0);
    LabelId id = internLabel(name);
    bindLabel(id, pos);
    return id;
}

std::size_t
Program::labelPos(LabelId id) const
{
    return labels_.at(static_cast<std::size_t>(id)).pos;
}

const std::string&
Program::labelName(LabelId id) const
{
    return labels_.at(static_cast<std::size_t>(id)).name;
}

std::optional<LabelId>
Program::labelAt(std::size_t pos) const
{
    for (std::size_t i = 0; i < labels_.size(); ++i) {
        if (labels_[i].pos == pos)
            return static_cast<LabelId>(i);
    }
    return std::nullopt;
}

std::optional<LabelId>
Program::findLabel(const std::string& name) const
{
    auto it = labelIndex_.find(name);
    if (it == labelIndex_.end())
        return std::nullopt;
    return it->second;
}

Successors
Program::successors(std::size_t idx) const
{
    Successors succs;
    const Instr& ins = code_.at(idx);
    if (hasLabelTarget(ins.op))
        succs.idx_[succs.n_++] = labelPos(ins.target);
    bool falls = ins.op != Opcode::kJmp && ins.op != Opcode::kRet &&
                 ins.op != Opcode::kHalt;
    if (falls && idx + 1 < code_.size())
        succs.idx_[succs.n_++] = idx + 1;
    return succs;
}

std::string
Program::validate() const
{
    std::ostringstream err;
    for (std::size_t i = 0; i < code_.size(); ++i) {
        const Instr& ins = code_[i];
        if (hasLabelTarget(ins.op)) {
            if (ins.target < 0 ||
                static_cast<std::size_t>(ins.target) >= labels_.size()) {
                err << "instr " << i << ": bad label id " << ins.target;
                return err.str();
            }
            if (labelPos(ins.target) >= code_.size()) {
                err << "instr " << i << ": label '" << labelName(ins.target)
                    << "' is unbound or past the last instruction";
                return err.str();
            }
        }
        if (ins.rd >= kNumRegs || ins.rs1 >= kNumRegs || ins.rs2 >= kNumRegs) {
            err << "instr " << i << ": register out of range";
            return err.str();
        }
    }
    if (!code_.empty()) {
        Opcode last = code_.back().op;
        if (last != Opcode::kHalt && !isUncondTransfer(last)) {
            err << "program may fall off the end (last op: "
                << mnemonic(last) << ")";
            return err.str();
        }
    }
    return {};
}

}  // namespace gecko::ir
