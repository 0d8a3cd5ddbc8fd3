#include "hpu/hpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"
#include "msg/protocol.hh"
#include "ni/placement_policy.hh"

namespace tcpni
{

using isa::Instruction;
using isa::Opcode;

Hpu::Hpu(std::string name, EventQueue &eq, Memory &mem,
         ni::NetworkInterface &ni, HpuConfig config)
    : SimObject(std::move(name), eq), mem_(mem), ni_(ni),
      config_(config), tickEvent_(*this),
      idle_(SimObject::name(), eq, mem, &ni,
            IdleCore{regs_, readyAt_, &pc_, &branchTarget_,
                     &instructions_, &cycles_, &stallCycles_,
                     &regionCycles_, &regionInsts_, &tickEvent_,
                     config.maxInstructions, config.trace})
{
    tcpni_assert(config_.issueWidth >= 1);
    budget_ = config_.handlerBudget
                  ? config_.handlerBudget
                  : ni_.config().policy().handlerTimeBudget();
    // No interrupt sink: the HPU *is* the reception path, polling the
    // input registers directly.  Interrupt-driven reception remains a
    // host-CPU facility.

    metrics::Group &g = stats();
    g.addCounter("instructions", &instructions_, "instructions retired");
    g.addCounter("cycles", &cycles_, "cycles consumed (issue + stalls)");
    g.addCounter("stall_cycles", &stallCycles_,
                 "load-use interlock stall cycles");
    g.addCounter("ni_stall_cycles", &niStallCycles_,
                 "cycles stalled on NI SEND (full queue)");
    g.addCounter("handlers_run", &handlersRun_,
                 "handler activations completed");
    g.addCounter("handler_busy_cycles", &handlerBusyCycles_,
                 "cycles inside handler activations");
    g.addCounter("budget_overruns", &budgetOverruns_,
                 "activations over the handler budget");
    g.addCounter("host_proxies", &hostProxies_,
                 "messages escaped to the host ring");
    g.addGauge("max_handler_cycles", &maxHandlerCycles_,
               "longest handler activation (cycles)");
}

void
Hpu::loadProgram(const isa::Program &prog)
{
    wakeForAccess();
    text_.load(prog, mem_);
    regionCycles_.resize(text_.regionNames().size());
    regionInsts_.resize(text_.regionNames().size());
    idle_.disarm();
}

void
Hpu::wakeForAccess() const
{
    if (idle_.asleep())
        const_cast<IdleLoop &>(idle_).wake();
}

const Hpu &
Hpu::settled() const
{
    if (idle_.asleep())
        const_cast<IdleLoop &>(idle_).settle();
    return *this;
}

void
Hpu::reset(Addr pc)
{
    wakeForAccess();
    idle_.disarm();
    for (unsigned r = 0; r < isa::numRegs; ++r) {
        regs_[r] = 0;
        readyAt_[r] = 0;
    }
    pc_ = pc;
    branchTarget_.reset();
    halted_ = false;
    instructions_ = cycles_ = stallCycles_ = niStallCycles_ = 0;
    handlersRun_ = budgetOverruns_ = maxHandlerCycles_ = 0;
    hostProxies_ = 0;
    handlerBusyCycles_ = 0;
    handlerActive_ = false;
    handlerCycles_ = 0;
    ringPi_ = 0;
    for (auto &c : regionCycles_)
        c = 0;
    for (auto &c : regionInsts_)
        c = 0;
}

void
Hpu::start()
{
    tcpni_assert(!halted_);
    if (!tickEvent_.scheduled())
        eventq().schedule(&tickEvent_, curTick());
}

Word
Hpu::readGpr(unsigned r)
{
    if (r == 0)
        return 0;
    if (isNiAliasedReg(r))
        return ni_.readReg(r - isa::niRegBase, ni::Port::hpu);
    return regs_[r];
}

void
Hpu::writeGpr(unsigned r, Word value, Tick ready_at)
{
    if (r == 0)
        return;
    if (isNiAliasedReg(r)) {
        // NI registers are the HPU's own state; results are visible
        // immediately and never interlock.
        idle_.noteSideEffect();
        ni_.writeReg(r - isa::niRegBase, value, ni::Port::hpu);
        return;
    }
    regs_[r] = value;
    readyAt_[r] = ready_at;
    idle_.noteWrite(r, value, ready_at);
}

Tick
Hpu::readyTick(const Instruction &inst) const
{
    Tick ready = curTick();
    auto consider = [&](unsigned r) {
        if (r == 0 || isNiAliasedReg(r))
            return;
        if (readyAt_[r] > ready)
            ready = readyAt_[r];
    };
    if (isa::readsRs1(inst.op))
        consider(inst.rs1);
    if (isa::readsRs2(inst.op))
        consider(inst.rs2);
    if (isa::readsRdAsSource(inst.op))
        consider(inst.rd);
    return ready;
}

void
Hpu::charge(Addr addr, uint64_t n)
{
    regionCycles_[regionOf(addr)] += n;
}

std::map<std::string, uint64_t>
Hpu::regionCycles() const
{
    settled();
    std::map<std::string, uint64_t> out;
    for (size_t i = 0; i < regionCycles_.size(); ++i) {
        if (regionCycles_[i])
            out[text_.regionNames()[i]] += regionCycles_[i];
    }
    return out;
}

std::map<std::string, uint64_t>
Hpu::regionInstructions() const
{
    settled();
    std::map<std::string, uint64_t> out;
    for (size_t i = 0; i < regionInsts_.size(); ++i) {
        if (regionInsts_[i])
            out[text_.regionNames()[i]] += regionInsts_[i];
    }
    return out;
}

Addr
Hpu::pc() const
{
    wakeForAccess();
    return pc_;
}

Word
Hpu::reg(unsigned r) const
{
    tcpni_assert(r < isa::numRegs);
    wakeForAccess();
    if (r == 0)
        return 0;
    if (isNiAliasedReg(r))
        return const_cast<Hpu *>(this)->ni_.readReg(r - isa::niRegBase,
                                                    ni::Port::hpu);
    return regs_[r];
}

void
Hpu::setReg(unsigned r, Word value)
{
    tcpni_assert(r < isa::numRegs);
    wakeForAccess();
    writeGpr(r, value, curTick());
    idle_.disarm();
}

void
Hpu::beginHandler()
{
    handlerActive_ = true;
    handlerCycles_ = 0;
    handlerTraceId_ = ni_.currentTraceId();
    handlerType_ = ni_.currentType();
    TCPNI_TRACE(HPU, "handler start: type %u msg #%llu",
                handlerType_,
                static_cast<unsigned long long>(handlerTraceId_));
    if (trace::TraceSink *s = trace::sink()) {
        s->record(handlerTraceId_, trace::Stage::hpuStart, ni_.node(),
                  curTick(), handlerType_);
    }
}

void
Hpu::endHandler()
{
    ++handlersRun_;
    maxHandlerCycles_ = std::max(maxHandlerCycles_, handlerCycles_);
    handlerBusyCycles_ += handlerCycles_;
    // The activation ends with the cycle its NEXT (or halt) retires.
    const Tick end = curTick() + 1;
    TCPNI_TRACE(HPU, "handler end: type %u msg #%llu, %llu cycle(s)",
                handlerType_,
                static_cast<unsigned long long>(handlerTraceId_),
                static_cast<unsigned long long>(handlerCycles_));
    if (trace::TraceSink *s = trace::sink()) {
        s->record(handlerTraceId_, trace::Stage::hpuEnd, ni_.node(),
                  end, handlerType_);
    }
    if (budget_ && handlerCycles_ > budget_) {
        ++budgetOverruns_;
        TCPNI_TRACE(HPU, "handler budget overrun: %llu cycles against "
                    "a budget of %llu (type %u msg #%llu)",
                    static_cast<unsigned long long>(handlerCycles_),
                    static_cast<unsigned long long>(budget_),
                    handlerType_,
                    static_cast<unsigned long long>(handlerTraceId_));
        if (trace::TraceSink *s = trace::sink()) {
            s->record(handlerTraceId_, trace::Stage::hpuOverrun,
                      ni_.node(), end, handlerType_);
        }
    }
    handlerActive_ = false;
}

void
Hpu::handlerTick(uint64_t n)
{
    if (handlerActive_)
        handlerCycles_ += n;
}

void
Hpu::postProxy()
{
    Word ci = mem_.read(msg::hostRingCiAddr);
    if (ringPi_ - ci >= msg::hostRingSlots)
        panic("HPU '%s' host-proxy ring overflow (pi=%u ci=%u)",
              name().c_str(), ringPi_, ci);

    // The effective handler id: the encoded 4-bit type when the
    // interface has Section-2.2.1 types, the word-4 software id
    // otherwise.  The protocol assigns them the same values.
    Word id = ni_.config().features.encodedTypes
                  ? ni_.currentType()
                  : ni_.readReg(ni::regI4);
    Addr slot = msg::hostRingBase +
                (ringPi_ & (msg::hostRingSlots - 1)) *
                    msg::hostRingSlotBytes;
    mem_.write(slot, id);
    for (unsigned w = 0; w < msgWords; ++w)
        mem_.write(slot + 4 + 4 * w, ni_.readReg(ni::regI0 + w));
    ++ringPi_;
    mem_.write(msg::hostRingPiAddr, ringPi_);
    ++hostProxies_;
    extraCost_ = config_.hostProxyCycles;
    TCPNI_TRACE(HPU, "host proxy: id %u -> ring slot %u (pi=%u)",
                id, (ringPi_ - 1) & (msg::hostRingSlots - 1), ringPi_);
}

void
Hpu::tick()
{
    if (halted_)
        return;
    if (idle_.asleep()) {
        if (idle_.keep())
            return;
        idle_.resumeHere();
    }

    const Tick now = curTick();

    // A valid message at the start of a cycle opens (or continues) a
    // handler activation; the dispatch jump through MsgIp counts
    // toward the activation, matching sPIN's occupancy accounting.
    if (!handlerActive_ && ni_.msgValid()) {
        idle_.noteSideEffect();
        beginHandler();
    }

    unsigned issued = 0;
    bool arrived = false;
    while (true) {
        const Addr pc0 = pc_;
        const std::optional<Addr> target0 = branchTarget_;
        const Instruction inst = text_.fetch(pc_, mem_.read(pc_));

        // Operand interlocks break (or, alone, stall) the bundle.
        Tick ready = readyTick(inst);
        if (ready > now) {
            if (issued == 0) {
                uint64_t stall = ready - now;
                stallCycles_ += stall;
                cycles_ += stall;
                charge(pc_, stall);
                handlerTick(stall);
                idle_.recordStall(now, pc0, target0, regionOf(pc0), stall);
                eventq().schedule(&tickEvent_, ready);
                return;
            }
            break;
        }

        if (config_.trace) {
            inform("%s %6llu  pc=%08x  %s", name().c_str(),
                   static_cast<unsigned long long>(now), pc_,
                   isa::disassemble(inst).c_str());
        }

        const Addr ipc = pc_;
        extraCost_ = 0;
        nextRetired_ = false;
        if (!execute(inst)) {
            // SEND against a full output queue with the stall policy.
            idle_.noteSideEffect();
            if (issued == 0) {
                ++niStallCycles_;
                ++cycles_;
                charge(ipc, 1);
                handlerTick(1);
                eventq().schedule(&tickEvent_, now + 1);
                return;
            }
            break;
        }

        ++instructions_;
        regionInsts_[regionOf(ipc)] += 1;
        ++issued;
        if (issued == 1) {
            ++cycles_;
            charge(ipc, 1);
            handlerTick(1);
        }
        idle_.recordIssue(now, pc0, target0, regionOf(ipc));
        arrived = target0.has_value();
        if (extraCost_) {
            idle_.noteSideEffect();
            cycles_ += extraCost_;
            charge(ipc, extraCost_);
            handlerTick(extraCost_);
        }

        if (instructions_ > config_.maxInstructions)
            panic("HPU '%s' exceeded %llu instructions; runaway "
                  "handler?", name().c_str(),
                  static_cast<unsigned long long>(
                      config_.maxInstructions));

        if (halted_) {
            if (handlerActive_)
                endHandler();
            return;
        }
        if (nextRetired_ && handlerActive_)
            endHandler();

        // One control transfer (or proxy post) per cycle; otherwise
        // fill the issue width.
        if (isa::isBranch(inst.op) || extraCost_ ||
            issued >= config_.issueWidth)
            break;
    }

    // An idle loop at a fixed point sleeps (single issue only: a
    // recorded step is one instruction per cycle).
    if (config_.issueWidth == 1 && !branchTarget_ && !handlerActive_ &&
        idle_.atBoundary(now, arrived))
        return;

    eventq().schedule(&tickEvent_, now + 1);
}

bool
Hpu::execute(const Instruction &inst)
{
    const Tick now = curTick();

    // Pre-check NI command stalls so that a retried instruction has no
    // double side effects.  Unlike the host CPU, folded NI bits are
    // always legal here: the HPU is register-coupled by construction.
    if (inst.ni.mode != isa::SendMode::none &&
        ni_.sendWouldStall(inst.ni.mode, ni::Port::hpu)) {
        return false;
    }

    // Compute the next PC.  The instruction after a branch (its delay
    // slot) always executes; branchTarget_ holds the redirect that
    // applies after the delay slot.  The entry value is kept so a
    // stall discovered after this point (a transport-policy hold
    // against a destination the instruction itself just wrote) can
    // rewind the consumed delay slot and retry cleanly.
    const std::optional<Addr> resumed_branch = branchTarget_;
    std::optional<Addr> new_target;
    Addr next_pc;
    if (branchTarget_) {
        next_pc = *branchTarget_;
        branchTarget_.reset();
        if (isa::isBranch(inst.op))
            panic("branch in a delay slot at pc=0x%08x", pc_);
    } else {
        next_pc = pc_ + 4;
    }

    auto alu = [&](Word result) { writeGpr(inst.rd, result, now + 1); };

    switch (inst.op) {
      case Opcode::add:
        alu(readGpr(inst.rs1) + readGpr(inst.rs2));
        break;
      case Opcode::sub:
        alu(readGpr(inst.rs1) - readGpr(inst.rs2));
        break;
      case Opcode::and_:
        alu(readGpr(inst.rs1) & readGpr(inst.rs2));
        break;
      case Opcode::or_:
        alu(readGpr(inst.rs1) | readGpr(inst.rs2));
        break;
      case Opcode::xor_:
        alu(readGpr(inst.rs1) ^ readGpr(inst.rs2));
        break;
      case Opcode::sll:
        alu(readGpr(inst.rs1) << (readGpr(inst.rs2) & 31));
        break;
      case Opcode::srl:
        alu(readGpr(inst.rs1) >> (readGpr(inst.rs2) & 31));
        break;
      case Opcode::sra:
        alu(static_cast<Word>(static_cast<int32_t>(readGpr(inst.rs1)) >>
                              (readGpr(inst.rs2) & 31)));
        break;
      case Opcode::slt:
        alu(static_cast<int32_t>(readGpr(inst.rs1)) <
                    static_cast<int32_t>(readGpr(inst.rs2))
                ? 1 : 0);
        break;
      case Opcode::sltu:
        alu(readGpr(inst.rs1) < readGpr(inst.rs2) ? 1 : 0);
        break;
      case Opcode::mul:
        alu(readGpr(inst.rs1) * readGpr(inst.rs2));
        break;
      case Opcode::addi:
        alu(readGpr(inst.rs1) + static_cast<Word>(inst.imm));
        break;
      case Opcode::andi:
        alu(readGpr(inst.rs1) & static_cast<Word>(inst.imm));
        break;
      case Opcode::ori:
        alu(readGpr(inst.rs1) | static_cast<Word>(inst.imm));
        break;
      case Opcode::xori:
        alu(readGpr(inst.rs1) ^ static_cast<Word>(inst.imm));
        break;
      case Opcode::lui:
        alu(static_cast<Word>(inst.imm) << 16);
        break;
      case Opcode::slli:
        alu(readGpr(inst.rs1) << (inst.imm & 31));
        break;
      case Opcode::srli:
        alu(readGpr(inst.rs1) >> (inst.imm & 31));
        break;

      case Opcode::ld:
      case Opcode::ldi: {
        Word base = readGpr(inst.rs1);
        Word off = inst.op == Opcode::ld ? readGpr(inst.rs2)
                                         : static_cast<Word>(inst.imm);
        Word vaddr = base + off;
        if (ni::NetworkInterface::isNiAddr(vaddr))
            panic("HPU handlers reach the NI through the register "
                  "file, not the command window (pc=0x%08x)", pc_);
        Word val = mem_.read(localOf(vaddr));
        writeGpr(inst.rd, val, now + 1 + config_.handlerMemDelay);
        break;
      }

      case Opcode::st:
      case Opcode::sti: {
        Word base = readGpr(inst.rs1);
        Word off = inst.op == Opcode::st ? readGpr(inst.rs2)
                                         : static_cast<Word>(inst.imm);
        Word vaddr = base + off;
        if (ni::NetworkInterface::isNiAddr(vaddr))
            panic("HPU handlers reach the NI through the register "
                  "file, not the command window (pc=0x%08x)", pc_);
        idle_.noteSideEffect();
        if (vaddr == msg::hpuProxyAddr)
            postProxy();
        else
            mem_.write(localOf(vaddr), readGpr(inst.rd));
        break;
      }

      case Opcode::jmp: {
        Word target = readGpr(inst.rs1);
        if (inst.rd != 0)
            writeGpr(inst.rd, pc_ + 8, now + 1);
        new_target = target;
        break;
      }

      case Opcode::br: {
        Addr target = pc_ + 4 + static_cast<Addr>(inst.imm) * 4;
        if (inst.rd != 0)
            writeGpr(inst.rd, pc_ + 8, now + 1);
        new_target = target;
        break;
      }

      case Opcode::beqz:
      case Opcode::bnez:
      case Opcode::bltz:
      case Opcode::bgez: {
        Word v = readGpr(inst.rs1);
        bool taken = false;
        switch (inst.op) {
          case Opcode::beqz: taken = v == 0; break;
          case Opcode::bnez: taken = v != 0; break;
          case Opcode::bltz:
            taken = static_cast<int32_t>(v) < 0;
            break;
          default:
            taken = static_cast<int32_t>(v) >= 0;
            break;
        }
        if (taken)
            new_target = pc_ + 4 + static_cast<Addr>(inst.imm) * 4;
        break;
      }

      case Opcode::halt:
        idle_.noteSideEffect();
        TCPNI_TRACE(HPU, "halt after %llu instructions",
                    static_cast<unsigned long long>(instructions_ + 1));
        halted_ = true;
        return true;
    }

    // Execute folded NI commands after the instruction's own
    // operation, in SEND-then-NEXT order.
    if (inst.ni.any()) {
        idle_.noteSideEffect();
        ni::CmdResult res = ni_.command(inst.ni, ni::Port::hpu);
        if (res == ni::CmdResult::stall) {
            // The instruction body may have rewritten the o-register
            // the SEND addresses with, making the pre-check stale; a
            // transport-policy hold then only surfaces here.  The ALU
            // write is idempotent; rewind the delay slot and retry.
            branchTarget_ = resumed_branch;
            return false;
        }
        tcpni_assert(res == ni::CmdResult::ok);
        if (inst.ni.next)
            nextRetired_ = true;
    }

    pc_ = next_pc;
    if (new_target)
        branchTarget_ = new_target;
    return true;
}

} // namespace tcpni
