#include "cpu/idle.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"

namespace tcpni
{

IdleLoop::IdleLoop(const std::string &owner, EventQueue &eq,
                   Memory &mem, ni::NetworkInterface *ni, IdleCore core)
    : owner_(owner), eq_(eq), mem_(mem), ni_(ni), core_(core)
{
}

IdleLoop::~IdleLoop()
{
    if (asleep_)
        stopWatching();
}

void
IdleLoop::arm(Tick boundary)
{
    if (!probe_)
        probe_ = std::make_unique<Probe>();
    armed_ = true;
    sideEffect_ = false;
    probePc_ = *core_.pc;
    probeStart_ = boundary;
    niVersion_ = ni_ ? ni_->version() : 0;
    memVersion_ = mem_.version();
    for (unsigned r = 0; r < isa::numRegs; ++r) {
        probe_->regs[r] = core_.regs[r];
        const Tick ready = core_.readyAt[r];
        probe_->ready[r] = ready > boundary ? ready - boundary : 0;
    }
    probe_->steps.clear();
    write_.rd = 0;
}

void
IdleLoop::record(Tick now, Addr pc, std::optional<Addr> target,
                 uint16_t region, uint64_t cycles, bool issued)
{
    const Write w = write_;
    write_.rd = 0;
    if (!armed_)
        return;
    if (probe_->steps.size() >= maxSteps) {
        armed_ = false;
        return;
    }
    Step s{};
    s.pc = pc;
    s.hasTarget = target.has_value();
    s.target = target.value_or(0);
    s.offset = static_cast<uint32_t>(now - probeStart_);
    s.cycles = static_cast<uint32_t>(cycles);
    s.region = region;
    s.issued = issued;
    if (issued && w.rd != 0) {
        s.rd = w.rd;
        s.value = w.value;
        s.readyDelta = static_cast<uint32_t>(w.readyAt - now);
    }
    probe_->steps.push_back(s);
}

void
IdleLoop::recordIssue(Tick now, Addr pc, std::optional<Addr> target,
                      uint16_t region)
{
    record(now, pc, target, region, 1, true);
}

void
IdleLoop::recordStall(Tick now, Addr pc, std::optional<Addr> target,
                      uint16_t region, uint64_t cycles)
{
    record(now, pc, target, region, cycles, false);
}

bool
IdleLoop::atBoundary(Tick now, bool arrived)
{
    const Tick boundary = now + 1;
    const Addr pc = *core_.pc;
    if (armed_ && pc == probePc_ && !sideEffect_ && !probe_->steps.empty() &&
        (!ni_ || ni_->version() == niVersion_) &&
        mem_.version() == memVersion_) {
        bool same = true;
        for (unsigned r = 0; r < isa::numRegs && same; ++r) {
            const Tick ready = core_.readyAt[r];
            same = core_.regs[r] == probe_->regs[r] &&
                   (ready > boundary ? ready - boundary : 0) ==
                       probe_->ready[r];
        }
        if (same) {
            sleep(boundary);
            return true;
        }
    }
    if (arrived &&
        (!armed_ || pc == probePc_ || probe_->steps.size() >= maxSteps))
        arm(boundary);
    return false;
}

void
IdleLoop::sleep(Tick start)
{
    armed_ = false;
    asleep_ = true;
    start_ = start;
    period_ = start - probeStart_;
    settled_ = 0;
    sleepCycles_ = 0;

    // The step that would exceed maxInstructions: a runaway poll loop
    // still panics at the tick it would have stepping.
    const uint64_t m = probe_->steps.size();
    uint64_t per_period = 0;
    for (const Step &s : probe_->steps)
        per_period += s.issued;
    tcpni_assert(per_period > 0);
    const uint64_t left =
        core_.maxInstructions - std::min(core_.maxInstructions,
                                         *core_.instructions);
    const uint64_t k = left / per_period;
    uint64_t j = left % per_period;
    uint64_t i = 0;
    for (;; ++i) {
        if (probe_->steps[i].issued && j-- == 0)
            break;
    }
    panicStep_ = k < never / (2 * m) ? k * m + i : never;

    eq_.resume(core_.clock, tickAt(nextClockStep(0)),
               core_.clock->gapEnd());
    eq_.addSleeper(this);
    if (ni_)
        ni_->watch(this);
    mem_.watch(this);
}

uint64_t
IdleLoop::nextClockStep(uint64_t from)
{
    // The next stall of two or more cycles at or after step @p from:
    // there the clock still fires, to make the schedule that orders it
    // among the other clocks (see keep()).
    const uint64_t m = probe_->steps.size();
    uint64_t next = never;
    for (uint64_t n = from; n < from + m; ++n) {
        const Step &s = probe_->steps[n % m];
        if (!s.issued && s.cycles >= 2) {
            next = n;
            break;
        }
    }
    keeping_ = next < panicStep_;
    clockStep_ = keeping_ ? next : panicStep_;
    return clockStep_;
}

Tick
IdleLoop::tickAt(uint64_t n) const
{
    if (n == never ||
        n / probe_->steps.size() >= (maxTick - start_) / period_)
        return maxTick - 1;
    return tickOf(n);
}

bool
IdleLoop::keep()
{
    if (!keeping_)
        return false;
    // This step stalls until its operand is ready: reschedule as the
    // stepping clock would here, so its run of consecutive cycles
    // begins at the stall's end with a seq drawn at this very point of
    // the tick (which is where the clock fires: its order record is
    // the one stepping would have).
    const uint64_t n = clockStep_;
    eq_.scheduleRun(core_.clock, tickAt(nextClockStep(n + 1)),
                    tickOf(n + 1));
    return true;
}

void
IdleLoop::stopWatching()
{
    eq_.removeSleeper(this);
    if (ni_)
        ni_->unwatch(this);
    mem_.unwatch(this);
}

Tick
IdleLoop::tickOf(uint64_t n) const
{
    const uint64_t m = probe_->steps.size();
    return start_ + (n / m) * period_ + probe_->steps[n % m].offset;
}

uint64_t
IdleLoop::countBefore(Tick t) const
{
    if (t <= start_)
        return 0;
    const Tick d = t - start_;
    const std::vector<Step> &steps = probe_->steps;
    const auto at = std::lower_bound(
        steps.begin(), steps.end(), d % period_,
        [](const Step &s, Tick r) { return s.offset < r; });
    return (d / period_) * steps.size() +
           static_cast<uint64_t>(at - steps.begin());
}

uint64_t
IdleLoop::happened() const
{
    const Tick now = eq_.curTick();
    uint64_t n = countBefore(now);
    if (tickOf(n) == now &&
        eq_.passed(*core_.clock, core_.clock->gapEnd()))
        ++n;
    return n;
}

void
IdleLoop::applyStep(const Step &s, uint64_t times)
{
    const uint64_t c = uint64_t{s.cycles} * times;
    *core_.cycles += c;
    (*core_.regionCycles)[s.region] += c;
    sleepCycles_ += c;
    if (s.issued) {
        *core_.instructions += times;
        (*core_.regionInsts)[s.region] += times;
    } else {
        *core_.stallCycles += c;
    }
}

void
IdleLoop::applyTo(uint64_t n)
{
    const uint64_t m = probe_->steps.size();
    uint64_t a = settled_;
    for (; a < n && a % m != 0; ++a)
        applyStep(probe_->steps[a % m], 1);
    const uint64_t whole = (n - std::min(n, a)) / m;
    if (whole) {
        for (const Step &s : probe_->steps)
            applyStep(s, whole);
        a += whole * m;
    }
    for (; a < n; ++a)
        applyStep(probe_->steps[a % m], 1);
    settled_ = std::max(settled_, n);
}

void
IdleLoop::restore(uint64_t n)
{
    const uint64_t m = probe_->steps.size();
    const uint64_t i = n % m;
    const Tick base = start_ + (n / m) * period_;
    for (unsigned r = 0; r < isa::numRegs; ++r) {
        core_.regs[r] = probe_->regs[r];
        core_.readyAt[r] = base + probe_->ready[r];
    }
    for (uint64_t j = 0; j < i; ++j) {
        const Step &s = probe_->steps[j];
        if (s.rd != 0) {
            core_.regs[s.rd] = s.value;
            core_.readyAt[s.rd] = base + s.offset + s.readyDelta;
        }
    }
    *core_.pc = probe_->steps[i].pc;
    if (probe_->steps[i].hasTarget)
        *core_.branchTarget = probe_->steps[i].target;
    else
        core_.branchTarget->reset();
}

void
IdleLoop::settle()
{
    applyTo(happened());
}

Tick
IdleLoop::lastEventBy(Tick bound) const
{
    const uint64_t n = countBefore(bound == maxTick ? bound : bound + 1);
    return n == 0 ? 0 : tickOf(n - 1);
}

void
IdleLoop::endAt(uint64_t n)
{
    tcpni_assert(asleep_);
    applyTo(n);
    restore(n);
    stopWatching();
    asleep_ = false;
    const unsigned long long periods = n / probe_->steps.size();
    if (core_.trace) {
        inform("%s %6llu  sleep pc=%08x: %llu period(s) of %llu "
               "tick(s), %llu cycle(s) skipped", owner_.c_str(),
               static_cast<unsigned long long>(start_), probePc_,
               periods, static_cast<unsigned long long>(period_),
               static_cast<unsigned long long>(sleepCycles_));
    }
    TCPNI_TRACE_AT(CPU, start_, owner_.c_str(),
                   "sleep pc=0x%08x: %llu period(s) of %llu tick(s), "
                   "%llu cycle(s) skipped, resume at %llu", probePc_,
                   periods, static_cast<unsigned long long>(period_),
                   static_cast<unsigned long long>(sleepCycles_),
                   static_cast<unsigned long long>(tickOf(n)));
}

void
IdleLoop::wake()
{
    const uint64_t n = happened();
    endAt(n);
    // The clock may already sit at that tick (a recorded stall or the
    // maxInstructions step), with the very order record it needs.
    const Tick at = tickOf(n);
    if (core_.clock->scheduled() && core_.clock->when() == at)
        return;
    if (core_.clock->scheduled())
        eq_.deschedule(core_.clock);
    eq_.resume(core_.clock, at, core_.clock->gapEnd());
}

void
IdleLoop::resumeHere()
{
    endAt(countBefore(eq_.curTick()));
}

} // namespace tcpni
