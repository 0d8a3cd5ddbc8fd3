#include "mem/memory.hh"

#include "common/logging.hh"

namespace tcpni
{

Memory::Memory(Addr size_bytes)
    : words_((size_bytes + 3) / 4, 0)
{
}

void
Memory::check(Addr addr) const
{
    if (addr & 3)
        panic("unaligned word access at 0x%08x", addr);
    if (addr / 4 >= words_.size())
        panic("memory access out of bounds at 0x%08x (size 0x%08x)",
              addr, size());
}

Word
Memory::read(Addr addr) const
{
    check(addr);
    return words_[addr / 4];
}

void
Memory::clear()
{
    for (Word &w : words_)
        w = 0;
    ++version_;
    if (watchers_[0])
        wakeWatchers();
}

void
Memory::watch(Sleeper *s)
{
    tcpni_assert(!watchers_[1]);
    watchers_[watchers_[0] ? 1 : 0] = s;
}

void
Memory::unwatch(Sleeper *s)
{
    if (watchers_[0] == s) {
        watchers_[0] = watchers_[1];
        watchers_[1] = nullptr;
    } else {
        tcpni_assert(watchers_[1] == s);
        watchers_[1] = nullptr;
    }
}

void
Memory::wakeWatchers()
{
    // A woken sleeper unwatches itself: wake a copy of the list.
    Sleeper *w[2] = {watchers_[0], watchers_[1]};
    for (Sleeper *s : w)
        if (s)
            s->wake();
}

} // namespace tcpni
