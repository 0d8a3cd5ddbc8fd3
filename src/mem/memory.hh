/**
 * @file
 * A node's local memory.
 *
 * Memory is byte-addressed but only word (32-bit) accesses are
 * supported, matching the RISC load/store model the paper's handlers
 * use.  Addresses must be word aligned.
 */

#ifndef TCPNI_MEM_MEMORY_HH
#define TCPNI_MEM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tcpni
{

/** Word-access local memory of one node. */
class Memory
{
  public:
    /** Create a memory of @p size_bytes bytes (rounded up to a word). */
    explicit Memory(Addr size_bytes);

    /** Read the word at byte address @p addr (must be aligned). */
    Word read(Addr addr) const;

    /** Write the word at byte address @p addr (must be aligned). */
    void
    write(Addr addr, Word value)
    {
        check(addr);
        words_[addr / 4] = value;
        ++version_;
        if (watchers_[0])
            wakeWatchers();
    }

    /** Count of writes so far: a processor probing a poll loop
     *  compares it across a loop period. */
    uint64_t version() const { return version_; }

    /** @{ A sleeping processor of this node (at most two: the CPU and
     *     the HPU) is woken by the next write. */
    void watch(Sleeper *s);
    void unwatch(Sleeper *s);
    /** @} */

    /** Memory size in bytes. */
    Addr size() const { return static_cast<Addr>(words_.size() * 4); }

    /** Zero all of memory. */
    void clear();

  private:
    void check(Addr addr) const;
    void wakeWatchers();

    std::vector<Word> words_;
    uint64_t version_ = 0;
    Sleeper *watchers_[2] = {nullptr, nullptr};
};

} // namespace tcpni

#endif // TCPNI_MEM_MEMORY_HH
