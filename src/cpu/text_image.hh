/**
 * @file
 * The loaded text of a processor (Cpu or Hpu): a flat per-word table
 * over the address range its programs were loaded to, holding each
 * word's cost region and, once fetched, its decode together with the
 * raw word it was decoded from.
 *
 * A fetch compares the word now in memory with that raw word and uses
 * the cached decode only when they match; otherwise it decodes the
 * word afresh (and caches that).  A store to text therefore needs no
 * invalidation hook.  The table covers only the loaded programs, not
 * the node's whole memory.
 */

#ifndef TCPNI_CPU_TEXT_IMAGE_HH
#define TCPNI_CPU_TEXT_IMAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "mem/memory.hh"

namespace tcpni
{

class TextImage
{
  public:
    /** Copy @p prog into @p mem and adopt its words and regions
     *  (regions are merged by name; id 0 is the unnamed region). */
    void
    load(const isa::Program &prog, Memory &mem)
    {
        std::vector<uint16_t> remap(prog.regionNames.size());
        for (size_t i = 0; i < prog.regionNames.size(); ++i) {
            size_t id = 0;
            while (id < names_.size() && names_[id] != prog.regionNames[i])
                ++id;
            if (id == names_.size())
                names_.push_back(prog.regionNames[i]);
            remap[i] = static_cast<uint16_t>(id);
        }

        const Addr end = prog.base + prog.sizeBytes();
        if (words_.empty()) {
            base_ = prog.base;
        } else if (prog.base < base_) {
            words_.insert(words_.begin(), (base_ - prog.base) / 4, Entry{});
            base_ = prog.base;
        }
        if (end > base_ + words_.size() * 4)
            words_.resize((end - base_) / 4);

        for (size_t i = 0; i < prog.words.size(); ++i) {
            const Addr a = prog.base + static_cast<Addr>(i * 4);
            mem.write(a, prog.words[i]);
            Entry &e = words_[(a - base_) / 4];
            e.region = remap[prog.regionOf[i]];
            e.decoded = false;
        }
    }

    /** Region names by id. */
    const std::vector<std::string> &regionNames() const { return names_; }

    /** Region of the word at @p addr (0 outside loaded text). */
    uint16_t
    regionOf(Addr addr) const
    {
        const Addr i = (addr - base_) / 4;
        return addr >= base_ && i < words_.size() ? words_[i].region : 0;
    }

    /** The decode of @p raw, the word now in memory at @p pc. */
    isa::Instruction
    fetch(Addr pc, Word raw)
    {
        const Addr i = (pc - base_) / 4;
        if (pc < base_ || i >= words_.size())
            return isa::decode(raw);
        Entry &e = words_[i];
        if (!e.decoded || e.raw != raw) {
            e.inst = isa::decode(raw);
            e.raw = raw;
            e.decoded = true;
        }
        return e.inst;
    }

  private:
    struct Entry
    {
        isa::Instruction inst;
        Word raw = 0;
        uint16_t region = 0;
        bool decoded = false;
    };

    Addr base_ = 0;
    std::vector<Entry> words_;
    std::vector<std::string> names_{""};
};

} // namespace tcpni

#endif // TCPNI_CPU_TEXT_IMAGE_HH
