/**
 * @file
 * Functional memory contents for one node.
 *
 * Memory is sparse, so simulating the paper's multi-hundred-megabyte
 * database working sets costs host memory proportional to the lines
 * actually referenced, and line data proportional to the lines
 * actually written. Each stored line holds its 64 data bytes plus the
 * 44 directory bits that live in the freed ECC bits (paper §2.5.2).
 *
 * Two structures:
 *  - an index (the flat open-addressed LineTable) from line number to
 *    a 1-based slot in the stored-line array, with 0 meaning touched
 *    but never written — such a line reads as zeros;
 *  - a dense array of the written lines.
 *
 * A read only records the line in the index, so a read-only scan
 * (DSS) leaves a 4-byte value per line instead of a 72-byte line.
 * Every memory read and posted write goes through the index, and it
 * showed up as one of the hottest host-side maps under OLTP.
 */

#ifndef PIRANHA_MEM_BACKING_STORE_H
#define PIRANHA_MEM_BACKING_STORE_H

#include <cstdint>
#include <vector>

#include "mem/coherence_types.h"
#include "sim/line_table.h"
#include "sim/types.h"

namespace piranha {

/** Sparse line-granularity memory with in-ECC directory bits. */
class BackingStore
{
  public:
    struct Line
    {
        LineData data;
        std::uint64_t dirBits = 0;
    };

    /** Writable access to the line containing @p addr; touches it and
     *  gives it storage. The reference is invalidated by the next
     *  access that stores a new line. */
    Line &
    line(Addr addr)
    {
        std::uint32_t &slot = _index[lineNum(addr)];
        if (slot == 0) {
            _stored.emplace_back();
            slot = static_cast<std::uint32_t>(_stored.size());
        }
        return _stored[slot - 1];
    }

    /** A memory-controller read: touches the line (it joins the
     *  forEachLine walk) but stores nothing for a never-written one.
     *  The reference is invalidated by the next line(). */
    const Line &
    read(Addr addr)
    {
        std::uint32_t slot = _index[lineNum(addr)];
        return slot ? _stored[slot - 1] : kZeroLine;
    }

    /** Read-only access; returns a zero line if never written. */
    Line
    peek(Addr addr) const
    {
        const std::uint32_t *slot = _index.find(lineNum(addr));
        return slot && *slot ? _stored[*slot - 1] : Line{};
    }

    /** Number of touched lines (read or written). */
    std::size_t touchedLines() const { return _index.size(); }

    /** Number of lines holding data (ever written). */
    std::size_t storedLines() const { return _stored.size(); }

    /**
     * Visit the address of every touched line. Iteration order is a
     * deterministic function of the touch history, so fault-site
     * selection driven by a seeded RNG over this walk is reproducible
     * run-to-run.
     */
    template <typename F>
    void
    forEachLine(F f) const
    {
        _index.forEach([&](std::uint64_t line_num, std::uint32_t) {
            f(static_cast<Addr>(line_num * lineBytes));
        });
    }

    /** Convenience for test setup: write a 64-bit word functionally. */
    void
    poke64(Addr addr, std::uint64_t value)
    {
        line(addr).data.write(static_cast<unsigned>(addr & (lineBytes - 1)),
                              8, value);
    }

    std::uint64_t
    peek64(Addr addr) const
    {
        return peek(addr).data.read(
            static_cast<unsigned>(addr & (lineBytes - 1)), 8);
    }

  private:
    static const Line kZeroLine;

    LineTable<std::uint32_t> _index;
    std::vector<Line> _stored;
};

inline const BackingStore::Line BackingStore::kZeroLine{};

} // namespace piranha

#endif // PIRANHA_MEM_BACKING_STORE_H
