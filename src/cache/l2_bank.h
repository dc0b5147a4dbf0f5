/**
 * @file
 * One bank of the shared second-level cache (paper §2.3).
 *
 * The 1 MB L2 is physically partitioned into eight banks, interleaved
 * on the low bits of the line address, each 8-way set-associative
 * with round-robin (least-recently-loaded) replacement. The L2 does
 * NOT maintain inclusion of the L1s: misses that also miss in the L2
 * are filled directly from memory without allocating an L2 line, and
 * the L2 behaves as a large victim cache filled by L1 replacements
 * (even of clean data).
 *
 * Each bank keeps duplicate L1 tag/state for the lines that map to it
 * plus an ownership record: the owner of a line is the L2 (when it
 * holds a valid copy), an L1 in exclusive state, or one of the
 * sharing L1s (the last requester). Only the owner L1 writes back on
 * replacement, and the L2 makes that decision at its serialization
 * point, piggybacking it on the reply to the displacing request.
 * Together with the ICS ordering this removes the need for on-chip
 * invalidation acknowledgements.
 *
 * The bank is the intra-chip coherence serialization point: each line
 * has at most one active transaction; conflicting requests queue in a
 * per-line pending list (paper: "request pending entries"). Requests
 * that need inter-node action are handed to the home or remote
 * protocol engine; the bank also services engine-initiated local
 * reads/invalidations on behalf of remote nodes.
 */

#ifndef PIRANHA_CACHE_L2_BANK_H
#define PIRANHA_CACHE_L2_BANK_H

#include "cache/tag_array.h"
#include "ics/intra_chip_switch.h"
#include "mem/coherence_types.h"
#include "mem/directory.h"
#include "mem/mem_ctrl.h"
#include "sim/line_table.h"
#include "sim/recycle_pool.h"
#include "sim/ring_buffer.h"
#include "sim/sim_object.h"
#include "stats/stats.h"
#include "system/address_map.h"
#include "system/chip_ports.h"

namespace piranha {

/** One L2 line: payload + dirty-vs-memory flag. */
struct L2Line : TagLine
{
    LineData data;
    bool dirty = false;
    /**
     * Tag or data parity failed (fault injection). Detected on the
     * next read: the clean copy is discarded and refetched from
     * memory. Always false without an attached injector.
     */
    bool parityBad = false;
};

/** Configuration of one L2 bank. */
struct L2Params
{
    std::size_t bankBytes = 128 * 1024;
    unsigned assoc = 8;
    unsigned lookupCycles = 3; //!< tag + duplicate-tag lookup
    /**
     * Cache partial directory interpretation at the L2 (paper §2.3:
     * "this partial information ... allows the L2 controller at home
     * to avoid communicating with the protocol engines for the
     * majority of local L1 requests"). Disable for ablation.
     */
    bool pdirShortcut = true;

    /** Coherence tracer and seeded fault shared by the whole chip
     *  (src/check/); filled in by Chip. */
    CoherenceTracer *tracer = nullptr;
    FaultState *faults = nullptr;
    /** Fault injector (src/fault/); filled in by Chip. */
    FaultInjector *injector = nullptr;
};

/** A second-level cache bank with its duplicate-L1-tag directory. */
class L2Bank : public SimObject, public IcsClient
{
  public:
    L2Bank(EventQueue &eq, std::string name, const L2Params &params,
           const Clock &clk, IntraChipSwitch &ics, int my_port,
           NodeId node, const AddressMap &amap, MemCtrl &mc);

    void icsDeliver(const IcsMsg &msg) override;

    void regStats(StatGroup &parent);

    /** L1-miss service breakdown (paper Fig. 6b). */
    Scalar statL2Hit;
    Scalar statL2Fwd;
    Scalar statMemLocal;
    Scalar statMemRemote;
    Scalar statRemoteDirty;
    Scalar statWbInstalls;
    Scalar statL2Evictions;
    Scalar statBlockedReqs;
    Scalar statEngineTrips;
    Scalar statPdirShortcut;

    /** Test support: current duplicate-tag view of a line. */
    std::uint32_t dupSharers(Addr addr) const;
    bool lineBusy(Addr addr) const;
    /** Test support: lines holding a pooled Pending record. */
    std::size_t pendingRecords() const { return _pending.live(); }

    /** Diagnostic dump of busy lines. */
    void debugDump(std::ostream &os) const;

#if PIRANHA_FAULT_INJECT
    /**
     * Fault-injection site selection. Eligible lines are valid,
     * clean, and local-homed: a clean local line is backed by current
     * memory, so discard-and-refetch is a sound recovery (dirty or
     * remote-owned L2 parity losses would need protocol machinery the
     * paper does not describe; the injector models those through the
     * L1 dirty-parity machine check instead).
     */
    unsigned faultEligibleLines() const;

    /** Mark the @p nth eligible line parity-bad; when @p corrupt_data
     *  also flip data bit @p bit. Returns false if out of range. */
    bool faultMarkParity(unsigned nth, unsigned bit, bool corrupt_data);
#endif

    /**
     * Hook that stashes an evicted node-exclusive line into the
     * remote engine's write-back buffer synchronously, before the
     * WbExcl message is even in flight: the paper's no-NAK guarantee
     * requires the owner to hold valid data continuously until the
     * home acknowledges, so a forwarded request can never find the
     * node empty-handed.
     */
    void
    setWbBufferHook(
        std::function<void(Addr, const LineData &, bool)> fn)
    {
        _wbBufferHook = std::move(fn);
    }

  private:
    /** Transaction state of one line (see Pending). */
    struct Txn
    {
        enum Kind : std::uint8_t
        {
            None,
            L1Fwd,    //!< forwarded to owner L1, awaiting FwdDone
            L1Mem,    //!< local memory read in flight
            L1Engine, //!< protocol engine action in flight
            WbWait,   //!< authorized L1 write-back inbound
            PeRead,   //!< engine-initiated local gather
            PeReadFwd, //!< gather forwarded to owner L1
            PeHeld    //!< replied, held until PeComplete
        } kind = None;

        IcsMsg req;             //!< original request
        bool wbDecision = false;
        bool upgradeTurnedFill = false;
        // PeRead gather state.
        LineData data;
        bool haveData = false;
        bool gatherDirty = false;
        std::uint64_t dirBits = 0;
        bool haveDir = false;
        bool localPresent = false;
    };

    /**
     * The state of a line with work in flight: its active
     * transactions and the requests queued behind them. Only a few
     * lines are ever in flight, so this lives in a bank-owned pool and
     * Info points at it: a record is taken when a line becomes busy,
     * gets an engine op or queues a request, and returned when all
     * three are over. A returned record keeps its queue's capacity.
     */
    struct Pending
    {
        Txn txn; //!< valid while Info::busy
        /**
         * Engine-initiated transaction slot (valid while
         * Info::peActive). Kept separate from txn so a protocol engine
         * can read/invalidate local state while an L1 request on the
         * same line is parked waiting for that same engine (avoids
         * L2/engine deadlock; the engine is the inter-node
         * serialization point, so the results it returns reflect the
         * remote op's outcome).
         */
        Txn peTxn;
        RingBuffer<IcsMsg> blocked;
    };

    /** Per-line on-chip bookkeeping (duplicate tags + ownership). */
    struct Info
    {
        std::uint32_t sharers = 0; //!< bitmask over 16 L1 ids
        int ownerL1 = -1;          //!< owning/last-requester L1
        bool l1Excl = false;       //!< owner holds E/M

        bool nodeExcl = false;  //!< chip may write (remote-homed)
        bool nodeDirty = false; //!< chip data newer than home memory,
                                //!< but no single M copy holds it

        /** Cached partial directory info for home-local lines. */
        enum PDir : std::uint8_t
        {
            PD_Unknown,
            PD_None,
            PD_Shared,
            PD_Excl
        } pdir = PD_Unknown;

        bool busy = false;     //!< an L1-request transaction is active
        bool peActive = false; //!< an engine-initiated op is active
        /** Non-null exactly while busy, peActive or requests are
         *  blocked on the line. */
        Pending *pend = nullptr;

        bool blocked() const { return pend && !pend->blocked.empty(); }
    };
    // Every line the bank tracks pays for an Info; in-flight state
    // belongs in Pending.
    static_assert(sizeof(Info) <= 32);

    /**
     * One in-flight bank-pipeline occurrence: a delivered message
     * waiting out the lookup latency, or a blocked request waiting
     * out the one-cycle drain delay. Pooled because several messages
     * can be in the lookup pipeline at once.
     */
    struct MsgEvent final : public Event
    {
        explicit MsgEvent(L2Bank *b) : bank(b) {}
        void process() override;
        const char *eventName() const override { return "l2.msg"; }
        L2Bank *bank;
        IcsMsg msg;
        bool drainRetry = false;
    };

    bool isLocal(Addr addr) const { return _amap.home(addr) == _node; }

    /** Per-line state lookup with a one-entry cache: handler chains
     *  touch the same line several times per message, and the repeat
     *  hash probes were measurable under OLTP. Safe because
     *  StableLineTable values are pointer-stable; maybeErase drops the
     *  cached entry. */
    Info &
    infoFor(Addr addr)
    {
        Addr line = lineNum(addr);
        if (_lastInfo && _lastInfoLine == line)
            return *_lastInfo;
        Info &i = _info[line];
        _lastInfoLine = line;
        _lastInfo = &i;
        return i;
    }

    void maybeErase(Addr addr);

    /** The line's Pending record, taken from the pool if it has none. */
    Pending &
    pendingFor(Info &info)
    {
        if (!info.pend)
            info.pend = _pending.acquire();
        return *info.pend;
    }

    /** Mark the line busy (beginTxn) or engine-active (beginPeTxn)
     *  and return its transaction slot, reset. */
    Txn &beginTxn(Info &info);
    Txn &beginPeTxn(Info &info);
    /** Queue @p msg behind the line's active transaction. */
    void block(Info &info, IcsMsg msg);
    /** Return the line's Pending record once nothing is in flight. */
    void releaseIfIdle(Info &info);

#if PIRANHA_FAULT_INJECT
    /**
     * Read-time parity check: returns the line, or discards a
     * parity-bad copy (clean, so memory is current — the caller then
     * proceeds as on an L2 miss and refetches) and returns null.
     */
    L2Line *findChecked(Addr addr);
#else
    L2Line *findChecked(Addr addr) { return _tags.find(addr); }
#endif

    // Request-side handlers.
    void lookupDispatch(IcsMsg m);
    void drainRetryDispatch(IcsMsg next);
    void onL1Request(IcsMsg msg);
    void dispatchL1Request(IcsMsg msg, bool wb_decision);
    bool handleVictim(const IcsMsg &msg);
    void onWbData(const IcsMsg &msg);
    void onFwdDone(const IcsMsg &msg);
    void onGatherData(const IcsMsg &msg);
    void onMemData(Addr addr, const LineData &data,
                   std::uint64_t dir_bits);
    void onPeData(const IcsMsg &msg);
    void onPeReadLocal(IcsMsg msg);
    void onPeInvalLocal(IcsMsg msg);

    // Actions.
    void replyFill(const IcsMsg &req, const LineData &data, bool has_data,
                   bool exclusive, FillSource source, bool wb_decision);
    void replyUpgradeAck(const IcsMsg &req);
    void invalL1Sharers(Info &info, Addr addr, int except_l1);
    void invalL2Copy(Info &info, Addr addr);
    void installL2(Addr addr, const LineData &data, bool dirty);
    void evictL2Line(L2Line &line);
    void sendEngine(const IcsMsg &req, PeOp op, bool to_home,
                    std::uint64_t dir_bits, bool has_dir);
    void finishTxn(Addr addr);
    void finishPeTxn(Addr addr);
    void drainBlocked(Addr addr);
    bool canProcess(const Info &info, const IcsMsg &msg) const;
    void completePeRead(Addr addr);
    void grantLocalExclusive(IcsMsg req, bool wb_decision,
                             const LineData *mem_data);

    L2Params _p;
    const Clock &_clk;
    IntraChipSwitch &_ics;
    int _myPort;
    NodeId _node;
    AddressMap _amap;
    MemCtrl &_mc;

    TagArray<L2Line> _tags;
    /** Keyed by line number; values pointer-stable (the protocol code
     *  holds Info& across calls that may create state for other
     *  lines). */
    StableLineTable<Info> _info;
    RecyclePool<Pending> _pending;
    Addr _lastInfoLine = 0;
    Info *_lastInfo = nullptr;
    std::function<void(Addr, const LineData &, bool)> _wbBufferHook;
    EventPool<MsgEvent> _msgEvents;
    StatGroup _stats;
};

} // namespace piranha

#endif // PIRANHA_CACHE_L2_BANK_H
