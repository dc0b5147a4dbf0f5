#include "workload/oltp.h"

#include "sim/ring_buffer.h"
#include "sim/types.h"

namespace piranha {

namespace {

// Region layout of the simulated database address space. Regions are
// page-interleaved across homes by the address map, like OS-allocated
// shared segments.
constexpr Addr kUserCode = 0x010000000;
constexpr Addr kKernCode = 0x018000000;
constexpr Addr kMeta = 0x020000000;
constexpr Addr kBranch = 0x030000000;
constexpr Addr kTeller = 0x031000000;
constexpr Addr kAccount = 0x032000000;
constexpr Addr kHistory = 0x080000000;
constexpr Addr kHistCursor = 0x07f000000;
constexpr Addr kLogLock = 0x090000000;
constexpr Addr kLogBuf = 0x090001000;
constexpr Addr kCache = 0x100000000;
constexpr Addr kPrivate = 0x400000000;

/** One server process's execution context. */
struct ServerCtx
{
    enum class State
    {
        Running,
        LogLock,
        LogWrite,
        IoWait,
    } state = State::Running;

    Addr privBase = 0;
    // Code-walk state: a current 2 KB window per region plus a small
    // set of hot "functions" the walk returns to (call locality).
    Addr userWindow = 0;
    Addr kernWindow = 0;
    std::array<Addr, 3> hotUser{};
    std::array<Addr, 2> hotKern{};
    unsigned accessesLeft = 0;
    std::uint64_t logPos = 0; //!< reserved log slots
    Addr privStride = 0;      //!< page stride of the private region
    unsigned pageShift = 13;
    Tick wakeAt = 0;
};

class OltpStream : public InstrStream
{
  public:
    OltpStream(OltpWorkload &wl, EventQueue &eq, unsigned cpu,
               unsigned total_cpus, std::uint64_t target, NodeId node,
               const AddressMap &amap)
        : _wl(wl), _p(wl.params()), _eq(eq), _cpu(cpu),
          _total(total_cpus), _target(target),
          _rng(wl.seed() ^ 0x9e3779b97f4a7c15ULL, cpu)
    {
        _histCount.assign(_p.branches, 0);
        _ctxs.resize(_p.serversPerCpu);
        for (unsigned s = 0; s < _p.serversPerCpu; ++s) {
            ServerCtx &c = _ctxs[s];
            // First-touch placement: the process's private pages are
            // homed at its own node (contiguous page runs whose page
            // index is congruent to `node` under the interleave).
            unsigned idx = cpu * _p.serversPerCpu + s;
            std::uint64_t pages_needed =
                (_p.privateBytes >> amap.pageShift) + 2;
            std::uint64_t base_page = kPrivate >> amap.pageShift;
            std::uint64_t first =
                base_page + idx * pages_needed * amap.numNodes;
            std::uint64_t adjust =
                (amap.numNodes + node - (first % amap.numNodes)) %
                amap.numNodes;
            c.privBase = (first + adjust) << amap.pageShift;
            c.privStride = static_cast<Addr>(amap.numNodes)
                           << amap.pageShift;
            c.pageShift = amap.pageShift;
            auto window = [&](Addr base, std::uint64_t bytes) {
                return base + (_rng.next64() % (bytes / 2048)) * 2048;
            };
            for (Addr &w : c.hotUser)
                w = window(kUserCode, _p.codeBytes);
            for (Addr &w : c.hotKern)
                w = window(kKernCode, _p.kernelBytes);
            c.userWindow = c.hotUser[0];
            c.kernWindow = c.hotKern[0];
            c.accessesLeft = _p.accessesPerTxn;
        }
    }

    std::uint64_t workDone() const override { return _txns; }

    StreamOp
    next() override
    {
        while (_q.empty()) {
            if (_txns >= _target)
                return StreamOp{}; // Done
            refill();
        }
        StreamOp op = _q.front();
        _q.pop_front();
        return op;
    }

  private:
    void
    emitCompute(ServerCtx &c, unsigned n, bool kernel)
    {
        // Code walk with call locality: mostly within the current
        // 2 KB window; calls return to a per-process hot-function set
        // that drifts slowly, so the aggregate instruction footprint
        // is large but each process's short-term footprint is not.
        Addr base = kernel ? kKernCode : kUserCode;
        std::uint64_t bytes = kernel ? _p.kernelBytes : _p.codeBytes;
        Addr &win = kernel ? c.kernWindow : c.userWindow;
        if (_rng.chance(0.08)) {
            if (kernel) {
                Addr &hot = c.hotKern[_rng.below(c.hotKern.size())];
                if (_rng.chance(0.06))
                    hot = base +
                          (_rng.next64() % (bytes / 2048)) * 2048;
                win = hot;
            } else {
                Addr &hot = c.hotUser[_rng.below(c.hotUser.size())];
                if (_rng.chance(0.06))
                    hot = base +
                          (_rng.next64() % (bytes / 2048)) * 2048;
                win = hot;
            }
        }
        Addr pc = win + _rng.below(2048 / 64) * 64;
        StreamOp op;
        op.kind = StreamOp::Kind::Compute;
        op.count = n;
        op.pc = pc;
        _q.push_back(op);
        _lastPc = pc;
    }

    void
    emitMem(StreamOp::Kind kind, Addr addr, unsigned size = 8)
    {
        StreamOp op;
        op.kind = kind;
        op.addr = addr;
        op.size = static_cast<std::uint8_t>(size);
        op.pc = _lastPc;
        op.value = _rng.next64();
        _q.push_back(op);
    }

    void
    emitRowRmw(Addr row_base)
    {
        emitMem(StreamOp::Kind::Load, row_base);
        emitMem(StreamOp::Kind::Load, row_base + 24);
        emitMem(StreamOp::Kind::Store, row_base + 8);
    }

    /** One data reference chosen by the category mix. */
    void
    emitReference(ServerCtx &c)
    {
        double wsum = _p.wAccount + _p.wBranch + _p.wTeller +
                      _p.wHistory + _p.wMeta + _p.wCache + _p.wPrivate;
        double r = _rng.uniform() * wsum;
        auto row = [&](Addr base, std::uint64_t rows) {
            return base + (_rng.next64() % rows) * _p.rowBytes;
        };
        std::uint64_t accounts =
            static_cast<std::uint64_t>(_p.branches) *
            _p.accountsPerBranch;
        if ((r -= _p.wAccount) < 0) {
            emitRowRmw(row(kAccount, accounts));
        } else if ((r -= _p.wBranch) < 0) {
            emitRowRmw(row(kBranch, _p.branches));
        } else if ((r -= _p.wTeller) < 0) {
            emitRowRmw(row(kTeller,
                           static_cast<std::uint64_t>(_p.branches) *
                               _p.tellersPerBranch));
        } else if ((r -= _p.wHistory) < 0) {
            // History append: migratory cursor + sequential row. Slot
            // allocation is per-stream interleaved (this CPU owns
            // every _total-th slot), so the generated addresses don't
            // depend on cross-stream generation order. The migratory
            // cursor line itself is still shared coherence traffic.
            unsigned b = _rng.below(_p.branches);
            Addr cur = kHistCursor + b * lineBytes;
            std::uint64_t idx = _histCount[b]++ * _total + _cpu;
            emitMem(StreamOp::Kind::Load, cur);
            emitMem(StreamOp::Kind::Store, cur);
            emitMem(StreamOp::Kind::Store,
                    kHistory + (static_cast<Addr>(b) << 24) +
                        (idx % 100000) * _p.rowBytes);
        } else if ((r -= _p.wMeta) < 0) {
            // Two-level skew: most metadata references fall in the
            // hottest region (latches, dictionary, hot indexes).
            std::uint64_t span = _rng.chance(_p.metaHotFrac)
                                     ? _p.metaHotBytes
                                     : _p.metaBytes;
            emitMem(StreamOp::Kind::Load,
                    kMeta + _rng.next64() % span);
        } else if ((r -= _p.wCache) < 0) {
            // DB block touch: the server walks a few consecutive
            // lines of the 8 KB block (row + header + directory),
            // giving the memory controller the block-level spatial
            // locality its open-page policy exploits.
            Addr block = kCache +
                         (_rng.next64() % (_p.cacheBytes / 8192)) * 8192;
            Addr a = block + _rng.below(8192 / lineBytes - 4) *
                                 lineBytes;
            for (unsigned l = 0; l < 3; ++l)
                emitMem(StreamOp::Kind::Load, a + l * lineBytes);
            if (_rng.chance(0.3))
                emitMem(StreamOp::Kind::Store, a + 8);
        } else {
            // Private stack/heap: small per-process working set on
            // node-local (first-touch) pages.
            std::uint64_t flat = _rng.below(static_cast<std::uint32_t>(
                                     _p.privateBytes / 8)) *
                                 8;
            Addr page_size = Addr(1) << c.pageShift;
            Addr a = c.privBase +
                     (flat >> c.pageShift) * c.privStride +
                     (flat & (page_size - 1));
            if (_rng.chance(0.4))
                emitMem(StreamOp::Kind::Store, a);
            else
                emitMem(StreamOp::Kind::Load, a);
        }
    }

    void
    refill()
    {
        // The CPU keeps running one server process until it blocks on
        // its commit's log I/O; only then does the scheduler switch to
        // the next runnable process (dedicated-server Oracle model).
        Tick now = _eq.curTick();
        ServerCtx *ctx = nullptr;
        Tick earliest = ~Tick(0);
        for (unsigned i = 0; i < _ctxs.size(); ++i) {
            ServerCtx &c = _ctxs[(_rr + i) % _ctxs.size()];
            if (c.state == ServerCtx::State::IoWait) {
                if (now >= c.wakeAt) {
                    c.state = ServerCtx::State::Running;
                    c.accessesLeft = _p.accessesPerTxn;
                } else {
                    earliest = std::min(earliest, c.wakeAt);
                    continue;
                }
            }
            ctx = &c;
            // Stay on this context (affinity); rotation happens when
            // it enters IoWait (see LogWrite below).
            _rr = (_rr + i) % _ctxs.size();
            break;
        }
        if (!ctx) {
            StreamOp idle;
            idle.kind = StreamOp::Kind::Idle;
            idle.count = static_cast<std::uint32_t>(
                std::max<Tick>(1, (earliest - now) / 2000) + 1);
            _q.push_back(idle);
            return;
        }
        ServerCtx &c = *ctx;
        switch (c.state) {
          case ServerCtx::State::Running:
            if (c.accessesLeft == 0) {
                c.state = ServerCtx::State::LogLock;
                return;
            }
            --c.accessesLeft;
            emitCompute(c, _rng.geometric(_p.computeRunMean),
                        _rng.chance(_p.kernelFrac));
            emitReference(c);
            return;

          case ServerCtx::State::LogLock:
            // Short critical section: reserve log space under the
            // latch, then release; the copy into the reserved slots
            // happens lock-free (Oracle-style redo allocation latch).
            // The reserve-and-release completes within one refill, so
            // the latch word is real contended coherence traffic while
            // slot numbers come from a per-stream interleaved counter
            // (this CPU owns every _total-th commit run): the emitted
            // addresses are independent of cross-stream generation
            // order.
            emitMem(StreamOp::Kind::Load, kLogLock);
            emitMem(StreamOp::Kind::Store, kLogLock);
            c.logPos = (_commits++ * _total + _cpu) * _p.commitStores;
            emitMem(StreamOp::Kind::Store, kLogLock + 8);
            emitMem(StreamOp::Kind::Store, kLogLock);
            c.state = ServerCtx::State::LogWrite;
            return;

          case ServerCtx::State::LogWrite: {
            emitCompute(c, 20, true);
            for (unsigned i = 0; i < _p.commitStores; ++i) {
                std::uint64_t pos = c.logPos + i;
                emitMem(StreamOp::Kind::Store,
                        kLogBuf + (pos % 65536) * 64);
            }
            ++_txns;
            c.state = ServerCtx::State::IoWait;
            c.wakeAt = _eq.curTick() +
                       static_cast<Tick>(_p.ioWaitUs * ticksPerUs);
            // Context switch: kernel path, then the scheduler picks
            // the next runnable server process.
            emitCompute(c, _p.switchInstrs, true);
            _rr = (_rr + 1) % _ctxs.size();
            return;
          }
          case ServerCtx::State::IoWait:
            return; // unreachable
        }
    }

    OltpWorkload &_wl;
    const OltpParams &_p;
    EventQueue &_eq;
    unsigned _cpu;
    unsigned _total;
    std::uint64_t _target;
    Pcg32 _rng;
    std::vector<ServerCtx> _ctxs;
    RingBuffer<StreamOp> _q;
    std::vector<std::uint64_t> _histCount; //!< per-branch appends here
    std::uint64_t _commits = 0; //!< log reservations by this stream
    std::uint64_t _txns = 0;
    unsigned _rr = 0;
    Addr _lastPc = kUserCode;
};

} // namespace

OltpWorkload::OltpWorkload(const OltpParams &p, std::uint64_t seed,
                           std::string name)
    : _p(p), _seed(seed), _name(std::move(name))
{
}

std::unique_ptr<InstrStream>
OltpWorkload::makeStream(EventQueue &eq, unsigned global_cpu,
                         unsigned total_cpus, std::uint64_t work_target,
                         NodeId node, const AddressMap &amap)
{
    return std::make_unique<OltpStream>(*this, eq, global_cpu,
                                        total_cpus, work_target, node,
                                        amap);
}

OltpParams
OltpWorkload::tpccParams()
{
    // TPC-C-like: larger transactions, heavier write sharing, larger
    // footprints (the paper reports P8 > 3x OOO on TPC-C).
    OltpParams p;
    p.accessesPerTxn = 220;
    p.wBranch = 0.07;
    p.wHistory = 0.10;
    p.wCache = 0.20;
    p.wPrivate = 0.20;
    p.wMeta = 0.23;
    p.cacheBytes = 1024ull << 20;
    p.ooo = WorkloadIlp{1.4, 0.28};
    return p;
}

} // namespace piranha
