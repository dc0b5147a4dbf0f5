#include "trace/trace_writer.h"

#include <stdexcept>

#include "sim/logging.h"

namespace piranha {

TraceWriter::TraceWriter(const std::string &path, const Meta &meta,
                         std::size_t buffer_records)
    : _path(path),
      _os(path, std::ios::binary | std::ios::trunc),
      _bufRecords(buffer_records ? buffer_records : 1),
      _cpus(meta.nCpus)
{
    if (!_os)
        throw std::runtime_error("cannot create trace file " + path);
    if (meta.nCpus == 0)
        throw std::runtime_error("trace writer needs >= 1 CPU");
    _hdr.headerBytes = sizeof(TraceFileHeader);
    _hdr.recordBytes = sizeof(TraceRecord);
    _hdr.nodes = meta.nodes;
    _hdr.cpusPerChip = meta.cpusPerChip;
    _hdr.nCpus = meta.nCpus;
    _hdr.seed = meta.seed;
    _hdr.workPerCpu = meta.workPerCpu;
    _hdr.issueIlp = meta.ilp.issueIlp;
    _hdr.memOverlap = meta.ilp.memOverlap;
    traceSetString(_hdr.workload, meta.workload);
    traceSetString(_hdr.config, meta.config);
    traceSetString(_hdr.label, meta.label);
    for (PerCpu &c : _cpus) {
        c.buf.reserve(_bufRecords);
        c.footer.checksum = kFnvOffsetBasis;
    }
    writeRaw(&_hdr, sizeof(_hdr));
}

TraceWriter::~TraceWriter()
{
    if (_finalized)
        return;
    try {
        finalize();
    } catch (const std::exception &e) {
        warn("trace %s left unfinalized: %s", _path.c_str(), e.what());
    }
}

void
TraceWriter::writeRaw(const void *data, std::size_t n)
{
    _os.write(static_cast<const char *>(data),
              static_cast<std::streamsize>(n));
    if (!_os)
        throw std::runtime_error("write failed on trace file " + _path);
    _offset += n;
}

void
TraceWriter::append(unsigned cpu, const TraceRecord &r)
{
    if (_finalized)
        throw std::runtime_error("append to finalized trace " + _path);
    if (cpu >= _cpus.size())
        throw std::runtime_error(
            strFormat("trace cpu %u out of range (nCpus %zu)", cpu,
                      _cpus.size()));
    PerCpu &c = _cpus[cpu];
    c.buf.push_back(r);
    c.footer.records += 1;
    c.footer.finalWork += r.workDelta;
    c.footer.tickSpan += r.tickDelta;
    if (c.buf.size() >= _bufRecords)
        flushCpu(cpu);
}

void
TraceWriter::flushCpu(unsigned cpu)
{
    PerCpu &c = _cpus[cpu];
    if (c.buf.empty())
        return;
    std::size_t bytes = c.buf.size() * sizeof(TraceRecord);
    TraceChunkHeader ch;
    ch.cpu = cpu;
    ch.bytes = static_cast<std::uint32_t>(bytes);
    writeRaw(&ch, sizeof(ch));
    TraceChunkIndex idx;
    idx.offset = _offset; // payload offset (after the chunk header)
    idx.cpu = cpu;
    idx.bytes = ch.bytes;
    _index.push_back(idx);
    writeRaw(c.buf.data(), bytes);
    c.footer.bytes += bytes;
    c.footer.checksum = fnv1a(c.footer.checksum, c.buf.data(), bytes);
    c.buf.clear();
}

std::uint64_t
TraceWriter::recordsWritten() const
{
    std::uint64_t n = 0;
    for (const PerCpu &c : _cpus)
        n += c.footer.records;
    return n;
}

void
TraceWriter::finalize()
{
    if (_finalized)
        return;
    for (unsigned cpu = 0; cpu < _cpus.size(); ++cpu)
        flushCpu(cpu);

    TraceTrailer trailer;
    trailer.footerOffset = _offset;

    TraceFooterHeader fh;
    fh.nCpus = _hdr.nCpus;
    fh.chunkCount = _index.size();
    fh.totalRecords = recordsWritten();
    writeRaw(&fh, sizeof(fh));
    for (const PerCpu &c : _cpus)
        writeRaw(&c.footer, sizeof(c.footer));
    if (!_index.empty())
        writeRaw(_index.data(),
                 _index.size() * sizeof(TraceChunkIndex));
    writeRaw(&trailer, sizeof(trailer));
    _os.flush();
    if (!_os)
        throw std::runtime_error("flush failed on trace file " + _path);
    _finalized = true;
}

StreamOp
RecordingStream::next()
{
    StreamOp op = _inner->next();
    // The core stops at the first Done; guard anyway so a stray extra
    // pull cannot append duplicate terminators.
    if (_doneRecorded)
        return op;
    Tick now = _eq.curTick();
    std::uint64_t work = _inner->workDone();
    std::uint64_t wd = work - _lastWork;
    if (wd > 0xFF)
        throw std::runtime_error(
            strFormat("trace work delta %llu exceeds the format's "
                      "8-bit field",
                      (unsigned long long)wd));
    _w.append(_cpu, encodeOp(op, _lastPc, now - _lastTick,
                             static_cast<std::uint8_t>(wd)));
    _lastPc = op.pc;
    _lastTick = now;
    _lastWork = work;
    if (op.kind == StreamOp::Kind::Done)
        _doneRecorded = true;
    return op;
}

RecordingWorkload::RecordingWorkload(std::unique_ptr<Workload> inner,
                                     std::string path,
                                     std::string config_name,
                                     std::string label, unsigned nodes,
                                     unsigned cpus_per_chip)
    : _inner(std::move(inner)), _path(std::move(path)),
      _configName(std::move(config_name)), _label(std::move(label)),
      _nodes(nodes), _cpusPerChip(cpus_per_chip)
{
    if (!_inner)
        throw std::runtime_error("RecordingWorkload needs a workload");
}

RecordingWorkload::~RecordingWorkload()
{
    try {
        finalize();
    } catch (const std::exception &e) {
        warn("recording %s not finalized: %s", _path.c_str(),
             e.what());
    }
}

void
RecordingWorkload::finalize()
{
    if (_writer)
        _writer->finalize();
}

std::unique_ptr<InstrStream>
RecordingWorkload::makeStream(EventQueue &eq, unsigned global_cpu,
                              unsigned total_cpus,
                              std::uint64_t work_target, NodeId node,
                              const AddressMap &amap)
{
    if (!_writer) {
        TraceWriter::Meta meta;
        meta.nodes = _nodes;
        meta.cpusPerChip = _cpusPerChip;
        meta.nCpus = total_cpus;
        meta.seed = _inner->seed();
        meta.workPerCpu = work_target;
        meta.ilp = _inner->ilp();
        meta.workload = _inner->name();
        meta.config = _configName;
        meta.label = _label;
        _writer = std::make_unique<TraceWriter>(_path, meta);
    }
    if (_streamsMade >= total_cpus || _writer->finalized())
        throw std::runtime_error(
            "RecordingWorkload records exactly one run; create a "
            "fresh instance per run");
    ++_streamsMade;
    return std::make_unique<RecordingStream>(
        _inner->makeStream(eq, global_cpu, total_cpus, work_target,
                           node, amap),
        *_writer, global_cpu, eq);
}

} // namespace piranha
