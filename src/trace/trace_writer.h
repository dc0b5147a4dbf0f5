/**
 * @file
 * Record side of the trace boundary (DESIGN.md §10).
 *
 * TraceWriter owns one output file and a fixed-size record buffer per
 * CPU; full buffers are flushed as chunks, and an explicit finalize
 * writes the per-CPU footer, chunk index and trailer that make the
 * file valid. A recording interrupted before finalize (crash, kill)
 * leaves a file without a trailer, which TraceReader::validateFile
 * reports as truncated — there is no in-between state.
 *
 * RecordingStream is the transparent shim that taps the pull side of
 * any InstrStream: it forwards next()/workDone()/memCompleted()
 * verbatim (a recorded run is bit-identical to an unrecorded one) and
 * appends one TraceRecord per pull. RecordingWorkload wraps a whole
 * Workload so any named workload run — including every job of a
 * sweep (sweep_main --record=DIR) — is captured without touching the
 * workload or the system under measurement.
 */

#ifndef PIRANHA_TRACE_TRACE_WRITER_H
#define PIRANHA_TRACE_TRACE_WRITER_H

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "trace/trace_format.h"
#include "workload/workload.h"

namespace piranha {

/** Streams packed per-CPU records into one trace file. */
class TraceWriter
{
  public:
    /** Run metadata stored in the versioned header. */
    struct Meta
    {
        unsigned nodes = 1;
        unsigned cpusPerChip = 1;
        unsigned nCpus = 1;
        std::uint64_t seed = 0;
        std::uint64_t workPerCpu = 0;
        WorkloadIlp ilp{};
        std::string workload;
        std::string config;
        std::string label;
    };

    /** Records buffered per CPU before a chunk is flushed. */
    static constexpr std::size_t kDefaultBufferRecords = 4096;

    /** Opens @p path and writes the header; throws std::runtime_error
     *  when the file cannot be created. */
    TraceWriter(const std::string &path, const Meta &meta,
                std::size_t buffer_records = kDefaultBufferRecords);

    /** Finalizes (with a warning instead of an exception on I/O
     *  failure) when finalize() was not called explicitly. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record to @p cpu's stream; flushes the CPU's buffer
     *  when full. Throws std::runtime_error on I/O failure or when
     *  called after finalize(). */
    void append(unsigned cpu, const TraceRecord &r);

    /**
     * Flush every buffer and write footer + trailer, making the file
     * valid. Idempotent; throws std::runtime_error on I/O failure.
     * Callers on interrupt paths (the sweep SIGINT drain) reach this
     * through RecordingWorkload's destructor.
     */
    void finalize();

    bool finalized() const { return _finalized; }
    const std::string &path() const { return _path; }
    std::uint64_t recordsWritten() const;

  private:
    struct PerCpu
    {
        std::vector<TraceRecord> buf;
        TraceCpuFooter footer;
    };

    void flushCpu(unsigned cpu);
    void writeRaw(const void *data, std::size_t n);

    std::string _path;
    std::ofstream _os;
    TraceFileHeader _hdr;
    std::size_t _bufRecords;
    std::vector<PerCpu> _cpus;
    std::vector<TraceChunkIndex> _index;
    std::uint64_t _offset = 0; //!< current file write offset
    bool _finalized = false;
};

/** Transparent recording shim around one CPU's instruction stream. */
class RecordingStream : public InstrStream
{
  public:
    RecordingStream(std::unique_ptr<InstrStream> inner, TraceWriter &w,
                    unsigned cpu, EventQueue &eq)
        : _inner(std::move(inner)), _w(w), _eq(eq), _cpu(cpu),
          _lastTick(eq.curTick())
    {}

    StreamOp next() override;

    std::uint64_t workDone() const override
    {
        return _inner->workDone();
    }

    void
    memCompleted(const StreamOp &op, std::uint64_t value) override
    {
        _inner->memCompleted(op, value);
    }

  private:
    std::unique_ptr<InstrStream> _inner;
    TraceWriter &_w;
    EventQueue &_eq;
    unsigned _cpu;
    Addr _lastPc = 0;
    Tick _lastTick = 0;
    std::uint64_t _lastWork = 0;
    bool _doneRecorded = false;
};

/**
 * Wraps a workload so one run of it is recorded to @p path. Supports
 * exactly one run (a second PiranhaSystem::run over the same instance
 * would append a second op sequence to the same streams and corrupt
 * the recording — makeStream throws instead). The trace file becomes
 * valid when finalize() runs, which the destructor guarantees.
 */
class RecordingWorkload : public Workload
{
  public:
    RecordingWorkload(std::unique_ptr<Workload> inner, std::string path,
                      std::string config_name, std::string label,
                      unsigned nodes, unsigned cpus_per_chip);
    ~RecordingWorkload();

    const std::string &name() const override { return _inner->name(); }
    WorkloadIlp ilp() const override { return _inner->ilp(); }
    std::uint64_t seed() const override { return _inner->seed(); }

    std::unique_ptr<InstrStream>
    makeStream(EventQueue &eq, unsigned global_cpu, unsigned total_cpus,
               std::uint64_t work_target, NodeId node,
               const AddressMap &amap) override;

    /** Flush and seal the trace file (idempotent). */
    void finalize();

    /** The underlying writer; null until the first makeStream. */
    TraceWriter *writer() { return _writer.get(); }

  private:
    std::unique_ptr<Workload> _inner;
    std::string _path;
    std::string _configName;
    std::string _label;
    unsigned _nodes;
    unsigned _cpusPerChip;
    unsigned _streamsMade = 0;
    std::unique_ptr<TraceWriter> _writer;
};

} // namespace piranha

#endif // PIRANHA_TRACE_TRACE_WRITER_H
