/**
 * @file
 * Remote engine microcode (paper §2.5.1, §2.5.3).
 *
 * The remote engine imports memory whose home is a remote node. A
 * typical read transaction costs four instructions here — a SEND of
 * the request to the home, a RECEIVE of the reply, a TEST of a state
 * variable, and an LSEND that replies to the waiting processor —
 * matching the paper's occupancy example.
 *
 * The engine also owns the node's write-back buffer: an evicted
 * exclusive line is held until the home acknowledges the write-back,
 * which lets the node service forwarded requests that raced with the
 * replacement (the no-NAK guarantee). Early forwarded requests (that
 * arrive before this node's own fill completes) queue behind the
 * active TSRF entry for the line and are serviced right after it
 * retires — the paper's footnote-3 buffering, realized through the
 * per-line transaction serialization.
 */

#include "proto/protocol_engine.h"

namespace piranha {

void
installRemoteProgram(ProtocolEngine &pe)
{
    MicroAssembler a;
    auto cc = [](NetMsgType t) { return static_cast<unsigned>(t); };

    auto home_of = [&pe](Addr addr) { return pe.amap().home(addr); };

    // ---- Local read request (L2 miss, remote home) ----
    a.label("rReqS");
    a.op(MicroOp::SEND, [&pe, home_of](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::ReqS;
        p.addr = t.addr;
        p.dst = home_of(t.addr);
        p.requester = pe.node();
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.receive({{cc(NetMsgType::RepS), "rS_shared"},
               {cc(NetMsgType::RepX), "rS_cleanExcl"},
               {cc(NetMsgType::FwdRepS), "rS_fwdS"},
               {cc(NetMsgType::FwdRepX), "rS_fwdX"}});
    a.label("rS_shared");
    a.halt([&pe](TsrfEntry &t) {
        t.data = t.msg.data;
        pe.sendPeData(t, true, false, FillSource::MemRemote);
    });
    a.label("rS_cleanExcl");
    a.halt([&pe](TsrfEntry &t) {
        t.data = t.msg.data;
        pe.sendPeData(t, true, true, FillSource::MemRemote);
    });
    a.label("rS_fwdS");
    a.halt([&pe](TsrfEntry &t) {
        t.data = t.msg.data;
        pe.sendPeData(t, true, false, FillSource::RemoteDirty);
    });
    a.label("rS_fwdX");
    a.halt([&pe](TsrfEntry &t) {
        t.data = t.msg.data;
        pe.sendPeData(t, true, true, FillSource::RemoteDirty);
    });

    // ---- Local exclusive request ----
    a.label("rReqX");
    a.op(MicroOp::SEND, [&pe, home_of](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::ReqX;
        p.addr = t.addr;
        p.dst = home_of(t.addr);
        p.requester = pe.node();
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.jump("rX_wait");
    a.label("rReqUpgrade");
    a.op(MicroOp::SEND, [&pe, home_of](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::ReqUpgrade;
        p.addr = t.addr;
        p.dst = home_of(t.addr);
        p.requester = pe.node();
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.label("rX_wait");
    a.receive({{cc(NetMsgType::RepX), "rX_data"},
               {cc(NetMsgType::RepUpgrade), "rX_perm"},
               {cc(NetMsgType::FwdRepX), "rX_fwd"}});
    a.label("rX_data");
    // Eager exclusive reply: grant the line now, gather
    // invalidation acks afterwards.
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.acksLeft = t.msg.ackCount;
        t.data = t.msg.data;
        pe.sendPeData(t, t.msg.hasData, true, FillSource::MemRemote);
    });
    a.jump("rX_acks");
    a.label("rX_perm");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.acksLeft = t.msg.ackCount;
        pe.sendPeData(t, false, true, FillSource::MemRemote);
    });
    a.jump("rX_acks");
    a.label("rX_fwd");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.acksLeft = 0;
        t.data = t.msg.data;
        pe.sendPeData(t, true, true, FillSource::RemoteDirty);
    });
    a.label("rX_acks");
    a.test([](TsrfEntry &t) { return t.acksLeft == 0 ? 0u : 1u; },
           {{0, "rX_done"}, {1, "rX_recv"}});
    a.label("rX_recv");
    a.receive({{cc(NetMsgType::InvalAck), "rX_gotAck"}});
    a.label("rX_gotAck");
    a.op(MicroOp::SET, [](TsrfEntry &t) { --t.acksLeft; });
    a.jump("rX_acks");
    a.label("rX_done");
    a.halt();

    // ---- Forwarded read: this node is the exclusive owner ----
    a.label("rFwdS");
    a.test(
        [&pe](TsrfEntry &t) {
            return pe.wbBuffer.contains(lineNum(t.addr)) ? 1u : 0u;
        },
        {{0, "rFS_chip"}, {1, "rFS_buf"}});
    a.label("rFS_chip");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        pe.sendPeReadLocal(t, PeLocalMode::Share);
    });
    a.lreceive({{ccLocalReadRsp, "rFS_rsp"}});
    a.label("rFS_rsp");
    a.test(
        [](TsrfEntry &t) { return t.local.localPresent ? 1u : 0u; },
        // The chip's copy was evicted while this forward was being
        // dispatched; the data is in the write-back buffer.
        {{0, "rFS_buf"}, {1, "rFS_haveChip"}});
    a.label("rFS_haveChip");
    a.op(MicroOp::SET, [](TsrfEntry &t) { t.data = t.local.data; });
    a.jump("rFS_send");
    a.label("rFS_buf");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        ProtocolEngine::WbBuf *buf = pe.wbBuffer.find(lineNum(t.addr));
        if (!buf)
            panic("remote engine: forwarded read, no copy anywhere");
        t.data = buf->data;
        if (buf->releaseAfterFwd)
            pe.wbBuffer.erase(lineNum(t.addr));
        else
            buf->fwdServiced = true;
    });
    a.label("rFS_send");
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::FwdRepS;
        p.addr = t.addr;
        p.dst = t.origMsg.requester;
        p.requester = t.origMsg.requester;
        p.hasData = true;
        p.data = t.data;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.op(MicroOp::SEND, [&pe, home_of](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::ShareWb;
        p.addr = t.addr;
        p.dst = home_of(t.addr);
        p.requester = t.origMsg.requester;
        p.hasData = true;
        p.data = t.data;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.halt();

    // ---- Forwarded exclusive: hand the line to the requester ----
    a.label("rFwdX");
    a.test(
        [&pe](TsrfEntry &t) {
            return pe.wbBuffer.contains(lineNum(t.addr)) ? 1u : 0u;
        },
        {{0, "rFX_chip"}, {1, "rFX_buf"}});
    a.label("rFX_chip");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        pe.sendPeReadLocal(t, PeLocalMode::Excl);
    });
    a.lreceive({{ccLocalReadRsp, "rFX_rsp"}});
    a.label("rFX_rsp");
    a.test(
        [](TsrfEntry &t) { return t.local.localPresent ? 1u : 0u; },
        {{0, "rFX_buf"}, {1, "rFX_haveChip"}});
    a.label("rFX_haveChip");
    a.op(MicroOp::SET, [](TsrfEntry &t) { t.data = t.local.data; });
    a.jump("rFX_send");
    a.label("rFX_buf");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        ProtocolEngine::WbBuf *buf = pe.wbBuffer.find(lineNum(t.addr));
        if (!buf)
            panic("remote engine: forwarded excl, no copy anywhere");
        t.data = buf->data;
        if (buf->releaseAfterFwd)
            pe.wbBuffer.erase(lineNum(t.addr));
        else
            buf->fwdServiced = true;
    });
    a.label("rFX_send");
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::FwdRepX;
        p.addr = t.addr;
        p.dst = t.origMsg.requester;
        p.requester = t.origMsg.requester;
        p.hasData = true;
        p.data = t.data;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.halt();

    // ---- Cruise-missile invalidation visiting this node ----
    a.label("rInval");
    a.op(MicroOp::LSEND,
         [&pe](TsrfEntry &t) { pe.sendPeInvalLocal(t); });
    a.lreceive({{ccLocalDone, "rInv_done"}});
    a.label("rInv_done");
    a.test([](TsrfEntry &t) {
        return t.origMsg.cmiRoute.empty() ? 0u : 1u;
    },
           {{0, "rInv_ack"}, {1, "rInv_fwd"}});
    a.label("rInv_ack");
    a.halt([&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::InvalAck;
        p.addr = t.addr;
        p.dst = t.origMsg.requester;
        p.requester = t.origMsg.requester;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.label("rInv_fwd");
    a.halt([&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::Inval;
        p.addr = t.addr;
        // The thread ends here: hand the rest of the route on.
        p.cmiRoute = std::move(t.origMsg.cmiRoute);
        p.dst = p.cmiRoute.front();
        p.cmiRoute.erase(p.cmiRoute.begin());
        p.requester = t.origMsg.requester;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });

    // ---- Node-level write-back of an exclusive line ----
    a.label("rWb");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        // The buffer was populated synchronously at eviction time
        // (L2 hook); a racing forward may even have consumed it
        // already — preserve its fwdServiced mark.
        ProtocolEngine::WbBuf &buf = pe.wbBuffer[lineNum(t.addr)];
        buf.data = t.origLocal.data;
        buf.dirty = t.origLocal.victimDirty;
        // Seeded fault: the buffer holds stale (zeroed) data for the
        // whole write-back window, as if populated before the final
        // L1 stores landed — a forward racing the write-back delivers
        // garbage while the home's memory copy stays correct.
        if (pe.faults() &&
            pe.faults()->fire(ProtocolFault::WbRaceStaleData))
            buf.data = LineData{};
    });
    a.op(MicroOp::SEND, [&pe, home_of](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::Wb;
        p.addr = t.addr;
        p.dst = home_of(t.addr);
        p.requester = pe.node();
        p.hasData = true;
        p.data = t.origLocal.data;
        p.dirty = t.origLocal.victimDirty;
        p.retainShared = false;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.receive({{cc(NetMsgType::WbAck), "rWb_ack"}});
    a.label("rWb_ack");
    a.test(
        [&pe](TsrfEntry &t) {
            if (!t.msg.expectFwd)
                return 0u;
            // A forwarded request raced with the replacement; it may
            // already have been serviced from the buffer.
            return pe.wbBuffer[lineNum(t.addr)].fwdServiced ? 0u : 1u;
        },
        {{0, "rWb_release"}, {1, "rWb_keep"}});
    a.label("rWb_release");
    a.halt([&pe](TsrfEntry &t) { pe.wbBuffer.erase(lineNum(t.addr)); });
    a.label("rWb_keep");
    // Keep the data until the inbound forward (queued behind this
    // thread or still in the network) is serviced.
    a.halt([&pe](TsrfEntry &t) {
        pe.wbBuffer[lineNum(t.addr)].releaseAfterFwd = true;
    });

    MicroProgram prog = a.finalize();
    pe.installProgram(std::move(prog),
                      {{NetMsgType::FwdS, "rFwdS"},
                       {NetMsgType::FwdX, "rFwdX"},
                       {NetMsgType::Inval, "rInval"}},
                      {{PeOp::ReqS, "rReqS"},
                       {PeOp::ReqX, "rReqX"},
                       {PeOp::ReqUpgrade, "rReqUpgrade"},
                       {PeOp::WbExcl, "rWb"}});
}

} // namespace piranha
