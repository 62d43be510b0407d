package server

import (
	"encoding/binary"
	"errors"
	"time"

	"press/core"
	"press/netmodel"
	"press/via"
)

// recvThread is the paper's receive thread: blocked on the completion
// queue until a regular message arrives, then it hands the message to
// the main loop and reposts the descriptor. Remote memory writes never
// wake it (Section 2.2).
func (t *viaTransport) recvThread() {
	defer t.wg.Done()
	for {
		c, err := t.recvCQ.Wait(0)
		if err != nil {
			return
		}
		if c.Send {
			continue
		}
		p := t.peerByVI(c.VI)
		if p == nil {
			continue
		}
		region := p.recvRegions[c.Desc]
		if region == nil || c.Desc.Err() != nil {
			continue
		}
		n := c.Desc.Transferred()
		frame := make([]byte, n)
		if err := region.Read(frame, 0); err != nil {
			continue
		}
		// Repost before processing: the window stays open.
		if err := p.vi.PostRecv(c.Desc); err != nil {
			delete(p.recvRegions, c.Desc)
		}
		t.handleFrame(p, frame)
	}
}

// peerByVI routes a completion to its peer: the live table first, then
// the pending set, so a reconnecting peer's first frames are not lost
// in the window between Accept/Connect and promotion. Frames on a
// retired VI find neither and are dropped.
func (t *viaTransport) peerByVI(vi *via.VI) *viaPeer {
	for _, p := range *t.peers.Load() {
		if p != nil && p.vi == vi {
			return p
		}
	}
	t.peersMu.RLock()
	defer t.peersMu.RUnlock()
	return t.pending[vi]
}

func (t *viaTransport) handleFrame(p *viaPeer, frame []byte) {
	if len(frame) == 0 {
		return
	}
	if frame[0] == setupMagic {
		t.handleSetup(p, frame)
		return
	}
	m, err := DecodeMessage(frame)
	if err != nil {
		return
	}
	switch m.Type {
	case core.MsgFlow:
		p.regGate.credit(int64(m.Credits))
		return
	default:
		// A data message consumed a window slot; return credits in
		// batches, either as explicit flow messages or as a remote
		// write of the cumulative count (version 1+).
		p.consumed++
		if p.consumed >= int64(t.cfg.batch) {
			granted := p.consumed
			p.consumed = 0
			t.returnCredits(p, granted)
		}
	}
	select {
	case t.inbound <- m:
	case <-t.done:
	}
}

func (t *viaTransport) returnCredits(p *viaPeer, n int64) {
	if t.cfg.version.Flow == netmodel.StyleRegular {
		flow := &Message{Type: core.MsgFlow, From: t.cfg.self, Credits: int32(n), Load: -1}
		if err := t.sendRegular(p, flow, false); err != nil {
			// The flow message never left, so the peer will not learn
			// these slots freed up. Put the count back so the next
			// batch retries; dropping it deadlocks the sender once the
			// window drains. Safe without locking: only recvThread
			// calls returnCredits.
			p.consumed += n
		}
		return
	}
	// RMW flow control: accumulate the counter locally and write it
	// into the sender's flow region; load and overwrite semantics make
	// this the cheapest possible credit return (Section 2.2).
	p.ackMu.Lock()
	defer p.ackMu.Unlock()
	p.regAcked += n
	t.ins.acct.add(core.MsgFlow, 8)
	t.writeFlowCounter(p, flowRegChannel, uint64(p.regAcked))
}

// writeFlowCounter RDMA-writes one cumulative counter into the peer's
// flow region. Caller holds p.ackMu.
func (t *viaTransport) writeFlowCounter(p *viaPeer, off int, v uint64) {
	p.peerMu.Lock()
	handle := p.peerFlowHandle
	p.peerMu.Unlock()
	if handle == 0 {
		return // peer setup not seen yet; counters are cumulative
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if p.ackReg.Write(buf[:], off) != nil {
		return
	}
	d := via.MustDescriptor(via.Segment{Region: p.ackReg, Offset: off, Len: 8})
	if t.postRDMARetry(p.vi, d, handle, off) != nil {
		return
	}
	_ = d.Wait(t.cfg.rmwTimeout)
}

// postRDMARetry retries a momentarily full work queue a bounded number
// of times with capped exponential backoff; counters are cumulative, so
// giving up just leaves the credit for the next batch.
func (t *viaTransport) postRDMARetry(vi *via.VI, d *via.Descriptor, h via.Handle, off int) error {
	pause := t.cfg.retry.Base
	var timer *time.Timer // reused: time.After would leak one per attempt
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 1; ; attempt++ {
		//presslint:ignore descriptor-lifecycle re-post only happens after ErrQueueFull, which means the NIC never accepted the descriptor
		err := vi.PostRDMAWrite(d, h, off)
		if !errors.Is(err, via.ErrQueueFull) {
			return err
		}
		if attempt >= t.cfg.retry.Attempts {
			return err
		}
		if timer == nil {
			timer = time.NewTimer(pause)
		} else {
			timer.Reset(pause)
		}
		select {
		case <-t.done:
			return via.ErrClosed
		case <-timer.C:
		}
		if pause *= 2; pause > t.cfg.retry.Cap {
			pause = t.cfg.retry.Cap
		}
	}
}

func (t *viaTransport) handleSetup(p *viaPeer, frame []byte) {
	if len(frame) < 1+16+8 {
		return
	}
	flow := via.Handle(binary.LittleEndian.Uint32(frame[1:]))
	ctrl := via.Handle(binary.LittleEndian.Uint32(frame[5:]))
	meta := via.Handle(binary.LittleEndian.Uint32(frame[9:]))
	data := via.Handle(binary.LittleEndian.Uint32(frame[13:]))
	dataSize := int(binary.LittleEndian.Uint64(frame[17:]))
	p.peerMu.Lock()
	p.peerFlowHandle = flow
	p.outCtrl = newRingOut(ctrl, ctrlSlots)
	p.outFile = newFileRingOut(meta, data, dataSize)
	// The ring gates are credit gates too: count their stalls with the
	// regular channel's.
	p.outCtrl.gate.stalls = t.ins.stalls
	p.outFile.metaGate.stalls = t.ins.stalls
	p.outFile.dataGate.g.stalls = t.ins.stalls
	p.peerMu.Unlock()
	// If the peer failed while the setup frame was in flight, the fresh
	// rings must fail too, or a sender could park on them forever.
	select {
	case <-p.failed:
		p.failGates(p.failErr)
	default:
	}
	p.readyOnce.Do(func() { close(p.ready) })
	// The peer may have remote-written into our rings before this frame
	// was processed; the poll pass its doorbell caused skipped a peer
	// that was not ready yet.
	t.wake()
}

// pollThread is the main loop's polling duty factored into its own
// goroutine: it checks the sequence numbers of every peer's control and
// file rings and the flow counters peers remote-write into our memory,
// pass after pass while passes find work. When a pass finds nothing it
// parks on the NIC's remote-write doorbell, or on the kick that
// announces a peer becoming pollable. Remote memory writes still
// require no interrupt and no receive thread (Section 2.2): the
// doorbell only says that memory changed, not what arrived.
func (t *viaTransport) pollThread() {
	defer t.wg.Done()
	doorbell := t.nic.RemoteWrites()
	for {
		select {
		case <-t.done:
			return
		default:
		}
		if t.pollPass() {
			continue
		}
		select {
		case <-doorbell:
		case <-t.kick:
		case <-t.done:
			return
		}
	}
}

// pollPass scans every ready peer once and reports whether any ring
// delivered a message.
func (t *viaTransport) pollPass() bool {
	t.pollPasses.Add(1)
	progressed := false
	for _, p := range *t.peers.Load() {
		if p == nil {
			continue
		}
		select {
		case <-p.ready:
		default:
			continue // setup not complete yet
		}
		if t.pollPeer(p) {
			progressed = true
		}
	}
	return progressed
}

func (t *viaTransport) pollPeer(p *viaPeer) bool {
	progressed := false
	// Control ring.
	for {
		payload, ok, err := p.inCtrl.poll()
		if err != nil || !ok {
			break
		}
		progressed = true
		if m, err := DecodeMessage(payload); err == nil {
			select {
			case t.inbound <- m:
			case <-t.done:
				return true
			}
		}
		if ack, due := p.inCtrl.ackDue(uint64(t.cfg.batch)); due {
			p.ackMu.Lock()
			t.ins.acct.add(core.MsgFlow, 8)
			t.writeFlowCounter(p, flowCtrlRing, ack)
			p.ackMu.Unlock()
		}
	}
	// File ring: version 3 copies arrivals to another buffer before
	// replying; versions 4-5 reply right out of the communication
	// buffer (zero-copy receive).
	for {
		arr, ok, err := p.inFile.poll(!t.cfg.version.ZeroCopyRX)
		if err != nil || !ok {
			break
		}
		if !t.cfg.version.ZeroCopyRX {
			// Receiver-side copy to another buffer (version 3),
			// eliminated by zero-copy receive (versions 4-5).
			t.ins.copied.Add(int64(len(arr.payload)))
		}
		progressed = true
		m := &Message{
			Type: core.MsgFile, From: p.id, Load: -1, ReqID: arr.reqID,
			Data: arr.payload, Offset: 0, Total: uint32(len(arr.payload)),
		}
		select {
		case t.inbound <- m:
		case <-t.done:
			return true
		}
		if metaAck, virtAck, due := p.inFile.ackDue(uint64(t.cfg.batch)); due {
			p.ackMu.Lock()
			t.ins.acct.add(core.MsgFlow, 16)
			t.writeFlowCounter(p, flowFileMeta, metaAck)
			t.writeFlowCounter(p, flowFileData, virtAck)
			p.ackMu.Unlock()
		}
	}
	// Flow counters peers wrote into our memory gate our outbound
	// rings and, under RMW flow control, the regular channel.
	if v, err := p.flowIn.Load64(flowRegChannel); err == nil && v > 0 {
		p.regGate.setConsumed(int64(v))
	}
	if out := p.ring(); out != nil {
		if v, err := p.flowIn.Load64(flowCtrlRing); err == nil {
			out.gate.setConsumed(int64(v))
		}
	}
	if out := p.fileRing(); out != nil {
		if v, err := p.flowIn.Load64(flowFileMeta); err == nil {
			out.metaGate.setConsumed(int64(v))
		}
		if v, err := p.flowIn.Load64(flowFileData); err == nil {
			out.dataGate.setConsumed(v)
		}
	}
	return progressed
}
