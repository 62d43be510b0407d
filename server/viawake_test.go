package server

import (
	"encoding/binary"
	"testing"
	"time"

	"press/core"
	"press/netmodel"
	"press/via"
)

// wakeTimeout bounds the waits that only detect a failure; nothing in
// the transport waits on a timer.
const wakeTimeout = 5 * time.Second

// waitParked waits until vt's poll thread has made no pass for 10 ms,
// the sign that it is parked on its doorbell, and returns the pass
// count. A poll thread that never stops scanning fails the test.
func waitParked(t *testing.T, vt *viaTransport) int64 {
	t.Helper()
	deadline := time.Now().Add(wakeTimeout)
	last := vt.pollPasses.Load()
	for {
		time.Sleep(10 * time.Millisecond)
		n := vt.pollPasses.Load()
		if n == last {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d: poll thread still scanning after %v (%d passes)", vt.cfg.self, wakeTimeout, n)
		}
		last = n
	}
}

// TestViaTransportIdleMakesNoPasses: with no traffic, the poll thread
// parks on the remote-write doorbell instead of rescanning its rings.
func TestViaTransportIdleMakesNoPasses(t *testing.T) {
	versions := netmodel.Versions()
	for _, version := range []netmodel.Version{versions[0], versions[5]} {
		t.Run(version.Name, func(t *testing.T) {
			a, b := newViaPair(t, version)
			before := [2]int64{waitParked(t, a), waitParked(t, b)}
			time.Sleep(50 * time.Millisecond)
			for i, vt := range []*viaTransport{a, b} {
				if n := vt.pollPasses.Load() - before[i]; n != 0 {
					t.Errorf("node %d: %d poll passes over 50 ms of quiet", i, n)
				}
			}
		})
	}
}

// TestViaTransportWakesOnLateSetup covers the poll thread's lost
// wake-up edges. The peer (node 0) remote-writes a control message into
// node 1's ring while node 1 cannot poll that peer yet: its setup frame
// is unprocessed, or the channel is still pending promotion. The
// doorbell's pass skips the peer, and with no further traffic only the
// kick from the setup or the promotion can deliver the message.
func TestViaTransportWakesOnLateSetup(t *testing.T) {
	for _, pending := range []bool{false, true} {
		name := "before-setup"
		if pending {
			name = "before-promote"
		}
		t.Run(name, func(t *testing.T) {
			fabric := via.NewFabric()
			t.Cleanup(fabric.Close)
			na, err := fabric.CreateNIC("node0")
			if err != nil {
				t.Fatal(err)
			}
			nb, err := fabric.CreateNIC("node1")
			if err != nil {
				t.Fatal(err)
			}
			b, err := newViaTransport(nb, viaConfig{
				self: 1, nodes: 2, version: netmodel.Versions()[5],
				window: 8, batch: 4, chunk: 1 << 10, fileRing: 1 << 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			p, err := b.newPeer()
			if err != nil {
				t.Fatal(err)
			}
			p.id = 0
			if pending {
				b.addPending(p)
			} else {
				b.setPeer(0, p)
			}
			b.wg.Add(2)
			go b.recvThread()
			go b.pollThread()
			waitParked(t, b)

			// Node 0's end is a raw VI: connect it to node 1's peer.
			va, err := na.CreateVI(via.ReliableDelivery, 16)
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan error, 1)
			go func() {
				_, err := b.ln.Accept(p.vi)
				accepted <- err
			}()
			if err := va.Connect("node1", "press-1"); err != nil {
				t.Fatal(err)
			}
			if err := <-accepted; err != nil {
				t.Fatal(err)
			}

			// The first control-ring write lands and rings the doorbell.
			before := b.pollPasses.Load()
			m := &Message{Type: core.MsgForward, From: 0, Name: "late.html", ReqID: 7, Load: -1}
			frame, err := m.Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			stage, err := na.RegisterMemory(make([]byte, ctrlSlotSize))
			if err != nil {
				t.Fatal(err)
			}
			out := newRingOut(p.inCtrl.region.Handle(), ctrlSlots)
			if err := out.write(va, stage, 0, frame, wakeTimeout, nil, 0, 0); err != nil {
				t.Fatal(err)
			}
			if waitParked(t, b) == before {
				t.Fatal("remote write did not wake the poll thread")
			}
			expectNone := func(when string) {
				t.Helper()
				select {
				case got := <-b.Inbound():
					t.Fatalf("%s: delivered %+v from a peer that was not pollable", when, got)
				default:
				}
			}
			expectNone("after the doorbell")

			// Node 0's setup frame: its buffer handles, over the regular
			// channel, exactly as sendSetup lays it out.
			var setup [1 + 4*4 + 8]byte
			setup[0] = setupMagic
			for i, size := range []int{flowRegionSize, ctrlSlots * ctrlSlotSize, fileMetaSlots * fileMetaSlotSize, 1 << 16} {
				r, err := na.RegisterMemory(make([]byte, size))
				if err != nil {
					t.Fatal(err)
				}
				r.EnableRemoteWrite()
				binary.LittleEndian.PutUint32(setup[1+4*i:], uint32(r.Handle()))
			}
			binary.LittleEndian.PutUint64(setup[17:], 1<<16)
			sreg, err := na.RegisterMemory(setup[:])
			if err != nil {
				t.Fatal(err)
			}
			sd := via.MustDescriptor(via.Segment{Region: sreg, Offset: 0, Len: len(setup)})
			if err := va.PostSend(sd); err != nil {
				t.Fatal(err)
			}
			if err := sd.Wait(wakeTimeout); err != nil {
				t.Fatal(err)
			}

			if pending {
				select {
				case <-p.ready:
				case <-time.After(wakeTimeout):
					t.Fatal("setup frame of a pending peer not processed")
				}
				waitParked(t, b)
				expectNone("before promotion")
				b.promote(p)
			}
			select {
			case got := <-b.Inbound():
				if got.Type != core.MsgForward || got.Name != "late.html" || got.ReqID != 7 {
					t.Fatalf("delivered %+v, want the forward written before setup", got)
				}
			case <-time.After(wakeTimeout):
				t.Fatal("lost wake-up: a control message written before the peer became pollable was never delivered")
			}
		})
	}
}
