package main

import (
	"fmt"
	"sort"
	"time"

	"press/cache"
	"press/core"
	"press/server"
	"press/trace"
	"press/via"
)

// probeRounds is how many times each probe is timed; it reports the
// median round's mean cost per operation.
const probeRounds = 9

// probe times fn(ops) probeRounds times and returns the median per-op
// cost in nanoseconds.
func probe(ops int, fn func(n int) error) (float64, error) {
	per := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		if err := fn(ops); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	sort.Float64s(per)
	return per[len(per)/2], nil
}

// probeSize returns the workload's message size for the transport
// probes: the mean requested-file size, capped at one regular-channel
// chunk (the server's default ChunkBytes).
func probeSize(tr *trace.Trace) int {
	var sum int64
	for _, r := range tr.Requests {
		sum += tr.Files[r].Size
	}
	size := int(sum / int64(len(tr.Requests)))
	if chunk := 32 << 10; size > chunk {
		size = chunk
	}
	return size
}

type probeResult struct {
	name  string
	unit  string
	value float64
	start int64
	end   int64
}

// runProbes times single layers from outside, at the workload's own
// sizes: a VIA send/receive pair and remote memory write, a locked
// 8-byte region load, a server.Message encode+decode of a file chunk,
// and the per-node LRU replaying the request stream.
func runProbes(tr *trace.Trace, cacheBytes int64, clk *clock) ([]probeResult, error) {
	size := probeSize(tr)
	var out []probeResult
	add := func(name, unit string, scale float64, ops int, fn func(n int) error) error {
		start := clk.now()
		v, err := probe(ops, fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out = append(out, probeResult{name: name, unit: unit, value: v / scale, start: start, end: clk.now()})
		return nil
	}

	f := via.NewFabric()
	defer f.Close()
	va, vb, na, nb, err := viaPair(f)
	if err != nil {
		return nil, err
	}
	sreg, err := na.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, err
	}
	rreg, err := nb.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, err
	}
	rreg.EnableRemoteWrite()
	if err := add("probe.via_send_us", "us", 1e3, 2000, func(n int) error {
		for i := 0; i < n; i++ {
			rd := via.MustDescriptor(via.Segment{Region: rreg, Len: size})
			if err := vb.PostRecv(rd); err != nil {
				return err
			}
			sd := via.MustDescriptor(via.Segment{Region: sreg, Len: size})
			if err := va.PostSend(sd); err != nil {
				return err
			}
			if err := sd.Wait(time.Second); err != nil {
				return err
			}
			if err := rd.Wait(time.Second); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := add("probe.via_rdma_us", "us", 1e3, 2000, func(n int) error {
		for i := 0; i < n; i++ {
			d := via.MustDescriptor(via.Segment{Region: sreg, Len: size})
			if err := va.PostRDMAWrite(d, rreg.Handle(), 0); err != nil {
				return err
			}
			if err := d.Wait(time.Second); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var sink uint64
	if err := add("probe.via_load64_ns", "ns", 1, 1000000, func(n int) error {
		for i := 0; i < n; i++ {
			v, err := rreg.Load64(0)
			if err != nil {
				return err
			}
			sink += v
		}
		return nil
	}); err != nil {
		return nil, err
	}
	_ = sink

	name := tr.Files[0].Name
	chunk := server.SynthesizeContent(name, int64(size))
	msg := &server.Message{Type: core.MsgFile, From: 1, Load: -1, ReqID: 7, Name: name,
		Data: chunk, Total: uint32(size)}
	buf := make([]byte, 0, msg.EncodedLen())
	if err := add("probe.codec_ns", "ns", 1, 50000, func(n int) error {
		for i := 0; i < n; i++ {
			enc, err := msg.Encode(buf[:0])
			if err != nil {
				return err
			}
			if _, err := server.DecodeMessage(enc); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	lru := cache.NewLRU(cacheBytes)
	cursor := 0
	if err := add("probe.lru_ns", "ns", 1, 200000, func(n int) error {
		for i := 0; i < n; i++ {
			id := tr.Requests[cursor%len(tr.Requests)]
			cursor++
			if !lru.Touch(id) {
				lru.Insert(id, tr.Files[id].Size)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// viaPair connects two VIs across two NICs of one fabric.
func viaPair(f *via.Fabric) (va, vb *via.VI, na, nb *via.NIC, err error) {
	if na, err = f.CreateNIC("a"); err != nil {
		return
	}
	if nb, err = f.CreateNIC("b"); err != nil {
		return
	}
	ln, err := nb.Listen("probe")
	if err != nil {
		return
	}
	if vb, err = nb.CreateVI(via.ReliableDelivery, 256); err != nil {
		return
	}
	if va, err = na.CreateVI(via.ReliableDelivery, 256); err != nil {
		return
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		done <- err
	}()
	if err = va.Connect("b", "probe"); err != nil {
		f.Close() // unblocks Accept
	}
	if aerr := <-done; err == nil {
		err = aerr
	}
	return
}
