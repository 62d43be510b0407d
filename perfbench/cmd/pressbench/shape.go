package main

import (
	"errors"
	"fmt"
	"strings"

	"press/server"
	"press/tracing"
)

// childRule is how many children of one name a span may have.
type childRule struct{ min, max int }

const many = 1 << 30

// spanShape gives, per span name, the children a request trace's span
// must and may have in a fault-free run. A name not listed may have no
// children. A request takes one of three paths:
//
//	local hit   request{accept-queue, dispatch, reply}
//	local disk  request{accept-queue, dispatch, disk, reply}
//	forwarded   request{accept-queue, dispatch, forward{net-send,
//	            serve-remote{net-send, [disk]}}, reply}
//
// The transport's staging copies and credit waits of the forward and of
// the reply hang off forward and serve-remote.
var spanShape = map[string]map[string]childRule{
	"request": {
		"accept-queue": {1, 1}, "dispatch": {1, 1}, "reply": {1, 1},
		"disk": {0, 1}, "forward": {0, 1},
	},
	"forward": {
		"net-send": {1, 1}, "serve-remote": {1, 1},
		"staging-copy": {0, many}, "credit-stall": {0, many},
	},
	"serve-remote": {
		"net-send": {1, 1}, "disk": {0, 1},
		"staging-copy": {0, many}, "credit-stall": {0, many},
	},
}

// pathCounts tallies request traces by the path they took.
type pathCounts struct {
	localHits, localDisk, forwarded, remoteHits, remoteDisk int
	failedOver                                              int // not shape-checked
}

// checkShapes checks that every request trace has the spans its path
// needs, and that the paths add up to the cluster's own counters over
// the traced loop (st0 to st). The self-time sum cannot catch a lost
// leaf span, whose time just moves into its parent's self time; this
// check does: a lost accept-queue, dispatch, reply, forward, net-send or
// serve-remote breaks the shape, and a lost disk span turns a miss into
// a hit that the counters do not have. A trace whose forward failed
// over is counted but not checked, since the failover re-sends the
// forward or serves locally under the same span.
func checkShapes(recs []tracing.SpanRecord, reqs []tracing.TraceSummary, st, st0 server.Stats) (pathCounts, []string) {
	var pc pathCounts
	var bad []string
	want := make(map[tracing.TraceID][]tracing.SpanRecord, len(reqs))
	for _, s := range reqs {
		want[s.Trace] = nil
	}
	for _, r := range recs {
		if spans, ok := want[r.Trace]; ok {
			want[r.Trace] = append(spans, r)
		}
	}
	badN := 0
	for id, spans := range want {
		switch err := classify(spans, &pc); {
		case err == errFailedOver:
			pc.failedOver++
		case err != nil:
			if badN++; badN <= 3 {
				bad = append(bad, fmt.Sprintf("trace %016x: %v", uint64(id), err))
			}
		}
	}
	if badN > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d request traces lack spans their path needs", badN, len(want)))
	}
	if pc.failedOver > 0 {
		return pc, bad
	}
	ns, ns0 := st.Nodes, st0.Nodes
	for _, c := range []struct {
		what          string
		traces        int
		counter, base int64
	}{
		{"local hits", pc.localHits, ns.LocalHits, ns0.LocalHits},
		{"forwards", pc.forwarded, ns.Forwarded, ns0.Forwarded},
		{"remote hits", pc.remoteHits, ns.RemoteHits, ns0.RemoteHits},
		{"remote disk reads", pc.remoteDisk, ns.Replicas, ns0.Replicas},
	} {
		if int64(c.traces) != c.counter-c.base {
			bad = append(bad, fmt.Sprintf("%d request traces show %s, Cluster.Stats counted %d",
				c.traces, c.what, c.counter-c.base))
		}
	}
	return pc, bad
}

var errFailedOver = errors.New("failed over")

// classify checks one request trace's spans against spanShape and adds
// its path to pc.
func classify(spans []tracing.SpanRecord, pc *pathCounts) error {
	byID := make(map[tracing.SpanID]*tracing.SpanRecord, len(spans))
	for i := range spans {
		byID[spans[i].Span] = &spans[i]
	}
	kids := map[tracing.SpanID]map[string]int{}
	var root *tracing.SpanRecord
	for i := range spans {
		r := &spans[i]
		if r.Name == "forward" && hasAttr(r, "failover") {
			return errFailedOver
		}
		if r.Parent == 0 || r.Span == tracing.SpanID(r.Trace) {
			if root != nil || r.Name != "request" {
				return fmt.Errorf("root span %q", r.Name)
			}
			root = r
			continue
		}
		if byID[r.Parent] == nil {
			return fmt.Errorf("%s span without its parent", r.Name)
		}
		if kids[r.Parent] == nil {
			kids[r.Parent] = map[string]int{}
		}
		kids[r.Parent][r.Name]++
	}
	if root == nil {
		return fmt.Errorf("no request span")
	}
	for i := range spans {
		r := &spans[i]
		rule := spanShape[r.Name]
		for name, n := range kids[r.Span] {
			if c, ok := rule[name]; !ok || n > c.max {
				return fmt.Errorf("%d %s spans under %s", n, name, r.Name)
			}
		}
		for name, c := range rule {
			if kids[r.Span][name] < c.min {
				return fmt.Errorf("%s span without %s", r.Name, name)
			}
		}
	}
	top := kids[root.Span]
	switch {
	case top["forward"] == 1 && top["disk"] == 1:
		return fmt.Errorf("request both forwarded and read from disk")
	case top["disk"] == 1:
		pc.localDisk++
	case top["forward"] == 1:
		pc.forwarded++
		for i := range spans {
			if spans[i].Name == "serve-remote" {
				if kids[spans[i].Span]["disk"] == 1 {
					pc.remoteDisk++
				} else {
					pc.remoteHits++
				}
			}
		}
	default:
		pc.localHits++
	}
	return nil
}

func hasAttr(r *tracing.SpanRecord, key string) bool {
	for _, a := range r.Attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

func (pc pathCounts) String() string {
	parts := []string{
		fmt.Sprintf("%d local hits", pc.localHits),
		fmt.Sprintf("%d local disk", pc.localDisk),
		fmt.Sprintf("%d forwarded (%d remote hits, %d remote disk)", pc.forwarded, pc.remoteHits, pc.remoteDisk),
	}
	if pc.failedOver > 0 {
		parts = append(parts, fmt.Sprintf("%d failed over, not checked", pc.failedOver))
	}
	return strings.Join(parts, ", ")
}
