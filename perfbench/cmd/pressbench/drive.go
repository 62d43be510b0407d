package main

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"press/trace"
)

// requestTimeout bounds one request; a request that runs out of it is a
// failure.
const requestTimeout = 10 * time.Second

// slowLimit is the latency past which a request counts in client.slow_1s.
const slowLimit = time.Second

// sessionLength is how many requests a client sends through one entry
// node, over one keep-alive connection, before it draws the next entry
// node uniformly at random, like a browser fetching a page's objects.
const sessionLength = 20

// sample is one client request. Times are nanoseconds on the driver's
// clock: due is when the request was scheduled, sent when a client
// connection started it, done when its verified reply (or its failure)
// was in.
type sample struct {
	due, sent, done int64
	// lag is how late the client woke for an on-schedule request: the
	// generator's own lateness, not queueing behind a busy connection.
	lag   int64
	file  int32
	node  int
	ok    bool
	woken bool // the client slept until due; lag is meaningful
}

func (s sample) latency() int64 { return s.done - s.due }

// driver is the load generator: at most maxConns keep-alive
// connections, one per client, every reply compared byte for byte with
// the content the server must return.
type driver struct {
	files    []trace.File
	content  [][]byte
	maxConns int
	clock    *clock
	seed     int64
	sessions int64 // clients created so far; seeds each new client's entry-node draws

	// Request stream drawn from the seed; cursor walks it across phases.
	reqs   []int32
	cursor atomic.Int64

	open    atomic.Int64
	maxOpen atomic.Int64
	dials   atomic.Int64
}

func newDriver(tr *trace.Trace, content [][]byte, maxConns int, seed int64, c *clock) *driver {
	return &driver{
		files: tr.Files, content: content, maxConns: maxConns, clock: c,
		seed: seed, reqs: tr.Requests,
	}
}

// target is one cluster's entry points: the nodes' HTTP addresses and,
// per node and file, the request to send.
type target struct {
	addrs []string
	reqs  [][][]byte // [node][file]
}

// target returns the entry points of a cluster's nodes.
func (d *driver) target(addrs []string) target {
	t := target{addrs: addrs, reqs: make([][][]byte, len(addrs))}
	for n, a := range addrs {
		t.reqs[n] = make([][]byte, len(d.files))
		for i, f := range d.files {
			t.reqs[n][i] = []byte("GET " + f.Name + " HTTP/1.1\r\nHost: " + a + "\r\n\r\n")
		}
	}
	return t
}

// next returns the file of the next request of the stream.
func (d *driver) next() int32 {
	return d.reqs[int(d.cursor.Add(1)-1)%len(d.reqs)]
}

// dial opens one connection and counts it against the cap.
func (d *driver) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	n := d.open.Add(1)
	for {
		m := d.maxOpen.Load()
		if n <= m || d.maxOpen.CompareAndSwap(m, n) {
			break
		}
	}
	return conn, nil
}

// client is one driver connection slot: a minimal HTTP/1.1 keep-alive
// client, so the driver spends little of the CPU the server shares. It
// holds at most one connection and closes it before a request to
// another entry node.
type client struct {
	d    *driver
	t    target
	rng  *rand.Rand
	node int // entry node of the current session
	left int // requests left in the session
	conn net.Conn
	last int // entry node of conn
	r    *bufio.Reader
	body []byte
}

func (d *driver) newClient(t target) *client {
	d.sessions++
	return &client{
		d: d, t: t, rng: rand.New(rand.NewSource(d.seed*1000003 + d.sessions)),
		r: bufio.NewReaderSize(nil, 16<<10),
	}
}

// entry returns the entry node of the client's next request.
func (c *client) entry() int {
	if c.left == 0 {
		c.node, c.left = c.rng.Intn(len(c.t.addrs)), sessionLength
	}
	c.left--
	return c.node
}

// get fetches one file through one node and verifies the reply: status
// 200 and a body equal byte for byte to the file's content.
func (c *client) get(file int32, node int) bool {
	if c.conn != nil && node != c.last {
		c.close()
	}
	if c.conn == nil {
		conn, err := c.d.dial(c.t.addrs[node])
		if err != nil {
			return false
		}
		c.conn, c.last = conn, node
		c.r.Reset(conn)
	}
	ok, keep := c.exchange(c.t.reqs[node][file], c.d.content[file])
	if !keep {
		c.close()
	}
	return ok
}

var (
	status200        = []byte("HTTP/1.1 200 ")
	hdrLength        = []byte("Content-Length")
	hdrConnection    = []byte("Connection")
	hdrTransferCode  = []byte("Transfer-Encoding")
	connectionClose  = []byte("close")
	headerTerminator = []byte("\r\n")
)

// exchange sends one request and reads its reply; keep reports whether
// the connection can carry the next request.
func (c *client) exchange(req, want []byte) (ok, keep bool) {
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return false, false
	}
	if _, err := c.conn.Write(req); err != nil {
		return false, false
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return false, false
	}
	ok = bytes.HasPrefix(line, status200)
	length, keep := -1, true
	for {
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return false, false
		}
		if bytes.Equal(line, headerTerminator) {
			break
		}
		k, v, found := bytes.Cut(line, []byte(":"))
		if !found {
			return false, false
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, hdrLength):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return false, false
			}
		case bytes.EqualFold(k, hdrConnection) && bytes.EqualFold(v, connectionClose):
			keep = false
		case bytes.EqualFold(k, hdrTransferCode):
			return false, false // the server sets Content-Length
		}
	}
	if length < 0 {
		return false, false
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	body := c.body[:length]
	if _, err := io.ReadFull(c.r, body); err != nil {
		return false, false
	}
	return ok && bytes.Equal(body, want), keep
}

// close closes the client's connection, if any.
func (c *client) close() {
	if c.conn == nil {
		return
	}
	c.conn.Close()
	c.conn = nil
	c.d.open.Add(-1)
}

// clients opens the driver's connections for one phase; closeAll
// closes them when the phase ends.
func (d *driver) clients(t target) []*client {
	cs := make([]*client, d.maxConns)
	for i := range cs {
		cs[i] = d.newClient(t)
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// sweep requests every file once, so each file has a cacher before
// timed traffic starts.
func (d *driver) sweep(t target) []sample {
	cs := d.clients(t)
	defer closeAll(cs)
	out := make([][]sample, len(cs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, c := range cs {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(d.files) {
					return
				}
				out[w] = append(out[w], c.timed(int32(i), d.clock.now()))
			}
		}(w, c)
	}
	wg.Wait()
	return merge(out)
}

// timed runs one request due at the given time.
func (c *client) timed(file int32, due int64) sample {
	node := c.entry()
	s := sample{due: due, sent: c.d.clock.now(), file: file, node: node}
	s.ok = c.get(file, node)
	s.done = c.d.clock.now()
	return s
}

// closedLoop runs maxConns clients back to back, each sending its next
// request as soon as the previous one is in. It stops starting requests
// after dur, or after limit requests when limit > 0.
func (d *driver) closedLoop(t target, dur time.Duration, limit int) (samples []sample, elapsed time.Duration) {
	cs := d.clients(t)
	defer closeAll(cs)
	out := make([][]sample, len(cs))
	var started atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w, c := range cs {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if limit > 0 && started.Add(1) > int64(limit) {
					return
				}
				out[w] = append(out[w], c.timed(d.next(), d.clock.now()))
			}
		}(w, c)
	}
	wg.Wait()
	return merge(out), time.Since(start)
}

// openLoop sends Poisson arrivals at rate per second for dur. The
// schedule is fixed up front; a request waits for a free connection
// when both are busy, and its latency runs from when it was due.
func (d *driver) openLoop(t target, dur time.Duration, rate float64, rng *rand.Rand) []sample {
	type job struct {
		due  int64
		file int32
	}
	var jobs []job
	origin := d.clock.now() + int64(10*time.Millisecond)
	for at := 0.0; at < dur.Seconds(); at += rng.ExpFloat64() / rate {
		jobs = append(jobs, job{due: origin + int64(at*1e9), file: d.next()})
	}
	cs := d.clients(t)
	defer closeAll(cs)
	out := make([][]sample, len(cs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w, c := range cs {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				woken := false
				var lag int64
				if wait := j.due - d.clock.now(); wait > 0 {
					sleep(wait)
					woken = true
					lag = d.clock.now() - j.due
				}
				s := c.timed(j.file, j.due)
				s.woken, s.lag = woken, lag
				out[w] = append(out[w], s)
			}
		}(w, c)
	}
	wg.Wait()
	return merge(out)
}

// sleep blocks the calling thread for ns nanoseconds in nanosleep(2).
// time.Sleep waits in the runtime's poller, whose millisecond timeout
// would make the open-loop generator up to a millisecond late.
func sleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func merge(parts [][]sample) []sample {
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// clock is the driver's monotonic nanosecond clock.
type clock struct{ origin time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.origin)) }
