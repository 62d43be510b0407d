package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"press/metrics"
	"press/server"
	"press/tracing"
)

// child is one running pressbench-server process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	addrs []string
}

type childConfig struct {
	bin, tracePath string
	dep            deployment
	cacheBytes     int64
	spans          int // traced run: spans the cluster must hold; 0 turns tracing off
}

// spawn starts the server process and waits for its address line.
func spawn(cfg childConfig) (*child, error) {
	args := []string{
		"-trace", cfg.tracePath, "-transport", cfg.dep.transport, "-version", cfg.dep.version,
		"-cache", strconv.FormatInt(cfg.cacheBytes, 10), "-spans", strconv.Itoa(cfg.spans),
	}
	cmd := exec.Command(cfg.bin, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server process: %w", err)
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<20)}
	var hello struct{ Addrs []string }
	if err := c.read(&hello); err != nil {
		c.kill()
		return nil, fmt.Errorf("server process start: %w", err)
	}
	c.addrs = hello.Addrs
	return c, nil
}

func (c *child) read(v interface{}) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// call sends one command and decodes its one-line reply.
func (c *child) call(cmd string, v interface{}) error {
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return fmt.Errorf("server process %s: %w", cmd, err)
	}
	if err := c.read(v); err != nil {
		return fmt.Errorf("server process %s: %w", cmd, err)
	}
	return nil
}

// closeCluster times Cluster.Close in the server process and waits
// for it to exit.
func (c *child) closeCluster() (float64, error) {
	var r struct{ TeardownS float64 }
	err := c.call("close", &r)
	c.in.Close()
	if werr := c.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("server process exit: %w", werr)
	}
	return r.TeardownS, err
}

// kill stops the server process without a graceful close.
func (c *child) kill() {
	c.in.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// snap is the server process's counter snapshot.
type snap struct {
	Stats      server.Stats
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint32
	Registry   metrics.Snapshot
	cpu        time.Duration // user + sys, from /proc
	rssMB      float64
	at         time.Time
}

func (c *child) snap() (snap, error) {
	var s snap
	if err := c.call("snap", &s); err != nil {
		return s, err
	}
	s.at = time.Now()
	var err error
	if s.cpu, err = procCPU(c.cmd.Process.Pid); err != nil {
		return s, err
	}
	s.rssMB, err = procRSS(c.cmd.Process.Pid)
	return s, err
}

type spanDump struct {
	Records []tracing.SpanRecord
	Dropped []int64
}

// procCPU reads a process's user + system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procRSS reads a process's resident set size in MB from /proc.
func procRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
