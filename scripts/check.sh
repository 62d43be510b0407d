#!/bin/sh
# check.sh — the repo's verification gate: vet, build, race-enabled
# tests, and the project's own static analysis. Run from the repo root
# (make check does).
set -eu

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The metrics package is all lock-free concurrency; run its suite again
# uncached so the race detector sees every interleaving attempt fresh.
echo "==> go test -race -count=1 ./metrics"
go test -race -count=1 ./metrics

# The tracing collector is one atomic ring per node fed by every server
# goroutine; same treatment, plus the cross-node stitching tests that
# live with the server and simulator.
echo "==> go test -race -count=1 ./tracing"
go test -race -count=1 ./tracing

echo "==> go test -race -count=1 tracing integration"
go test -race -count=1 -run 'TestClusterTrac' ./server
go test -race -count=1 -run 'TestRunTracing' ./cluster

# The fault-tolerance layer is where the concurrency is hardest: the
# health state machine, failover of in-flight forwards, and fabric-level
# chaos all race the main loops by construction. Run the chaos suite
# uncached under the race detector.
echo "==> go test -race chaos suite"
go test -race -count=1 -run 'Chaos|Failover|Health' ./server/... ./cluster/...

# The VIA poll thread parks on the NIC's remote-write doorbell, and its
# lost-wake-up edges (a remote write landing before the peer's setup
# frame or promotion) race the receive thread by construction. Run the
# transport, ring and doorbell suites uncached under the race detector.
echo "==> go test -race VIA transport suite"
go test -race -count=1 -run 'TestViaTransport|TestCtrlRing|TestFileRing|TestPollOnSequenceNumber|TestBridgeRDMAWrite|Doorbell' ./via ./server

# The overload layer races admission, deadline expiry, and brownout
# against the main loops at 2x saturation by design; run it uncached
# under the race detector alongside the open-loop generator tests.
echo "==> go test -race overload suite"
go test -race -count=1 -run 'TestOverload|TestBrownout' ./server
go test -race -count=1 -run 'TestOpenLoop' ./loadgen

# The telemetry plane races its sampler (ticker goroutine) against
# event producers (server main loops) and incident dumps (signal
# goroutine) by design; run its suite uncached under the race detector,
# plus the cluster endpoints and simulated-clock integrations that live
# with the server and simulator.
echo "==> go test -race -count=1 ./telemetry"
go test -race -count=1 ./telemetry
go test -race -count=1 -run 'TestMetricsEndpoint|TestClusterTelemetry' ./server
go test -race -count=1 -run 'TestRunTelemetry' ./cluster

# The dissemination seam (consistent-hash ring ownership, sharded
# directory lookup/invalidation, gossip views) runs concurrently with
# the chaos harness and the server main loops; run its suites uncached
# under the race detector.
echo "==> go test -race directory/gossip suite"
go test -race -count=1 -run 'TestRing|TestSharded|TestGossip|TestDisseminator|TestStrategy' ./cache ./core ./server
go test -race -count=1 -run 'TestSimSharded|TestSimGossip' ./cluster

# Hot-object replication races the push/pull/drop policy against the
# failover machinery by design (crash the hottest cacher mid-drive,
# fail pendings over to surviving replicas); run its server suites and
# the simulator's replication model uncached under the race detector.
echo "==> go test -race replication suite"
go test -race -count=1 -run 'TestReplication|TestReplicated|TestChaosReplica|TestHotspotCrash' ./server
go test -race -count=1 -run 'TestSimReplication' ./cluster

echo "==> presslint ./..."
go run ./cmd/presslint ./...

echo "==> presslint ./metrics ./tracing"
go run ./cmd/presslint ./metrics ./tracing

# The linter holds itself and its driver to the same bar it holds the
# runtime packages to.
echo "==> presslint self-lint ./lint ./cmd/..."
go run ./cmd/presslint ./lint ./cmd/...

# Static half of the 0-alloc proofs: every //presslint:hotpath root
# (the VIA Post* send path, the tracing-off path, the overload-off
# path) must be provably within budget across the whole call graph.
# The dynamic half is the benchmark gates below (ViaSendMetrics,
# ServeTracingOff, OverloadOff), which also justify the
# //presslint:alloc-gated exemptions the static pass accepts.
echo "==> presslint -analyzer hotpath-alloc,lock-order,atomic-consistency ./..."
go run ./cmd/presslint -analyzer hotpath-alloc,lock-order,atomic-consistency ./...

# The membership seam runs real processes: mesh handshakes over
# loopback sockets, the Close-vs-redial race, and the multi-process
# smoke — three node processes, one killed -9 mid-run and restarted,
# availability and rejoin convergence asserted. Hard timeout so a
# wedged child cannot park the gate.
echo "==> go test -race membership suite"
go test -race -count=1 -run 'TestMesh|TestJoinInfo|TestLeaveCodec' ./server
echo "==> go test -race multi-process smoke (procsmoke)"
go test -race -count=1 -timeout 240s -run 'TestProcSmoke' ./server/procharness

# Fuzz smoke over the wire format: ten seconds of mutation on the
# Message encode/decode round-trip catches framing regressions the
# table tests miss, and the same treatment for the membership
# handshake payload.
echo "==> fuzz smoke (FuzzMessageRoundTrip)"
go test -run '^$' -fuzz 'FuzzMessageRoundTrip' -fuzztime 10s ./server
echo "==> fuzz smoke (FuzzJoinInfo)"
go test -run '^$' -fuzz 'FuzzJoinInfo' -fuzztime 10s ./server

# Benchmarks are part of the observability surface (the registry and
# tracer on/off overhead proofs live there); make sure they still build,
# the via send pair still runs, and disabled tracing stays free: the
# ServeTracingOff benchmark must report 0 allocs/op.
echo "==> benchmark smoke"
go test -run '^$' -bench '^$' ./...
go test -run '^$' -bench BenchmarkViaSendMetrics -benchtime 1x .
out=$(go test -run '^$' -bench BenchmarkServeTracing -benchtime 1000x -benchmem .)
echo "$out"
if ! echo "$out" | grep 'ServeTracingOff' | grep -q '	 *0 allocs/op'; then
    echo "check: BenchmarkServeTracingOff allocates; disabled tracing must be free" >&2
    exit 1
fi

# Same proof for overload control: with Overload disabled the hot-path
# gates (admission, deadline, brownout checks) must stay allocation-free.
out=$(go test -run '^$' -bench BenchmarkOverloadOff -benchtime 1000x -benchmem ./server)
echo "$out"
if ! echo "$out" | grep 'OverloadOff' | grep -q '	 *0 allocs/op'; then
    echo "check: BenchmarkOverloadOff allocates; disabled overload control must be free" >&2
    exit 1
fi

# And for the telemetry plane: servers always call plane.Event at the
# fault-tolerance call sites, so with no plane wired (nil receiver) the
# hot path must stay allocation-free. The static half is the
# //presslint:hotpath annotation on Event, checked above.
out=$(go test -run '^$' -bench BenchmarkSamplerOff -benchtime 1000x -benchmem ./telemetry)
echo "$out"
if ! echo "$out" | grep 'SamplerOff' | grep -q '	 *0 allocs/op'; then
    echo "check: BenchmarkSamplerOff allocates; a disabled telemetry plane must be free" >&2
    exit 1
fi

# And for hot-object replication: the rate hook runs on every serve, so
# with Replication disabled (the default) it must stay allocation-free.
out=$(go test -run '^$' -bench BenchmarkReplicationOff -benchtime 1000x -benchmem ./server)
echo "$out"
if ! echo "$out" | grep 'ReplicationOff' | grep -q '	 *0 allocs/op'; then
    echo "check: BenchmarkReplicationOff allocates; disabled replication must be free" >&2
    exit 1
fi

echo "check: all gates passed"
