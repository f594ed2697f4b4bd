package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"psclock/internal/linearize"
	"psclock/internal/register"
)

func TestPercentileKnownInput(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.50, 50}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	// Dense windows each report their own maximum, 10·i; the median of
	// those is 10·(phaseWindows−1)/2. Sparse windows merge into one.
	var dense, sparse [phaseWindows][]float64
	for i := range dense {
		for j := 0; j < minTailSamples; j++ {
			dense[i] = append(dense[i], 0)
		}
		dense[i][0] = 10 * float64(i)
		sparse[i] = []float64{10 * float64(i)}
	}
	if got, want := windowed(dense, 1), 10*float64(phaseWindows-1)/2; got != want {
		t.Errorf("windowed max over dense windows = %v, want the median of the windows' maxima, %v", got, want)
	}
	if got, want := windowed(sparse, 1), 10*float64(phaseWindows-1); got != want {
		t.Errorf("windowed max over sparse windows = %v, want the whole phase's maximum, %v", got, want)
	}
}

func TestSearchSyntheticOracle(t *testing.T) {
	const lo, hi = -30, 40
	for answer := lo; answer <= hi; answer++ {
		probes := 0
		got, ok, err := search(lo, hi, func(r int) (bool, error) {
			if r < lo || r > hi {
				t.Fatalf("answer %d: probed rung %d outside [%d, %d]", answer, r, lo, hi)
			}
			probes++
			return r <= answer, nil
		})
		if err != nil || !ok || got != answer {
			t.Fatalf("answer %d: search = %d, %v, %v", answer, got, ok, err)
		}
		if probes > 16 {
			t.Errorf("answer %d: %d probes", answer, probes)
		}
	}
	if _, ok, _ := search(lo, hi, func(int) (bool, error) { return false, nil }); ok {
		t.Errorf("search reported a passing rung where none passes")
	}
}

func TestReadResp(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = append(b, 'A')
	b = binary.AppendUvarint(b, 7)
	b = append(b, 'R')
	b = binary.AppendVarint(b, -1) // the initial value's writer
	b = binary.AppendVarint(b, 0)
	br := bufio.NewReader(bytes.NewReader(b))
	for _, want := range []struct {
		id   uint64
		kind byte
	}{{300, 'A'}, {7, 'R'}} {
		id, kind, err := readResp(br)
		if err != nil || id != want.id || kind != want.kind {
			t.Fatalf("readResp = %d %q %v, want %d %q", id, kind, err, want.id, want.kind)
		}
	}
	if _, _, err := readResp(bufio.NewReader(bytes.NewReader([]byte{1, 'X'}))); err == nil {
		t.Fatalf("readResp accepted an unknown op byte")
	}
}

// TestClientAgainstServer plays a short script of reads and writes
// against an in-process cluster, untraced and traced: every op is
// answered with the response kind its request asks for, under its own id,
// and the monitor — and, traced, the layer taps — count the same
// completions and frames as the client and the runtime.
func TestClientAgainstServer(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(t *testing.T) {
			testClientAgainstServer(t, traced)
		})
	}
}

func testClientAgainstServer(t *testing.T, traced bool) {
	w := workload{Name: "test", Live: true, Registers: 4, WriteRatio: 0.5, ZipfS: 1.1, Rate: 400, LimitMS: 50}
	c, err := startCluster(w, 3, traced)
	if err != nil {
		t.Fatal(err)
	}
	var clients []*connClient
	done := make(chan struct{})
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < clientConn; i++ {
		cl := &connClient{node: i, ops: makeScript(9, i, w.Rate/float64(clientConn), 300*time.Millisecond, w.Registers, w.ZipfS, w.WriteRatio)}
		clients = append(clients, cl)
		go func(cl *connClient, conn int) {
			cl.run(c.conns[conn], c.epoch, start, 5*time.Second)
			done <- struct{}{}
		}(cl, i)
	}
	for range clients {
		<-done
	}
	m, verdict, err := c.stop()
	if err != nil {
		t.Fatal(err)
	}
	total, writes := 0, 0
	for _, cl := range clients {
		if cl.err != nil {
			t.Fatalf("client for node %d: %v", cl.node, cl.err)
		}
		for i, r := range cl.recs {
			if r.recv == 0 || r.recv < r.sent || r.sent < r.sched {
				t.Fatalf("node %d op %d: sched %d sent %d recv %d", cl.node, i, r.sched, r.sent, r.recv)
			}
			if cl.ops[i].write {
				writes++
			}
		}
		total += len(cl.ops)
	}
	if total < 50 || writes == 0 || writes == total {
		t.Fatalf("script too thin to exercise both kinds: %d ops, %d writes", total, writes)
	}
	if !verdict.OK {
		t.Fatalf("verdict: %s", verdict.Reason)
	}
	if got := c.mon.Reads.N + c.mon.Writes.N; got != total || c.mon.Writes.N != writes {
		t.Fatalf("monitor saw %d ops (%d writes), client completed %d (%d writes)", got, c.mon.Writes.N, total, writes)
	}
	if traced {
		if got := c.tap.sink.done; got != int64(total) {
			t.Fatalf("sink tap saw %d ops complete, client %d", got, total)
		}
		if got := int(c.tap.framesSent.Load()); got != m.Messages || got != 3*writes {
			t.Fatalf("transport tap counted %d frames, runtime %d, 3 per write %d", got, m.Messages, 3*writes)
		}
		for port, pt := range c.tap.ports {
			if len(pt.input) != len(pt.output) {
				t.Fatalf("port %d: node tap saw %d inputs, %d outputs", port, len(pt.input), len(pt.output))
			}
		}
	}
}

func TestScriptIsSeeded(t *testing.T) {
	a := makeScript(5, 1, 1000, time.Second, 64, 1.1, 0.1)
	b := makeScript(5, 1, 1000, time.Second, 64, 1.1, 0.1)
	c := makeScript(6, 1, 1000, time.Second, 64, 1.1, 0.1)
	if len(a) != len(b) || len(a) < 800 || len(a) > 1200 {
		t.Fatalf("script lengths %d, %d for 1000 ops/s over 1s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Fatalf("different seeds gave the same script")
	}
}

// TestLoadSpec reads the repository's BENCHMARK.json as the program does:
// every workload it declares has a configuration, with the declared
// reason, and every per-layer metric a layer.
func TestLoadSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		w, ok := spec.workload(sw.Name)
		if !ok || w.Why == "" || w.Why != sw.Why {
			t.Errorf("workload %q: config found %v, why %q", sw.Name, ok, w.Why)
		}
	}
	if _, ok := spec.workload("no-such-workload"); ok {
		t.Errorf("an undeclared workload was found")
	}
	if got := layerOf("transport.frames_per_op"); got != "transport" {
		t.Errorf("layerOf(transport.frames_per_op) = %q", got)
	}
	if got := layerOf("read_p99_ms"); got != serviceLayer {
		t.Errorf("layerOf(read_p99_ms) = %q, want %q", got, serviceLayer)
	}
}

// TestProtocolErrorFailsProbe answers the client with responses that
// break the wire protocol — the wrong kind, an id never sent — and checks
// that each is reported as a protocolError that fails a capacity probe,
// while an op left unanswered is only a timeout.
func TestProtocolErrorFailsProbe(t *testing.T) {
	for _, c := range []struct {
		name     string
		answer   func(id uint64) []byte // nil: never answer
		protocol bool
	}{
		{"wrong kind", func(id uint64) []byte { return append(binary.AppendUvarint(nil, id), 'A') }, true},
		{"id never sent", func(id uint64) []byte { return append(binary.AppendUvarint(nil, id+1000), 'A') }, true},
		{"unanswered", nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				if conn, err := ln.Accept(); err == nil {
					fakeServer(conn, c.answer)
				}
			}()
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			cl := &connClient{ops: makeScript(1, 0, 1000, 50*time.Millisecond, 1, 0, 0)}
			now := time.Now()
			cl.run(client, now, now, 100*time.Millisecond)
			client.Close()
			<-served
			var perr *protocolError
			if cl.err == nil || errors.As(cl.err, &perr) != c.protocol {
				t.Fatalf("client error %v: protocol error %v, want %v", cl.err, errors.As(cl.err, &perr), c.protocol)
			}
			// Everything else about the phase passes, so only the client's
			// error can fail it.
			p := &phase{rate: 1000, err: cl.err, verdict: linearize.Result{OK: true}, c: &cluster{mon: register.NewMonitor()}}
			if _, err := judge(p); errors.As(err, &perr) != c.protocol {
				t.Fatalf("judge returned %v for a probe whose client saw %v", err, cl.err)
			}
		})
	}
}

// fakeServer reads read requests until the connection closes and answers
// each with answer(id), or not at all when answer is nil.
func fakeServer(conn net.Conn, answer func(id uint64) []byte) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		if _, err := binary.ReadUvarint(br); err != nil {
			return
		}
		if _, err := br.ReadByte(); err != nil {
			return
		}
		if answer != nil {
			if _, err := conn.Write(answer(id)); err != nil {
				return
			}
		}
	}
}
