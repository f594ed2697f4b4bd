package live

import (
	"bufio"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"

	"psclock/internal/clock"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/ta"
)

// serverRig is a started 3-node register runtime behind a Server, with
// the online monitor attached.
type serverRig struct {
	rt  *Runtime
	srv *Server
	mon *register.Monitor
}

func startServerRig(t *testing.T, regs int) *serverRig {
	t.Helper()
	eps := 100 * us
	p, bounds := liveParams(eps, 2*ms)
	mon := register.NewMonitor()
	mon.AddCheck("live", linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        checkWiden(eps),
		AssumeUnique: true,
	})
	rt, err := New(Options{N: 3, Registers: regs, Bounds: bounds, Ell: ellBudget, Clocks: clock.SpreadFactory(eps)},
		register.Factory(register.NewS, p))
	if err != nil {
		t.Fatal(err)
	}
	mon.SetKeyFunc(func(port ta.NodeID) string { return strconv.Itoa(int(port) / 3) })
	rt.AddSink(mon)
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	return &serverRig{rt: rt, srv: srv, mon: mon}
}

// stop shuts the rig down and fails the test on a dropped event, a
// broken alternation condition or a linearizability violation. want is
// the number of operations the monitor must have seen complete.
func (r *serverRig) stop(t *testing.T, want int) {
	t.Helper()
	r.srv.Close()
	m := r.rt.Stop()
	if m.RecorderDrops != 0 {
		t.Errorf("recorder dropped %d events", m.RecorderDrops)
	}
	if err := r.mon.Err(); err != nil {
		t.Fatal(err)
	}
	if v := r.mon.Verdict("live"); !v.OK {
		t.Fatalf("online linearizability violated: %s", v.Reason)
	}
	if got := r.mon.Reads.N + r.mon.Writes.N; got != want {
		t.Fatalf("monitor completed %d ops, want %d", got, want)
	}
}

// wireClient is a raw client connection speaking the server's varint
// protocol.
type wireClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialServer(t *testing.T, addr string) *wireClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// send writes every request in one Write, pipelined.
func (c *wireClient) send(reqs ...wireReq) {
	c.t.Helper()
	var buf []byte
	for _, r := range reqs {
		buf = appendWireReq(buf, r)
	}
	if _, err := c.conn.Write(buf); err != nil {
		c.t.Fatal(err)
	}
}

func (c *wireClient) recv() wireResp {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second * raceScale))
	r, err := readWireResp(c.br)
	if err != nil {
		c.t.Fatalf("reading response: %v", err)
	}
	return r
}

func readReq(id uint64, reg int) wireReq { return wireReq{ID: id, Reg: reg, Op: register.ActRead} }

func writeReq(id uint64, reg int, v register.Value) wireReq {
	return wireReq{ID: id, Reg: reg, Op: register.ActWrite, Val: v}
}

// TestServerPipelinedPort pipelines a burst of reads and writes to one
// port over one connection: the node admits them one at a time, so every
// request is answered once, in request order, with the right kind, and
// the monitor sees no alternation violation.
func TestServerPipelinedPort(t *testing.T) {
	rig := startServerRig(t, 2)
	c := dialServer(t, rig.srv.Addrs()[0])
	const n = 48
	reqs := make([]wireReq, n)
	for i := range reqs {
		if i%4 == 1 {
			reqs[i] = writeReq(uint64(100+i), 1, register.Value{Writer: 0, Seq: i})
		} else {
			reqs[i] = readReq(uint64(100+i), 1)
		}
	}
	c.send(reqs...)
	var last register.Value = register.Initial
	for i, req := range reqs {
		r := c.recv()
		if r.ID != req.ID {
			t.Fatalf("response %d has ID %d, want %d (one port answers in admission order)", i, r.ID, req.ID)
		}
		switch {
		case req.Op == register.ActWrite && r.Op != register.ActAck:
			t.Fatalf("write %d answered with %s", req.ID, r.Op)
		case req.Op == register.ActRead && (r.Op != register.ActReturn || r.Val != last):
			t.Fatalf("read %d answered %s %v, want RETURN %v (the port's previous write)", req.ID, r.Op, r.Val, last)
		}
		if req.Op == register.ActWrite {
			last = req.Val
		}
	}
	rig.stop(t, n)
}

// TestServerInvokeSharesPort runs a direct InvokeReg — the fleet's
// amnesia-repair write — on a port a client is also using. The node
// admits both through one queue: the client is answered with its own
// operation's response, never the direct write's, and the two never
// overlap at the port.
func TestServerInvokeSharesPort(t *testing.T) {
	rig := startServerRig(t, 1)
	c := dialServer(t, rig.srv.Addrs()[0])

	// The direct write reaches the node's inbox before the client's read
	// does, so the read queues behind it and must return its value.
	direct := register.Value{Writer: 0, Seq: 1000}
	if err := rig.rt.InvokeReg(0, 0, register.ActWrite, direct); err != nil {
		t.Fatal(err)
	}
	c.send(readReq(1, 0))
	if r := c.recv(); r.ID != 1 || r.Op != register.ActReturn || r.Val != direct {
		t.Fatalf("read got %+v, want ID 1 RETURN %v", r, direct)
	}

	// A client write in flight or queued while a direct write races it:
	// whichever is admitted first, the client gets its ACK and then a read
	// of one of the two values.
	mine := register.Value{Writer: 0, Seq: 1}
	c.send(writeReq(2, 0, mine), readReq(3, 0))
	other := register.Value{Writer: 0, Seq: 1001}
	if err := rig.rt.InvokeReg(0, 0, register.ActWrite, other); err != nil {
		t.Fatal(err)
	}
	if r := c.recv(); r.ID != 2 || r.Op != register.ActAck {
		t.Fatalf("write got %+v, want ID 2 ACK", r)
	}
	if r := c.recv(); r.ID != 3 || r.Op != register.ActReturn || (r.Val != mine && r.Val != other) {
		t.Fatalf("read got %+v, want ID 3 RETURN %v or %v", r, mine, other)
	}
	// The second direct write is answered before the runtime stops: a
	// final client read queues behind it.
	c.send(readReq(4, 0))
	if r := c.recv(); r.ID != 4 || r.Op != register.ActReturn {
		t.Fatalf("read got %+v, want ID 4 RETURN", r)
	}
	rig.stop(t, 6)
}

// TestServerConnBackpressure pipelines past the per-connection in-flight
// bound without reading: the connection's reader must block at the bound
// while another connection's operations on the same node still complete,
// and every request is answered once the client reads.
func TestServerConnBackpressure(t *testing.T) {
	rig := startServerRig(t, 2)
	a := dialServer(t, rig.srv.Addrs()[0])
	const n = connInFlight + 64
	reqs := make([]wireReq, n)
	for i := range reqs {
		reqs[i] = readReq(uint64(i), 0)
	}
	a.send(reqs...)

	// Wait for the reader to fill every slot: requests are answered one
	// read at a time, far slower than the reader submits them.
	deadline := time.Now().Add(5 * time.Second * raceScale)
	for !rig.srv.connAtBound() {
		if time.Now().After(deadline) {
			t.Fatal("connection reader never reached the in-flight bound")
		}
		time.Sleep(time.Millisecond)
	}

	// Another client on the same node, on the other register, runs a
	// closed loop while the first is held at its bound.
	b := dialServer(t, rig.srv.Addrs()[0])
	const bOps = 12
	for i := 0; i < bOps; i++ {
		req := readReq(uint64(i), 1)
		if i%3 == 0 {
			req = writeReq(uint64(i), 1, register.Value{Writer: 0, Seq: i})
		}
		b.send(req)
		if r := b.recv(); r.ID != req.ID {
			t.Fatalf("second client got ID %d, want %d", r.ID, req.ID)
		}
	}
	if !rig.srv.connAtBound() {
		t.Fatal("first connection left its bound while its client was not reading")
	}

	for i := 0; i < n; i++ {
		if r := a.recv(); r.ID != uint64(i) || r.Op != register.ActReturn {
			t.Fatalf("response %d: got %+v", i, r)
		}
	}
	rig.stop(t, n+bOps)
}

// connAtBound reports whether some connection holds every in-flight slot.
func (s *Server) connAtBound() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if len(c.slots) == cap(c.slots) {
			return true
		}
	}
	return false
}

// settledGoroutines waits for the goroutine count to hold still — earlier
// tests' connections and timers wind down asynchronously — and returns it.
func settledGoroutines() int {
	prev, stable := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && stable < 5; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			stable++
		} else {
			prev, stable = cur, 0
		}
	}
	return prev
}

// TestServerSetupFlatInRegisters pins the set-up cost of serving R
// registers: the goroutines a started runtime and server add, and the
// recorder rings, do not depend on R, and there is exactly one ring per
// hosted node. Port admission lives in the node loops; a per-register
// worker, queue or ring would show here.
func TestServerSetupFlatInRegisters(t *testing.T) {
	p, bounds := liveParams(100*us, 2*ms)
	setup := func(regs int, local []int) (goroutines, rings int) {
		rt, err := New(Options{N: 3, Registers: regs, Bounds: bounds, Local: local}, register.Factory(register.NewS, p))
		if err != nil {
			t.Fatal(err)
		}
		before := settledGoroutines()
		srv, err := NewServer(rt)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		srv.Start()
		goroutines = settledGoroutines() - before
		rings = len(rt.rec.rings)
		srv.Close()
		rt.Stop()
		return goroutines, rings
	}
	for _, local := range [][]int{nil, {1}} {
		hosted := 3
		if local != nil {
			hosted = len(local)
		}
		g1, r1 := setup(1, local)
		g64, r64 := setup(64, local)
		if g1 != g64 {
			t.Errorf("local=%v: started stack adds %d goroutines at 1 register, %d at 64", local, g1, g64)
		}
		if r1 != hosted || r64 != hosted {
			t.Errorf("local=%v: %d recorder rings at 1 register, %d at 64, want one per hosted node (%d)", local, r1, r64, hosted)
		}
	}
}
