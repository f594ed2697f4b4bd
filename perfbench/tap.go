package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"psclock/internal/core"
	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// The traced run measures each layer from outside, by wrapping interfaces
// the stack already accepts: live.Transport (transport layer),
// core.AlgorithmFactory and core.Context (node layer, and the server's
// hand-off instants), exec.Sink (recorder output and the checker's sink
// cost) and linearize.Checker (the checker's command stream, replayed
// alone afterwards). Every boundary crossing becomes a span kept in
// memory and written out when the run ends.

// spanKind names a span's boundary.
type spanKind uint8

const (
	spanOp        spanKind = iota + 1 // client: scheduled instant → response received
	spanIngress                       // client send → algorithm OnInput
	spanEgress                        // ctx.Output → client receive
	spanCbStart                       // algorithm callbacks, one kind per entry point
	spanCbInput                       //
	spanCbMessage                     //
	spanCbTimer                       //
	spanOutput                        // ctx.Output inside a callback (recorder + server dispatch)
	spanSend                          // Transport.Send inside a callback
	spanDeliver                       // transport delivery callback into the runtime
	spanObserve                       // exec.Sink Observe (monitor + checker hand-off)
	spanFlush                         // exec.Sink Flush (checker Advance)
	spanRun                           // simulated executor Run slice
)

var spanNames = map[spanKind]string{
	spanOp: "op", spanIngress: "server.ingress", spanEgress: "server.egress",
	spanCbStart: "node.start", spanCbInput: "node.input", spanCbMessage: "node.message", spanCbTimer: "node.timer",
	spanOutput: "node.output", spanSend: "transport.send", spanDeliver: "transport.deliver",
	spanObserve: "check.observe", spanFlush: "check.flush", spanRun: "exec.run",
}

// span is one recorded interval. Times are nanoseconds since the cluster
// epoch (live) or since the process trace base (simulation). op is
// port<<32 | the op's sequence number at its port — unique because §6.1
// admits one op at a time per port — and 0 when the span serves no single
// op. arg carries the span's measured quantity: self time for callbacks,
// link delay for deliveries, event lag for observes, watermark lag for
// flushes.
type span struct {
	kind       spanKind
	start, end int64
	id, parent uint64
	op         uint64
	arg        int64
}

func (s span) dur() int64 { return s.end - s.start }

func opID(port int, seq uint32) uint64 { return uint64(port)<<32 | uint64(seq) }

// spanLog is one producer's span buffer.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// tap holds every wrapper's measurements for one traced cluster.
type tap struct {
	epoch  time.Time
	nodes  int
	ids    atomic.Uint64
	nodeTs []*nodeTap
	ports  []*portTap
	links  []*spanLog // per ordered node pair: deliveries
	sink   *tapSink
	check  *tapChecker
	misc   spanLog // spans assembled after the phase (client side)

	framesSent atomic.Int64
	// A delivery's delay is read once before the runtime's own reading
	// (pastLo counts those past d2) and once after (pastHi), so the
	// runtime's count must fall between the two.
	pastLo, pastHi atomic.Int64
}

// nodeTap is one node goroutine's state: its span log and the callback
// in progress, whose children (sends, outputs) it subtracts for self time.
type nodeTap struct {
	log   spanLog
	cur   uint64
	child int64
}

// portTap records, per op sequence number at one port, when the algorithm
// saw the invocation and when it produced the response.
type portTap struct {
	input, output []int64
}

func newTap(epoch time.Time, nodes, regs int) *tap {
	t := &tap{epoch: epoch, nodes: nodes}
	for i := 0; i < nodes; i++ {
		t.nodeTs = append(t.nodeTs, &nodeTap{})
	}
	for i := 0; i < nodes*regs; i++ {
		t.ports = append(t.ports, &portTap{})
	}
	for i := 0; i < nodes*nodes; i++ {
		t.links = append(t.links, &spanLog{})
	}
	return t
}

func (t *tap) now() int64     { return int64(time.Since(t.epoch)) }
func (t *tap) nextID() uint64 { return t.ids.Add(1) }

// --- transport ---

type tapTransport struct {
	inner live.Transport
	t     *tap
	d2    int64
}

func (x *tapTransport) Start(deliver func(live.Frame)) error {
	return x.inner.Start(func(f live.Frame) {
		t0 := x.t.now()
		deliver(f)
		t1 := x.t.now()
		if t0-int64(f.SentReal) > x.d2 {
			x.t.pastLo.Add(1)
		}
		if t1-int64(f.SentReal) > x.d2 {
			x.t.pastHi.Add(1)
		}
		l := x.t.links[int(f.From)*x.t.nodes+int(f.To)]
		l.add(span{kind: spanDeliver, start: t0, end: t1, id: x.t.nextID(), arg: t0 - int64(f.SentReal)})
	})
}

// Send runs on the sending node's goroutine, inside one of its callbacks.
func (x *tapTransport) Send(f live.Frame) error {
	nt := x.t.nodeTs[f.From]
	t0 := x.t.now()
	err := x.inner.Send(f)
	t1 := x.t.now()
	x.t.framesSent.Add(1)
	nt.child += t1 - t0
	nt.log.add(span{kind: spanSend, start: t0, end: t1, id: x.t.nextID(), parent: nt.cur})
	return err
}

func (x *tapTransport) Close() error { return x.inner.Close() }
func (x *tapTransport) Name() string { return x.inner.Name() }

// Reconnects forwards the TCP transport's optional counter so the
// runtime's report is unchanged by the wrapper.
func (x *tapTransport) Reconnects() int64 {
	if r, ok := x.inner.(interface{ Reconnects() int64 }); ok {
		return r.Reconnects()
	}
	return 0
}

// --- node: algorithm and context ---

// algorithm wraps the factory for register instance reg.
func (t *tap) algorithm(reg int, f core.AlgorithmFactory) core.AlgorithmFactory {
	return func(id ta.NodeID, n int) core.Algorithm {
		port := reg*n + int(id)
		a := &tapAlg{inner: f(id, n), t: t, nt: t.nodeTs[id], pt: t.ports[port], port: port}
		a.ctx.a = a
		return a
	}
}

type tapAlg struct {
	inner core.Algorithm
	t     *tap
	nt    *nodeTap
	pt    *portTap
	port  int
	seq   uint32 // invocations seen at this port
	ctx   tapCtx
}

type tapCtx struct {
	core.Context
	a  *tapAlg
	op uint64 // the op this callback answered, if it produced a response
}

func (a *tapAlg) begin(ctx core.Context) (uint64, int64) {
	id := a.t.nextID()
	a.nt.cur, a.nt.child = id, 0
	a.ctx.Context, a.ctx.op = ctx, 0
	return id, a.t.now()
}

func (a *tapAlg) end(kind spanKind, id uint64, start int64) {
	end := a.t.now()
	a.nt.log.add(span{kind: kind, start: start, end: end, id: id, op: a.ctx.op, arg: end - start - a.nt.child})
	a.nt.cur = 0
}

func (a *tapAlg) Start(ctx core.Context) {
	id, s := a.begin(ctx)
	a.inner.Start(&a.ctx)
	a.end(spanCbStart, id, s)
}

func (a *tapAlg) OnInput(ctx core.Context, name string, payload any) {
	id, s := a.begin(ctx)
	a.seq++
	a.pt.input = append(a.pt.input, s)
	a.ctx.op = opID(a.port, a.seq)
	a.inner.OnInput(&a.ctx, name, payload)
	a.end(spanCbInput, id, s)
}

func (a *tapAlg) OnMessage(ctx core.Context, from ta.NodeID, body any) {
	id, s := a.begin(ctx)
	a.inner.OnMessage(&a.ctx, from, body)
	a.end(spanCbMessage, id, s)
}

func (a *tapAlg) OnTimer(ctx core.Context, key any) {
	id, s := a.begin(ctx)
	a.inner.OnTimer(&a.ctx, key)
	a.end(spanCbTimer, id, s)
}

// Output answers the port's outstanding op: the response leaves the node
// here, through the recorder and the server's dispatch.
func (c *tapCtx) Output(name string, payload any) {
	a := c.a
	t0 := a.t.now()
	a.pt.output = append(a.pt.output, t0)
	c.op = opID(a.port, a.seq)
	c.Context.Output(name, payload)
	t1 := a.t.now()
	a.nt.child += t1 - t0
	a.nt.log.add(span{kind: spanOutput, start: t0, end: t1, id: a.t.nextID(), parent: a.nt.cur, op: c.op})
}

// --- recorder output and checker sink cost ---

// tapSink wraps the monitor the recorder feeds. It runs on the recorder's
// single consumer goroutine (or the executor's, in simulation).
type tapSink struct {
	inner  exec.Sink
	now    func() int64
	nextID func() uint64
	log    spanLog
	events int64
	done   int64 // responses observed: ops the sink saw complete
	busy   int64
	outSeq map[ta.NodeID]uint32
	// perEvent records one span per observed event (live); the simulation
	// streams millions of events and keeps only the aggregate.
	perEvent bool
	// simNow, when set, measures watermark lag in simulated time (the
	// executor's clock) instead of against the wall.
	simNow func() simtime.Time
}

func newTapSink(inner exec.Sink, now func() int64, nextID func() uint64) *tapSink {
	return &tapSink{inner: inner, now: now, nextID: nextID, outSeq: make(map[ta.NodeID]uint32), perEvent: true}
}

func (s *tapSink) Observe(e ta.Event) {
	t0 := s.now()
	var op uint64
	a := e.Action
	if a.Kind == ta.KindOutput && (a.Name == register.ActReturn || a.Name == register.ActAck) {
		s.done++
		s.outSeq[a.Node]++
		op = opID(int(a.Node), s.outSeq[a.Node])
	}
	s.inner.Observe(e)
	t1 := s.now()
	s.events++
	s.busy += t1 - t0
	if s.perEvent {
		s.log.add(span{kind: spanObserve, start: t0, end: t1, id: s.nextID(), op: op, arg: t0 - int64(e.At)})
	}
}

func (s *tapSink) Flush(bound simtime.Time) {
	t0 := s.now()
	lag := t0 - int64(bound)
	if s.simNow != nil {
		lag = int64(s.simNow().Sub(bound))
	}
	s.inner.Flush(bound)
	t1 := s.now()
	s.busy += t1 - t0
	s.log.add(span{kind: spanFlush, start: t0, end: t1, id: s.nextID(), arg: lag})
}

// tapChecker captures the checker's command stream on its way in, so the
// checker can be replayed alone afterwards with the same inputs.
type tapChecker struct {
	inner linearize.Checker
	rec   linearize.Recorder
}

func (c *tapChecker) Begin(key string, node ta.NodeID, inv simtime.Time) {
	c.rec.Begin(key, node, inv)
	c.inner.Begin(key, node, inv)
}

func (c *tapChecker) Add(key string, op linearize.Op) {
	c.rec.Add(key, op)
	c.inner.Add(key, op)
}

func (c *tapChecker) Advance(w simtime.Time) {
	c.rec.Advance(w)
	c.inner.Advance(w)
}

func (c *tapChecker) Finish() linearize.Result { return c.inner.Finish() }

// --- writing spans out ---

// allSpans gathers every log (after the run: every producer has stopped).
func (t *tap) allSpans() []span {
	var out []span
	for _, nt := range t.nodeTs {
		out = append(out, nt.log.spans...)
	}
	for _, l := range t.links {
		out = append(out, l.spans...)
	}
	if t.sink != nil {
		out = append(out, t.sink.log.spans...)
	}
	return append(out, t.misc.spans...)
}

// spanDir is where traced runs write their spans, inside the checkout's
// build directory.
const spanDir = ".bench_build/spans"

// writeSpans writes spans as gzipped JSON lines to spanDir/name.jsonl.gz.
func writeSpans(name string, spans []span) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(spanDir, name+".jsonl.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type rec struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
		Op     uint64 `json:"op,omitempty"`
		Arg    int64  `json:"arg_ns,omitempty"`
	}
	for _, s := range spans {
		if err := enc.Encode(rec{spanNames[s.kind], s.start, s.end, s.id, s.parent, s.op, s.arg}); err != nil {
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
