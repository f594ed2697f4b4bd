package live

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psclock/internal/exec"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// recorder serializes the runtime's observable events into the exec.Sink
// contract. The simulator gets the contract's ordering for free from its
// single dispatch loop; here events originate on every hosted node's
// goroutine — each node loop records both the invocations it admits and
// the responses its algorithms emit — and at 10^4+ ops/s a single
// mutex-guarded queue would serialize every node through one cache line.
// Instead each node loop owns a lock-free SPSC ring (power-of-two,
// free-running head/tail counters, the linearize.Sharded hand-off idiom)
// and a single consumer goroutine merges the rings into one stream in
// canonical stamp order. An invocation is recorded at admission, on the
// same ring as its response, so the two can never be observed out of
// order.
//
// The merge is made sound by a per-ring stamp floor: before reading the
// clock for an event's stamp, the producer publishes a "busy" flag
// carrying its previous stamp; the actual stamp replaces the floor before
// the push and the flag clears after it. The consumer computes a safe
// bound as min(consumer's own clock reading, every busy ring's floor) and
// emits only events stamped at or before the bound: an idle-at-read ring
// can only produce future stamps at or after the consumer's reading
// (sequentially-consistent atomics order the producer's later clock read
// after the consumer's), and a busy ring's in-flight stamp is at least
// its floor. Within the bound, events merge by (stamp, kind, ring,
// arrival), which keeps each ring FIFO and places an invocation before a
// response on the (never observed in practice) equal-stamp tie. At is
// therefore non-decreasing and Seq strictly increasing across the merged
// stream, exactly the Sink contract, and the bound doubles as the
// low-watermark Flush hands the online checkers.
//
// Overflow policy: a full ring parks its producer until the consumer
// drains — backpressure, never silent loss (the documented policy; see
// TestRecorderBackpressure). The only discarded events are ones recorded
// after flush() has been called, which the shutdown sequence rules out
// for well-behaved callers; each is counted in drops so a report can
// assert drops == 0.
//
// Stamps are real elapsed time at the recorder, not node clock readings:
// linearizability is a real-time property, and the external observer of
// the §6.1 conditions sees invocations and responses when they cross the
// runtime's boundary. Clock imprecision and timer service latency shift
// those crossings by at most ε + ℓ, which is exactly the window
// relaxation (linearize.Options.Widen) the monitoring configuration
// grants.
type recorder struct {
	epoch time.Time
	sinks []exec.Sink

	mu      sync.Mutex // guards ring registration before start
	rings   []*eventRing
	started bool

	closed atomic.Bool
	drops  atomic.Int64

	wake chan struct{}
	done chan struct{}

	seq int // consumer-owned
}

// flushEvery is roughly how many events pass between low-watermark
// flushes: often enough to keep the online checkers' windows bounded,
// rarely enough to stay off the hot path.
const flushEvery = 128

// nodeRingDepth is the backpressure margin before a node loop parks
// behind a stalled consumer, and it is sized for the checker, not the
// producer: on a single-core host a verification burst can stall the
// consumer for tens of milliseconds, and a parked node loop misses timer
// deadlines — turning checker lag into measured delay violations. A node
// loop carries its node's whole invocation and response rate, so its ring
// covers roughly a second of it. There is one ring per hosted node, never
// per register: the rings are live, pointer-bearing heap that every GC
// cycle rescans.
const nodeRingDepth = 1 << 13

func newRecorder() *recorder {
	return &recorder{
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// producer registers a new producer ring. All producers must be
// registered before start (Runtime.Start registers one per node loop
// before starting the consumer).
func (r *recorder) producer(depth int) *producer {
	rg := newEventRing(depth)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		panic("live: recorder producer registered after start")
	}
	r.rings = append(r.rings, rg)
	return &producer{rec: r, ring: rg}
}

// start anchors the epoch, freezes the producer set, and launches the
// merge consumer.
func (r *recorder) start(epoch time.Time, sinks []exec.Sink) {
	r.mu.Lock()
	r.epoch = epoch
	r.sinks = sinks
	r.started = true
	r.mu.Unlock()
	go r.run()
}

// signal wakes the consumer if it is parked.
func (r *recorder) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// flush stops the consumer and waits for it to drain every recorded event
// and advance the sinks' low-watermark. Producers must have quiesced
// (node loops joined, server closed) before the call; events recorded
// afterwards are counted as drops and discarded. Called once at shutdown.
func (r *recorder) flush() {
	if r.closed.Swap(true) {
		<-r.done
		return
	}
	r.signal()
	<-r.done
}

// producer is one registered event source: a single goroutine stamping
// and pushing events onto its own ring. The per-producer monotone clamp
// plus the merge bound give the global stream its ordering.
type producer struct {
	rec  *recorder
	ring *eventRing
	last simtime.Time
}

// record stamps a with real elapsed time and enqueues it. Single
// goroutine per producer; see recorder for the floor protocol.
func (p *producer) record(a ta.Action, src string) {
	r := p.rec
	if r.closed.Load() {
		r.drops.Add(1)
		return
	}
	rg := p.ring
	// Announce "busy" with the previous stamp as the floor BEFORE reading
	// the clock: the consumer either sees the flag (and bounds the merge
	// at the floor) or read its own clock before ours (making its bound
	// safe for the stamp we are about to take).
	rg.state.Store(int64(p.last)<<1 | 1)
	at, err := simtime.TimeFromWall(time.Since(r.epoch))
	if err != nil || at < p.last {
		at = p.last
	}
	p.last = at
	rg.state.Store(int64(at)<<1 | 1)
	rg.push(recEvent{a: a, src: src, at: at})
	rg.state.Store(int64(at) << 1)
	r.signal()
}

// recEvent is one ring entry; Seq is assigned by the consumer at emit.
type recEvent struct {
	a   ta.Action
	at  simtime.Time
	src string
}

// mergeEvent is a consumer-side batch entry; ring and idx make the sort
// stable per ring and deterministic across rings on (never observed)
// stamp ties.
type mergeEvent struct {
	ev   recEvent
	ring int
	idx  int
}

// run is the merge consumer: it alone touches the sinks.
func (r *recorder) run() {
	defer close(r.done)
	var batch []mergeEvent
	var lastAt simtime.Time
	var lastFlushed simtime.Time
	sinceFlush := 0
	// idleFlushQuantum paces watermark-only flushes on a quiet stream: a
	// fleet daemon forwards Flush bounds to the control plane as its merge
	// watermark, and without idle flushes a node that stops producing
	// (quiesced load, partitioned link) would stall the plane's k-way
	// merge behind its last event.
	const idleFlushQuantum = simtime.Millisecond
	// One reusable idle timer, stopped and drained before every Reset
	// like node.loop's: under live load the consumer idles about once per
	// event, and a fresh time.After each pass is a timer and a channel.
	idle := time.NewTimer(time.Hour)
	idle.Stop()
	for {
		// Consumer clock first, then the per-ring states: any producer
		// observed idle after this reading can only stamp at or after it.
		bound := simtime.Time(1<<63 - 1)
		if now, err := simtime.TimeFromWall(time.Since(r.epoch)); err == nil {
			bound = now
		}
		final := r.closed.Load()
		if final {
			// Producers have quiesced: everything still ringed is the
			// tail of the stream; merge it all.
			bound = simtime.Time(1<<63 - 1)
		}
		// The bound must be final before ANY ring is drained: a busy ring's
		// floor constrains what is safe to emit from every other ring, not
		// just the ones scanned after it.
		if !final {
			for _, rg := range r.rings {
				if st := rg.state.Load(); st&1 == 1 {
					if floor := simtime.Time(st >> 1); floor < bound {
						bound = floor
					}
				}
			}
		}
		batch = batch[:0]
		for ri, rg := range r.rings {
			for i := 0; ; i++ {
				ev, ok := rg.peek()
				if !ok || ev.at > bound {
					break
				}
				rg.pop()
				batch = append(batch, mergeEvent{ev: ev, ring: ri, idx: i})
			}
		}
		if len(batch) > 0 {
			sort.Slice(batch, func(i, j int) bool {
				a, b := &batch[i], &batch[j]
				if a.ev.at != b.ev.at {
					return a.ev.at < b.ev.at
				}
				if ka, kb := kindRank(a.ev.a.Kind), kindRank(b.ev.a.Kind); ka != kb {
					return ka < kb
				}
				if a.ring != b.ring {
					return a.ring < b.ring
				}
				return a.idx < b.idx
			})
			for i := range batch {
				e := ta.Event{Action: batch[i].ev.a, At: batch[i].ev.at, Src: batch[i].ev.src, Seq: r.seq}
				r.seq++
				lastAt = e.At
				for _, s := range r.sinks {
					s.Observe(e)
				}
			}
			sinceFlush += len(batch)
			if sinceFlush >= flushEvery && !final {
				sinceFlush = 0
				// bound is a true low-watermark: every emitted event was
				// ≤ bound and every future stamp is ≥ bound.
				for _, s := range r.sinks {
					s.Flush(bound)
				}
				if bound > lastFlushed {
					lastFlushed = bound
				}
			}
			if !final {
				continue
			}
		}
		if final {
			// Final watermark: the stream has ended; no event with an
			// earlier stamp can follow.
			for _, s := range r.sinks {
				s.Flush(lastAt)
			}
			return
		}
		if r.pending() {
			// Heads exist but are stamped past the bound (pushed after
			// our clock read) or a producer is mid-record; the next pass
			// reads a later clock. Yield rather than spin.
			time.Sleep(20 * time.Microsecond)
			continue
		}
		// Idle flush: the stream is quiet but time has passed, so advance
		// the sinks' watermark anyway. bound can sit BELOW lastFlushed
		// here (a busy producer's old floor), so the monotone guard is
		// essential — a watermark must never retreat.
		if bound > lastFlushed && bound.Sub(lastFlushed) >= idleFlushQuantum {
			for _, s := range r.sinks {
				s.Flush(bound)
			}
			lastFlushed = bound
		}
		idle.Reset(5 * time.Millisecond)
		select {
		case <-r.wake:
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
		case <-idle.C:
			// Periodic re-check so a missed wake can only stall the
			// merge briefly, never forever.
		}
	}
}

// pending reports whether any ring holds an unconsumed event.
func (r *recorder) pending() bool {
	for _, rg := range r.rings {
		if _, ok := rg.peek(); ok {
			return true
		}
	}
	return false
}

// kindRank orders equal-stamp events so an operation's invocation can
// never be observed after its response: inputs, then everything else,
// then outputs. Stamps are nanosecond monotonic readings separated by at
// least a scheduler hand-off, so ties are theoretical — the rank exists
// to make the theoretical case harmless.
func kindRank(k ta.Kind) int {
	switch k {
	case ta.KindInput:
		return 0
	case ta.KindOutput:
		return 2
	default:
		return 1
	}
}

// eventRing is a bounded single-producer single-consumer queue of
// recorded events: a power-of-two ring indexed by free-running atomic
// head/tail counters (two atomic loads and a store per side on the
// uncontended fast path, as in linearize's spscRing). When the ring runs
// full the producer parks on the condition variable and the consumer
// broadcasts after popping — backpressure, never loss. state carries the
// producer's stamp floor for the merge bound: (stamp << 1) | busy.
type eventRing struct {
	buf  []recEvent
	mask uint64

	head  atomic.Uint64 // next slot to pop (consumer-owned)
	tail  atomic.Uint64 // next slot to push (producer-owned)
	state atomic.Int64  // (last-or-current stamp << 1) | mid-record flag

	mu       sync.Mutex
	cond     *sync.Cond
	prodPark atomic.Bool // producer is parked (full ring)
}

func newEventRing(capacity int) *eventRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	rg := &eventRing{buf: make([]recEvent, n), mask: uint64(n - 1)}
	rg.cond = sync.NewCond(&rg.mu)
	return rg
}

// push appends e, parking while the ring is full. Producer-side only.
func (rg *eventRing) push(e recEvent) {
	for {
		t := rg.tail.Load()
		if t-rg.head.Load() < uint64(len(rg.buf)) {
			rg.buf[t&rg.mask] = e
			rg.tail.Store(t + 1)
			return
		}
		rg.mu.Lock()
		rg.prodPark.Store(true)
		for rg.tail.Load()-rg.head.Load() == uint64(len(rg.buf)) {
			rg.cond.Wait()
		}
		rg.prodPark.Store(false)
		rg.mu.Unlock()
	}
}

// peek returns the oldest event without consuming it. Consumer-side only.
func (rg *eventRing) peek() (recEvent, bool) {
	h := rg.head.Load()
	if rg.tail.Load() == h {
		return recEvent{}, false
	}
	return rg.buf[h&rg.mask], true
}

// pop consumes the oldest event (after a successful peek) and unparks a
// full-ring producer. Consumer-side only.
func (rg *eventRing) pop() {
	rg.head.Store(rg.head.Load() + 1)
	if rg.prodPark.Load() {
		rg.mu.Lock()
		rg.cond.Broadcast()
		rg.mu.Unlock()
	}
}
