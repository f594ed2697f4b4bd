package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"psclock/internal/linearize"
	"psclock/internal/live"
)

// phase is one open-loop run of a fresh cluster at a fixed offered rate.
type phase struct {
	w       workload
	rate    float64
	clients []*connClient
	c       *cluster

	m       live.Measured
	verdict linearize.Result
	err     error // client, teardown or monitor failure

	// cpuWin is the process CPU spent during each window, and opsWin the
	// ops scheduled in it; the last window also carries the drain and the
	// final verdict.
	cpuWin   [phaseWindows]time.Duration
	opsWin   [phaseWindows]int
	goD      goDelta // from the first op to the verdict
	heapMB   float64
	verified time.Duration // first scheduled op → verdict in hand

	attempted, completed int
	lat, readLat, wLat   []float64 // ms from the scheduled instant
	late                 []float64 // ms the generator ran behind schedule
	capBound             int
	// The same latencies split by when each op was scheduled into
	// phaseWindows equal windows.
	latWin, readWin, wWin [phaseWindows][]float64
}

// phaseWindows is how many equal windows a phase's latencies are split
// into. A tail percentile is reported as the median of the windows' own
// percentiles, so one stall of the shared host — a GC pause, a stolen
// time slice — moves one window, not the figure.
const phaseWindows = 9

// minTailSamples is the sample count a window needs for its p99 to have
// ten samples beyond it.
const minTailSamples = 1000

// windowed returns the median over windows of each window's q-quantile.
// Adjacent windows merge until each holds minTailSamples (down to one
// window for the whole phase), so a sparse op kind is not judged on a
// handful of samples.
func windowed(wins [phaseWindows][]float64, q float64) float64 {
	n := 0
	for _, w := range wins {
		n += len(w)
	}
	groups := min(max(n/minTailSamples, 1), phaseWindows)
	var xs []float64
	for g := 0; g < groups; g++ {
		var merged []float64
		for i := g * phaseWindows / groups; i < (g+1)*phaseWindows/groups; i++ {
			merged = append(merged, wins[i]...)
		}
		if len(merged) > 0 {
			xs = append(xs, percentile(merged, q))
		}
	}
	return median(xs)
}

// probeGrace bounds how long a phase waits for its in-flight tail.
const probeGrace = 3 * time.Second

// runPhase builds a cluster, plays every connection's script at rate for
// dur, tears the cluster down and collects what the client saw.
func runPhase(w workload, seed, scriptSeed int64, rate float64, dur time.Duration, traced bool) (*phase, error) {
	p := &phase{w: w, rate: rate}
	for i := 0; i < clientConn; i++ {
		p.clients = append(p.clients, &connClient{
			node: i,
			ops:  makeScript(scriptSeed, i, rate/float64(clientConn), dur, w.Registers, w.ZipfS, w.WriteRatio),
		})
	}
	c, err := startCluster(w, seed, traced)
	if err != nil {
		return nil, err
	}
	p.c = c
	heap := startHeapPeak()
	g0 := readGo()
	// A short lead lets every connection start on its schedule.
	start := time.Now().Add(2 * time.Millisecond)
	// Process CPU at each inner window boundary; buffered for all of them.
	marks := make(chan time.Duration, phaseWindows)
	stopMarks := make(chan struct{})
	go func() {
		defer close(marks)
		for k := 1; k < phaseWindows; k++ {
			select {
			case <-time.After(time.Until(start.Add(dur * time.Duration(k) / phaseWindows))):
				marks <- cpuTime()
			case <-stopMarks:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i, cl := range p.clients {
		wg.Add(1)
		go func(cl *connClient, conn int) {
			defer wg.Done()
			cl.run(c.conns[conn], c.epoch, start, probeGrace)
		}(cl, i)
	}
	wg.Wait()
	close(stopMarks)
	var stopErr error
	p.m, p.verdict, stopErr = c.stop()
	p.verified = time.Since(start)
	g1 := readGo()
	last, k := g0.cpu, 0
	for m := range marks {
		p.cpuWin[k], last, k = m-last, m, k+1
	}
	p.cpuWin[k] = g1.cpu - last
	p.heapMB = heap.done()
	p.goD = g0.to(g1)

	var errs []error
	for _, cl := range p.clients {
		if cl.err != nil {
			errs = append(errs, cl.err)
		}
		p.capBound += cl.capBound
		for i, r := range cl.recs {
			p.attempted++
			if r.sent != 0 {
				p.late = append(p.late, float64(r.sent-r.sched)/1e6)
			}
			if r.recv == 0 {
				continue
			}
			p.completed++
			ms := float64(r.recv-r.sched) / 1e6
			win := min(int(cl.ops[i].at*phaseWindows/dur), phaseWindows-1)
			p.opsWin[win]++
			p.lat = append(p.lat, ms)
			p.latWin[win] = append(p.latWin[win], ms)
			if cl.ops[i].write {
				p.wLat = append(p.wLat, ms)
				p.wWin[win] = append(p.wWin[win], ms)
			} else {
				p.readLat = append(p.readLat, ms)
				p.readWin[win] = append(p.readWin[win], ms)
			}
		}
	}
	p.err = errors.Join(append(errs, stopErr)...)
	return p, nil
}

// budgetExhausted reports whether the verdict failed only because the
// checker ran out of its state budget (a capacity signal, not a bug).
func (p *phase) budgetExhausted() bool {
	return !p.verdict.OK && strings.Contains(p.verdict.Reason, "state budget")
}

// monitorOps is the number of ops the monitor saw complete.
func (p *phase) monitorOps() int { return p.c.mon.Reads.N + p.c.mon.Writes.N }

// checkFixed applies the fixed phase's output checks and counter
// cross-checks; any failure fails the run.
func (p *phase) checkFixed() []string {
	var bad []string
	if p.err != nil {
		bad = append(bad, fmt.Sprintf("client or teardown error: %v", p.err))
	}
	if !p.verdict.OK {
		bad = append(bad, "verdict: "+p.verdict.Reason)
	}
	if p.m.RecorderDrops != 0 {
		bad = append(bad, fmt.Sprintf("%d recorder drops", p.m.RecorderDrops))
	}
	if p.m.Eps > sim(epsWall) {
		bad = append(bad, fmt.Sprintf("measured ε̂ %v exceeds ε %v", p.m.Eps, sim(epsWall)))
	}
	if p.completed != p.attempted {
		bad = append(bad, fmt.Sprintf("%d of %d ops unanswered", p.attempted-p.completed, p.attempted))
	}
	if p.capBound != 0 {
		bad = append(bad, fmt.Sprintf("in-flight cap bound %d times at the fixed rate", p.capBound))
	}
	if got := p.monitorOps(); got != p.completed {
		bad = append(bad, fmt.Sprintf("monitor saw %d ops complete, client completed %d", got, p.completed))
	}
	if t := p.c.tap; t != nil {
		if t.sink.done != int64(p.completed) {
			bad = append(bad, fmt.Sprintf("sink saw %d ops complete, client completed %d", t.sink.done, p.completed))
		}
		if got := int(t.framesSent.Load()); got != p.m.Messages {
			bad = append(bad, fmt.Sprintf("transport tap counted %d frames, runtime %d", got, p.m.Messages))
		}
		if lo, hi := int(t.pastLo.Load()), int(t.pastHi.Load()); p.m.DelayViolations < lo || p.m.DelayViolations > hi {
			bad = append(bad, fmt.Sprintf("transport tap saw %d..%d frames past d2, runtime %d", lo, hi, p.m.DelayViolations))
		}
	}
	return bad
}

// probe is one capacity-search probe's outcome.
type probe struct {
	rate            float64
	ok, inModel     bool
	budget          bool
	leftModel       bool // failed verification after frames past d2
	p99ms           float64
	pastD2, missing int
}

// judge turns a phase into a probe outcome. A probe passes when it
// verifies, completes what was offered and keeps its all-op p99 within
// the latency limit; it is in-model when it also has no frame past d2 and
// ε̂ ≤ ε. A checker failure fails the probe when it is explained: the
// state budget ran out, or a frame arrived past d2, where S^c's guarantee
// no longer holds. Any other violation is a failure of the run.
func judge(p *phase) (probe, error) {
	pr := probe{rate: p.rate, budget: p.budgetExhausted(), pastD2: p.m.DelayViolations, missing: p.attempted - p.completed}
	// A response the client never asked for is a server defect, not a
	// shortfall of capacity; ops left unanswered when the drain grace runs
	// out only count as missing.
	var perr *protocolError
	if errors.As(p.err, &perr) {
		return pr, fmt.Errorf("capacity probe at %.0f ops/s: %w", p.rate, perr)
	}
	if !p.verdict.OK && !pr.budget {
		if pr.pastD2 == 0 {
			return pr, fmt.Errorf("capacity probe at %.0f ops/s: checker violation with every frame within d2: %s", p.rate, p.verdict.Reason)
		}
		pr.leftModel = true
	}
	if p.c.mon.Err() != nil {
		return pr, fmt.Errorf("capacity probe at %.0f ops/s: %v", p.rate, p.c.mon.Err())
	}
	if p.m.RecorderDrops != 0 {
		return pr, fmt.Errorf("capacity probe at %.0f ops/s: %d recorder drops", p.rate, p.m.RecorderDrops)
	}
	pr.p99ms = windowed(p.latWin, 0.99)
	pr.ok = p.verdict.OK && pr.missing == 0 && p.capBound == 0 && pr.p99ms <= p.w.LimitMS
	pr.inModel = pr.ok && pr.pastD2 == 0 && p.m.Eps <= sim(epsWall)
	return pr, nil
}

// rungGrowth spaces the capacity search's rate grid: rung k offers
// fixed rate × rungGrowth^k.
const rungGrowth = 1.07

// searchStep is how many rungs the search strides before bisecting: 6
// rungs is ×1.5, so no probe lands more than half again past the answer,
// where a backlog takes long to drain and tells nothing new.
const searchStep = 6

// search finds the highest rung in [lo, hi] at which pass holds, assuming
// pass is monotone (true up to the answer, false beyond). It strides from
// rung 0 until the outcome flips, then bisects. ok is false when no rung
// down to lo passes.
func search(lo, hi int, pass func(rung int) (bool, error)) (rung int, ok bool, err error) {
	p0, err := pass(0)
	if err != nil {
		return 0, false, err
	}
	good, bad := 0, 0
	if p0 {
		bad = hi + 1
		for good < hi {
			r := min(good+searchStep, hi)
			v, err := pass(r)
			if err != nil {
				return 0, false, err
			}
			if !v {
				bad = r
				break
			}
			good = r
		}
	} else {
		good = lo - 1
		for bad > lo {
			r := max(bad-searchStep, lo)
			v, err := pass(r)
			if err != nil {
				return 0, false, err
			}
			if v {
				good = r
				break
			}
			bad = r
		}
		if good < lo {
			return 0, false, nil
		}
	}
	for bad-good > 1 {
		mid := good + (bad-good)/2
		v, err := pass(mid)
		if err != nil {
			return 0, false, err
		}
		if v {
			good = mid
		} else {
			bad = mid
		}
	}
	return good, true, nil
}

// capacity is the outcome of the searches.
type capacity struct {
	rate, inModel float64
	probes        []probe
	budget        int
}

// Rung ranges of the searches. The in-model search looks no further down
// than a quarter of the fixed rate below it: an in-model capacity that
// low reads as 0, no rate found.
const (
	rungLo, rungHi = -30, 40
	inModelLo      = -12
)

// searchCapacity runs the capacity search and then the in-model search
// over the same grid, reusing every probe both need. fixed is the fixed
// phase, which serves as rung 0.
func searchCapacity(w workload, seed int64, fixed probe, probeDur time.Duration) (capacity, error) {
	var cp capacity
	cache := map[int]probe{0: fixed}
	once := func(rung, try int) (probe, error) {
		rate := w.Rate * math.Pow(rungGrowth, float64(rung))
		p, err := runPhase(w, seed, seed*1009+int64(rung)*7+int64(try)+500, rate, probeDur, false)
		if err != nil {
			return probe{}, err
		}
		pr, err := judge(p)
		if err != nil {
			return pr, err
		}
		if pr.budget {
			cp.budget++
		}
		cp.probes = append(cp.probes, pr)
		return pr, nil
	}
	// A rung that fails is probed once more with a fresh script, and the
	// better outcome stands: a stall of the shared host fails one probe
	// by chance, while a rate past capacity fails both.
	run := func(rung int) (probe, error) {
		if pr, ok := cache[rung]; ok {
			return pr, nil
		}
		pr, err := once(rung, 0)
		if err == nil && !pr.ok {
			var again probe
			if again, err = once(rung, 1); err == nil {
				pr.ok = again.ok
				pr.inModel = again.inModel
			}
		}
		if err != nil {
			return pr, err
		}
		cache[rung] = pr
		return pr, nil
	}
	r, ok, err := search(rungLo, rungHi, func(rung int) (bool, error) { pr, err := run(rung); return pr.ok, err })
	if err != nil {
		return cp, err
	}
	if !ok {
		return cp, fmt.Errorf("no probed rate down to %.0f ops/s met the %.0f ms limit", w.Rate*math.Pow(rungGrowth, rungLo), w.LimitMS)
	}
	cp.rate = w.Rate * math.Pow(rungGrowth, float64(r))
	r, ok, err = search(inModelLo, r, func(rung int) (bool, error) { pr, err := run(rung); return pr.inModel, err })
	if err != nil {
		return cp, err
	}
	if ok {
		cp.inModel = w.Rate * math.Pow(rungGrowth, float64(r))
	}
	return cp, nil
}
