package main

import (
	"fmt"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/linearize"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
	simload "psclock/internal/workload"
)

// simCheckOptions check plain linearizability with no widening: in the
// simulated clock model Theorem 6.5 promises it exactly. The state budget
// counts every state of a key's whole history, and sim-verify streams one
// long single-register history, so the budget is the streaming runs' own
// (pscbench -stream), not pscserve's fail-fast one.
func simCheckOptions() linearize.Options {
	return linearize.Options{Initial: register.Initial.String(), AssumeUnique: true, MaxStates: 1 << 30}
}

// boundSink checks every simulated op against Theorem 6.5's costs. The
// costs are clock time at the op's node (a read waits 2ε+δ+c, a write
// d2+2ε−c on the node's clock), so each op's invocation and response
// instants are read on a replica of that node's clock model, built from
// the same seed. It also keeps each op's real-time latency.
type boundSink struct {
	clocks         []clock.Model
	readMax, wrMax simtime.Duration
	inv            []simtime.Time
	open           []bool
	read           []bool
	readLat, wrLat []float64 // ms of simulated real time
	done           int
	last           simtime.Time // the last response
	violation      string
	busy           int64
	timed          bool
	base           time.Time
}

func newBoundSink(seed int64, timed bool) *boundSink {
	f := clock.DriftFactory(sim(epsWall), seed)
	s := &boundSink{
		readMax: 2*sim(epsWall) + sim(deltaWall) + sim(cWall),
		wrMax:   sim(d2Wall) + 2*sim(epsWall) - sim(cWall),
		inv:     make([]simtime.Time, nodes),
		open:    make([]bool, nodes),
		read:    make([]bool, nodes),
		timed:   timed,
		base:    time.Now(),
	}
	for i := 0; i < nodes; i++ {
		s.clocks = append(s.clocks, f(i))
	}
	return s
}

func (s *boundSink) Observe(e ta.Event) {
	var t0 time.Duration
	if s.timed {
		t0 = time.Since(s.base)
	}
	a := e.Action
	n := int(a.Node)
	if a.Kind == ta.KindInput && (a.Name == register.ActRead || a.Name == register.ActWrite) {
		s.inv[n], s.open[n], s.read[n] = e.At, true, a.Name == register.ActRead
	} else if a.Kind == ta.KindOutput && (a.Name == register.ActReturn || a.Name == register.ActAck) && s.open[n] {
		s.open[n] = false
		s.done++
		s.last = e.At
		c := s.clocks[n]
		onClock := c.At(e.At).Sub(c.At(s.inv[n]))
		ms := float64(e.At.Sub(s.inv[n])) / 1e6
		limit := s.wrMax
		if s.read[n] {
			limit = s.readMax
			s.readLat = append(s.readLat, ms)
		} else {
			s.wrLat = append(s.wrLat, ms)
		}
		// The clock model inverts readings in whole nanoseconds, so a timer
		// set for reading c fires at the first instant reading at least c:
		// one nanosecond past c at most.
		if onClock > limit+simtime.Nanosecond && s.violation == "" {
			s.violation = fmt.Sprintf("event %d: op at node %d took %v on its clock, bound %v", e.Seq, n, onClock, limit)
		}
	}
	if s.timed {
		s.busy += int64(time.Since(s.base) - t0)
	}
}

func (s *boundSink) Flush(simtime.Time) {}

// simRep is one full sim-verify pipeline run.
type simRep struct {
	ops      int
	events   int64
	states   int
	wall     time.Duration // executor Run time, sinks included
	cpu      time.Duration
	heapMB   float64
	goD      goDelta
	sinkBusy int64 // monitor + checker, traced reps only
	bound    *boundSink
	cmds     []linearize.Cmd
	spans    []span
}

// buildSim assembles the simulated stack: S^c in the clock model with
// drifting clocks, one closed-loop client per node.
func buildSim(w workload, seed int64) (*core.Net, []*simload.Client, int) {
	perClient := (w.SimOps + nodes - 1) / nodes
	net := core.BuildClocked(core.Config{
		N:      nodes,
		Bounds: simtime.NewInterval(0, sim(d2Wall)),
		Seed:   seed,
		Clocks: clock.DriftFactory(sim(epsWall), seed),
	}, register.Factory(register.NewS, registerParams()))
	net.Sys.KeepTrace = false
	clients := simload.Attach(net, simload.Config{
		Ops:        perClient,
		Think:      simtime.NewInterval(0, sim(time.Millisecond)),
		WriteRatio: w.WriteRatio,
		Seed:       seed,
		Stagger:    sim(300 * time.Microsecond),
	})
	return net, clients, perClient
}

// simSetup builds the simulated stack (system, clients, monitor) times
// times and returns the process CPU time, in seconds, each build took on a
// cold heap.
func simSetup(w workload, seed int64, times int) []float64 {
	var xs []float64
	for i := 0; i < times; i++ {
		var mon *register.Monitor
		cpu := coldCPU(func() {
			net, _, _ := buildSim(w, seed)
			mon = register.NewMonitor()
			mon.AddCheck("lin", simCheckOptions())
			net.Sys.AddSink(mon)
		})
		xs = append(xs, cpu.Seconds())
		mon.Finish()
	}
	return xs
}

// runSim streams one rep's ops through the online monitor.
func runSim(w workload, seed int64, traced bool) (*simRep, error) {
	net, clients, perClient := buildSim(w, seed)
	rep := &simRep{bound: newBoundSink(seed, traced)}
	mon := register.NewMonitor()
	var tc *tapChecker
	var ts *tapSink
	base := time.Now()
	var ids uint64
	nextID := func() uint64 { ids++; return ids }
	if traced {
		tc = &tapChecker{inner: linearize.NewSharded(linearize.ShardedOptions{Check: simCheckOptions()})}
		mon.AddChecker("lin", tc)
		ts = newTapSink(mon, func() int64 { return int64(time.Since(base)) }, nextID)
		ts.perEvent = false
		ts.simNow = net.Sys.Now
		net.Sys.AddSink(rep.bound)
		net.Sys.AddSink(ts)
	} else {
		mon.AddCheck("lin", simCheckOptions())
		net.Sys.AddSink(rep.bound)
		net.Sys.AddSink(mon)
	}
	allDone := func() bool {
		for _, c := range clients {
			if c.Done != perClient {
				return false
			}
		}
		return true
	}
	// An op takes at most think (1 ms) plus a write's d2+2ε−c, so 10 ms
	// per op bounds the horizon generously. Slicing the run is what
	// advances the sinks' low-watermark, letting the checker discard
	// settled operations.
	horizon := simtime.Time(simtime.Duration(perClient)*10*simtime.Millisecond + simtime.Second)
	slice := 50 * simtime.Millisecond
	heap := startHeapPeak()
	g0 := readGo()
	start := time.Now()
	for net.Sys.Now() < horizon && !allDone() {
		r0 := time.Now()
		if err := net.Sys.Run(net.Sys.Now().Add(slice)); err != nil {
			mon.Finish()
			heap.done()
			return nil, err
		}
		if traced {
			rep.spans = append(rep.spans, span{kind: spanRun, start: int64(r0.Sub(base)), end: int64(time.Since(base)), id: nextID()})
		}
	}
	if _, err := net.Sys.RunQuiet(net.Sys.Now().Add(slice)); err != nil {
		mon.Finish()
		heap.done()
		return nil, err
	}
	rep.wall = time.Since(start)
	verdict := mon.Verdict("lin")
	g1 := readGo()
	rep.heapMB = heap.done()
	rep.goD = g0.to(g1)
	rep.cpu = rep.goD.cpu
	for _, c := range clients {
		rep.ops += c.Done
	}
	if err := mon.Err(); err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	if !verdict.OK {
		return nil, fmt.Errorf("simulated history not linearizable: %s", verdict.Reason)
	}
	if !allDone() {
		return nil, fmt.Errorf("simulation completed %d of %d ops within its horizon", rep.ops, nodes*perClient)
	}
	if rep.bound.violation != "" {
		return nil, fmt.Errorf("Theorem 6.5 cost exceeded: %s", rep.bound.violation)
	}
	if rep.bound.done != rep.ops {
		return nil, fmt.Errorf("sink saw %d ops complete, clients completed %d", rep.bound.done, rep.ops)
	}
	if got := mon.Reads.N + mon.Writes.N; got != rep.ops {
		return nil, fmt.Errorf("monitor saw %d ops complete, clients completed %d", got, rep.ops)
	}
	rep.states = verdict.States
	if traced {
		rep.events = ts.events
		rep.sinkBusy = ts.busy
		rep.cmds = tc.rec.Cmds
		rep.spans = append(rep.spans, ts.log.spans...)
	}
	return rep, nil
}
