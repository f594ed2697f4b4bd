package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"time"

	"psclock/internal/clock"
	"psclock/internal/core"
	"psclock/internal/exec"
	"psclock/internal/linearize"
	"psclock/internal/live"
	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// sim converts a wall duration to simulated time; the constants used here
// are all far inside its range.
func sim(d time.Duration) simtime.Duration { return simtime.Duration(d.Nanoseconds()) }

// registerParams are algorithm S^c's constants: d'2 = d2 + 2ε, the delay
// bound the clock-model transformation hands the timed algorithm.
func registerParams() register.Params {
	return register.Params{C: sim(cWall), Delta: sim(deltaWall), D2: sim(d2Wall) + 2*sim(epsWall), Epsilon: sim(epsWall)}
}

// liveCheckOptions are pscserve's gating-check options: windows widened by
// ε plus scheduling slack, a fail-fast state budget, and a yield so the
// checker cannot monopolise the cores the nodes share.
func liveCheckOptions() linearize.Options {
	return linearize.Options{
		Initial:      register.Initial.String(),
		Widen:        sim(epsWall) + sim(slackWall),
		AssumeUnique: true,
		MaxStates:    maxStates,
		Yield:        runtime.Gosched,
	}
}

// cluster is one in-process register stack: 3 nodes over loopback TCP,
// the register server, and the online monitor feeding a sharded checker,
// built only through the packages' public constructors.
type cluster struct {
	rt    *live.Runtime
	srv   *live.Server
	mon   *register.Monitor
	tap   *tap
	epoch time.Time
	conns []net.Conn
}

// startCluster builds and starts a cluster for w and dials the client
// connections. traced inserts the layer taps.
func startCluster(w workload, seed int64, traced bool) (*cluster, error) {
	tcp, err := live.NewTCPTransport(nodes)
	if err != nil {
		return nil, err
	}
	c := &cluster{epoch: time.Now()}
	var tr live.Transport = tcp
	if traced {
		c.tap = newTap(c.epoch, nodes, w.Registers)
		tr = &tapTransport{inner: tcp, t: c.tap, d2: int64(d2Wall)}
	}
	rt, err := live.New(live.Options{
		N:         nodes,
		Registers: w.Registers,
		Bounds:    simtime.NewInterval(0, sim(d2Wall)),
		Ell:       sim(ellWall),
		Clocks:    clock.DriftFactory(sim(epsWall), seed),
		Transport: tr,
		Epoch:     c.epoch,
	}, register.Factory(register.NewS, registerParams()))
	if err != nil {
		tcp.Close()
		return nil, err
	}
	c.rt = rt
	if traced {
		f := register.Factory(register.NewS, registerParams())
		rt.SetRegisterFactory(func(reg int) core.AlgorithmFactory { return c.tap.algorithm(reg, f) })
	}
	chk := linearize.NewSharded(linearize.ShardedOptions{Check: liveCheckOptions(), Shards: runtime.GOMAXPROCS(0)})
	c.mon = register.NewMonitor()
	var checker linearize.Checker = chk
	var sink exec.Sink = c.mon
	if traced {
		c.tap.check = &tapChecker{inner: chk}
		checker = c.tap.check
		c.tap.sink = newTapSink(c.mon, c.tap.now, c.tap.nextID)
		sink = c.tap.sink
	}
	c.mon.AddChecker("live", checker)
	c.mon.SetKeyFunc(func(port ta.NodeID) string { return "r" + strconv.Itoa(int(port)/nodes) })
	rt.AddSink(sink)
	if c.srv, err = live.NewServer(rt); err != nil {
		c.mon.Finish()
		tcp.Close()
		return nil, err
	}
	if err := rt.Start(); err != nil {
		c.srv.Close()
		c.mon.Finish()
		tcp.Close()
		return nil, err
	}
	c.srv.Start()
	addrs := c.srv.Addrs()
	for i := 0; i < clientConn; i++ {
		conn, err := net.Dial("tcp", addrs[i])
		if err != nil {
			_, _, _ = c.stop()
			return nil, fmt.Errorf("dial node %d: %w", i, err)
		}
		c.conns = append(c.conns, conn)
	}
	return c, nil
}

// stop tears the cluster down in the shipped order (clients, server,
// runtime) and returns the runtime's measurements and the verdict.
func (c *cluster) stop() (live.Measured, linearize.Result, error) {
	var errs []error
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	c.srv.Close()
	m := c.rt.Stop()
	v := c.mon.Verdict("live")
	if err := c.mon.Err(); err != nil {
		errs = append(errs, fmt.Errorf("monitor: %w", err))
	}
	return m, v, errors.Join(errs...)
}
